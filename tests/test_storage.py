import csv
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fewatom.detect import Calibration
from fewatom.markov import KIND_DELTA, KIND_LOAD, EventLog, RateModel, simulate
from fewatom.storage import (_CHUNK_ROWS, atomic_write_text,
                             read_detected_csv, read_event_csv, read_trace_csv,
                             write_detected_csv, write_event_csv,
                             write_table_csv, write_trace_csv)
from fewatom.trace import FluorescenceTrace, synthesize


def test_event_roundtrip_exact(tmp_path):
    model = RateModel(load_rate=0.14, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, n0=1, duration=3000.0, seed=5)
    path = tmp_path / "events.csv"
    write_event_csv(log, path)
    back = read_event_csv(path)
    np.testing.assert_array_equal(back.times, log.times)  # repr round-trip
    np.testing.assert_array_equal(back.kinds, log.kinds)
    np.testing.assert_array_equal(back.n_before, log.n_before)
    assert back.n0 == log.n0
    assert back.duration == log.duration
    assert back.seed == log.seed
    back.validate()


def test_trace_roundtrip_exact(tmp_path):
    model = RateModel(load_rate=0.14, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=200.0, seed=6)
    tr = synthesize(log, per_atom_rate=8000.0, bg_rate=400.0, bin_width=0.05,
                    seed=7)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, path)
    back = read_trace_csv(path)
    np.testing.assert_array_equal(back.counts, tr.counts)
    assert back.bin_width == tr.bin_width
    assert back.per_atom_rate == tr.per_atom_rate
    assert back.bg_rate == tr.bg_rate
    assert back.seed == tr.seed


def test_write_table_csv(tmp_path):
    path = tmp_path / "table.csv"
    cols = {"n": np.arange(4), "rate": np.array([0.1, 0.2, 0.3, 0.4])}
    write_table_csv(path, cols, header={"kind": "demo", "w": 0.1})
    text = path.read_text()
    assert text.startswith("#")
    assert "kind=demo" in text
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["n", "rate"]
    got = np.array([[float(a), float(b)] for a, b in rows[1:]])
    np.testing.assert_array_equal(got[:, 0], cols["n"])
    np.testing.assert_allclose(got[:, 1], cols["rate"])


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, ["first"])
    atomic_write_text(path, ["sec", "ond"])
    assert path.read_text() == "second"
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664),
                                         (0o077, 0o600)],
                         ids=["umask022", "umask002", "umask077"])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", ["x"])
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


_EVENT_HEADER = "# n0=0\n# duration_s=10.0\n# seed=1\ntime_s,kind,n_before,n_after\n"


@pytest.mark.parametrize("rows, message", [
    # decreasing times
    ("2.0,0,0,1\n1.0,0,1,2\n", "strictly increasing"),
    # second event does not start where the first ended
    ("1.0,0,0,1\n2.0,1,3,2\n", "not self-consistent"),
])
def test_read_event_csv_validates_log(tmp_path, rows, message):
    path = tmp_path / "events.csv"
    path.write_text(_EVENT_HEADER + rows)
    with pytest.raises(ValueError, match=message) as info:
        read_event_csv(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("row", [
    "2.0,0,1,3",  # n_after is not n_before + 1 for a load
    "2.0,7,1,2",  # no such kind
    "2.0,0,abc,2",  # not a number
    "2.0,0,1",  # missing column
])
def test_read_event_csv_names_bad_row(tmp_path, row):
    path = tmp_path / "events.csv"
    path.write_text(_EVENT_HEADER + "1.0,0,0,1\n\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        read_event_csv(path)
    assert f"{path}, line 7" in str(info.value)


def test_read_event_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,kind,n_before,n_after\n1.0,0,0,1\n")
    with pytest.raises(ValueError):
        read_event_csv(path)


def test_read_trace_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("counts\n10\n12\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


_TRACE_HEADER = ("# bin_width_s=0.1\n# per_atom_rate_hz=10000.0\n"
                 "# bg_rate_hz=500.0\n# seed=1\ncounts\n")


@pytest.mark.parametrize("row", [
    "abc",  # not a number
    "12,3",  # extra column
    "-4",  # negative count
])
def test_read_trace_csv_names_bad_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + "510\n\n" + row + "\n505\n")
    with pytest.raises(ValueError) as info:
        read_trace_csv(path)
    assert f"{path}, line 8" in str(info.value)


@st.composite
def _event_logs(draw) -> EventLog:
    """A valid log: increasing times in (0, duration], kinds that never take
    the atom number below zero."""
    times = sorted(set(draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, exclude_min=True), max_size=40))))
    n = n0 = draw(st.integers(0, 4))
    kinds, n_before = [], []
    for kind in draw(st.lists(st.integers(0, len(KIND_DELTA) - 1),
                              min_size=len(times), max_size=len(times))):
        if n + KIND_DELTA[kind] < 0:
            kind = KIND_LOAD
        kinds.append(kind)
        n_before.append(n)
        n += KIND_DELTA[kind]
    duration = draw(st.floats(min_value=times[-1] if times else 1e-3,
                              max_value=1e7))
    return EventLog(times=np.array(times, dtype=np.float64),
                    kinds=np.array(kinds, dtype=np.int8),
                    n_before=np.array(n_before, dtype=np.int64), n0=n0,
                    duration=duration, seed=draw(st.integers(0, 2**64 - 1)))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=_event_logs(),
       bin_width=st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
       cal=st.builds(Calibration, per_atom_rate=_FINITE, bg_rate=_FINITE,
                     per_atom_err=_FINITE, bg_err=_FINITE,
                     n_levels=st.integers(0, 10_000)))
def test_detected_log_roundtrip_bitwise(tmp_path, log, bin_width, cal):
    path = tmp_path / "detected_events.csv"
    write_detected_csv(log, bin_width, cal, path)
    back, back_width, back_cal = read_detected_csv(path)
    for name in ("times", "kinds", "n_before"):
        got, want = getattr(back, name), getattr(log, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (back.n0, back.seed) == (log.n0, log.seed)
    assert _bits(back.duration) == _bits(log.duration)
    assert _bits(back_width) == _bits(bin_width)
    for name in ("per_atom_rate", "bg_rate", "per_atom_err", "bg_err"):
        assert _bits(getattr(back_cal, name)) == _bits(getattr(cal, name)), name
    assert back_cal.n_levels == cal.n_levels



# -- the csv.writer formatter the column-at-a-time writers replaced, kept as
# the byte-for-byte reference for their output

def _reference_csv(meta, columns, rows) -> bytes:
    buf = io.StringIO()
    for key, val in meta.items():
        buf.write(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                  else f"# {key}={val}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _reference_events(log: EventLog, meta=None) -> bytes:
    return _reference_csv(
        {"n0": log.n0, "duration_s": log.duration, "seed": log.seed, **(meta or {})},
        ["time_s", "kind", "n_before", "n_after"],
        ([repr(float(t)), int(k), int(nb), int(na)] for t, k, nb, na
         in zip(log.times, log.kinds, log.n_before, log.n_after)))


def _reference_trace(trace: FluorescenceTrace) -> bytes:
    return _reference_csv(
        {"bin_width_s": trace.bin_width, "per_atom_rate_hz": trace.per_atom_rate,
         "bg_rate_hz": trace.bg_rate, "seed": trace.seed},
        ["counts"], ([int(c)] for c in trace.counts))


def _reference_table(columns, header=None) -> bytes:
    arrays = [np.asarray(a) for a in columns.values()]
    return _reference_csv(
        header or {}, list(columns),
        ([repr(float(v)) if isinstance(v, (float, np.floating)) else v
          for v in row] for row in (zip(*arrays) if arrays else [])))


def _alternating_log(n: int) -> EventLog:
    """n events that load an atom and lose it again, one every 0.37 s."""
    kinds = np.arange(n, dtype=np.int8) % 2
    return EventLog(times=np.arange(1, n + 1) * 0.37, kinds=kinds,
                    n_before=kinds.astype(np.int64), n0=0,
                    duration=0.37 * (n + 1), seed=2**64 - 1)


_CAL = Calibration(per_atom_rate=9876.54321, bg_rate=0.1 + 0.2,
                   per_atom_err=1e-5, bg_err=3.3e16, n_levels=5)
_LENGTHS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]


@pytest.mark.parametrize("n", _LENGTHS)
def test_writers_match_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    trace = FluorescenceTrace(bin_width=0.1, counts=rng.poisson(900.0, n),
                              per_atom_rate=8000.0, bg_rate=400.0, seed=7)
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_bytes() == _reference_trace(trace)

    log = _alternating_log(n)
    write_event_csv(log, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == _reference_events(log)
    write_detected_csv(log, 0.05, _CAL, tmp_path / "detected.csv")
    assert (tmp_path / "detected.csv").read_bytes() == _reference_events(log, {
        "bin_width_s": 0.05, "cal_per_atom_rate_hz": _CAL.per_atom_rate,
        "cal_bg_rate_hz": _CAL.bg_rate, "cal_per_atom_err_hz": _CAL.per_atom_err,
        "cal_bg_err_hz": _CAL.bg_err, "cal_n_levels": _CAL.n_levels})

    cols = {"n": np.arange(n, dtype=np.uint64),
            "rate": rng.standard_normal(n) * 1e-5 * 10.0 ** (np.arange(n) % 30),
            "f32": np.float32(rng.random(n))}
    header = {"kind": "demo", "w": 0.1, "clipped": "b1,b2"}
    write_table_csv(tmp_path / "table.csv", cols, header=header)
    assert (tmp_path / "table.csv").read_bytes() == _reference_table(cols, header)


def test_table_writer_edge_shapes(tmp_path):
    for cols in ({}, {"fit": [0.25]}, {"dof": [3], "chi2": [np.inf]}):
        write_table_csv(tmp_path / "t.csv", cols)
        assert (tmp_path / "t.csv").read_bytes() == _reference_table(cols)
    with pytest.raises(ValueError, match="differ in length"):
        write_table_csv(tmp_path / "t.csv", {"a": [1, 2], "b": [1.0]})


# bin widths around where the header's repr switches between positional and
# exponent form (below 1e-4 and from 1e16 up), and ordinary ones
_BIN_WIDTHS = st.one_of(
    st.floats(min_value=1e-7, max_value=1e-4),
    st.floats(min_value=1e14, max_value=1e16),
    st.floats(min_value=1e-4, max_value=1e3),
    st.sampled_from([0.1, 0.05, 0.3, 1e-5, 2e-5 / 3, 1e15, 1e16 / 7]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.lists(st.integers(0, 2**62), max_size=60), bin_width=_BIN_WIDTHS,
       seed=st.integers(0, 2**64 - 1))
def test_trace_writer_and_roundtrip(tmp_path, counts, bin_width, seed):
    trace = FluorescenceTrace(bin_width=bin_width,
                              counts=np.array(counts, dtype=np.int64),
                              per_atom_rate=1e4 / 3, bg_rate=500.0 / 7, seed=seed)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == _reference_trace(trace)
    back = read_trace_csv(path)
    assert back.counts.dtype == np.int64
    assert back.counts.tobytes() == trace.counts.tobytes()
    for name in ("bin_width", "per_atom_rate", "bg_rate"):
        assert _bits(getattr(back, name)) == _bits(getattr(trace, name)), name
    assert back.seed == trace.seed


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=_event_logs())
def test_event_writer_matches_csv_writer(tmp_path, log):
    write_event_csv(log, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == _reference_events(log)


# -- rows the array checks and the parse-failure scan must name by line

# past the first writer chunk and loadtxt's own 50 000-row blocks
_N_ROWS = 70_002
_TRACE_ROWS = [f"{500 + i % 7}" for i in range(_N_ROWS)]
_EVENT_ROWS = [f"{(i + 1) * 0.5!r},{i % 2},{i % 2},{1 - i % 2}"
               for i in range(_N_ROWS)]


def _with_row(header: str, rows: list[str], i: int, row: str,
              newline: str) -> tuple[str, int]:
    """File text with rows[i] replaced by `row`, a blank line after the
    column row and another just before row i, and row i's 1-based line
    number."""
    head = header.splitlines()
    lines = head + [""] + rows[:i] + ["", row] + rows[i + 1:]
    return newline.join(lines) + newline, len(head) + i + 3


# (bad row, row end): first, past a chunk with either row end, last
_BAD_ROWS = pytest.mark.parametrize("bad_row, newline", [
    (0, "\r\n"), (70_000, "\n"), (70_000, "\r\n"), (_N_ROWS - 1, "\n")],
    ids=["first-crlf", "70000-lf", "70000-crlf", "last-lf"])


@_BAD_ROWS
@pytest.mark.parametrize("bad, fault", [
    ("-4", "negative count -4"),  # an array check
    ("abc", "counts"),  # does not parse
    ("12,3", "expected 1 columns, got 2"),
    ("1.0", "counts"),  # a float in the int column
    ("# seed=2", "header line after the column row"),
])
def test_read_trace_csv_names_bad_line(tmp_path, newline, bad_row, bad, fault):
    text, line = _with_row(_TRACE_HEADER, _TRACE_ROWS, bad_row, bad,
                               newline)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=fault) as info:
        read_trace_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


@_BAD_ROWS
@pytest.mark.parametrize("bad, fault", [
    ("{t},-1,{nb},{na}", "unknown event kind -1"),
    ("{t},3,{nb},{na}", "unknown event kind 3"),
    ("{t},{k},{nb},{wrong}", "does not follow from n_before"),
    ("{t},{k}.0,{nb},{na}", "kind"),  # a float in an int column
    ('{t},"{k}",{nb},{na}', "kind"),  # a quoted field
    ("{t},{k},{nb}", "expected 4 columns, got 3"),
    ("{t},{k},{nb},{na}_0", "n_after"),  # Python's int() would take 1_0
    ("# bin_width_s=0.05", "header line after the column row"),
])
def test_read_event_csv_names_bad_line(tmp_path, newline, bad_row, bad, fault):
    i = bad_row
    fields = dict(t=repr((i + 1) * 0.5), k=i % 2, nb=i % 2, na=1 - i % 2,
                  wrong=3)
    text, line = _with_row(_EVENT_HEADER, _EVENT_ROWS, bad_row,
                               bad.format(**fields), newline)
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=fault) as info:
        read_event_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_readers_accept_either_row_end(tmp_path, newline):
    trace_text, _ = _with_row(_TRACE_HEADER, _TRACE_ROWS[:100], 50,
                                  _TRACE_ROWS[50], newline)
    (tmp_path / "trace.csv").write_bytes(trace_text.encode())
    np.testing.assert_array_equal(read_trace_csv(tmp_path / "trace.csv").counts,
                                  [500 + i % 7 for i in range(100)])
    event_text, _ = _with_row(_EVENT_HEADER, _EVENT_ROWS[:20], 10,
                                  _EVENT_ROWS[10], newline)
    (tmp_path / "events.csv").write_bytes(event_text.encode())
    log = read_event_csv(tmp_path / "events.csv")
    np.testing.assert_array_equal(log.times, np.arange(1, 21) * 0.5)
    np.testing.assert_array_equal(log.kinds, np.arange(20) % 2)


@pytest.mark.parametrize("text, line, fault", [
    ("# bin_width_s=0.05\n" + _TRACE_HEADER + "510\n", 2,
     "header key bin_width_s given twice"),
    ("# a note\n" + _TRACE_HEADER + "510\n", 1, "not '# key=value'"),
], ids=["repeated_key", "no_value"])
def test_read_trace_csv_rejects_stray_header_line(tmp_path, text, line, fault):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=fault) as info:
        read_trace_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


def test_read_detected_csv_rejects_trailing_bin_width(tmp_path):
    # the bin width comes from the header alone: appended after the rows,
    # a second bin_width_s is an error, never the value fit uses
    path = tmp_path / "detected_events.csv"
    write_detected_csv(_alternating_log(4), 0.1, _CAL, path)
    with path.open("a") as fh:
        fh.write("# bin_width_s=0.05\n")
    with pytest.raises(ValueError, match="header line after the column row") as info:
        read_detected_csv(path)
    assert str(info.value).startswith(f"{path}, line 15: ")
