import csv
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fewatom.detect import Calibration
from fewatom.markov import KIND_DELTA, KIND_LOAD, EventLog, RateModel, simulate
from fewatom import storage
from fewatom.storage import (_CHUNK_ROWS, _EVENT_COLUMNS, _rows, atomic_write_text,
                             read_detected_csv, read_event_csv, read_trace_csv,
                             write_detected_csv, write_event_csv,
                             write_table_csv, write_trace_csv)
from fewatom.trace import MAX_COUNT, FluorescenceTrace, binned_mean_counts, synthesize


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


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # setting the umask to read it would, for a moment, give a file that
    # another thread creates the mode 0666
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    atomic_write_text(tmp_path / "out.txt", ["x"])
    assert (tmp_path / "out.txt").read_text() == "x"


def _event_header(rows: int) -> str:
    # long enough for the 70 002 rows below, one every 0.5 s
    return (f"# n0=0\n# duration_s=40000.0\n# seed=1\n# rows={rows}\n"
            "time_s,kind,n_before,n_after\n")


_EVENT_HEADER = _event_header(2)


# rows on lines 6 and 7
@pytest.mark.parametrize("rows, line, message", [
    ("2.0,0,0,1\n1.0,0,1,2\n", 7, "strictly increasing from 0, got 1.0"),
    ("0.0,0,0,1\n1.0,0,1,2\n", 6, "strictly increasing from 0, got 0.0"),
    ("1.0,0,0,1\n50000.0,0,1,2\n", 7, r"lie in \(0, duration\], got 50000.0"),
    ("1.0,1,0,-1\n2.0,0,-1,0\n", 6, "negative atom number in event log: 0 -> -1"),
    ("1.0,0,0,1\n2.0,1,3,2\n", 7,
     "not self-consistent: n_before 3 where the events before leave 1"),
], ids=["decreasing", "at_0", "after_duration", "negative", "sequence"])
def test_read_event_csv_names_log_fault_line(tmp_path, rows, line, message):
    path = tmp_path / "events.csv"
    path.write_text(_EVENT_HEADER + rows)
    with pytest.raises(ValueError, match=message) as info:
        read_event_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


@pytest.mark.parametrize("row", [
    "2.0,0,1,3",  # n_after is not n_before + 1 for a load
    "2.0,7,1,2",  # no such kind
    "2.0,0,abc,2",  # not a number
    "2.0,0,1",  # missing column
])
def test_read_event_csv_names_bad_row(tmp_path, row):
    path = tmp_path / "events.csv"
    path.write_text(_EVENT_HEADER + "1.0,0,0,1\n" + row + "\n")
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


def _trace_header(rows: int) -> str:
    return ("# bin_width_s=0.1\n# per_atom_rate_hz=10000.0\n"
            f"# bg_rate_hz=500.0\n# seed=1\n# rows={rows}\ncounts\n")


_TRACE_HEADER = _trace_header(3)


@pytest.mark.parametrize("row", [
    "abc",  # not a number
    "12,3",  # extra column
    "-4",  # negative count
])
def test_read_trace_csv_names_bad_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + "510\n" + row + "\n505\n")
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
    kinds = []
    for kind in draw(st.lists(st.integers(0, len(KIND_DELTA) - 1),
                              min_size=len(times), max_size=len(times))):
        if n + KIND_DELTA[kind] < 0:
            kind = KIND_LOAD
        kinds.append(kind)
        n += KIND_DELTA[kind]
    duration = draw(st.floats(min_value=times[-1] if times else 1e-3,
                              max_value=1e7))
    return EventLog(times=np.array(times, dtype=np.float64),
                    kinds=np.array(kinds, dtype=np.int8), n0=n0,
                    duration=duration, seed=draw(st.integers(0, 2**64 - 1)))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# what calibrate can return, which the reader checks the header against
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=_event_logs(),
       bin_width=st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
       cal=st.builds(Calibration, per_atom_rate=_POSITIVE, bg_rate=_NON_NEGATIVE,
                     per_atom_err=_NON_NEGATIVE, bg_err=_NON_NEGATIVE,
                     n_levels=st.integers(2, 10_000)))
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
    rows = list(rows)
    buf = io.StringIO()
    for key, val in {**meta, "rows": len(rows)}.items():
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
    return EventLog(times=np.arange(1, n + 1) * 0.37, kinds=kinds, n0=0,
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

    # integers at both ends of int64 and uint64, and of every digit count
    k = np.arange(n)
    cols = {"n": np.arange(n, dtype=np.uint64),
            "rate": rng.standard_normal(n) * 1e-5 * 10.0 ** (k % 30),
            "f32": np.float32(rng.random(n)),
            "i64": np.where(k % 3 == 2,
                            rng.integers(-2**63, 2**63 - 1, n) // 10 ** (k % 19),
                            np.resize([-2**63, 2**63 - 1, -1, 0, -7, 10, -100, 99], n)),
            "u64": np.resize(np.array([2**64 - 1, 0, 2**63, 1], np.uint64), n)
            // np.uint64(10) ** (k.astype(np.uint64) % np.uint64(20))}
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
# counts up to MAX_COUNT, the highest the reader takes; the table writer's
# test covers the whole int64 range
@given(counts=st.lists(st.integers(0, MAX_COUNT), max_size=60), bin_width=_BIN_WIDTHS,
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
@given(per_atom_rate=st.floats(1.0, 1e8), bg_rate=st.floats(0.0, 1e6),
       bin_width=st.sampled_from([0.1, 0.05, 0.3]), n0=st.integers(0, 3),
       log_seed=st.integers(0, 20), seed=st.integers(0, 2**64 - 1))
def test_synthesized_trace_reads_back_or_is_refused(tmp_path, per_atom_rate, bg_rate,
                                                    bin_width, n0, log_seed, seed):
    # synthesize once returned counts above MAX_COUNT, which the writer wrote
    # and the reader refused; now a log whose bin means could pass it is
    # refused before drawing, any other such trace when it is made, naming
    # its first bad bin, and every trace it returns reads back
    log = simulate(RateModel(0.5, 0.1, 0.01, 0.01), n0=n0, duration=6.0, seed=log_seed)
    # the bound on every bin's mean count at the log's highest atom number
    n_max = int(log.n_after.max(initial=log.n0))
    if bin_width * (bg_rate + per_atom_rate * n_max) > MAX_COUNT:
        with pytest.raises(ValueError, match=" counts, above MAX_COUNT = "):
            synthesize(log, per_atom_rate, bg_rate, bin_width, seed)
        return
    # the one Poisson draw synthesize makes in blocks
    counts = np.random.default_rng(np.random.PCG64(seed)).poisson(
        binned_mean_counts(log, per_atom_rate, bg_rate, bin_width))
    huge = np.flatnonzero(counts > MAX_COUNT)
    if len(huge):
        with pytest.raises(ValueError, match=f"^bin {huge[0]}: count {counts[huge[0]]} "
                           f"above {MAX_COUNT}, the highest a count histogram covers$"):
            synthesize(log, per_atom_rate, bg_rate, bin_width, seed)
        return
    trace = synthesize(log, per_atom_rate, bg_rate, bin_width, seed)
    assert trace.counts.tobytes() == counts.tobytes()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert back.counts.tobytes() == counts.tobytes()
    for name in ("bin_width", "per_atom_rate", "bg_rate"):
        assert _bits(getattr(back, name)) == _bits(getattr(trace, name)), name
    assert back.seed == seed


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=_event_logs())
def test_event_writer_matches_csv_writer(tmp_path, log):
    write_event_csv(log, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == _reference_events(log)


# -- rows the array checks and the parse-failure scan must name by line

# past the first writer chunk, across several reader blocks
_N_ROWS = 70_002
_TRACE_ROWS = [f"{500 + i % 7}" for i in range(_N_ROWS)]
_EVENT_ROWS = [f"{(i + 1) * 0.5!r},{i % 2},{i % 2},{1 - i % 2}"
               for i in range(_N_ROWS)]


def _with_row(header, rows: list[str], i: int, row: str,
              newline: str) -> tuple[str, int]:
    """File text under header(len(rows)) with rows[i] replaced by `row`, and
    row i's 1-based line number."""
    head = header(len(rows)).splitlines()
    lines = head + rows[:i] + [row] + rows[i + 1:]
    return newline.join(lines) + newline, len(head) + i + 1


# (bad row, row end): first, past a chunk with either row end, last
_BAD_ROWS = pytest.mark.parametrize("bad_row, newline", [
    (0, "\r\n"), (70_000, "\n"), (70_000, "\r\n"), (_N_ROWS - 1, "\n")],
    ids=["first-crlf", "70000-lf", "70000-crlf", "last-lf"])


@_BAD_ROWS
@pytest.mark.parametrize("bad, fault", [
    ("", "blank line"),  # no writer writes one
    ("-4", "negative count -4"),  # an array check
    (str(MAX_COUNT + 1), f"count {MAX_COUNT + 1} above {MAX_COUNT}"),  # another
    ("abc", "counts"),  # does not parse
    ("12,3", "expected 1 columns, got 2"),
    ("1.0", "counts"),  # a float in the int column
    ("# seed=2", "header line after the column row"),
    # parsed, but not as the writer writes the value
    (" 510", "counts: ' 510', where the writer writes '510'"),
    ("+510", "counts: '\\+510', where the writer writes '510'"),
    ("510 ", "counts: '510 ', where the writer writes '510'"),
    ("0510", "counts: '0510', where the writer writes '510'"),
    ("-0", "counts: '-0', where the writer writes '0'"),
    ("5\r10", "counts"),  # a '\r' not before the row end
])
def test_read_trace_csv_names_bad_line(tmp_path, newline, bad_row, bad, fault):
    text, line = _with_row(_trace_header, _TRACE_ROWS, bad_row, bad, newline)
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=fault) as info:
        read_trace_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


def _three_bin_trace(path) -> bytes:
    write_trace_csv(FluorescenceTrace(
        bin_width=0.1, counts=np.array([1234, 5678, 9012]),
        per_atom_rate=10000.0, bg_rate=500.0, seed=1), path)
    return path.read_bytes()


@pytest.mark.parametrize("cut, fault", [
    (4, "row has no row end"), (2, "row has no row end"), (1, "row has no row end"),
    (6, "file ends after 2 of the header's rows=3")],
    ids=["in_row", "row_end", "lf", "whole_row"])
def test_read_trace_csv_rejects_truncated_trace(tmp_path, cut, fault):
    # a file cut short reads as fewer or shorter counts unless every row
    # must end as the writer ends it and the rows number what the header
    # gives: cut at a row end, every row left ends as written
    path = tmp_path / "trace.csv"
    text = _three_bin_trace(path)[:-cut]
    path.write_bytes(text)
    with pytest.raises(ValueError) as info:
        read_trace_csv(path)
    line = text.count(b"\n") + 1
    assert str(info.value) == f"{path}, line {line}: {fault}"


@pytest.mark.parametrize("write, read", [
    (write_event_csv, read_event_csv),
    (lambda log, path: write_detected_csv(log, 0.1, _CAL, path),
     read_detected_csv)], ids=["events", "detected"])
def test_read_event_csv_rejects_log_cut_at_a_row_end(tmp_path, write, read):
    # a 43-event log cut after its 42nd row is a valid 42-event log but for
    # the header's row count
    log = simulate(RateModel(0.1403, 1 / 60, 0.004, 0.006), duration=200.0, seed=6)
    assert len(log) == 43
    path = tmp_path / "events.csv"
    write(log, path)
    text = path.read_bytes()
    text = text[:text.rstrip(b"\r\n").rfind(b"\n") + 1]
    path.write_bytes(text)
    with pytest.raises(ValueError) as info:
        read(path)
    line = text.count(b"\n") + 1
    assert str(info.value) == (f"{path}, line {line}: file ends after 42 of "
                               "the header's rows=43")


def test_read_trace_csv_rejects_rows_past_the_count(tmp_path):
    path = tmp_path / "trace.csv"
    text = _three_bin_trace(path) + b"42\r\n"
    path.write_bytes(text)
    with pytest.raises(ValueError) as info:
        read_trace_csv(path)
    line = text.count(b"\n")
    assert str(info.value) == f"{path}, line {line}: row 4 past the header's rows=3"


def test_read_trace_csv_never_allocates_the_header_count(tmp_path):
    # the row count is compared with the rows read, so a huge one fails
    # instead of asking for 8e18 bytes
    path = tmp_path / "trace.csv"
    text = _three_bin_trace(path).replace(b"rows=3", b"rows=" + str(10**18).encode())
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"file ends after 3 of the header's "
                                         f"rows={10**18}$"):
        read_trace_csv(path)


class _Tally(io.BufferedReader):
    """A binary file that counts the bytes its reads return."""
    returned = 0

    def read(self, size=-1):
        data = super().read(size)
        self.returned += len(data)
        return data

    def readline(self, size=-1):
        data = super().readline(size)
        self.returned += len(data)
        return data


@pytest.mark.parametrize("read, header, rows", [
    (read_trace_csv, _trace_header, _TRACE_ROWS),
    (read_event_csv, _event_header, _EVENT_ROWS)], ids=["trace", "events"])
@pytest.mark.parametrize("last", [None, "+5"], ids=["clean", "rejected"])
def test_reader_reads_the_file_once(tmp_path, monkeypatch, read, header, rows, last):
    # one open and one pass, a rejected file's too: its bad line is named
    # from the block that holds it, the last one here
    text, line = _with_row(header, rows, len(rows) - 1, last or rows[-1], "\r\n")
    path = tmp_path / "file.csv"
    path.write_bytes(text.encode())
    files = []

    def tallied(file, mode):
        assert mode == "rb"
        files.append(_Tally(io.FileIO(file)))
        return files[-1]

    monkeypatch.setattr(storage, "open", tallied, raising=False)
    if last:
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}, line {line}: ")
    else:
        read(path)
    assert [f.returned for f in files] == [len(text)]


@_BAD_ROWS
@pytest.mark.parametrize("bad, fault", [
    ("", "blank line"),  # no writer writes one
    ("{t},-1,{nb},{na}", "unknown event kind -1"),
    ("{t},3,{nb},{na}", "unknown event kind 3"),
    ("{t},{k},{nb},{wrong}", "does not follow from n_before"),
    ("{prev},{k},{nb},{na}", "strictly increasing from 0"),
    ("50000.0,{k},{nb},{na}", r"lie in \(0, duration\]"),
    ("{t},2,{nb},{below}", "negative atom number"),
    ("{t},{k},{up_nb},{up_na}", "not self-consistent"),
    ("{t},{k}.0,{nb},{na}", "kind"),  # a float in an int column
    ('{t},"{k}",{nb},{na}', "kind"),  # a quoted field
    ("{t},{k},{nb}", "expected 4 columns, got 3"),
    ("{t},{k},{nb},{na}_0", "n_after"),  # Python's int() would take 1_0
    ("# bin_width_s=0.05", "header line after the column row"),
    # parsed, but not as the writer writes the value
    (" {t},{k},{nb},{na}", "time_s: ' "),
    ("+{t},{k},{nb},{na}", "time_s: '\\+"),
    ("{t}0,{k},{nb},{na}", "time_s: .*0', where the writer writes"),
    ("{t},+{k},{nb},{na}", "kind: '\\+"),
    ("{t},{k} ,{nb},{na}", "kind: '. ', where"),
    ("{t},0{k},{nb},{na}", "kind: '0"),
    ("{t},{k},-0{nb},{na}", "n_before: '-0"),
])
def test_read_event_csv_names_bad_line(tmp_path, newline, bad_row, bad, fault):
    i = bad_row
    fields = dict(t=repr((i + 1) * 0.5), k=i % 2, nb=i % 2, na=1 - i % 2,
                  wrong=3, prev=repr(i * 0.5), below=i % 2 - 2,
                  up_nb=i % 2 + 1, up_na=2 - i % 2)
    text, line = _with_row(_event_header, _EVENT_ROWS, bad_row,
                           bad.format(**fields), newline)
    path = tmp_path / "events.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=fault) as info:
        read_event_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_readers_accept_either_row_end(tmp_path, newline):
    trace_text, _ = _with_row(_trace_header, _TRACE_ROWS[:100], 50,
                              _TRACE_ROWS[50], newline)
    (tmp_path / "trace.csv").write_bytes(trace_text.encode())
    np.testing.assert_array_equal(read_trace_csv(tmp_path / "trace.csv").counts,
                                  [500 + i % 7 for i in range(100)])
    event_text, _ = _with_row(_event_header, _EVENT_ROWS[:20], 10,
                              _EVENT_ROWS[10], newline)
    (tmp_path / "events.csv").write_bytes(event_text.encode())
    log = read_event_csv(tmp_path / "events.csv")
    np.testing.assert_array_equal(log.times, np.arange(1, 21) * 0.5)
    np.testing.assert_array_equal(log.kinds, np.arange(20) % 2)


@pytest.mark.parametrize("text, line, fault", [
    ("# bin_width_s=0.05\n" + _trace_header(1) + "510\n", 2,
     "header key bin_width_s given twice"),
    ("# a note\n" + _trace_header(1) + "510\n", 1, "not '# key=value'"),
], ids=["repeated_key", "no_value"])
def test_read_trace_csv_rejects_stray_header_line(tmp_path, text, line, fault):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=fault) as info:
        read_trace_csv(path)
    assert str(info.value).startswith(f"{path}, line {line}: ")


_DETECTED_HEADER = (_EVENT_HEADER.partition("# rows")[0] + "# bin_width_s=0.1\n"
                    "# cal_per_atom_rate_hz=10000.0\n# cal_bg_rate_hz=500.0\n"
                    "# cal_per_atom_err_hz=1.0\n# cal_bg_err_hz=1.0\n"
                    "# cal_n_levels=4\n# rows=1\n"
                    "time_s,kind,n_before,n_after\n1.0,0,0,1\n")


@pytest.mark.parametrize("read, text, line, fault", [
    (read_event_csv, _EVENT_HEADER.replace("n0=0", "n0=two"), 1, "n0: invalid literal"),
    (read_event_csv, _EVENT_HEADER.replace("n0=0", "n0=99999999999999999999"), 1,
     "n0: must be a count in"),
    (read_event_csv, _EVENT_HEADER.replace("n0=0", "n0=-1"), 1, "n0: must be a count in"),
    (read_event_csv, _EVENT_HEADER.replace("# seed=1\n", ""), 4,
     r"missing header field\(s\) \['seed'\]"),
    (read_event_csv, _EVENT_HEADER.replace(",n_after", ""), 5, "missing column header"),
    (read_event_csv, _EVENT_HEADER.partition("time_s")[0], 5, "missing column header"),
    (read_event_csv, _EVENT_HEADER.replace("time_s", "\ntime_s"), 5,
     "missing column header"),
    (read_trace_csv, _TRACE_HEADER.removesuffix("\n"), 6, "row has no row end"),
    (read_trace_csv, _TRACE_HEADER.replace("# rows=3\n", ""), 5,
     r"missing header field\(s\) \['rows'\]"),
    (read_trace_csv, _TRACE_HEADER.replace("rows=3", "rows=-1"), 5,
     "rows: must be a count, got -1"),
    (read_trace_csv, _TRACE_HEADER.replace("=10000.0", "=fast"), 2,
     "per_atom_rate_hz: could not convert"),
    (read_detected_csv, _DETECTED_HEADER.replace("=0.1", "=0.0"), 4,
     "bin_width_s: must be positive, got 0.0"),
    (read_detected_csv, _DETECTED_HEADER.replace("levels=4", "levels=4.5"), 9,
     "cal_n_levels: invalid literal"),
    # the ranges the writers' sources guarantee
    (read_trace_csv, _TRACE_HEADER.replace("=0.1", "=0.0"), 1,
     "bin_width_s: must be positive, got 0.0"),
    (read_trace_csv, _TRACE_HEADER.replace("=0.1", "=-0.1"), 1,
     "bin_width_s: must be positive, got -0.1"),
    (read_trace_csv, _TRACE_HEADER.replace("=0.1", "=nan"), 1,
     "bin_width_s: must be finite, got nan"),
    (read_trace_csv, _TRACE_HEADER.replace("=0.1", "=inf"), 1,
     "bin_width_s: must be finite, got inf"),
    (read_trace_csv, _TRACE_HEADER.replace("=10000.0", "=0.0"), 2,
     "per_atom_rate_hz: must be positive, got 0.0"),
    (read_trace_csv, _TRACE_HEADER.replace("=10000.0", "=inf"), 2,
     "per_atom_rate_hz: must be finite, got inf"),
    (read_trace_csv, _TRACE_HEADER.replace("=500.0", "=-1.0"), 3,
     "bg_rate_hz: must be non-negative, got -1.0"),
    (read_trace_csv, _TRACE_HEADER.replace("=500.0", "=nan"), 3,
     "bg_rate_hz: must be finite, got nan"),
    (read_event_csv, _EVENT_HEADER.replace("=40000.0", "=-5.0"), 2,
     "duration_s: must be positive, got -5.0"),
    (read_event_csv, _EVENT_HEADER.replace("=40000.0", "=0.0"), 2,
     "duration_s: must be positive, got 0.0"),
    (read_event_csv, _EVENT_HEADER.replace("=40000.0", "=nan"), 2,
     "duration_s: must be finite, got nan"),
    (read_detected_csv, _DETECTED_HEADER.replace("=0.1", "=inf"), 4,
     "bin_width_s: must be finite, got inf"),
    (read_detected_csv, _DETECTED_HEADER.replace("rate_hz=10000.0", "rate_hz=nan"), 5,
     "cal_per_atom_rate_hz: must be finite, got nan"),
    (read_detected_csv, _DETECTED_HEADER.replace("rate_hz=10000.0", "rate_hz=inf"), 5,
     "cal_per_atom_rate_hz: must be finite, got inf"),
    (read_detected_csv, _DETECTED_HEADER.replace("rate_hz=10000.0", "rate_hz=0.0"), 5,
     "cal_per_atom_rate_hz: must be positive, got 0.0"),
    (read_detected_csv, _DETECTED_HEADER.replace("rate_hz=500.0", "rate_hz=-5.0"), 6,
     "cal_bg_rate_hz: must be non-negative, got -5.0"),
    (read_detected_csv,
     _DETECTED_HEADER.replace("atom_err_hz=1.0", "atom_err_hz=nan"), 7,
     "cal_per_atom_err_hz: must be finite, got nan"),
    (read_detected_csv, _DETECTED_HEADER.replace("bg_err_hz=1.0", "bg_err_hz=-1.0"), 8,
     "cal_bg_err_hz: must be non-negative, got -1.0"),
    (read_detected_csv, _DETECTED_HEADER.replace("levels=4", "levels=1"), 9,
     "cal_n_levels: must be at least 2, got 1"),
], ids=["bad_value", "n0_past_int64", "n0_negative", "missing_key", "wrong_columns", "no_columns",
        "blank_before_columns",
        "unended_columns", "no_rows", "rows_negative", "trace_value",
        "bin_width_0", "float_levels",
        "trace_bin_width_0", "trace_bin_width_negative", "trace_bin_width_nan",
        "trace_bin_width_inf", "trace_rate_0", "trace_rate_inf", "trace_bg_negative",
        "trace_bg_nan", "duration_negative", "duration_0", "duration_nan",
        "bin_width_inf", "cal_rate_nan", "cal_rate_inf", "cal_rate_0",
        "cal_bg_negative", "cal_err_nan", "cal_bg_err_negative", "one_level"])
def test_readers_name_header_fault_line(tmp_path, read, text, line, fault):
    path = tmp_path / "file.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=fault) as info:
        read(path)
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
    assert str(info.value).startswith(f"{path}, line 16: ")


def test_read_detected_csv_reads_a_bump_pass_line(tmp_path):
    # files written while detect had a second, low-SNR path record which
    # one ran as '# bump_pass=0' or '=1': now an unknown key like any other
    path = tmp_path / "detected_events.csv"
    path.write_text(_DETECTED_HEADER)
    want = read_detected_csv(path)
    path.write_text(_DETECTED_HEADER.replace("# rows", "# bump_pass=1\n# rows"))
    log, bin_width, cal = read_detected_csv(path)
    assert (bin_width, cal) == want[1:]
    assert (log.times.tolist(), log.kinds.tolist(), log.n0) == (
        want[0].times.tolist(), want[0].kinds.tolist(), want[0].n0)


# -- the field rule: a field reads only as the writer writes its value,
# repr for floats and str for integers, against Python's own formatting

def _nudge(text: str, step: int) -> str:
    """text with the last digit of its mantissa moved by step, within 1-8;
    among 17 digits the neighbour often reads back as the same double."""
    mantissa, e, exponent = text.partition("e")
    last = mantissa[-1]
    if "1" <= last <= "8":
        mantissa = mantissa[:-1] + chr(ord(last) + step)
    return mantissa + e + exponent


_FLOAT_TEXTS = (repr, "%.17g".__mod__, "%.16g".__mod__, "%.15g".__mod__,
                "%.16e".__mod__, "%.20f".__mod__, lambda v: "+" + repr(v),
                lambda v: " " + repr(v), lambda v: repr(v) + "0",
                lambda v: "0" + repr(v), lambda v: repr(v).upper(),
                lambda v: repr(v).replace("e+", "e").replace("e-0", "e-"),
                lambda v: _nudge(repr(v), 1), lambda v: _nudge(repr(v), -1))
_FLOAT_CASES = [0.1 + 0.2, 1e16, 9999999999999998.0, 1e15, 123456789012345.6,
                1e-5, 1e-4, 0.0001234, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 48.300000000000004, 9.999999999999999e22,
                1e23, 0.0, -0.0, float("inf"), float("-inf"), float("nan"), -1.5]


_ROW = "row {}".format  # where row k is, as the readers' messages name it


def _reads(texts: list[str]) -> bool:
    """Whether one float column of these rows reads back."""
    data = "".join(f"{text}\r\n" for text in texts).encode()
    try:
        _rows(io.BytesIO(data), {"x": np.float64}, len(texts), _ROW)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(v=st.one_of(st.floats(), st.sampled_from(_FLOAT_CASES),
                   st.floats(min_value=1e-3, max_value=1e7)))
def test_float_field_reads_only_as_repr(v):
    for text in sorted({form(v) for form in _FLOAT_TEXTS}):
        try:
            written = repr(float(text)) == text
        except ValueError:
            continue
        assert _reads([text]) == written, text


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float_column_reads_only_as_repr(seed):
    # thousands of rows at once, through the render check: doubles of
    # every exponent and bin-boundary times like detect writes, then each
    # row rewritten in a form that parses to the same value
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        rng.integers(0, 2**64, 1000, dtype=np.uint64).view(np.float64),
        np.arange(1, 1001) * 0.1, rng.random(1000) * 1e5,
        rng.random(1000) * 10.0 ** rng.integers(-30, 30, 1000)])
    texts = [repr(v) for v in values.tolist()]
    assert _reads(texts)
    for i in rng.choice(len(texts), 30, replace=False).tolist():
        for form in _FLOAT_TEXTS[1:]:
            text = form(float(values[i]))
            try:
                same = text != texts[i] and float(text) == values[i]
            except ValueError:  # a second sign
                continue
            if same:
                assert not _reads(texts[:i] + [text] + texts[i + 1:]), text


@settings(max_examples=200, deadline=None)
@given(v=st.integers(-2**64, 2**64))
def test_int_field_reads_only_as_str(v):
    for text in {str(v), "+" + str(v), "0" + str(v), str(v) + " ", "-0" + str(v)}:
        data = f"7\r\n{text}\r\n-3\r\n".encode()
        if text == str(v) and -2**63 <= v < 2**63:
            got, n = _rows(io.BytesIO(data), {"x": np.int64}, 3, _ROW)
            assert n == 3 and got[0].tolist() == [7, v, -3]
        else:
            with pytest.raises(ValueError, match="^row 1: "):
                _rows(io.BytesIO(data), {"x": np.int64}, 3, _ROW)


@pytest.mark.parametrize("columns, rows", [
    ({"counts": np.int64}, _TRACE_ROWS[:8]), (_EVENT_COLUMNS, _EVENT_ROWS[:8])],
    ids=["trace", "events"])
@pytest.mark.parametrize("end", ["\r\n", ""], ids=["ended", "unended"])
def test_rows_across_every_block_boundary(monkeypatch, columns, rows, end):
    # '\r\n' row ends but one LF row end, and maybe no row end on the last
    # line, which the writer never leaves, so such a file was cut short;
    # every block size splits the text at another place, across a row or a
    # row end
    text = ("\r\n".join(rows[:3]) + "\r\n" + rows[3] + "\n"
            + "\r\n".join(rows[4:]) + end).encode()
    want = [[kind(field) for field in fields] for kind, fields
            in zip(columns.values(), zip(*(row.split(",") for row in rows)))]
    for block in range(1, len(text) + 2):
        monkeypatch.setattr(storage, "_BLOCK_BYTES", block)
        if end:
            got, n = _rows(io.BytesIO(text), columns, len(rows), _ROW)
            assert n == len(rows) and [c.tolist() for c in got] == want, block
        else:
            with pytest.raises(ValueError, match=f"^row {len(rows) - 1}: row has no row end$"):
                _rows(io.BytesIO(text), columns, len(rows), _ROW)
        for bad in (b"\n+", b"\n\r\n"):  # a sign, a blank line
            with pytest.raises(ValueError, match="^row 4: "):
                _rows(io.BytesIO(text.replace(b"\n" + rows[4].encode(),
                                              bad + rows[4].encode())),
                      columns, len(rows), _ROW)


# -- memory: integer columns are rendered and parsed a block at a time

_MEMORY_BINS = 2**20


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_trace() -> FluorescenceTrace:
    counts = np.random.default_rng(4).poisson(900.0, _MEMORY_BINS)
    return FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=8000.0,
                             bg_rate=400.0, seed=7)


def test_trace_writer_holds_one_chunk(tmp_path):
    trace = _memory_trace()
    peak = _peak(lambda: write_trace_csv(trace, tmp_path / "trace.csv"))
    assert peak < 0.5 * trace.counts.nbytes, peak / trace.counts.nbytes


def test_trace_reader_holds_the_counts_and_one_block(tmp_path):
    trace = _memory_trace()
    write_trace_csv(trace, tmp_path / "trace.csv")
    back = []
    peak = _peak(lambda: back.append(read_trace_csv(tmp_path / "trace.csv")))
    assert back[0].counts.tobytes() == trace.counts.tobytes()
    assert peak < 1.5 * trace.counts.nbytes, peak / trace.counts.nbytes
