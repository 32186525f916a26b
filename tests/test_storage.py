import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fewatom.detect import Calibration
from fewatom.markov import KIND_DELTA, KIND_LOAD, EventLog, RateModel, simulate
from fewatom.storage import (atomic_write_text, read_detected_csv,
                             read_event_csv, read_trace_csv,
                             write_detected_csv, write_event_csv,
                             write_table_csv, write_trace_csv)
from fewatom.trace import synthesize


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
    import csv

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
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664),
                                         (0o077, 0o600)],
                         ids=["umask022", "umask002", "umask077"])
def test_atomic_write_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "x")
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
                 "# bg_rate_hz=500.0\n# seed=1\nt_start_s,counts\n")


@pytest.mark.parametrize("row", [
    "0.1,abc",  # not a number
    "0.1",  # missing column
    "0.1,12,3",  # extra column
    "0.1,-4",  # negative count
])
def test_read_trace_csv_names_bad_row(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEADER + "0.0,510\n\n" + row + "\n0.2,505\n")
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

