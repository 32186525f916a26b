import os

import numpy as np
import pytest

from fewatom.markov import RateModel, simulate
from fewatom.storage import (atomic_write_text, read_event_csv,
                             read_trace_csv, write_event_csv, write_table_csv,
                             write_trace_csv)
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


def test_methods_match_module_functions(tmp_path):
    model = RateModel(load_rate=0.2, bg_rate=0.02)
    log = simulate(model, duration=500.0, seed=8)
    p1 = tmp_path / "a.csv"
    log.write_csv(p1)
    back = type(log).read_csv(p1)
    np.testing.assert_array_equal(back.times, log.times)


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
