import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fewatom
from fewatom.cli import main
from fewatom.config import _KEYS, load_config
from fewatom.trace import MAX_BINS, MAX_COUNT, synthesize
from fewatom.markov import MAX_EVENTS, EventLog
from fewatom.storage import read_event_csv


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        main(["--version"])
    assert "fewatom" in capsys.readouterr().out


def test_simulate_writes_events(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    rc = main(["simulate", "--preset", "fig2", "--config", str(cfg),
               "--seed", "4", "--out-dir", str(tmp_path)])
    assert rc == 0
    log = read_event_csv(tmp_path / "events.csv")
    log.validate()
    assert len(log) > 50
    report = (tmp_path / "report.txt").read_text()
    assert report.startswith("command = simulate")
    assert f"true_events = {len(log)}\n" in report


def test_simulate_requires_duration(tmp_path, capsys):
    rc = main(["simulate", "--preset", "fig2", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "duration" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [
    ("sim.duration_s", "nan"), ("sim.duration_s", "inf"),
    ("trap.load_rate_per_s", "nan")])
def test_simulate_rejects_non_finite_value(tmp_path, key, raw):
    # in a subprocess with a timeout: a simulate that took the value would
    # never end
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {"sim.duration_s": "100", key: raw}.items()))
    env = {**os.environ, "PYTHONPATH": str(Path(fewatom.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "fewatom.cli", "simulate", "--preset", "fig2",
         "--config", str(cfg), "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert f"bad value for {key}: {raw!r} (must be finite)" in run.stderr


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _capped(*args: str) -> subprocess.CompletedProcess:
    """python `args` in a child under the 1 GB address-space cap and a 60 s
    timeout, so a run that is not refused fails the test, not the machine."""
    env = {**os.environ, "PYTHONPATH": str(Path(fewatom.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=60, preexec_fn=_cap_address_space)


@pytest.mark.parametrize("key, raw", [
    ("sim.n0", str(10**12)), ("sim.duration_s", "1e300"),
    ("trap.load_rate_per_s", "1e300")])
def test_simulate_refuses_a_run_past_max_events(tmp_path, key, raw):
    # each ran simulate out of memory, exiting 1 on a MemoryError that named
    # no key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                           {"sim.duration_s": "10", key: raw}.items()))
    run = _capped("-m", "fewatom.cli", "simulate", "--preset", "fig2",
                  "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert run.returncode == 2, run.stderr[-500:]
    assert run.stderr.startswith(
        "error: 2 * trap.load_rate_per_s * sim.duration_s + sim.n0 = ")
    assert run.stderr.endswith(
        f" events, above MAX_EVENTS = {MAX_EVENTS}, the most a run may expect\n")
    assert not (tmp_path / "out").exists()


# Each config key at 0, 1e-300, 1e300 and -1, and the keys of each cap just
# past it, on top of sim.duration_s = 100 and the default 0.1 s bins of
# 10 kHz per atom over 500 Hz: MAX_BINS bins, MAX_COUNT counts in a one-atom
# bin (a bin longer than the run) or MAX_EVENTS events
_EXTREMES = [(key, raw) for key in _KEYS for raw in ("0", "1e-300", "1e300", "-1")] + [
    ("sim.duration_s", repr(MAX_BINS * 0.1 * 1.001)),
    ("trace.bin_width_s", repr(100 / MAX_BINS / 1.001)),
    ("trace.bin_width_s", repr(MAX_COUNT / 10_500 * 1.001)),
    ("trace.per_atom_rate_hz", repr(MAX_COUNT / 0.1 * 1.001)),
    ("trace.bg_rate_hz", repr(MAX_COUNT / 0.1 * 1.001)),
    ("trap.load_rate_per_s", repr(MAX_EVENTS / 200 * 1.001)),
    ("sim.n0", str(MAX_EVENTS))]


# fig2 sets the rates, fig4a composes them through effective_betas; the
# examples are the values that exited 1 with a traceback or 2 naming no key
@settings(max_examples=25, derandomize=True, deadline=None)
@given(preset=st.sampled_from(["fig2", "fig4a"]), case=st.sampled_from(_EXTREMES))
@example(preset="fig2", case=("rates.b2_per_s", "-1"))
@example(preset="fig2", case=("trace.per_atom_rate_hz", "0"))
@example(preset="fig2", case=("sim.duration_s", "1e-300"))
@example(preset="fig4a", case=("trap.temperature_uk", "1e300"))
@example(preset="fig4a", case=("channels.beta_re_cm3_s", "1e300"))
@example(preset="fig4a", case=("channels.beta_hcc_cm3_s", "1e300"))
@example(preset="fig2", case=("rates.b1_per_s", "1e308"))
@example(preset="fig2", case=("rates.b2_per_s", "1e308"))
def test_extreme_config_value_exits_by_key(preset, case):
    # one child at a time
    key, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in
                               {"sim.duration_s": "100", key: raw}.items()))
        run = _capped("-m", "fewatom.cli", "pipeline", "--preset", preset,
                      "--config", str(cfg), "--out-dir", str(Path(tmp) / "out"))
    assert run.returncode in (0, 2, 3, 4), run.stderr[-500:]
    assert "Traceback" not in run.stderr, run.stderr[-500:]
    if run.returncode == 2:
        field = _KEYS[key][1]
        assert key in run.stderr or re.search(rf"\b{field}\b", run.stderr), run.stderr


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trap.bogus = 1\n")
    rc = main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_fit_without_inputs(tmp_path, capsys):
    rc = main(["fit", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "events.csv" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["detect", "fit"])
def test_read_only_step_leaves_no_out_dir(tmp_path, capsys, step):
    # a step that finds no input writes nothing, not even its out-dir
    out = tmp_path / "missing"
    assert main([step, "--out-dir", str(out)]) == 2
    assert f"in {out}" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    """A short fig2 pipeline out-dir, for the steps that read one."""
    out = tmp_path_factory.mktemp("fig2_run")
    cfg = out / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "3", "--out-dir", str(out)]) == 0
    cfg.unlink()
    return {f.name: f.read_bytes() for f in out.iterdir()}


@pytest.mark.parametrize("config", ["trap.bogus = 1\n", None],
                         ids=["unknown_key", "missing_file"])
@pytest.mark.parametrize("step", ["detect", "fit", "shield"])
def test_read_only_step_reads_no_config(tmp_path, fig2_run, step, config):
    # detect, fit and shield read only their out-dir: a config they never
    # read once failed them on its unknown key or missing file
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    runs = {}
    for name, flags in (("plain", []), ("flagged", [
            "--preset", "fig2", "--config", str(cfg), "--seed", "3"])):
        out = tmp_path / name
        out.mkdir()
        for file, data in fig2_run.items():
            (out / file).write_bytes(data)
        assert main([step, *flags, "--out-dir", str(out)]) == 0
        runs[name] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert runs["flagged"] == runs["plain"]
    assert runs["plain"] != fig2_run  # the step wrote its files


def test_shield_outputs(tmp_path):
    rc = main(["shield", "--out-dir", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "shield.csv").read_text()
    assert "a_316uk=4.2066" in text
    # the paper's scan: 26 points of s0 from 0 to 50 at three temperatures
    assert "# rows=26\ns0,ratio_316uk,ratio_506uk,ratio_705uk\n" in text
    assert text.splitlines()[-1].startswith("50.0,")


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n")
    rc = main(["pipeline", "--preset", "fig2", "--config", str(cfg),
               "--seed", "12", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in ("events.csv", "trace.csv", "detected_events.csv", "fit.csv",
                 "rates_by_n.csv", "report.txt"):
        assert (tmp_path / name).is_file(), name
    report = (tmp_path / "report.txt").read_text()
    assert "load_rate_per_s" in report
    det = read_event_csv(tmp_path / "detected_events.csv")
    det.validate()
    assert len(det) > 100


def test_fit_consumes_detected_log(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n")
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "12", "--out-dir", str(tmp_path)]) == 0
    # re-fit from the files alone
    assert main(["fit", "--preset", "fig2", "--out-dir", str(tmp_path)]) == 0
    assert "source = detected_events.csv" in (tmp_path / "report.txt").read_text()


def test_synth_report_replaces_pipeline_report(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n")
    for command, seed in (("pipeline", "3"), ("synth", "5")):
        assert main([command, "--preset", "fig2", "--config", str(cfg),
                     "--seed", seed, "--out-dir", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report.startswith("command = synth\n")
    true_events = int(report.partition("true_events = ")[2].split()[0])
    assert true_events == len(read_event_csv(tmp_path / "events.csv"))


_PROVENANCE = ("# bin_width_s=0.1\n# cal_per_atom_rate_hz=10000.0\n"
               "# cal_bg_rate_hz=500.0\n# cal_per_atom_err_hz=1.0\n"
               "# cal_bg_err_hz=1.0\n# cal_n_levels=4\n")


def test_fit_rejects_inconsistent_log(tmp_path, capsys):
    path = tmp_path / "detected_events.csv"
    path.write_text("# n0=0\n# duration_s=10.0\n# seed=1\n" + _PROVENANCE +
                    "# rows=2\ntime_s,kind,n_before,n_after\n2.0,0,0,1\n1.0,0,1,2\n")
    assert main(["fit", "--out-dir", str(tmp_path)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "fit.csv").exists()


def test_fit_requires_detection_provenance(tmp_path, capsys):
    path = tmp_path / "detected_events.csv"
    path.write_text("# n0=0\n# duration_s=10.0\n# seed=1\n# rows=2\n"
                    "time_s,kind,n_before,n_after\n1.0,0,0,1\n2.0,0,1,2\n")
    assert main(["fit", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "bin_width_s" in err
    assert not (tmp_path / "fit.csv").exists()


_DETECTED_HEAD = "# n0=0\n# duration_s=10.0\n# seed=1\n" + _PROVENANCE  # 9 lines
_DETECTED_ROWS = "# rows=2\ntime_s,kind,n_before,n_after\n1.0,0,0,1\n2.0,0,1,2\n"


@pytest.mark.parametrize("text, line", [
    # after the rows, where fit once took the bin width from
    (_DETECTED_HEAD + _DETECTED_ROWS + "# bin_width_s=0.05\n", 14),
    (_DETECTED_HEAD + "# n0=0\n" + _DETECTED_ROWS, 10),  # a key given twice
], ids=["after_rows", "repeated_key"])
def test_fit_rejects_stray_header_line(tmp_path, capsys, text, line):
    path = tmp_path / "detected_events.csv"
    path.write_text(text)
    assert main(["fit", "--out-dir", str(tmp_path)]) == 2
    assert f"{path}, line {line}" in capsys.readouterr().err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("config, drop_trace", [
    ("trace.bin_width_s = 0.05\n", False),  # not the preset's 0.1 s
    ("", True),  # the calibration comes from the detected log alone
], ids=["bin_width_0.05", "without_trace"])
def test_fit_reproduces_pipeline_fit(tmp_path, config, drop_trace):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n" + config)
    out = tmp_path / "out"
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "12", "--out-dir", str(out)]) == 0
    want = (out / "fit.csv").read_bytes()
    (out / "fit.csv").unlink()
    if drop_trace:
        (out / "trace.csv").unlink()
    assert main(["fit", "--out-dir", str(out)]) == 0
    assert (out / "fit.csv").read_bytes() == want


def test_pipeline_refuses_trace_below_min_snr(tmp_path, capsys):
    # at 3000 Hz per atom the fig2 trace reads SNR 6.5-7.0, where neither
    # spike suppression nor the bump pass reads b1 without bias; the refused
    # run writes nothing, so the last good run's files stay whole
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n")
    out = tmp_path / "out"
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "3", "--out-dir", str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert len(before) == 6
    capsys.readouterr()
    cfg.write_text("sim.duration_s = 8000\ntrace.per_atom_rate_hz = 3000\n")
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "12", "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert re.fullmatch(r"detection error: level separation / shot noise = "
                        r"6\.\d\d below minimum 7\.00\n", err), err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


_TRACE_HEAD = ("# bin_width_s=0.1\n# per_atom_rate_hz=10000.0\n"
               "# bg_rate_hz=500.0\n# seed=1\n")


def test_detect_names_bad_trace_row(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEAD + "# rows=2\ncounts\n510\nabc\n")
    assert main(["detect", "--out-dir", str(tmp_path)]) == 2
    assert f"{path}, line 8" in capsys.readouterr().err


def test_detect_rejects_truncated_trace(tmp_path, capsys):
    # a synth trace cut 4 bytes short, inside its last row: its first
    # digits must not read as that bin's count
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 8000\n")
    assert main(["synth", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "trace.csv"
    text = path.read_bytes()[:-4]
    path.write_bytes(text)
    capsys.readouterr()
    assert main(["detect", "--out-dir", str(tmp_path)]) == 2
    line = text.count(b"\n") + 1
    assert f"{path}, line {line}: row has no row end" in capsys.readouterr().err
    assert not (tmp_path / "detected_events.csv").exists()


@pytest.mark.parametrize("step, name, output", [
    ("detect", "trace.csv", "detected_events.csv"),
    ("fit", "detected_events.csv", "fit.csv")])
def test_step_rejects_input_cut_at_a_row_end(tmp_path, capsys, step, name, output):
    # the input loses its whole last row: every row left ends as written, so
    # only the header's row count tells that the file is cut
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    assert main(["pipeline", "--preset", "fig2", "--config", str(cfg),
                 "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / name
    text = path.read_bytes()
    text = text[:text.rstrip(b"\r\n").rfind(b"\n") + 1]
    path.write_bytes(text)
    (tmp_path / output).unlink()
    capsys.readouterr()
    assert main([step, "--out-dir", str(tmp_path)]) == 2
    line = text.count(b"\n") + 1
    assert f"{path}, line {line}: file ends after " in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_detect_rejects_two_column_trace(tmp_path, capsys):
    # trace.csv holds the counts alone; bin i starts at i * bin_width_s
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEAD + "# rows=2\nt_start_s,counts\n0.0,510\n0.1,512\n")
    assert main(["detect", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "counts" in err
    assert not (tmp_path / "detected_events.csv").exists()


@pytest.mark.parametrize("value, fault", [
    ("0.0", "must be positive, got 0.0"),  # once a ZeroDivisionError
    ("-0.1", "must be positive, got -0.1"),  # once a log fit refused
    ("nan", "must be finite, got nan"), ("inf", "must be finite, got inf")])
def test_detect_names_bad_bin_width(tmp_path, capsys, value, fault):
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEAD.replace("=0.1", f"={value}") + "# rows=20\ncounts\n"
                    + "510\n" * 20)
    assert main(["detect", "--out-dir", str(tmp_path)]) == 2
    assert f"{path}, line 1: bin_width_s: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "detected_events.csv").exists()


@pytest.mark.parametrize("head, line, fault", [
    # once a fit with NaN rates, exit 0
    (_DETECTED_HEAD.replace("rate_hz=10000.0", "rate_hz=nan"), 5,
     "cal_per_atom_rate_hz: must be finite, got nan"),
    (_DETECTED_HEAD.replace("rate_hz=10000.0", "rate_hz=-5.0"), 5,
     "cal_per_atom_rate_hz: must be positive, got -5.0"),
    # a row-less log: once "0 populated level(s)", exit 3
    (_DETECTED_HEAD.replace("=10.0", "=0.0"), 2,
     "duration_s: must be positive, got 0.0"),
], ids=["cal_rate_nan", "cal_rate_negative", "duration_0"])
def test_fit_names_bad_header_value(tmp_path, capsys, head, line, fault):
    path = tmp_path / "detected_events.csv"
    path.write_text(head + "# rows=0\ntime_s,kind,n_before,n_after\n")
    assert main(["fit", "--out-dir", str(tmp_path)]) == 2
    assert f"{path}, line {line}: {fault}" in capsys.readouterr().err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("huge", [2 ** 22 + 1, 2 ** 62])
def test_detect_refuses_a_huge_count(tmp_path, capsys, huge):
    # one histogram slot per count value up to the highest would not fit
    path = tmp_path / "trace.csv"
    path.write_text(_TRACE_HEAD + "# rows=21\ncounts\n" + "510\n" * 20 + f"{huge}\n")
    assert main(["detect", "--out-dir", str(tmp_path)]) == 2
    assert f"{path}, line 27: count {huge} above 4194304" in capsys.readouterr().err
    assert not (tmp_path / "detected_events.csv").exists()


@pytest.mark.parametrize("line, option, raw", [
    ("", ["--seed", "-1"], "-1"), ("sim.seed = -5\n", [], "-5")],
    ids=["option", "config"])
def test_negative_seed_names_sim_seed(tmp_path, capsys, line, option, raw):
    # numpy refuses a negative seed, but without saying where it came from
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 100\n" + line)
    assert main(["simulate", "--preset", "fig2", "--config", str(cfg), *option,
                 "--out-dir", str(tmp_path)]) == 2
    assert (f"bad value for sim.seed: '{raw}' (must be non-negative)"
            in capsys.readouterr().err)
    assert not (tmp_path / "events.csv").exists()


@pytest.mark.parametrize("raw, why", [
    ("-1", "must be non-negative"), (str(2**63), "must be below 2**63")],
    ids=["negative", "2**63"])
def test_out_of_range_n0_names_sim_n0(tmp_path, capsys, raw, why):
    # -1 was refused by simulate without naming the key, and 2**63 (with no
    # loss to end the run at once) overflowed the log's int64 atom numbers
    # with a traceback and exit 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = 100\nsim.n0 = {raw}\nrates.b1_per_s = 0\n"
                   "rates.b2_per_s = 0\ntrap.bg_lifetime_s = 1e300\n")
    assert main(["simulate", "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 2
    assert f"bad value for sim.n0: '{raw}' ({why})" in capsys.readouterr().err
    assert not (tmp_path / "events.csv").exists()


def test_synth_refuses_a_count_the_reader_would(tmp_path, capsys):
    # at 1e8 Hz per atom a 0.1 s bin holds about 1e7 counts per atom: synth
    # once wrote that trace with exit 0, and detect then refused to read it;
    # the bin mean's bound now refuses it before any count is drawn
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 100\nsim.n0 = 1\ntrace.per_atom_rate_hz = 1e8\n")
    out = tmp_path / "out"
    assert main(["synth", "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert re.search(r"error: trace\.bin_width_s \* \(trace\.bg_rate_hz \+ "
                     r"trace\.per_atom_rate_hz \* \d+ atoms\) = \S+ counts, above "
                     "MAX_COUNT = 4194304, the highest a count histogram covers",
                     capsys.readouterr().err)
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("key, raw", [
    ("trace.bg_rate_hz", "1e300"), ("trace.per_atom_rate_hz", "1e300"),
    ("trace.per_atom_rate_hz", "1e308")])  # the bound itself overflows to inf
def test_mean_count_above_the_cap_names_its_key(tmp_path, capsys, command, key, raw):
    # numpy's Poisson draw once refused the mean as 'lam value too large',
    # naming no key; the run is refused before the first draw, and writes
    # nothing
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = 1000\n{key} = {raw}\n")
    out = tmp_path / "out"
    assert main([command, "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "counts, above MAX_COUNT = 4194304" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "pipeline"])
@pytest.mark.parametrize("duration, width, message", [
    ("1000", "1e-300", "1e+303 bins, above MAX_BINS = 134217728, the most a trace may have"),
    ("1e-300", "0.1", "1e-299 bins, below 1, the fewest a trace may have")],
    ids=["above", "below"])
def test_bin_count_outside_the_caps_names_its_keys(tmp_path, capsys, command,
                                                   duration, width, message):
    # 1e303 bins once reached np.empty, whose 'Maximum allowed dimension
    # exceeded' named no key, and 1e-299 the synthesis, whose 'duration
    # shorter than one bin' named none either; each run is refused before it
    # simulates
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = {duration}\ntrace.bin_width_s = {width}\n")
    out = tmp_path / "out"
    assert main([command, "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: sim.duration_s / trace.bin_width_s = {message}\n")
    assert not out.exists()


def test_a_run_too_large_for_memory_is_refused_by_key(tmp_path):
    # 1e9 bins were under the old MAX_BINS = 2**30: under the 1 GB cap,
    # synthesize's np.empty of the 8 GB counts exited 1 with numpy's
    # _ArrayMemoryError traceback, after simulating 2.8e6 events
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 1e7\ntrace.bin_width_s = 0.01\n")
    run = _capped("-m", "fewatom.cli", "synth", "--preset", "fig2", "--config",
                  str(cfg), "--out-dir", str(tmp_path / "out"))
    assert run.returncode == 2, run.stderr[-500:]
    assert run.stderr == ("error: sim.duration_s / trace.bin_width_s = 1e+09 bins, above "
                          f"MAX_BINS = {MAX_BINS}, the most a trace may have\n")
    assert not (tmp_path / "out").exists()


def _keyed(message: str, names: str, keys: str) -> str:
    """The CLI's stderr for the library's refusal `message`: its head, the
    argument names `names`, swapped for the config keys `keys`."""
    assert message.startswith(names), message
    return f"error: {keys}{message[len(names):]}\n"


# One template per bound: given the same over-bound values, the CLI prints
# the library's refusal with the config keys for the argument names.
@pytest.mark.parametrize("load_rate, duration, n0", [
    ("1e300", "10", "0"), ("0.1403", "1e300", "0"), ("0.1403", "10", str(10**12)),
    (repr(MAX_EVENTS / 200 * 1.001), "100", "0")])
def test_events_refusal_is_the_library_one_by_key(tmp_path, load_rate, duration, n0):
    library = _capped("-c", "from fewatom.markov import RateModel, simulate\n"
                      "try:\n"
                      f"    simulate(RateModel({load_rate}, 1 / 60), n0={n0}, "
                      f"duration={duration})\n"
                      "except ValueError as exc:\n"
                      "    print(exc)\n")
    assert library.returncode == 0, library.stderr[-500:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"trap.load_rate_per_s = {load_rate}\nsim.duration_s = {duration}\n"
                   f"sim.n0 = {n0}\n")
    cli = _capped("-m", "fewatom.cli", "simulate", "--preset", "fig2", "--config",
                  str(cfg), "--out-dir", str(tmp_path / "out"))
    assert cli.returncode == 2, cli.stderr[-500:]
    assert cli.stderr == _keyed(library.stdout.removesuffix("\n"),
                                "2 * model.load_rate * duration + n0",
                                "2 * trap.load_rate_per_s * sim.duration_s + sim.n0")


@pytest.mark.parametrize("duration, width", [
    ("1000", "1e-300"), ("1e-300", "0.1"), ("0.0999", "0.1")])
def test_bins_refusal_is_the_library_one_by_key(tmp_path, capsys, duration, width):
    log = EventLog(np.empty(0), np.empty(0, np.int8), n0=0, duration=float(duration),
                   seed=0)
    with pytest.raises(ValueError) as refusal:
        synthesize(log, bin_width=float(width))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = {duration}\ntrace.bin_width_s = {width}\n")
    assert main(["synth", "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == _keyed(str(refusal.value), "log duration / bin_width",
                                             "sim.duration_s / trace.bin_width_s")


@pytest.mark.parametrize("key, raw", [
    ("trace.bg_rate_hz", "1e300"), ("trace.per_atom_rate_hz", "1e308"),
    ("trace.per_atom_rate_hz", "1e8"), ("trace.bin_width_s", "1000")])
def test_bin_mean_refusal_is_the_library_one_by_key(tmp_path, capsys, key, raw):
    # the library synthesizes the log that the CLI's simulate stage draws
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"sim.duration_s = 2000\n{key} = {raw}\n")
    args = ["--preset", "fig2", "--config", str(cfg_path)]
    assert main(["simulate", *args, "--out-dir", str(tmp_path / "log")]) == 0
    cfg = load_config(cfg_path, "fig2")
    with pytest.raises(ValueError) as refusal:
        synthesize(read_event_csv(tmp_path / "log" / "events.csv"), cfg.per_atom_rate,
                   cfg.trace_bg_rate, cfg.bin_width)
    capsys.readouterr()
    assert main(["synth", *args, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == _keyed(
        str(refusal.value), "bin_width * (bg_rate + per_atom_rate *",
        "trace.bin_width_s * (trace.bg_rate_hz + trace.per_atom_rate_hz *")
    assert not (tmp_path / "out").exists()


def test_composed_pair_rate_that_overflows_names_the_channel_keys(tmp_path, capsys):
    # b2 = 9.8e307 per s is finite, but the rate 2 * b2 out of N = 2 is not:
    # simulate once wrote, with exit 0, a log of events at one time, which
    # fit then refused as not strictly increasing
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 100\nchannels.beta_hcc_cm3_s = 1e300\n")
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "fig4a", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: channels.beta_hcc_cm3_s, ") and err.endswith(
        "per s, whose pair rate 2 * (b1 + b2) is not finite\n"), err
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("trap.depth_anisotropy", "4.0"), ("channels.re_energy_k", "0.43"),
    ("channels.depth_jitter", "0.03"), ("channels.angular_spread_rad", "0.35")])
@pytest.mark.parametrize("command", ["simulate", "synth", "pipeline"])
def test_a_classifier_constant_key_is_refused(tmp_path, capsys, command, key, value):
    # the trap's depth anisotropy and the classifier's RE energy scale, depth
    # jitter and angular spread are module constants; every command that
    # reads a config refuses one that sets them, even to the constant's
    # value, exits 2 naming the key and writes nothing
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = 100\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--preset", "fig4a", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key {key!r} "), err
    assert not out.exists()


@pytest.mark.parametrize("command, key, rates", [
    ("simulate", "rates.b2_per_s", "b1 = 0.004, b2 = 1e+308"),
    ("pipeline", "rates.b1_per_s", "b1 = 1e+308, b2 = 0.006")])
def test_explicit_pair_rate_that_overflows_names_the_rate_keys(tmp_path, capsys,
                                                               command, key, rates):
    # explicit rates skipped the pair-rate check: simulate refused them with
    # "event rates out of N = 2 atoms sum to inf", naming no key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = 100\n{key} = 1e308\n")
    out = tmp_path / "out"
    assert main([command, "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: rates.b1_per_s and rates.b2_per_s give {rates} per s, whose pair "
        "rate 2 * (b1 + b2) is not finite\n")
    assert not (out / "events.csv").exists()


@pytest.mark.parametrize("key", ["rates.b1_per_s", "rates.b2_per_s"])
def test_one_explicit_rate_is_refused(tmp_path, capsys, key):
    # fig4a composes both rates: one explicit rate beside a composed one
    # once ran, the b1/b2 split taken from two sources
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sim.duration_s = 100\n{key} = 0.004\n")
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "fig4a", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: rates.b1_per_s and rates.b2_per_s must be set together or not at all\n")
    assert not (out / "events.csv").exists()


def test_failed_synth_leaves_the_previous_run_whole(tmp_path, capsys):
    # a synth that fails in synthesis writes nothing: events.csv once went
    # out first and sat beside the previous run's trace.csv
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    assert main(["synth", "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    cfg.write_text("sim.duration_s = 3000\ntrace.per_atom_rate_hz = 1e8\n")
    assert main(["synth", "--preset", "fig2", "--config", str(cfg),
                 "--out-dir", str(out)]) == 2
    assert "above MAX_COUNT = 4194304" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_stdout_is_the_report(tmp_path, capsys):
    # each command that writes report.txt prints that text and nothing else;
    # shield, which writes none, prints one line
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sim.duration_s = 2000\n")
    out = tmp_path / "out"
    model = ["--preset", "fig2", "--config", str(cfg), "--seed", "3"]
    for argv in (["simulate", *model], ["synth", *model], ["detect"], ["fit"],
                 ["pipeline", *model]):
        assert main([*argv, "--out-dir", str(out)]) == 0, argv
        stdout = capsys.readouterr().out
        assert stdout.startswith(f"command = {argv[0]}\n")
        assert stdout.encode() == (out / "report.txt").read_bytes(), argv
    assert main(["shield", "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"wrote shield.csv (26 points, 3 temperature(s)) to {out}\n")


def test_import_leaves_scipy_unloaded():
    # scipy.optimize is imported by fit_repump_decay alone, and the peak
    # search needs neither scipy.signal nor scipy.ndimage
    code = ("import sys, fewatom, fewatom.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.ndimage', "
            "'scipy.optimize') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(Path(fewatom.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
