"""Child-process side of the benchmark.

Every measured iteration runs in a fresh interpreter, so that set-up time
(interpreter start, ``import fewatom``, building the inputs) and the peak
resident set belong to that iteration alone. The parent (``run.py``) starts
this file in one of three modes and reads the JSON record it writes:

    python worker.py lib   OUT.json WORKLOAD SEED SCALE TRACE
    python worker.py store OUT.json CLI_OUT_DIR PROBE_DIR
    python worker.py step  OUT.json OUT_DIR -- fewatom-cli-args...

``lib`` runs one iteration of an in-process workload (fig2_long or
repump_scan) through the package's public functions. ``store`` times the
storage readers and writers on the files a CLI run left behind. ``step`` runs
one ``fewatom`` subcommand exactly as ``python -m fewatom.cli`` would, with an
audit hook that records which files under OUT_DIR the command opened for
reading.

Times come from CLOCK_MONOTONIC (``time.monotonic``), which is shared by all
processes, so the parent can subtract its own spawn time from the child's
ready time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Durations at scale 1. fig2_long: one 1e7-bin trace; repump_scan: nine
# 1e6-bin traces, the accept-08 scan.
FIG2_DURATION_S = 1e6
REPUMP_DURATION_S = 1e5
REPUMP_S0_GRID = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 32.0, 48.0)
BETA_HCC_TRUE = 4.1e-11
MC_SAMPLES = 200_000  # effective_betas default, passed explicitly


def log_digest(times, kinds, n_before) -> str:
    """sha256 over an event log's (times, kinds, n_before) in fixed dtypes."""
    h = hashlib.sha256()
    for arr, dtype in ((times, "<f8"), (kinds, "i1"), (n_before, "<i8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def array_digest(arr, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


class Tracer:
    """In-memory spans (name, start, end, parent index, run id).

    A disabled tracer records nothing, so untraced iterations pay only the
    cost of entering a context manager per stage.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.monotonic(), None, parent, self.run_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.monotonic()
            self._open.pop()


class Stages:
    """Counts every stage call (one operation each) and wraps it in a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.attempted = 0
        self.current = ""

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        self.current = name
        with self.tracer.span(name):
            return fn(*args, **kwargs)


def _fit_numbers(fit) -> list[float]:
    return [fit.load_rate, fit.load_rate_err, fit.bg_rate, fit.bg_rate_err,
            fit.b1, fit.b1_err, fit.b2_event, fit.b2_event_err, fit.chi2,
            float(fit.dof)]


def _cal_numbers(cal) -> list[float]:
    return [cal.per_atom_rate, cal.bg_rate, cal.per_atom_err, cal.bg_err,
            float(cal.n_levels)]


def _chain(st: Stages, model, sim_seed: int, synth_seed: int, duration: float):
    """simulate -> synthesize -> calibrate -> detect -> tabulate -> fit_rates."""
    from fewatom import calibrate, detect, fit_rates, simulate, synthesize, tabulate
    log = st.call("markov.simulate", simulate, model, duration=duration, seed=sim_seed)
    trace = st.call("trace.synthesize", synthesize, log, per_atom_rate=10_000.0,
                    bg_rate=500.0, bin_width=0.1, seed=synth_seed)
    cal = st.call("detect.calibrate", calibrate, trace)
    detected, report = st.call("detect.detect", detect, trace, cal)
    table = st.call("fitting.tabulate", tabulate, detected)
    fit = st.call("fitting.fit_rates", fit_rates, table, coincidence_width=0.1,
                  calibration=cal)
    return log, trace, cal, detected, report, fit


def _record_chain(prefix, log, trace, cal, detected, report, fit, out,
                  invariant_errors):
    out[prefix + "markov.simulate"] = log_digest(log.times, log.kinds, log.n_before)
    out[prefix + "trace.synthesize"] = array_digest(trace.counts, "<i8")
    out[prefix + "detect.calibrate"] = _cal_numbers(cal)
    out[prefix + "detect.detect"] = log_digest(detected.times, detected.kinds,
                                               detected.n_before)
    out[prefix + "fitting.fit_rates"] = _fit_numbers(fit)
    try:
        detected.validate()
    except ValueError as exc:
        invariant_errors[prefix + "detect.detect"] = str(exc)


def _detect_counts(logs, reports, traces) -> dict[str, float]:
    bins = sum(len(t) for t in traces)
    true_events = sum(len(g) for g in logs)
    det = sum(r.n_events for r in reports)
    merged = sum(r.merged_bins for r in reports)
    return {
        "markov.events": true_events,
        "trace.bins": bins,
        "detect.events": det,
        "detect.event_ratio": det / true_events if true_events else math.nan,
        "detect.merged_bins": merged,
        "detect.merged_per_bin": merged / bins if bins else math.nan,
        "detect.spike_bins": sum(r.spike_bins for r in reports),
        "detect.pair_bumps": sum(r.pair_bumps for r in reports),
        "detect.ambiguous_bins": sum(r.ambiguous_bins for r in reports),
        # the worst trace of the run limits detection
        "detect.snr": min(r.snr for r in reports),
    }


def run_fig2_long(seed: int, scale: float, st: Stages) -> dict:
    from fewatom import load_config
    model = load_config(preset="fig2").rate_model()
    duration = FIG2_DURATION_S * scale
    t_ready = time.monotonic()

    with st.tracer.span("run"):
        # stage seeds as in accept-03: simulate(seed), synthesize(seed + 100)
        chain = _chain(st, model, seed, seed + 100, duration)
    t_done = time.monotonic()

    log, trace, cal, detected, report, fit = chain
    outputs: dict = {}
    invariant_errors: dict[str, str] = {}
    _record_chain("", *chain, outputs, invariant_errors)
    truth = {"load_rate": (fit.load_rate, fit.load_rate_err, model.load_rate),
             "bg_rate": (fit.bg_rate, fit.bg_rate_err, model.bg_rate),
             "b1": (fit.b1, fit.b1_err, model.b1),
             "b2_event": (fit.b2_event, fit.b2_event_err, model.b2)}
    pulls = {k: (v - t) / e for k, (v, e, t) in truth.items()}
    counts = _detect_counts([log], [report], [trace])
    counts.update({
        "fitting.chi2_per_dof": fit.chi2 / fit.dof if fit.dof else math.nan,
        "fitting.clipped": len(fit.clipped),
        "channels.mc_samples": 0,
        "fit_max_abs_pull": max(abs(p) for p in pulls.values()),
    })
    return {"t_ready": t_ready, "t_done": t_done, "outputs": outputs,
            "invariant_errors": invariant_errors, "counts": counts,
            "pulls": pulls, "input": {"bins": len(trace), "points": 1}}


def run_repump_scan(seed: int, scale: float, st: Stages) -> dict:
    from dataclasses import replace

    from fewatom import (ChannelSet, RateModel, ShieldingParams, TrapConfig,
                         effective_betas, effective_volume,
                         extrapolate_beta_hcc, fit_repump_decay)
    from fewatom.constants import CM3_PER_M3

    trap = TrapConfig(temperature=316e-6, r0=10e-6, depth_min=0.045,
                      intensity=420.0, load_rate=0.14, bg_lifetime=60.0)
    cs = ChannelSet(beta_hcc=BETA_HCC_TRUE)
    shielding = ShieldingParams()
    volume = effective_volume(trap.r0) * CM3_PER_M3
    s0_grid = np.array(REPUMP_S0_GRID)
    duration = REPUMP_DURATION_S * scale
    t_ready = time.monotonic()

    chains = []
    with st.tracer.span("run"):
        y, sigma = [], []
        for k, s0 in enumerate(s0_grid):
            point = replace(trap, repump_sat=float(s0))
            # accept-08 seeds at seed 3 (7070+k, 300+k, 400+k), shifted with the seed
            e1, e2 = st.call("channels.effective_betas", effective_betas, point,
                             cs, shielding, seed=7070 + 10 * (seed - 3) + k,
                             n_samples=MC_SAMPLES)
            model = RateModel(load_rate=trap.load_rate,
                              bg_rate=1.0 / trap.bg_lifetime,
                              b1=e1 / volume, b2=e2 / (2.0 * volume))
            chain = _chain(st, model, 100 * seed + k, 100 * (seed + 1) + k,
                           duration)
            fit = chain[-1]
            y.append(fit.beta2_over_v)
            sigma.append(fit.beta2_over_v_err)
            chains.append(((e1, e2), chain))
        sup = st.call("fitting.fit_repump_decay", fit_repump_decay, s0_grid,
                      np.array(y), np.array(sigma))
        beta, err = st.call("fitting.extrapolate_beta_hcc", extrapolate_beta_hcc,
                            sup, volume, r0_m=trap.r0, dr0_m=2e-6)
    t_done = time.monotonic()

    outputs: dict = {}
    invariant_errors: dict[str, str] = {}
    for k, (betas, chain) in enumerate(chains):
        outputs[f"{k}.channels.effective_betas"] = [float(b) for b in betas]
        _record_chain(f"{k}.", *chain, outputs, invariant_errors)
    outputs["fitting.fit_repump_decay"] = [
        sup.offset, sup.offset_err, sup.amplitude, sup.amplitude_err,
        sup.scale, sup.scale_err, sup.chi2, float(sup.dof)]
    outputs["fitting.extrapolate_beta_hcc"] = [beta, err]
    logs = [c[0] for _, c in chains]
    traces = [c[1] for _, c in chains]
    reports = [c[4] for _, c in chains]
    pull = (beta - BETA_HCC_TRUE) / err
    counts = _detect_counts(logs, reports, traces)
    counts.update({
        "fitting.chi2_per_dof": sup.chi2 / sup.dof if sup.dof else math.nan,
        "fitting.clipped": sum(len(c[5].clipped) for _, c in chains),
        "channels.mc_samples": len(s0_grid) * MC_SAMPLES * 3,
        "fit_max_abs_pull": abs(pull),
    })
    return {"t_ready": t_ready, "t_done": t_done, "outputs": outputs,
            "invariant_errors": invariant_errors, "counts": counts,
            "pulls": {"beta_hcc": pull},
            "input": {"bins": counts["trace.bins"], "points": len(s0_grid)}}


LIB_WORKLOADS = {"fig2_long": run_fig2_long, "repump_scan": run_repump_scan}


def lib_main(out_path: str, workload: str, seed: int, scale: float,
             traced: bool) -> None:
    import fewatom  # noqa: F401  (the import is part of set-up)
    tracer = Tracer(run_id=f"{workload}-{seed}-{os.getpid()}", enabled=traced)
    st = Stages(tracer)
    try:
        record = LIB_WORKLOADS[workload](seed, scale, st)
    except Exception as exc:  # a failed stage ends the iteration
        record = {"error": f"{st.current}: {type(exc).__name__}: {exc}"}
    record["attempted"] = st.attempted
    record["spans"] = tracer.spans
    Path(out_path).write_text(json.dumps(record))


def store_main(out_path: str, cli_out: str, probe_dir: str) -> None:
    """Time the CSV readers and writers on the files of one CLI run."""
    from fewatom.storage import (read_event_csv, read_trace_csv,
                                 write_event_csv, write_trace_csv)
    src, dst = Path(cli_out), Path(probe_dir)
    dst.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    trace = read_trace_csv(src / "trace.csv")
    t1 = time.monotonic()
    write_trace_csv(trace, dst / "trace.csv")
    t2 = time.monotonic()
    log = read_event_csv(src / "detected_events.csv")
    t3 = time.monotonic()
    write_event_csv(log, dst / "detected_events.csv")
    t4 = time.monotonic()
    times = {"storage.trace_read_s": t1 - t0, "storage.trace_write_s": t2 - t1,
             "storage.events_read_s": t3 - t2, "storage.events_write_s": t4 - t3}
    Path(out_path).write_text(json.dumps(times))


def step_main(out_path: str, out_dir: str, argv: list[str]) -> None:
    """Run one fewatom subcommand as __main__, recording files read in out_dir."""
    import runpy

    root = os.path.realpath(out_dir)
    reads: list[str] = []

    def hook(event, args):
        if event != "open" or not isinstance(args[0], (str, bytes, os.PathLike)):
            return
        path, mode, flags = args
        if mode is not None:
            reading = not any(c in mode for c in "wax+")
        else:
            reading = (flags & os.O_ACCMODE) == os.O_RDONLY
        full = os.path.realpath(os.fsdecode(path))
        if reading and os.path.dirname(full) == root:
            reads.append(os.path.basename(full))

    sys.addaudithook(hook)
    sys.argv = ["fewatom", *argv]
    code = 0
    try:
        runpy.run_module("fewatom.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        Path(out_path).write_text(json.dumps({"reads": reads}))
    sys.exit(code)


if __name__ == "__main__":
    mode, out = sys.argv[1], sys.argv[2]
    if mode == "lib":
        lib_main(out, sys.argv[3], int(sys.argv[4]), float(sys.argv[5]),
                 sys.argv[6] == "1")
    elif mode == "store":
        store_main(out, sys.argv[3], sys.argv[4])
    elif mode == "step":
        step_main(out, sys.argv[3], sys.argv[5:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
