"""Benchmark of the fewatom loop: rates -> event log -> photon counts ->
detected events -> fitted rates, and the repump-scan extrapolation.

Run from the repository root:

    python3 bench/run.py --workload fig2_long --seed 3 --seconds 40 --trace 0

Workloads (why each exists: bench/NOTES.md):

    fig2_long    one 1e7-bin fig2 trace through the library, in one process
    repump_scan  the accept-08 scan: nine 1e6-bin traces and the beta_hcc fit
    cli_files    `fewatom pipeline`, `detect`, `fit`, `shield` as subprocesses
                 on a 1e6-bin fig2 run, talking through files

The run repeats the workload while the next iteration still fits into
--seconds. Every iteration starts fresh processes (bench/worker.py), one at
a time, so set-up time and peak memory are per iteration; metrics are
medians over iterations. With --trace 0 the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 untraced and traced
iterations alternate, and it carries the per-layer metrics, taken from the
spans this benchmark records around each call into a layer.

Every iteration's outputs (detected-log digests, calibration and fit
numbers) are checked against bench/reference.json when it holds the seed,
and otherwise against the run's first iteration. A mismatch, an exception or
a non-zero exit counts as a failed operation.

    python3 bench/run.py --workload NAME --seed N --record

runs one iteration and stores its outputs as the reference for that seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import worker  # noqa: E402

WORKER = str(BENCH / "worker.py")
REFERENCE = BENCH / "reference.json"
PY = sys.executable
STEP_LIMIT_S = 150.0  # a child still running after this is killed
REL_TOL = 1e-12  # fitted floats may differ by this much, relative

CLI_DURATION_S = 1e5  # 1e6 bins
CLI_STEPS = ("pipeline", "detect", "fit", "shield")
# the fig2 preset rates that generate the cli_files run (config.PRESETS)
FIG2_TRUTH = {"load_rate": 0.1403, "bg_rate": 1.0 / 60.0, "b1": 0.004,
              "b2_event": 0.006}
KIND_DELTA = {0: 1, 1: -1, 2: -2}  # markov.KIND_LOAD, KIND_LOSS1, KIND_LOSS2


@dataclass
class Proc:
    start: float  # CLOCK_MONOTONIC, just before the spawn
    elapsed: float
    code: int
    peak_rss_mb: float


@dataclass
class Iteration:
    traced: bool
    attempted: int = 0
    errors: dict[str, str] = field(default_factory=dict)  # op -> message
    outputs: dict = field(default_factory=dict)
    setup_s: float = math.nan
    wall_s: float = math.nan
    peak_rss_mb: float = 0.0
    layer: dict[str, float] = field(default_factory=dict)  # per-layer metrics
    pulls: dict[str, float] = field(default_factory=dict)  # (fit - truth) / err
    input: dict[str, int] = field(default_factory=dict)  # bins and points
    spans: list = field(default_factory=list)


def spawn(cmd: list[str], log_path: Path) -> Proc:
    """Run one child to completion; its own peak RSS comes from wait4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(log_path, "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, cwd=ROOT, env=env)
        killer = threading.Timer(STEP_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(start, elapsed, proc.returncode, usage.ru_maxrss / 1024.0)


def lib_iteration(workload: str, seed: int, scale: float, traced: bool,
                  work: Path) -> Iteration:
    it = Iteration(traced)
    rec_path = work / "lib.json"
    rec_path.unlink(missing_ok=True)
    proc = spawn([PY, WORKER, "lib", str(rec_path), workload, str(seed),
                  repr(scale), "1" if traced else "0"], work / "child.log")
    if proc.code != 0 or not rec_path.is_file():
        it.attempted = 1
        it.errors["worker"] = f"exit {proc.code}, see {work / 'child.log'}"
        return it
    rec = json.loads(rec_path.read_text())
    it.attempted = rec["attempted"]
    if "error" in rec:
        it.errors[rec["error"].split(":")[0]] = rec["error"]
        return it
    it.setup_s = rec["t_ready"] - proc.start
    it.wall_s = rec["t_done"] - rec["t_ready"]
    it.peak_rss_mb = proc.peak_rss_mb
    it.outputs = rec["outputs"]
    it.errors.update(rec["invariant_errors"])
    it.spans = rec["spans"]
    it.layer.update(rec["counts"])
    it.pulls = rec["pulls"]
    it.input = rec["input"]
    return it


def _read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(header metadata, column names, rows) of a fewatom CSV file."""
    meta, lines = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, val = line.lstrip("#").partition("=")
                meta[key.strip()] = val.strip()
            elif line.strip():
                lines.append(line)
    rows = list(csv.reader(lines))
    return meta, rows[0], rows[1:]


def log_file_errors(path: Path) -> tuple[str, str | None]:
    """Digest of an event-log CSV and the first broken invariant, if any."""
    meta, cols, rows = _read_csv(path)
    if cols != ["time_s", "kind", "n_before", "n_after"]:
        return "", f"unexpected columns {cols}"
    times = np.array([float(r[0]) for r in rows], dtype=np.float64)
    kinds = np.array([int(r[1]) for r in rows], dtype=np.int8)
    n_before = np.array([int(r[2]) for r in rows], dtype=np.int64)
    n_after = np.array([int(r[3]) for r in rows], dtype=np.int64)
    digest = worker.log_digest(times, kinds, n_before)
    if len(times) == 0:
        return digest, None
    delta = np.array([KIND_DELTA.get(int(k), 0) for k in kinds])
    if np.any(np.diff(times) <= 0) or times[0] <= 0:
        return digest, "event times not strictly increasing from 0"
    if float(times[-1]) > float(meta["duration_s"]):
        return digest, "event after the end of the run"
    if np.any(n_after != n_before + delta):
        return digest, "n_after does not follow from kind"
    if n_before[0] != int(meta["n0"]) or np.any(n_before[1:] != n_after[:-1]):
        return digest, "event sequence is not self-consistent"
    return digest, None


def _numbers(path: Path) -> list[float]:
    _, _, rows = _read_csv(path)
    return [float(v) for row in rows for v in row]


def _report(path: Path) -> dict[str, str]:
    pairs = (line.partition(" = ") for line in path.read_text().splitlines())
    return {k: v for k, sep, v in pairs if sep}


def _snapshot(out: Path) -> dict[str, tuple]:
    return {p.name: (st.st_ino, st.st_mtime_ns, st.st_size)
            for p in out.iterdir() if p.is_file()
            for st in [p.stat()]}


def cli_iteration(seed: int, scale: float, traced: bool, work: Path,
                  n: int) -> Iteration:
    it = Iteration(traced)
    # set-up is what every subcommand pays before its work: a fresh
    # interpreter with `import fewatom`, plus the out-dir and its config
    # file (~0.1 ms, too little to time steadily on its own)
    start = time.monotonic()
    out = work / f"cli{n}"
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(f"sim.duration_s = {CLI_DURATION_S * scale!r}\n")
    prep = time.monotonic() - start
    imp = spawn([PY, "-c", "import fewatom"], work / "child.log")
    if imp.code != 0:
        it.attempted = 1
        it.errors["import"] = f"exit {imp.code}, see {work / 'child.log'}"
        return it
    it.setup_s = prep + imp.elapsed
    it.layer["cli.import_s"] = imp.elapsed

    root = [] if traced else None
    wall, peak = 0.0, imp.peak_rss_mb
    written = read = parses = 0
    for step in CLI_STEPS:
        args = [step, "--preset", "fig2", "--config", str(cfg), "--seed",
                str(seed), "--out-dir", str(out)]
        reads_path = work / "reads.json"
        cmd = ([PY, WORKER, "step", str(reads_path), str(out), "--", *args]
               if traced else [PY, "-m", "fewatom.cli", *args])
        before = _snapshot(out)
        proc = spawn(cmd, work / "child.log")
        it.attempted += 1
        wall += proc.elapsed
        peak = max(peak, proc.peak_rss_mb)
        if traced:
            root.append([f"cli.{step}", proc.start, proc.start + proc.elapsed])
        after = _snapshot(out)
        written += sum(after[f][2] for f in after if before.get(f) != after[f])
        if traced and reads_path.is_file():
            files = json.loads(reads_path.read_text())["reads"]
            read += sum(after[f][2] for f in files if f in after)
            parses += files.count("trace.csv")
        if proc.code != 0:
            it.errors[step] = f"exit {proc.code}, see {work / 'child.log'}"
            return it
        it.layer[f"cli.{step}_s"] = proc.elapsed
        try:
            _check_cli_step(step, out, it)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            it.errors[step] = f"unreadable output: {type(exc).__name__}: {exc}"
            return it
    it.wall_s = wall
    it.peak_rss_mb = peak
    it.layer.update({"storage.bytes_written": written, "storage.bytes_read": read,
                     "storage.trace_parses": parses})
    if traced:
        # one span per subcommand under a root covering all four
        start, end = root[0][1], root[-1][2]
        it.spans = [["run", start, end, None, f"cli_files-{seed}"]] + [
            [name, a, b, 0, f"cli_files-{seed}"] for name, a, b in root]
        store = work / "store.json"
        proc = spawn([PY, WORKER, "store", str(store), str(out),
                      str(work / f"probe{n}")], work / "child.log")
        if proc.code != 0:
            it.errors["storage-probe"] = f"exit {proc.code}"
        else:
            it.layer.update(json.loads(store.read_text()))
    return it


def _check_cli_step(step: str, out: Path, it: Iteration) -> None:
    """Record the outputs a subcommand wrote, and the counts they carry."""
    logs = {"pipeline": ("events.csv", "detected_events.csv"),
            "detect": ("detected_events.csv",)}.get(step, ())
    for name in logs:
        digest, err = log_file_errors(out / name)
        key = f"{step}:{name}"
        it.outputs[key] = digest
        if err:
            it.errors[key] = err
    if step in ("pipeline", "fit"):
        it.outputs[f"{step}:fit.csv"] = _numbers(out / "fit.csv")
    if step == "shield":
        it.outputs["shield:shield.csv"] = _numbers(out / "shield.csv")
    if step == "detect":
        rep = _report(out / "report.txt")
        _, _, true_rows = _read_csv(out / "events.csv")
        bins, det = int(rep["bins"]), int(rep["events"])
        it.input = {"bins": bins, "points": 1}
        it.layer.update({
            "markov.events": len(true_rows), "trace.bins": bins,
            "detect.events": det, "detect.event_ratio": det / len(true_rows),
            "detect.merged_bins": int(rep["merged_bins"]),
            "detect.merged_per_bin": int(rep["merged_bins"]) / bins,
            "detect.spike_bins": int(rep["spike_bins"]),
            "detect.pair_bumps": int(rep["pair_bumps"]),
            "detect.ambiguous_bins": int(rep["ambiguous_bins"]),
            "detect.snr": float(rep["snr"])})
    if step == "fit":
        meta, cols, rows = _read_csv(out / "fit.csv")
        fit = dict(zip(cols, map(float, rows[0])))
        it.pulls = {k: (fit[k] - t) / fit[k + "_err"] for k, t in FIG2_TRUTH.items()}
        clipped = meta.get("clipped", "none")
        it.layer.update({
            "fitting.chi2_per_dof": fit["chi2"] / fit["dof"],
            "fitting.clipped": 0 if clipped == "none" else len(clipped.split(",")),
            "fit_max_abs_pull": max(abs(p) for p in it.pulls.values())})


def _same(a, b) -> bool:
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))
            for x, y in zip(a, b))
    return a == b


def failed_ops(it: Iteration, reference: dict) -> set[str]:
    """Operations of one iteration that raised, exited non-zero, broke an
    invariant of their output, or produced an output unlike the reference."""
    bad = {key.split(":")[0] for key in it.errors}
    for key, ref in reference.items():
        if key in it.outputs and not _same(it.outputs[key], ref):
            bad.add(key.split(":")[0])
    return bad


def span_totals(spans: list) -> tuple[float, dict[str, float], float]:
    """(root duration, summed duration per span name below the root,
    summed self time of all spans below the root)."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] is not None:
            child[s[3]] += d
    per_name: dict = {}
    root = 0.0
    self_sum = 0.0
    for s, d, c in zip(spans, dur, child):
        if s[3] is None:
            root += d
            continue
        per_name[s[0]] = per_name.get(s[0], 0.0) + d
        self_sum += d - c
    return root, per_name, self_sum


def run_iteration(workload, seed, scale, traced, work, n) -> Iteration:
    if workload == "cli_files":
        it = cli_iteration(seed, scale, traced, work, n)
    else:
        it = lib_iteration(workload, seed, scale, traced, work)
    if traced and not it.errors:
        if "cli.import_s" not in it.layer:
            # the import every CLI call and every library process starts with
            proc = spawn([PY, "-c", "import fewatom"], work / "child.log")
            it.layer["cli.import_s"] = proc.elapsed
        root, per_name, self_sum = span_totals(it.spans)
        for name, total in per_name.items():
            it.layer.setdefault(name + "_s", total)
        # cli_files' root also covers this benchmark's checks between steps,
        # so the overhead compares like with like: the iteration's wall_s
        it.layer["traced_wall_s"] = it.wall_s
        it.layer["bench.span_coverage"] = self_sum / root
    return it


def environment(argv: list[str]) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"command": [Path(PY).name, *argv], "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.machine()}


def summarize(iters: list[Iteration], trace: bool, spec: dict,
              failed: int, attempted: int) -> tuple[dict, dict]:
    """Medians over iterations -> (metrics, sample count per metric)."""
    ok = [it for it in iters if not it.errors]
    plain = [it for it in ok if not it.traced]
    traced = [it for it in ok if it.traced]
    values: dict[str, list[float]] = {}
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb"):
            values[name] = [getattr(it, name) for it in plain]
        names = spec["end_to_end"]
    else:
        for it in traced:
            for name, v in it.layer.items():
                values.setdefault(name, []).append(v)
        if plain and traced:
            values["bench.trace_overhead_frac"] = [
                statistics.median(values["traced_wall_s"])
                / statistics.median(it.wall_s for it in plain) - 1.0]
        values["failed_frac"] = [failed / attempted]
        names = spec["per_layer"]
    metrics, samples = {}, {}
    for m in names:
        vals = values.get(m["name"], [])
        if trace and not vals and m["name"] != "bench.trace_overhead_frac":
            vals = [0.0]  # a layer this workload does not call
        if not vals:
            raise SystemExit(f"error: no sample of {m['name']}; "
                             f"{len(iters) - len(ok)} iteration(s) failed")
        metrics[m["name"]] = {"value": float(statistics.median(vals)),
                              "unit": m["unit"]}
        samples[m["name"]] = len(vals)
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig2_long", "repump_scan", "cli_files"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="store one iteration's outputs as this seed's reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fewatom" / "__init__.py").is_file():
        print(f"error: no fewatom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.scale <= 0:
        print("error: --seed must be >= 0 and --scale > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = (refs.get(args.workload, {}).get(str(args.seed))
                 if args.scale == 1.0 else None)

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    iters: list[Iteration] = []
    try:
        while True:
            traced = bool(args.trace) and len(iters) % 2 == 1
            t_it = time.monotonic()
            iters.append(run_iteration(args.workload, args.seed, args.scale,
                                       traced, work, len(iters)))
            took = time.monotonic() - t_it
            if args.record:
                break
            if args.trace and len(iters) < 2:
                continue  # need one untraced and one traced iteration
            if time.monotonic() - start + took > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.record:
        it = iters[0]
        if it.errors:
            print(f"error: not recording a failed iteration: {it.errors}",
                  file=sys.stderr)
            return 1
        refs.setdefault(args.workload, {})[str(args.seed)] = it.outputs
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(it.outputs)} outputs of {args.workload} seed {args.seed}")
        return 0

    check_against = reference if reference is not None else iters[0].outputs
    attempted = failed = 0
    for n, it in enumerate(iters):
        bad = failed_ops(it, check_against)
        attempted += it.attempted
        failed += len(bad)
        print("# iteration " + json.dumps({
            "n": n, "traced": it.traced, "setup_s": it.setup_s,
            "wall_s": it.wall_s, "peak_rss_mb": it.peak_rss_mb,
            "pulls": it.pulls, "failed": sorted(bad), "errors": it.errors}))
    metrics, samples = summarize(iters, bool(args.trace), spec, failed, attempted)
    env = environment([str(Path(sys.argv[0])), *argv])
    env.update({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                "input": iters[0].input, "iterations": len(iters), "samples": samples,
                "reference": "stored" if reference is not None else "first iteration"})
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
