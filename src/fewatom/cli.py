"""Command line front end.

Subcommands cover the full measurement chain: simulate (event log), synth
(photon trace), detect (log recovery from a trace), fit (per-occupancy rates),
shield (suppression curves), pipeline (synth, detect and fit in one process),
and oracle (stationary distribution of the configured rate model). simulate,
synth, detect, fit and pipeline share one function per stage.

Outputs land in --out-dir under conventional names (events.csv, trace.csv,
detected_events.csv, rates_by_n.csv, fit.csv, shield.csv, stationary.csv,
report.txt). detected_events.csv records the trace bin width and
calibration, so fit re-fits it without trace.csv or a config. Exit codes:
0 success, 2 configuration, usage or input-file error, 3 numerical failure,
4 detection quality failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, PRESETS, RunConfig, load_config
from .detect import (Calibration, CalibrationError, DetectionQualityError,
                     DetectionReport, calibrate, detect)
from .fitting import (ConvergenceError, DegenerateDataError, FitResult,
                      fit_rates, tabulate)
from .markov import (KIND_NAMES, EventLog, RateModel, TruncationError, check_events,
                     master_stationary, simulate, stationary_moments)
from .channels import scaling_constant, suppression_ratio
from .storage import (atomic_write_text, read_detected_csv, read_event_csv,
                      read_trace_csv, write_detected_csv, write_event_csv,
                      write_table_csv, write_trace_csv)
from .trace import FluorescenceTrace, check_bin_mean, check_bins, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DETECTION = 4

# The grid `shield` tabulates: the repump saturation parameters s0, and the
# three calibrated temperatures (K) of the paper's repump-power scans
SHIELD_S0 = np.linspace(0.0, 50.0, 26)
SHIELD_TEMPERATURES = (316e-6, 506e-6, 705e-6)


def _stage_seeds(seed: int) -> tuple[int, int]:
    """Independent integer seeds of the simulate and synthesize stages,
    derived from the run seed."""
    sim, synth = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(sim), int(synth)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewatom",
        description="Few-atom trap loss statistics toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_ in [
            ("simulate", _cmd_simulate, "generate an event log from the configured rate model"),
            ("synth", _cmd_synth, "simulate and render a photon-count trace"),
            ("detect", _cmd_detect, "recover an event log from trace.csv"),
            ("fit", _cmd_fit, "tabulate and fit per-occupancy rates from an event log"),
            ("shield", _cmd_shield, "tabulate suppression curves over the repump scan"),
            ("pipeline", _cmd_pipeline, "simulate, synth, detect, and fit in one run"),
            ("oracle", _cmd_oracle, "stationary distribution and expected rates of the model")]:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(run=run)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="named operating point applied under the config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override sim.seed from the config")
        p.add_argument("--out-dir", type=Path, default=Path("."),
                       help="output directory (default: '.')")
    return parser


def _load(args) -> RunConfig:
    """The preset, then --config, then --seed; detect, fit and shield skip it."""
    overrides = {}
    if args.seed is not None:
        overrides["sim.seed"] = str(args.seed)
    return load_config(args.config, args.preset, overrides)


def _write_report(out_dir: Path, command: str, *sections: list[str]) -> None:
    """report.txt: the command, then each section after a blank line."""
    blocks = [[f"command = {command}"], *sections]
    atomic_write_text(out_dir / "report.txt",
                      ["\n\n".join("\n".join(b) for b in blocks) + "\n"])


def _model_rates(model: RateModel) -> dict[str, float]:
    """The model's four rates, keyed as report.txt and stationary.csv name them."""
    return {f"{name}_per_s": rate for name, rate in asdict(model).items()}


def _simulate_stage(cfg: RunConfig) -> tuple[RateModel, EventLog, list[str]]:
    """Simulate the configured model; returns the model, its log and the
    report's true-model section. The caller writes events.csv. Refuses by
    key, before composing the rates, a run that markov.check_events refuses."""
    if cfg.duration <= 0:
        raise ConfigError("sim.duration_s must be positive for this command")
    check_events(cfg.trap.load_rate, cfg.duration, cfg.n0,
                 names=("trap.load_rate_per_s", "sim.duration_s", "sim.n0"))
    model = cfg.rate_model()
    log = simulate(model, n0=cfg.n0, duration=cfg.duration,
                   seed=_stage_seeds(cfg.seed)[0])
    return model, log, [
        "true model:",
        *(f"{key} = {rate:.6g}" for key, rate in _model_rates(model).items()),
        f"volume_cm3 = {cfg.volume_cm3():.6g}",
        f"true_events = {len(log)}",
    ]


def _synth_stage(cfg: RunConfig, out_dir: Path
                 ) -> tuple[RateModel, EventLog, FluorescenceTrace, list[str]]:
    """The simulate stage, then its log rendered as a photon trace; writes
    events.csv and trace.csv once both are made, so a failed synthesis
    leaves the out-dir's previous pair whole. Refuses by key what
    trace.check_bins refuses before simulating, and what trace.check_bin_mean
    refuses before drawing a count."""
    check_bins(cfg.duration, cfg.bin_width, names=("sim.duration_s", "trace.bin_width_s"))
    model, log, truth = _simulate_stage(cfg)
    check_bin_mean(log, cfg.per_atom_rate, cfg.trace_bg_rate, cfg.bin_width,
                   names=("trace.per_atom_rate_hz", "trace.bg_rate_hz", "trace.bin_width_s"))
    trace = synthesize(log, per_atom_rate=cfg.per_atom_rate,
                       bg_rate=cfg.trace_bg_rate, bin_width=cfg.bin_width,
                       seed=_stage_seeds(cfg.seed)[1])
    write_event_csv(log, out_dir / "events.csv")
    write_trace_csv(trace, out_dir / "trace.csv")
    return model, log, trace, truth


def _detect_stage(trace: FluorescenceTrace, out_dir: Path
                  ) -> tuple[EventLog, Calibration, DetectionReport, list[str]]:
    """Calibrate and read the event log back from a trace; writes
    detected_events.csv with the bin width and calibration a re-fit needs."""
    cal = calibrate(trace)
    log, report = detect(trace, cal)
    write_detected_csv(log, trace.bin_width, cal, out_dir / "detected_events.csv")
    return log, cal, report, [
        "detection:",
        f"per_atom_rate_hz = {cal.per_atom_rate:.6g} +- {cal.per_atom_err:.2g}",
        f"bg_rate_hz = {cal.bg_rate:.6g} +- {cal.bg_err:.2g}",
        f"levels_used = {cal.n_levels}",
        f"snr = {report.snr:.3f}",
        f"bins = {report.n_bins}",
        f"events = {report.n_events}",
        f"event_rate_per_s = {report.event_rate:.6g}",
        f"spike_bins = {report.spike_bins}",
        f"pair_bumps = {report.pair_bumps}",
        f"merged_bins = {report.merged_bins}",
        f"ambiguous_bins = {report.ambiguous_bins}",
        f"coincidence_probability = {report.coincidence_probability:.4g}",
    ]


_FIT_COLUMNS = ("load_rate", "load_rate_err", "bg_rate", "bg_rate_err", "b1",
                "b1_err", "b2_event", "b2_event_err", "beta2_over_v",
                "beta2_over_v_err", "beta_total_over_v", "beta_total_over_v_err",
                "chi2", "dof")


def _fit_stage(log: EventLog, source: str, out_dir: Path,
               bin_width: float | None, cal: Calibration | None
               ) -> tuple[FitResult, list[str]]:
    """Tabulate and fit the per-occupancy rates of `log`, which file
    `source` holds; writes rates_by_n.csv and fit.csv. A detected log passes
    its trace bin width and calibration for the pile-up corrections."""
    table = tabulate(log)
    cols = {"n": table.n, "occupancy_s": table.occupancy_s}
    cols.update((f"n_{kind}", getattr(table, f"n_{kind}").astype(np.int64))
                for kind in KIND_NAMES)
    for kind in KIND_NAMES:
        cols[f"rate_{kind}"] = table.rate(kind)
        cols[f"rate_{kind}_err"] = table.rate_err(kind)
    write_table_csv(out_dir / "rates_by_n.csv", cols)
    fit = fit_rates(table, coincidence_width=bin_width, calibration=cal)
    clipped = ",".join(fit.clipped) or "none"
    write_table_csv(out_dir / "fit.csv",
                    {name: [getattr(fit, name)] for name in _FIT_COLUMNS},
                    header={"clipped": clipped})
    return fit, [
        "fit:",
        f"source = {source}",
        f"load_rate_per_s = {fit.load_rate:.6g} +- {fit.load_rate_err:.2g}",
        f"bg_lifetime_s = {fit.bg_lifetime:.6g} +- {fit.bg_lifetime_err:.2g}",
        f"b1_per_s = {fit.b1:.6g} +- {fit.b1_err:.2g}",
        f"b2_event_per_s = {fit.b2_event:.6g} +- {fit.b2_event_err:.2g}",
        f"chi2/dof = {fit.chi2:.4g}/{fit.dof}",
        f"clipped = {clipped}",
    ]


def _cmd_simulate(args) -> int:
    cfg, out_dir = _load(args), args.out_dir
    _, log, truth = _simulate_stage(cfg)
    write_event_csv(log, out_dir / "events.csv")
    _write_report(out_dir, "simulate", truth)
    print(f"wrote events.csv ({len(log)} events) to {out_dir}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg, out_dir = _load(args), args.out_dir
    _, log, trace, truth = _synth_stage(cfg, out_dir)
    _write_report(out_dir, "synth", truth)
    print(f"wrote events.csv ({len(log)} events) and trace.csv "
          f"({len(trace)} bins) to {out_dir}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    out_dir = args.out_dir
    trace_path = out_dir / "trace.csv"
    if not trace_path.is_file():
        raise ConfigError(f"no trace.csv in {out_dir}; run 'fewatom synth' first")
    _, _, report, detection = _detect_stage(read_trace_csv(trace_path), out_dir)
    _write_report(out_dir, "detect", detection)
    print(f"detected {report.n_events} events at snr {report.snr:.1f}; "
          f"wrote detected_events.csv to {out_dir}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    out_dir = args.out_dir
    src = out_dir / "detected_events.csv"
    if src.is_file():
        log, bin_width, cal = read_detected_csv(src)
    else:
        # an exact simulation log: no binning, so no pile-up correction
        src = out_dir / "events.csv"
        if not src.is_file():
            raise ConfigError(f"no detected_events.csv or events.csv in {out_dir}")
        log, bin_width, cal = read_event_csv(src), None, None
    fit, fitted = _fit_stage(log, src.name, out_dir, bin_width, cal)
    _write_report(out_dir, "fit", fitted)
    print(f"fit from {src.name}: load {fit.load_rate:.4g}/s, "
          f"b1 {fit.b1:.4g}/s, b2 {fit.b2_event:.4g}/s; wrote fit.csv to {out_dir}")
    return EXIT_OK


def _cmd_shield(args) -> int:
    out_dir = args.out_dir
    cols: dict[str, np.ndarray] = {"s0": SHIELD_S0}
    header: dict[str, object] = {}
    for t in SHIELD_TEMPERATURES:
        label = f"{t * 1e6:g}uk"
        cols[f"ratio_{label}"] = suppression_ratio(SHIELD_S0, t)
        header[f"a_{label}"] = float(scaling_constant(t))
    write_table_csv(out_dir / "shield.csv", cols, header=header)
    print(f"wrote shield.csv ({len(SHIELD_S0)} points, "
          f"{len(SHIELD_TEMPERATURES)} temperature(s)) to {out_dir}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg, out_dir = _load(args), args.out_dir
    model, log, trace, truth = _synth_stage(cfg, out_dir)
    detected, cal, report, detection = _detect_stage(trace, out_dir)
    fit, fitted = _fit_stage(detected, "detected_events.csv", out_dir,
                             trace.bin_width, cal)
    _write_report(out_dir, "pipeline", detection, fitted, truth)
    print(f"pipeline done in {out_dir}: {len(log)} true events, "
          f"{report.n_events} detected, fitted b2 {fit.b2_event:.4g}/s "
          f"(model {model.b2:.4g}/s)")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg, out_dir = _load(args), args.out_dir
    model = cfg.rate_model()
    p = master_stationary(model)
    n = np.arange(len(p))
    load, loss1, loss2 = model.channel_rates(n)
    mean_n, mean_pairs = stationary_moments(p)
    write_table_csv(out_dir / "stationary.csv", {
        "n": n, "probability": p, "rate_load": np.full(len(p), load),
        "rate_loss1": loss1, "rate_loss2": loss2,
    }, header={"mean_n": mean_n, "mean_pairs": mean_pairs, **_model_rates(model)})
    print(f"stationary mean N = {mean_n:.4f}, mean N(N-1) = {mean_pairs:.4f}; "
          f"wrote stationary.csv to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (TruncationError, ConvergenceError, DegenerateDataError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CalibrationError, DetectionQualityError) as exc:
        print(f"detection error: {exc}", file=sys.stderr)
        return EXIT_DETECTION
    except (OSError, ValueError) as exc:  # ValueError includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
