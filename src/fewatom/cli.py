"""Command line front end.

Subcommands cover the full measurement chain: simulate (event log), synth
(photon trace), detect (log recovery from a trace), fit (per-occupancy rates),
shield (suppression curves), pipeline (all of the above end to end), and
oracle (stationary distribution of the configured rate model).

Outputs land in --out-dir under conventional names (events.csv, trace.csv,
detected_events.csv, rates_by_n.csv, fit.csv, shield.csv, stationary.csv,
report.txt). Exit codes: 0 success, 2 configuration, usage or input-file
error, 3 numerical failure, 4 detection quality failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, PRESETS, RunConfig, load_config
from .detect import (Calibration, CalibrationError, DetectionQualityError,
                     calibrate, detect)
from .fitting import (ConvergenceError, DegenerateDataError, FitResult,
                      fit_rates, tabulate)
from .markov import (EventLog, RateModel, TruncationError, expected_event_rates,
                     master_stationary, simulate, stationary_moments)
from .channels import scaling_constant, suppression_ratio
from .storage import atomic_write_text, write_table_csv
from .trace import FluorescenceTrace, synthesize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DETECTION = 4


class UsageError(ConfigError):
    pass


def _stage_seeds(seed: int, n: int) -> list[int]:
    """Derive independent per-stage integer seeds from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(max(n, 1), dtype=np.uint64)
    return [int(s) for s in state]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewatom",
        description="Few-atom trap loss statistics toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
            ("simulate", "generate an event log from the configured rate model"),
            ("synth", "simulate and render a photon-count trace"),
            ("detect", "recover an event log from trace.csv"),
            ("fit", "tabulate and fit per-occupancy rates from an event log"),
            ("shield", "tabulate suppression curves over the configured scan"),
            ("pipeline", "simulate, synth, detect, and fit in one run"),
            ("oracle", "stationary distribution and expected rates of the model")]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                       help="named operating point applied under the config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override sim.seed from the config")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="output directory (default: io.out_dir, '.')")
    return parser


def _load(args) -> tuple[RunConfig, Path]:
    overrides = {}
    if args.seed is not None:
        overrides["sim.seed"] = str(args.seed)
    cfg = load_config(args.config, args.preset, overrides)
    out_dir = Path(args.out_dir) if args.out_dir is not None else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _require_duration(cfg: RunConfig) -> None:
    if cfg.duration <= 0:
        raise UsageError("sim.duration_s must be positive for this command")


def _simulate_ensemble(cfg: RunConfig, model: RateModel) -> list[EventLog]:
    seeds = _stage_seeds(cfg.seed, 2 * cfg.ensemble)
    return [simulate(model, n0=cfg.n0, duration=cfg.duration, seed=seeds[2 * i])
            for i in range(cfg.ensemble)]


def _write_logs(logs: list[EventLog], out_dir: Path) -> list[Path]:
    paths = []
    for i, log in enumerate(logs):
        name = "events.csv" if len(logs) == 1 else f"events_{i:03d}.csv"
        path = out_dir / name
        log.write_csv(path)
        paths.append(path)
    return paths


def _model_summary(cfg: RunConfig, model: RateModel) -> list[str]:
    return [
        f"load_rate_per_s = {model.load_rate:.6g}",
        f"bg_rate_per_s = {model.bg_rate:.6g}",
        f"b1_per_s = {model.b1:.6g}",
        f"b2_per_s = {model.b2:.6g}",
        f"volume_cm3 = {cfg.volume_cm3():.6g}",
    ]


def _cmd_simulate(args) -> int:
    cfg, out_dir = _load(args)
    _require_duration(cfg)
    model = cfg.rate_model()
    logs = _simulate_ensemble(cfg, model)
    _write_logs(logs, out_dir)
    lines = ["command = simulate"] + _model_summary(cfg, model)
    for i, log in enumerate(logs):
        lines.append(f"run_{i:03d}: events = {len(log)}, final_n = "
                     f"{int(log.n_after[-1]) if len(log) else cfg.n0}")
    atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    print(f"wrote {len(logs)} event log(s) to {out_dir}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg, out_dir = _load(args)
    _require_duration(cfg)
    model = cfg.rate_model()
    seeds = _stage_seeds(cfg.seed, 2)
    log = simulate(model, n0=cfg.n0, duration=cfg.duration, seed=seeds[0])
    trace = synthesize(log, per_atom_rate=cfg.per_atom_rate,
                       bg_rate=cfg.trace_bg_rate, bin_width=cfg.bin_width,
                       seed=seeds[1])
    log.write_csv(out_dir / "events.csv")
    trace.write_csv(out_dir / "trace.csv")
    print(f"wrote events.csv ({len(log)} events) and trace.csv "
          f"({len(trace)} bins) to {out_dir}")
    return EXIT_OK


def _detect_on(trace: FluorescenceTrace, cfg: RunConfig, out_dir: Path):
    cal = calibrate(trace)
    log, report = detect(trace, cal, min_snr=cfg.min_snr)
    log.write_csv(out_dir / "detected_events.csv")
    lines = [
        "command = detect",
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
    atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    return log, report


def _cmd_detect(args) -> int:
    cfg, out_dir = _load(args)
    trace_path = out_dir / "trace.csv"
    if not trace_path.is_file():
        raise UsageError(f"no trace.csv in {out_dir}; run 'fewatom synth' first")
    trace = FluorescenceTrace.read_csv(trace_path)
    _, report = _detect_on(trace, cfg, out_dir)
    print(f"detected {report.n_events} events at snr {report.snr:.1f}; "
          f"wrote detected_events.csv to {out_dir}")
    return EXIT_OK


def _write_fit_outputs(log: EventLog, out_dir: Path,
                       extra_lines: list[str] | None = None,
                       coincidence_width: float | None = None,
                       cal: Calibration | None = None) -> FitResult:
    table = tabulate(log)
    write_table_csv(out_dir / "rates_by_n.csv", {
        "n": table.n,
        "occupancy_s": table.occupancy_s,
        "n_load": table.n_load.astype(np.int64),
        "n_loss1": table.n_loss1.astype(np.int64),
        "n_loss2": table.n_loss2.astype(np.int64),
        "rate_load": table.rate("load"),
        "rate_load_err": table.rate_err("load"),
        "rate_loss1": table.rate("loss1"),
        "rate_loss1_err": table.rate_err("loss1"),
        "rate_loss2": table.rate("loss2"),
        "rate_loss2_err": table.rate_err("loss2"),
    })
    fit = fit_rates(table, coincidence_width=coincidence_width, calibration=cal)
    write_table_csv(out_dir / "fit.csv", {
        "load_rate": [fit.load_rate], "load_rate_err": [fit.load_rate_err],
        "bg_rate": [fit.bg_rate], "bg_rate_err": [fit.bg_rate_err],
        "b1": [fit.b1], "b1_err": [fit.b1_err],
        "b2_event": [fit.b2_event], "b2_event_err": [fit.b2_event_err],
        "beta2_over_v": [fit.beta2_over_v],
        "beta2_over_v_err": [fit.beta2_over_v_err],
        "beta_total_over_v": [fit.beta_total_over_v],
        "beta_total_over_v_err": [fit.beta_total_over_v_err],
        "chi2": [fit.chi2], "dof": [fit.dof],
    }, header={"clipped": ",".join(fit.clipped) or "none"})
    lines = ["command = fit",
             f"load_rate_per_s = {fit.load_rate:.6g} +- {fit.load_rate_err:.2g}",
             f"bg_lifetime_s = {fit.bg_lifetime:.6g} +- {fit.bg_lifetime_err:.2g}",
             f"b1_per_s = {fit.b1:.6g} +- {fit.b1_err:.2g}",
             f"b2_event_per_s = {fit.b2_event:.6g} +- {fit.b2_event_err:.2g}",
             f"chi2/dof = {fit.chi2:.4g}/{fit.dof}",
             f"clipped = {','.join(fit.clipped) or 'none'}"]
    if extra_lines:
        lines += extra_lines
    atomic_write_text(out_dir / "report.txt", "\n".join(lines) + "\n")
    return fit


def _cmd_fit(args) -> int:
    cfg, out_dir = _load(args)
    src = out_dir / "detected_events.csv"
    if not src.is_file():
        src = out_dir / "events.csv"
    if not src.is_file():
        raise UsageError(f"no detected_events.csv or events.csv in {out_dir}")
    log = EventLog.read_csv(src)
    # detected logs carry the binning pile-up; exact simulation logs do not
    width = cal = None
    if src.name == "detected_events.csv":
        width = cfg.bin_width
        trace_path = out_dir / "trace.csv"
        if trace_path.is_file():
            cal = calibrate(FluorescenceTrace.read_csv(trace_path))
    fit = _write_fit_outputs(log, out_dir, [f"source = {src.name}"],
                             coincidence_width=width, cal=cal)
    print(f"fit from {src.name}: load {fit.load_rate:.4g}/s, "
          f"b1 {fit.b1:.4g}/s, b2 {fit.b2_event:.4g}/s; wrote fit.csv to {out_dir}")
    return EXIT_OK


def _cmd_shield(args) -> int:
    cfg, out_dir = _load(args)
    s0 = np.linspace(cfg.s0_min, cfg.s0_max, cfg.s0_points)
    cols: dict[str, np.ndarray] = {"s0": s0}
    header: dict[str, object] = {}
    for t in cfg.shield_temperatures:
        label = f"{t * 1e6:g}uk"
        cols[f"ratio_{label}"] = suppression_ratio(
            s0, t, cfg.shielding, cfg.constants)
        header[f"a_{label}"] = float(scaling_constant(t, cfg.constants))
    write_table_csv(out_dir / "shield.csv", cols, header=header)
    print(f"wrote shield.csv ({cfg.s0_points} points, "
          f"{len(cfg.shield_temperatures)} temperature(s)) to {out_dir}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    cfg, out_dir = _load(args)
    _require_duration(cfg)
    model = cfg.rate_model()
    seeds = _stage_seeds(cfg.seed, 2)
    log = simulate(model, n0=cfg.n0, duration=cfg.duration, seed=seeds[0])
    trace = synthesize(log, per_atom_rate=cfg.per_atom_rate,
                       bg_rate=cfg.trace_bg_rate, bin_width=cfg.bin_width,
                       seed=seeds[1])
    log.write_csv(out_dir / "events.csv")
    trace.write_csv(out_dir / "trace.csv")
    cal = calibrate(trace)
    detected, report = detect(trace, cal, min_snr=cfg.min_snr)
    detected.write_csv(out_dir / "detected_events.csv")
    extra = ["", "true model:"] + _model_summary(cfg, model) + [
        "", "detection:",
        f"snr = {report.snr:.3f}",
        f"true_events = {len(log)}",
        f"detected_events = {report.n_events}",
        f"spike_bins = {report.spike_bins}",
        f"pair_bumps = {report.pair_bumps}",
        f"merged_bins = {report.merged_bins}",
        f"ambiguous_bins = {report.ambiguous_bins}"]
    fit = _write_fit_outputs(detected, out_dir, extra,
                             coincidence_width=cfg.bin_width, cal=cal)
    print(f"pipeline done in {out_dir}: {len(log)} true events, "
          f"{report.n_events} detected, fitted b2 {fit.b2_event:.4g}/s "
          f"(model {model.b2:.4g}/s)")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg, out_dir = _load(args)
    model = cfg.rate_model()
    p = master_stationary(model)
    rates = expected_event_rates(p, model)
    mean_n, mean_pairs = stationary_moments(p)
    write_table_csv(out_dir / "stationary.csv", {
        "n": rates.n, "probability": rates.probability,
        "rate_load": rates.load, "rate_loss1": rates.loss1,
        "rate_loss2": rates.loss2,
    }, header={"mean_n": mean_n, "mean_pairs": mean_pairs,
               "load_rate_per_s": model.load_rate, "bg_rate_per_s": model.bg_rate,
               "b1_per_s": model.b1, "b2_per_s": model.b2})
    print(f"stationary mean N = {mean_n:.4f}, mean N(N-1) = {mean_pairs:.4f}; "
          f"wrote stationary.csv to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "detect": _cmd_detect,
    "fit": _cmd_fit,
    "shield": _cmd_shield,
    "pipeline": _cmd_pipeline,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:  # includes UsageError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncationError, ConvergenceError, DegenerateDataError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CalibrationError, DetectionQualityError) as exc:
        print(f"detection error: {exc}", file=sys.stderr)
        return EXIT_DETECTION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
