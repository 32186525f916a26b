"""CSV persistence for event logs and traces.

Files carry their metadata in '# key=value' header comments so a log or trace
round-trips without a sidecar; a detected log's header also holds the bin
width and calibration of the trace it was read from. Writes go through a
temp file and os.replace so a crashed run never leaves a truncated CSV behind.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .detect import Calibration
from .markov import KIND_DELTA, EventLog
from .trace import FluorescenceTrace


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to path atomically (temp file + rename in the same dir)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str | Path, meta: dict[str, object], columns: list[str],
               rows: Iterable[list]) -> None:
    """A '# key=value' line per metadata item, floats as repr so they read
    back bit for bit, then the column header row and the rows."""
    buf = io.StringIO()
    for key, val in meta.items():
        buf.write(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                  else f"# {key}={val}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _read_csv(path: str | Path, keys: tuple[str, ...], columns: list[str],
              parse_row: Callable[[list[str]], object]) -> tuple[dict[str, str], list]:
    """Header metadata, which must hold `keys`, and parse_row of each row
    under the `columns` header row. A row parse_row rejects with ValueError
    is reported with the file and line."""
    meta: dict[str, str] = {}
    data: list[tuple[int, str]] = []  # (1-based line number, line)
    with open(path, newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#"):
                key, sep, val = line.lstrip("#").partition("=")
                if sep:
                    meta[key.strip()] = val.strip()
            elif line.strip():
                data.append((line_no, line))
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValueError(f"{path}: missing header field(s) {missing}")
    rows = csv.reader(line for _, line in data)
    if next(rows, None) != columns:
        raise ValueError(f"{path}: missing column header {','.join(columns)}")
    parsed = []
    for (line_no, _), row in zip(data[1:], rows):
        try:
            parsed.append(parse_row(row))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
    return meta, parsed


_EVENT_COLUMNS = ["time_s", "kind", "n_before", "n_after"]


def _write_events(log: EventLog, path: str | Path, meta: dict[str, object]) -> None:
    _write_csv(path, {"n0": log.n0, "duration_s": log.duration, "seed": log.seed,
                      **meta}, _EVENT_COLUMNS,
               ([repr(float(t)), int(k), int(nb), int(na)] for t, k, nb, na
                in zip(log.times, log.kinds, log.n_before, log.n_after)))


def write_event_csv(log: EventLog, path: str | Path) -> None:
    _write_events(log, path, {})


def _event_row(row: list[str]) -> tuple[float, int, int]:
    """(time, kind, n_before) of one event row, checked against its n_after."""
    if len(row) != 4:
        raise ValueError(f"expected 4 columns, got {len(row)}")
    t, kind, n_before, n_after = float(row[0]), int(row[1]), int(row[2]), int(row[3])
    if not 0 <= kind < len(KIND_DELTA):
        raise ValueError(f"unknown event kind {kind}")
    if n_after != n_before + KIND_DELTA[kind]:
        raise ValueError(f"n_after {n_after} does not follow from n_before "
                         f"{n_before} and kind {kind}")
    return t, kind, n_before


def _read_events(path: str | Path, keys: tuple[str, ...] = ()
                 ) -> tuple[EventLog, dict[str, str]]:
    """An event log and its header metadata, which must also hold `keys`,
    rejecting any log its writer could not have made."""
    meta, events = _read_csv(path, ("n0", "duration_s", "seed", *keys),
                             _EVENT_COLUMNS, _event_row)
    times, kinds, n_before = zip(*events) if events else ((), (), ())
    try:
        log = EventLog(
            times=np.array(times, dtype=np.float64),
            kinds=np.array(kinds, dtype=np.int8),
            n_before=np.array(n_before, dtype=np.int64),
            n0=int(meta["n0"]), duration=float(meta["duration_s"]),
            seed=int(meta["seed"]))
        log.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return log, meta


def read_event_csv(path: str | Path) -> EventLog:
    return _read_events(path)[0]


# What a detected log adds to an event log's header: the bin width and the
# calibration of the trace it was read from, which a re-fit needs
_DETECTED_KEYS = ("bin_width_s", "cal_per_atom_rate_hz", "cal_bg_rate_hz",
                  "cal_per_atom_err_hz", "cal_bg_err_hz", "cal_n_levels")


def write_detected_csv(log: EventLog, bin_width: float, cal: Calibration,
                       path: str | Path) -> None:
    _write_events(log, path, dict(zip(_DETECTED_KEYS, (
        bin_width, cal.per_atom_rate, cal.bg_rate, cal.per_atom_err, cal.bg_err,
        cal.n_levels))))


def read_detected_csv(path: str | Path) -> tuple[EventLog, float, Calibration]:
    """(log, bin width, calibration) of a file write_detected_csv made."""
    log, meta = _read_events(path, _DETECTED_KEYS)
    try:
        bin_width = float(meta["bin_width_s"])
        cal = Calibration(per_atom_rate=float(meta["cal_per_atom_rate_hz"]),
                          bg_rate=float(meta["cal_bg_rate_hz"]),
                          per_atom_err=float(meta["cal_per_atom_err_hz"]),
                          bg_err=float(meta["cal_bg_err_hz"]),
                          n_levels=int(meta["cal_n_levels"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not bin_width > 0:
        raise ValueError(f"{path}: bin_width_s must be positive")
    return log, bin_width, cal


def write_trace_csv(trace: FluorescenceTrace, path: str | Path) -> None:
    _write_csv(path, {"bin_width_s": trace.bin_width,
                      "per_atom_rate_hz": trace.per_atom_rate,
                      "bg_rate_hz": trace.bg_rate, "seed": trace.seed},
               ["t_start_s", "counts"],
               ([repr(i * trace.bin_width), int(c)] for i, c in enumerate(trace.counts)))


def _trace_row(row: list[str]) -> int:
    if len(row) != 2:
        raise ValueError(f"expected 2 columns, got {len(row)}")
    count = int(row[1])
    if count < 0:
        raise ValueError(f"negative count {count}")
    return count


def read_trace_csv(path: str | Path) -> FluorescenceTrace:
    meta, counts = _read_csv(
        path, ("bin_width_s", "per_atom_rate_hz", "bg_rate_hz", "seed"),
        ["t_start_s", "counts"], _trace_row)
    try:
        return FluorescenceTrace(
            bin_width=float(meta["bin_width_s"]),
            counts=np.array(counts, dtype=np.int64),
            per_atom_rate=float(meta["per_atom_rate_hz"]),
            bg_rate=float(meta["bg_rate_hz"]), seed=int(meta["seed"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_table_csv(path: str | Path, columns: dict[str, np.ndarray],
                    header: dict[str, object] | None = None) -> None:
    """Generic column-table writer used by the CLI outputs."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    _write_csv(path, header or {}, names,
               ([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                 for v in row] for row in (zip(*arrays) if arrays else [])))
