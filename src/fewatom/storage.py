"""CSV persistence for event logs and traces.

Files carry their metadata in '# key=value' header comments so a log or trace
round-trips without a sidecar. Writes go through a temp file and os.replace
so a crashed run never leaves a truncated CSV behind.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path

import numpy as np

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


def _parse_header(lines: list[str]) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    return meta


def _split_file(path: str | Path
                ) -> tuple[dict[str, str], list[str], list[int]]:
    """Return (header metadata, data lines incl. the column header row, and
    the 1-based file line number of each data line)."""
    header: list[str] = []
    data: list[str] = []
    line_nos: list[int] = []
    with open(path, newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith("#"):
                header.append(line)
            elif line.strip():
                data.append(line)
                line_nos.append(line_no)
    return _parse_header(header), data, line_nos


def _require(meta: dict[str, str], keys: tuple[str, ...], path) -> None:
    missing = [k for k in keys if k not in meta]
    if missing:
        raise ValueError(f"{path}: missing header field(s) {missing}")


def write_event_csv(log: EventLog, path: str | Path) -> None:
    buf = io.StringIO()
    buf.write(f"# n0={log.n0}\n# duration_s={log.duration!r}\n# seed={log.seed}\n")
    writer = csv.writer(buf)
    writer.writerow(["time_s", "kind", "n_before", "n_after"])
    for t, k, nb, na in zip(log.times, log.kinds, log.n_before, log.n_after):
        writer.writerow([repr(float(t)), int(k), int(nb), int(na)])
    atomic_write_text(path, buf.getvalue())


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


def read_event_csv(path: str | Path) -> EventLog:
    """Read an event log, rejecting any file its writer could not have made."""
    meta, data, line_nos = _split_file(path)
    _require(meta, ("n0", "duration_s", "seed"), path)
    rows = list(csv.reader(data))
    if not rows or rows[0] != ["time_s", "kind", "n_before", "n_after"]:
        raise ValueError(f"{path}: missing event column header")
    events = []
    for line_no, row in zip(line_nos[1:], rows[1:]):
        try:
            events.append(_event_row(row))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line_no}: {exc}") from None
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
    return log


def write_trace_csv(trace: FluorescenceTrace, path: str | Path) -> None:
    buf = io.StringIO()
    buf.write(f"# bin_width_s={trace.bin_width!r}\n"
              f"# per_atom_rate_hz={trace.per_atom_rate!r}\n"
              f"# bg_rate_hz={trace.bg_rate!r}\n"
              f"# seed={trace.seed}\n")
    writer = csv.writer(buf)
    writer.writerow(["t_start_s", "counts"])
    for i, c in enumerate(trace.counts):
        writer.writerow([repr(i * trace.bin_width), int(c)])
    atomic_write_text(path, buf.getvalue())


def read_trace_csv(path: str | Path) -> FluorescenceTrace:
    meta, data, _ = _split_file(path)
    _require(meta, ("bin_width_s", "per_atom_rate_hz", "bg_rate_hz", "seed"), path)
    rows = list(csv.reader(data))
    if not rows or rows[0] != ["t_start_s", "counts"]:
        raise ValueError(f"{path}: missing trace column header")
    return FluorescenceTrace(
        bin_width=float(meta["bin_width_s"]),
        counts=np.array([int(r[1]) for r in rows[1:]], dtype=np.int64),
        per_atom_rate=float(meta["per_atom_rate_hz"]),
        bg_rate=float(meta["bg_rate_hz"]), seed=int(meta["seed"]))


def write_table_csv(path: str | Path, columns: dict[str, np.ndarray],
                    header: dict[str, object] | None = None) -> None:
    """Generic column-table writer used by the CLI outputs."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    buf = io.StringIO()
    for key, val in (header or {}).items():
        buf.write(f"# {key}={val!r}\n" if isinstance(val, float) else f"# {key}={val}\n")
    writer = csv.writer(buf)
    writer.writerow(names)
    rows = zip(*arrays) if arrays else []
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    atomic_write_text(path, buf.getvalue())
