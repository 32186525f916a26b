"""CSV persistence for event logs and traces.

Files carry their metadata in '# key=value' header comments so a log or trace
round-trips without a sidecar; a detected log's header also holds the bin
width and calibration of the trace it was read from. Writes go through a
temp file and os.replace so a crashed run never leaves a truncated CSV behind.

No Python runs per row: writers %-format chunks of rows from whole columns,
readers parse the data block with one np.loadtxt call and check the writers'
invariants as array operations. Only a file that fails is scanned line by
line, to name its first bad line. The bytes are csv.writer's ('\\r\\n' row
ends); readers also take '\\n' and blank lines, and nothing else the writers
would not write.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .detect import Calibration
from .markov import KIND_DELTA, EventLog
from .trace import FluorescenceTrace

# rows formatted per string handed to the file: large enough that the
# per-chunk cost vanishes, small enough that a chunk's strings stay a few MB
_CHUNK_ROWS = 1 << 16


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks in order, to path atomically
    (temp file + rename in the same dir)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str | Path, meta: dict[str, object],
               columns: dict[str, np.ndarray]) -> None:
    """A '# key=value' line per metadata item, floats as repr so they read
    back bit for bit, then the column row and the rows, formatted and
    written _CHUNK_ROWS at a time: float columns as repr, integers as %d."""
    arrays = [np.asarray(a) for a in columns.values()]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    head = "".join(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                   else f"# {key}={val}\n" for key, val in meta.items())
    row = ",".join("%r" if a.dtype.kind == "f" else "%d" for a in arrays) + "\r\n"
    chunks = ("".join(map(row.__mod__, zip(
        *(a[start:start + _CHUNK_ROWS].tolist() for a in arrays))))
        for start in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS))
    atomic_write_text(path, chain([head, ",".join(columns) + "\r\n"], chunks))


# A row check: the mask of rows it rejects, and the message for the first
# one, formatted with that row's fields by name
_RowCheck = tuple[Callable[[np.ndarray], np.ndarray], str]


def _read_csv(path: str | Path, keys: tuple[str, ...],
              columns: dict[str, type], checks: tuple[_RowCheck, ...] = ()
              ) -> tuple[dict[str, str], np.ndarray]:
    """Header metadata, which must hold `keys`, and the rows under the
    `columns` row as a structured array with those fields and types. Header
    lines come only before the column row, each key once. A row that does
    not parse or that a check rejects is reported with the file and line."""
    meta: dict[str, str] = {}
    with open(path) as fh:
        line_no = 0
        for line_no, line in enumerate(iter(fh.readline, ""), start=1):
            if line.startswith("#"):
                key, sep, val = line.lstrip("#").partition("=")
                key = key.strip()
                if not sep or key in meta:
                    raise ValueError(f"{path}, line {line_no}: " + (
                        f"header key {key} given twice" if sep
                        else "header line is not '# key=value'"))
                meta[key] = val.strip()
            elif line.strip():
                break
        else:
            line = ""
        if line.rstrip("\n") != ",".join(columns):
            raise ValueError(f"{path}: missing column header {','.join(columns)}")
        missing = [k for k in keys if k not in meta]
        if missing:
            raise ValueError(f"{path}: missing header field(s) {missing}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=np.dtype(list(columns.items())),
                                  delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            bad = _bad_line(path, line_no, columns)
            raise ValueError(f"{path}, line {bad[0]}: {bad[1]}" if bad
                             else f"{path}: {exc}") from None
    first = None  # (row, message) of the first rejected row
    for rejects, message in checks:
        bad_rows = np.flatnonzero(rejects(rows))
        if bad_rows.size and (first is None or bad_rows[0] < first[0]):
            first = bad_rows[0], message
    if first is not None:
        row, message = first
        with open(path) as fh:
            line = next(islice(_data_lines(fh, line_no), row, None))[0]
        raise ValueError(f"{path}, line {line}: " + message.format(
            **dict(zip(columns, rows[row].tolist()))))
    return meta, rows


def _data_lines(fh, column_line: int) -> Iterable[tuple[int, str]]:
    """(line number, line) of each row np.loadtxt reads after the column row."""
    return ((n, line) for n, line in enumerate(fh, start=1)
            if n > column_line and line != "\n")


def _bad_line(path: str | Path, column_line: int, columns: dict[str, type]
              ) -> tuple[int, str] | None:
    """(line number, fault) of the first data line that does not parse, or
    None if every line parses."""
    with open(path) as fh:
        for line_no, line in _data_lines(fh, column_line):
            if line.startswith("#"):
                return line_no, "header line after the column row"
            fields = line.rstrip("\n").split(",")
            if len(fields) != len(columns):
                return line_no, f"expected {len(columns)} columns, got {len(fields)}"
            for field, (name, kind) in zip(fields, columns.items()):
                try:
                    if "_" in field:  # Python's parsers allow 1_000, loadtxt not
                        raise ValueError(f"invalid literal {field!r}")
                    kind(field)
                except (ValueError, OverflowError) as exc:
                    return line_no, f"{name}: {exc}"
    return None


_EVENT_COLUMNS = {"time_s": np.float64, "kind": np.int64, "n_before": np.int64,
                  "n_after": np.int64}
_KIND_DELTA = np.array(KIND_DELTA)
_EVENT_CHECKS: tuple[_RowCheck, ...] = (
    (lambda r: (r["kind"] < 0) | (r["kind"] >= len(KIND_DELTA)),
     "unknown event kind {kind}"),
    (lambda r: r["n_after"] != r["n_before"]
     + _KIND_DELTA[np.clip(r["kind"], 0, len(KIND_DELTA) - 1)],
     "n_after {n_after} does not follow from n_before {n_before} and kind {kind}"),
)


def _write_events(log: EventLog, path: str | Path, meta: dict[str, object]) -> None:
    _write_csv(path, {"n0": log.n0, "duration_s": log.duration, "seed": log.seed,
                      **meta},
               dict(zip(_EVENT_COLUMNS, (log.times, log.kinds, log.n_before,
                                         log.n_after))))


def write_event_csv(log: EventLog, path: str | Path) -> None:
    _write_events(log, path, {})


def _read_events(path: str | Path, keys: tuple[str, ...] = ()
                 ) -> tuple[EventLog, dict[str, str]]:
    """An event log and its header metadata, which must also hold `keys`,
    rejecting any log its writer could not have made."""
    meta, rows = _read_csv(path, ("n0", "duration_s", "seed", *keys),
                           _EVENT_COLUMNS, _EVENT_CHECKS)
    try:
        log = EventLog(
            times=rows["time_s"].copy(), kinds=rows["kind"].astype(np.int8),
            n_before=rows["n_before"].copy(),
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


# bin i starts at i * bin_width_s, so the counts are the only column
_TRACE_COLUMNS = {"counts": np.int64}


def write_trace_csv(trace: FluorescenceTrace, path: str | Path) -> None:
    _write_csv(path, {"bin_width_s": trace.bin_width,
                      "per_atom_rate_hz": trace.per_atom_rate,
                      "bg_rate_hz": trace.bg_rate, "seed": trace.seed},
               {"counts": trace.counts})


def read_trace_csv(path: str | Path) -> FluorescenceTrace:
    meta, rows = _read_csv(
        path, ("bin_width_s", "per_atom_rate_hz", "bg_rate_hz", "seed"),
        _TRACE_COLUMNS, ((lambda r: r["counts"] < 0, "negative count {counts}"),))
    try:
        return FluorescenceTrace(
            bin_width=float(meta["bin_width_s"]), counts=rows["counts"].copy(),
            per_atom_rate=float(meta["per_atom_rate_hz"]),
            bg_rate=float(meta["bg_rate_hz"]), seed=int(meta["seed"]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_table_csv(path: str | Path, columns: dict[str, np.ndarray],
                    header: dict[str, object] | None = None) -> None:
    """Generic numeric column-table writer used by the CLI outputs."""
    _write_csv(path, header or {}, columns)
