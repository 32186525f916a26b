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
from .markov import EventLog
from .trace import FluorescenceTrace

# rows formatted per string handed to the file: large enough that the
# per-chunk cost vanishes, small enough that a chunk's strings stay a few MB
_CHUNK_ROWS = 1 << 16


def atomic_write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text chunks in order to path atomically (temp file + rename
    in the same dir)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table_csv(path: str | Path, columns: dict[str, np.ndarray],
                    header: dict[str, object] | None = None) -> None:
    """A '# key=value' line per header item, floats as repr so they read
    back bit for bit, then the column row and the rows, formatted and
    written _CHUNK_ROWS at a time: float columns as repr, integers as %d."""
    arrays = [np.asarray(a) for a in columns.values()]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    head = "".join(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                   else f"# {key}={val}\n" for key, val in (header or {}).items())
    row = ",".join("%r" if a.dtype.kind == "f" else "%d" for a in arrays) + "\r\n"
    chunks = ("".join(map(row.__mod__, zip(
        *(a[start:start + _CHUNK_ROWS].tolist() for a in arrays))))
        for start in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS))
    atomic_write_text(path, chain([head, ",".join(columns) + "\r\n"], chunks))


def _read_csv(path: str | Path, keys: dict[str, Callable[[str], object]],
              columns: dict[str, type]
              ) -> tuple[dict[str, object], np.ndarray, int]:
    """Header metadata, which must hold `keys`, each converted by its
    function; the rows under the `columns` row as a structured array with
    those fields and types; and the line number of the column row. Header
    lines come only before the column row, each key once."""
    meta: dict[str, object] = {}
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
                try:
                    meta[key] = keys.get(key, str)(val.strip())
                except ValueError as exc:
                    raise ValueError(f"{path}, line {line_no}: {key}: {exc}") from None
            elif line.strip():
                break
        else:
            line, line_no = "", line_no + 1
        if line.rstrip("\n") != ",".join(columns):
            raise ValueError(f"{path}, line {line_no}: missing column header "
                             f"{','.join(columns)}")
        missing = [k for k in keys if k not in meta]
        if missing:
            raise ValueError(f"{path}, line {line_no}: missing header field(s) "
                             f"{missing} before the column row")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=np.dtype(list(columns.items())),
                                  delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            bad = _bad_line(path, line_no, columns)
            raise ValueError(f"{path}, line {bad[0]}: {bad[1]}" if bad
                             else f"{path}: {exc}") from None
    return meta, rows, line_no


def _raise_first(path: str | Path, column_line: int, faults: list) -> None:
    """Raise for the earliest row that any fault's mask rejects (the earlier
    fault on a tie), naming the file and the row's line; see EventLog.faults."""
    bad = [(np.argmax(mask), k) for k, (mask, _) in enumerate(faults) if mask.any()]
    if bad:
        row, k = min(bad)
        with open(path) as fh:
            line = next(islice(_data_lines(fh, column_line), row, None))[0]
        raise ValueError(f"{path}, line {line}: {faults[k][1](row)}")


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


def _checked(kind: type, ok: Callable[[object], bool], rule: str
             ) -> Callable[[str], object]:
    """Header converter: `kind` of the text, which must be `rule` (`ok` checks)."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {text}")
        return value
    return convert


# n0 must fit the int64 arrays the log's atom numbers are derived in
_EVENT_KEYS = {"n0": _checked(int, lambda n: 0 <= n < 2**63, "a count in [0, 2**63)"),
               "duration_s": float, "seed": int}


def _write_events(log: EventLog, path: str | Path, meta: dict[str, object]) -> None:
    write_table_csv(path, dict(zip(_EVENT_COLUMNS, (
        log.times, log.kinds, log.n_before, log.n_after))), {
        "n0": log.n0, "duration_s": log.duration, "seed": log.seed, **meta})


def write_event_csv(log: EventLog, path: str | Path) -> None:
    _write_events(log, path, {})


def _read_events(path: str | Path, keys: dict[str, Callable[[str], object]]
                 ) -> tuple[EventLog, dict[str, object]]:
    """An event log and its header metadata, which must hold `keys`,
    rejecting any log its writer could not have made."""
    meta, rows, column_line = _read_csv(path, keys, _EVENT_COLUMNS)
    # int8 kinds only once checked: the cast would wrap 257 onto a known kind
    log = EventLog(times=rows["time_s"].copy(), kinds=rows["kind"],
                   n0=meta["n0"], duration=meta["duration_s"], seed=meta["seed"])
    n_before, n_after = rows["n_before"], rows["n_after"]
    _raise_first(path, column_line, [*log.faults(), (
        n_before != log.n_before, lambda i: "event sequence is not self-consistent: "
        f"n_before {n_before[i]} where the events before leave {log.n_before[i]}"), (
        n_after != log.n_after, lambda i: f"n_after {n_after[i]} does not follow "
        f"from n_before {n_before[i]} and kind {log.kinds[i]}")])
    log.kinds = log.kinds.astype(np.int8)
    return log, meta


def read_event_csv(path: str | Path) -> EventLog:
    return _read_events(path, _EVENT_KEYS)[0]


# What a detected log adds to an event log's header: the bin width and the
# calibration of the trace it was read from, which a re-fit needs, as
# header key -> (Calibration field, converter)
_CAL_KEYS = {"cal_per_atom_rate_hz": ("per_atom_rate", float),
             "cal_bg_rate_hz": ("bg_rate", float),
             "cal_per_atom_err_hz": ("per_atom_err", float),
             "cal_bg_err_hz": ("bg_err", float), "cal_n_levels": ("n_levels", int)}


def write_detected_csv(log: EventLog, bin_width: float, cal: Calibration,
                       path: str | Path) -> None:
    _write_events(log, path, {"bin_width_s": bin_width, **{
        key: getattr(cal, name) for key, (name, _) in _CAL_KEYS.items()}})


def read_detected_csv(path: str | Path) -> tuple[EventLog, float, Calibration]:
    """(log, bin width, calibration) of a file write_detected_csv made."""
    log, meta = _read_events(path, {
        **_EVENT_KEYS, "bin_width_s": _checked(float, lambda w: w > 0, "positive"),
        **{key: kind for key, (_, kind) in _CAL_KEYS.items()}})
    return log, meta["bin_width_s"], Calibration(**{
        name: meta[key] for key, (name, _) in _CAL_KEYS.items()})


# bin i starts at i * bin_width_s, so the counts are the only column
_TRACE_COLUMNS = {"counts": np.int64}


def write_trace_csv(trace: FluorescenceTrace, path: str | Path) -> None:
    write_table_csv(path, {"counts": trace.counts}, {
        "bin_width_s": trace.bin_width, "per_atom_rate_hz": trace.per_atom_rate,
        "bg_rate_hz": trace.bg_rate, "seed": trace.seed})


def read_trace_csv(path: str | Path) -> FluorescenceTrace:
    meta, rows, column_line = _read_csv(
        path, {"bin_width_s": float, "per_atom_rate_hz": float,
               "bg_rate_hz": float, "seed": int}, _TRACE_COLUMNS)
    counts = rows["counts"].copy()
    _raise_first(path, column_line,
                 [(counts < 0, lambda i: f"negative count {counts[i]}")])
    return FluorescenceTrace(
        bin_width=meta["bin_width_s"], counts=counts,
        per_atom_rate=meta["per_atom_rate_hz"], bg_rate=meta["bg_rate_hz"],
        seed=meta["seed"])
