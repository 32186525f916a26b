"""CSV persistence for event logs and traces.

Files carry their metadata in '# key=value' header comments so a log or trace
round-trips without a sidecar; a detected log's header also holds the bin
width and the calibration of the trace it was read from.
Writes go through a temp file and os.replace so a crashed run never leaves a
truncated CSV behind; a writer makes the file's directory if it is missing.

The writer is the one statement of the format. It renders _CHUNK_ROWS rows
at a time into a byte matrix, integers by digit arithmetic on whole columns
and floats as repr, as csv.writer's bytes ('\\r\\n' row ends). A reader
reads a file once: it takes the rows in one pass, _BLOCK_BYTES of whole lines
at a time, into arrays no longer than the file's size allows (a row takes
two bytes at least), whatever the header's count, parses each block loosely
with numpy's C parsers (np.fromstring for a trace's counts, np.loadtxt for a
table with a float column) and renders the values again with the writer: a
block reads only if the bytes are the same, or the same once '\\n' row ends
become '\\r\\n', the one liberty the readers take. So a blank line does
not read, and row k (from 0) sits k + 1 lines below the column row. Every
row, the column row included, must end with a row end, so a file cut inside
its last row does not read, and the rows must number what the '# rows=N'
header line the writer adds gives, so neither does one cut at a row end.
So a field reads only if the writer would write its value as the same
bytes, and ' 5', '+5', '05' or '0.50' fail. Header values are checked
against the ranges their sources guarantee, and rows against the writers'
invariants as array operations; only the first block whose rows fail is
scanned line by line, to name its first bad line.
"""

from __future__ import annotations

import io
import math
import os
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .detect import Calibration
from .markov import EventLog, raise_first
from .trace import FluorescenceTrace, count_faults

# rows rendered per string handed to the file, and file bytes parsed per
# block: large enough that the per-call cost vanishes, small enough that the
# temporaries stay far below a trace's own counts
_CHUNK_ROWS = 1 << 16
_BLOCK_BYTES = 1 << 17

_ROWS_KEY = "rows"  # the header key of the row count, which every reader requires


def atomic_write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text chunks in order to path atomically: into a temp file of
    a fresh name and the umask's mode in path's dir (made if missing), renamed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _digits(a: np.ndarray) -> np.ndarray:
    """str(v) of each integer v in a, right-aligned and padded on the left
    with zero bytes, as ASCII bytes with a row per place and a column per
    value."""
    neg = a < 0
    mag = a.astype(np.uint64)  # a negative v wraps to 2**64 + v
    np.negative(mag, out=mag, where=neg)  # |v|, the int64 minimum included
    top = int(mag.max(initial=0))
    if top < 2**32:  # divides several times faster
        mag = mag.astype(np.uint32)
    n_digits = len(str(top))
    width = n_digits + bool(neg.any())
    text = np.zeros((width, len(a)), np.uint8)
    quotient = np.empty_like(mag)
    for j in range(width - 1, width - 1 - n_digits, -1):
        shown = mag > 0  # a digit left of the first one pads
        np.floor_divide(mag, 10, out=quotient)
        mag -= quotient * 10
        mag += ord("0")
        text[j] = mag
        if j < width - 1:
            text[j] *= shown
        mag, quotient = quotient, mag
    rows = np.flatnonzero(neg)
    text[width - 1 - np.count_nonzero(text[:, rows], axis=0), rows] = ord("-")
    return text


def _reprs(a: np.ndarray) -> np.ndarray:
    """repr(float(v)) of each v in a, laid out as _digits lays out str but
    left-aligned."""
    return (np.array(list(map(repr, a.tolist())), dtype="S").view(np.uint8)
            .reshape(len(a), -1).T)


def _render(arrays: list[np.ndarray], lo: int, hi: int) -> bytes:
    """Rows lo:hi of the columns as the writer writes them: float columns
    as repr, integers as str, ',' between fields and '\\r\\n' after each
    row. The text is built a row per byte place and read out by column, as
    each place is then one contiguous write; zero bytes pad each field and
    are dropped."""
    fields = [_reprs(a) if a.dtype.kind == "f" else _digits(a)
              for a in (column[lo:hi] for column in arrays)]
    text = np.zeros((sum(len(f) + 1 for f in fields) + 1, fields[0].shape[1]),
                    np.uint8)
    at = 0
    for f in fields:
        text[at:at + len(f)] = f
        text[at + len(f)] = ord(",")
        at += len(f) + 1
    text[-2], text[-1] = ord("\r"), ord("\n")
    rows = text.T
    return rows[rows != 0].tobytes()


def write_table_csv(path: str | Path, columns: dict[str, np.ndarray],
                    header: dict[str, object] | None = None) -> None:
    """A '# key=value' line per header item, floats as repr so they read
    back bit for bit, and a last one, '# rows=N', giving the row count;
    then the column row and the rows, rendered and written _CHUNK_ROWS at a
    time: float columns as repr, integers as str."""
    arrays = [np.asarray(a) for a in columns.values()]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    n = len(arrays[0]) if arrays else 0
    head = "".join(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                   else f"# {key}={val}\n"
                   for key, val in {**(header or {}), _ROWS_KEY: n}.items())
    chunks = (_render(arrays, lo, lo + _CHUNK_ROWS).decode("ascii")
              for lo in range(0, n, _CHUNK_ROWS))
    atomic_write_text(path, chain([head, ",".join(columns) + "\r\n"], chunks))


def _read_csv(path: str | Path, keys: dict[str, Callable[[str], object]],
              columns: dict[str, type]
              ) -> tuple[dict[str, object], dict[str, np.ndarray], Callable[[int], str]]:
    """Header metadata, which must hold `keys` and the row count, each
    converted by its function; the rows under the `columns` row, one array
    per column of its type, as many as the header gives; and where(k), the
    file and line of row k (from 0), k + 1 lines below the column row.
    Header lines come only before the column row, each key once."""
    keys = {**keys, _ROWS_KEY: _checked(int, lambda n: n >= 0, "a count")}
    meta: dict[str, object] = {}
    with open(path, "rb") as fh:
        line_no = 0
        for line_no, raw in enumerate(iter(fh.readline, b""), start=1):
            line = raw.decode("latin-1")
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
            else:
                break
        else:
            line, line_no = "", line_no + 1
        if line.removesuffix("\n").removesuffix("\r") != ",".join(columns):
            raise ValueError(f"{path}, line {line_no}: missing column header "
                             f"{','.join(columns)}")
        if not line.endswith("\n"):
            raise ValueError(f"{path}, line {line_no}: row has no row end")
        missing = [k for k in keys if k not in meta]
        if missing:
            raise ValueError(f"{path}, line {line_no}: missing header field(s) "
                             f"{missing} before the column row")
        want = meta[_ROWS_KEY]
        where = lambda k: f"{path}, line {line_no + 1 + k}"
        rows, n = _rows(fh, columns, want, where)
    # the count is compared once every row has read, so a bad row anywhere
    # is named first: a file cut at a row end has fewer rows, and one with
    # rows appended more
    if n != want:
        raise ValueError(f"{where(min(n, want))}: "
                         + (f"row {want + 1} past the header's rows={want}" if n > want
                            else f"file ends after {n} of the header's rows={want}"))
    return meta, dict(zip(columns, rows)), where


def _rows(fh, columns: dict[str, type], want: int, where: Callable[[int], str]
          ) -> tuple[list[np.ndarray], int]:
    """The first `want` rows from fh's position on, one array per column of
    its type, and the count of all rows, read in one pass, _BLOCK_BYTES of
    whole lines at a time. A row takes two bytes at least, so the arrays
    hold no more rows than the file could. Raises ValueError at where(k) for
    the first row k not as the writer writes it, named from the first block
    that fails, or for a last row with no row end."""
    start = fh.tell()
    out = [np.empty(min(want, (fh.seek(0, io.SEEK_END) - start) // 2), kind)
           for kind in columns.values()]
    fh.seek(start)
    n, tail = 0, b""
    for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
        block = tail + block
        cut = block.rfind(b"\n") + 1
        block, tail = block[:cut], block[cut:]
        values = _parse(block, columns)
        k = len(values[0]) if values else 0
        text = _render(values, 0, k) if k else b""
        if values is None or (text != block and text.replace(b"\r\n", b"\n")
                              != block.replace(b"\r\n", b"\n")):
            i, fault = _bad_line(block, columns)
            raise ValueError(f"{where(n + i)}: {fault}")
        for column, v in zip(out, values):
            column[n:n + k] = v[:max(want - n, 0)]
        n += k
    if tail:
        raise ValueError(f"{where(n)}: row has no row end")
    return [column[:min(n, want)] for column in out], n


def _parse(block: bytes, columns: dict[str, type]) -> list[np.ndarray] | None:
    """The values in the lines of block, one array per column, as numpy's C
    parsers read them, or None where they fail. They read loosely (' 5' and
    '+5' as 5, a lone '\\r' as a separator), so only the caller's comparison
    with the writer's bytes decides whether the block holds rows."""
    if not block.strip():  # np.fromstring reads b"\n" as [0]
        return [np.empty(0, kind) for kind in columns.values()]
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns where 2.x raises: on a string it could not
            # read to its end, and on an integer read via a float
            for message in ("string or file could not be read to its end",
                            "loadtxt\\(\\): Parsing an integer via a float"):
                warnings.filterwarnings("ignore", message)
            if list(columns.values()) == [np.int64]:
                return [np.fromstring(block, np.int64, sep=" ")]
            table = np.loadtxt(io.StringIO(block.decode("latin-1")),
                               dtype=list(columns.items()), delimiter=",",
                               comments=None, ndmin=1)
    except ValueError:
        return None
    return [table[name] for name in columns]


def _bad_line(block: bytes, columns: dict[str, type]) -> tuple[int, str]:
    """(index, fault) of the first line of block, whole lines, that the
    writer could not have written; (0, ...) if no one line is at fault."""
    for i, raw in enumerate(block.split(b"\n")[:-1]):
        line = raw.decode("latin-1").removesuffix("\r")
        if not line:
            return i, "blank line"
        if line.startswith("#"):
            return i, "header line after the column row"
        fields = line.split(",")
        if len(fields) != len(columns):
            return i, f"expected {len(columns)} columns, got {len(fields)}"
        for field, (name, kind) in zip(fields, columns.items()):
            try:
                value = kind(field)
            except (ValueError, OverflowError) as exc:
                return i, f"{name}: {exc}"
            written = repr(float(value)) if kind is np.float64 else str(value)
            if field != written:
                return i, f"{name}: {field!r}, where the writer writes {written!r}"
    return 0, "rows the writer could not have written"


_EVENT_COLUMNS = {"time_s": np.float64, "kind": np.int64, "n_before": np.int64,
                  "n_after": np.int64}


def _checked(kind: Callable[[str], object], ok: Callable[[object], bool], rule: str
             ) -> Callable[[str], object]:
    """Header converter: `kind` of the text, which must be `rule` (`ok` checks)."""
    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {text}")
        return value
    return convert


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


# the ranges the writers' sources guarantee: synthesize's rates and bin
# width, simulate's duration, and what calibrate returns
_POSITIVE = _checked(_finite, lambda v: v > 0, "positive")
_NON_NEGATIVE = _checked(_finite, lambda v: v >= 0, "non-negative")

# n0 must fit the int64 arrays the log's atom numbers are derived in
_EVENT_KEYS = {"n0": _checked(int, lambda n: 0 <= n < 2**63, "a count in [0, 2**63)"),
               "duration_s": _POSITIVE, "seed": int}


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
    meta, rows, where = _read_csv(path, keys, _EVENT_COLUMNS)
    # int8 kinds only once checked: the cast would wrap 257 onto a known kind
    log = EventLog(times=rows["time_s"], kinds=rows["kind"],
                   n0=meta["n0"], duration=meta["duration_s"], seed=meta["seed"])
    n_before, n_after = rows["n_before"], rows["n_after"]
    raise_first([*log.faults(), (
        n_before != log.n_before, lambda i: "event sequence is not self-consistent: "
        f"n_before {n_before[i]} where the events before leave {log.n_before[i]}"), (
        n_after != log.n_after, lambda i: f"n_after {n_after[i]} does not follow "
        f"from n_before {n_before[i]} and kind {log.kinds[i]}")], where)
    log.kinds = log.kinds.astype(np.int8)
    return log, meta


def read_event_csv(path: str | Path) -> EventLog:
    return _read_events(path, _EVENT_KEYS)[0]


# What a detected log adds to an event log's header: the bin width and the
# calibration of the trace it was read from, which a re-fit needs, as
# header key -> (Calibration field, converter)
_CAL_KEYS = {"cal_per_atom_rate_hz": ("per_atom_rate", _POSITIVE),
             "cal_bg_rate_hz": ("bg_rate", _NON_NEGATIVE),
             "cal_per_atom_err_hz": ("per_atom_err", _NON_NEGATIVE),
             "cal_bg_err_hz": ("bg_err", _NON_NEGATIVE),
             "cal_n_levels": ("n_levels",
                              _checked(int, lambda n: n >= 2, "at least 2"))}


def write_detected_csv(log: EventLog, bin_width: float, cal: Calibration,
                       path: str | Path) -> None:
    _write_events(log, path, {"bin_width_s": bin_width, **{
        key: getattr(cal, name) for key, (name, _) in _CAL_KEYS.items()}})


def read_detected_csv(path: str | Path) -> tuple[EventLog, float, Calibration]:
    """(log, bin width, calibration) of a file write_detected_csv made."""
    log, meta = _read_events(path, {
        **_EVENT_KEYS, "bin_width_s": _POSITIVE,
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
    meta, rows, where = _read_csv(
        path, {"bin_width_s": _POSITIVE, "per_atom_rate_hz": _POSITIVE,
               "bg_rate_hz": _NON_NEGATIVE, "seed": int}, _TRACE_COLUMNS)
    raise_first(count_faults(rows["counts"]), where)
    return FluorescenceTrace(
        bin_width=meta["bin_width_s"], counts=rows["counts"],
        per_atom_rate=meta["per_atom_rate_hz"], bg_rate=meta["bg_rate_hz"],
        seed=meta["seed"])
