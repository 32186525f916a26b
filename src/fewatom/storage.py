"""CSV persistence for event logs and traces.

Files carry their metadata in '# key=value' header comments so a log or trace
round-trips without a sidecar; a detected log's header also holds the bin
width, the calibration and the detection path of the trace it was read from.
Writes go through a temp file and os.replace so a crashed run never leaves a
truncated CSV behind.

Integer columns never become one Python object per value. The writer renders
_CHUNK_ROWS rows at a time into a byte matrix: integers by digit arithmetic
on whole columns, floats as repr. A table of integer columns is parsed
straight from the file bytes, _BLOCK_BYTES at a time, into one preallocated
int64 array; a table with a float column is split into fields once, its
integer columns parsed from them and its float column by np.loadtxt. Either
way a field is valid only if the writer would write its parsed value as the
same bytes, so ' 5', '+5', '05' or '0.50' fail; that and the writers'
invariants are checked as array operations, and only a file that fails is
scanned line by line, to name its first bad line. The bytes
are csv.writer's ('\\r\\n' row ends); readers also take '\\n' and blank
lines, and nothing else the writers would not write.
"""

from __future__ import annotations

import io
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

# rows rendered per string handed to the file, and file bytes parsed per
# block: large enough that the per-call cost vanishes, small enough that the
# temporaries stay far below a trace's own counts
_CHUNK_ROWS = 1 << 16
_BLOCK_BYTES = 1 << 16


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
    back bit for bit, then the column row and the rows, rendered and
    written _CHUNK_ROWS at a time: float columns as repr, integers as str."""
    arrays = [np.asarray(a) for a in columns.values()]
    if arrays and any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("columns differ in length")
    head = "".join(f"# {key}={float(val)!r}\n" if isinstance(val, float)
                   else f"# {key}={val}\n" for key, val in (header or {}).items())
    chunks = (_render(arrays, lo, lo + _CHUNK_ROWS).decode("ascii")
              for lo in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS))
    atomic_write_text(path, chain([head, ",".join(columns) + "\r\n"], chunks))


def _read_csv(path: str | Path, keys: dict[str, Callable[[str], object]],
              columns: dict[str, type]
              ) -> tuple[dict[str, object], dict[str, np.ndarray], int]:
    """Header metadata, which must hold `keys`, each converted by its
    function; the rows under the `columns` row, one array per column of its
    type; and the line number of the column row. Header lines come only
    before the column row, each key once."""
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
            elif line.strip():
                break
        else:
            line, line_no = "", line_no + 1
        if line.removesuffix("\n").removesuffix("\r") != ",".join(columns):
            raise ValueError(f"{path}, line {line_no}: missing column header "
                             f"{','.join(columns)}")
        missing = [k for k in keys if k not in meta]
        if missing:
            raise ValueError(f"{path}, line {line_no}: missing header field(s) "
                             f"{missing} before the column row")
        # the column types, which every file's reader fixes, pick the parser
        rows = (_int_rows(fh, len(columns)) if set(columns.values()) == {np.int64}
                else _text_rows(fh.read(), columns))
    if rows is None:
        bad = _bad_line(path, line_no, columns)
        raise ValueError(f"{path}, line {bad[0]}: {bad[1]}" if bad
                         else f"{path}: rows the writer could not have written")
    return meta, dict(zip(columns, rows)), line_no


def _int_rows(fh, n_cols: int) -> np.ndarray | None:
    """The rows from fh's position on as an (n_cols, rows) int64 array,
    parsed _BLOCK_BYTES at a time, or None if one is not as the writer
    writes integers."""
    start = fh.tell()
    lines = sum(part.count(b"\n") for part in iter(lambda: fh.read(1 << 20), b""))
    out = np.empty((n_cols, lines + 1), np.int64)  # + a last unended line
    fh.seek(start)
    n, tail = 0, b""
    for block in chain(iter(lambda: fh.read(_BLOCK_BYTES), b""), [b"\n"]):
        block = tail + block
        cut = block.rfind(b"\n") + 1
        block, tail = block[:cut], block[cut:]
        fields = _fields(np.frombuffer(block, np.uint8), n_cols)
        if fields is None or fields[-1]:  # a byte no integer field holds
            return None
        rows = _int_values(*fields[:-1])
        if rows is None:
            return None
        out[:, n:n + len(rows)] = rows.T
        n += len(rows)
    return out[:, :n]


def _text_rows(data: bytes, columns: dict[str, type]) -> list[np.ndarray] | None:
    """One array per column of the rows in data, or None if they do not
    parse or the writer would not write their values as the same bytes.
    The lines are split into fields once: integer columns are parsed from
    those fields, and np.loadtxt converts only the float columns."""
    if not data.endswith(b"\n"):
        data += b"\n"  # a last line without its row end
    fields = _fields(np.frombuffer(data, np.uint8), len(columns))
    if fields is None:
        return None
    b, digit, starts, stops, neg, other = fields
    rows = []
    for j, kind in enumerate(columns.values()):
        column = (b, digit, starts[:, j], stops[:, j], neg[:, j])
        if kind is np.int64:
            values = _int_values(*column)
        else:
            values = _float_column(data, j, len(starts))
            marks = None if values is None else _floats_written(*column, values)
            if marks is None:
                return None
            other -= marks
        if values is None:
            return None
        rows.append(values)
    return rows if other == 0 else None


def _float_column(data: bytes, j: int, n_rows: int) -> np.ndarray | None:
    """Column j of the comma-separated lines in data as float64, by
    np.loadtxt, or None unless it parses into n_rows values."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(io.StringIO(data.decode("latin-1")), dtype=np.float64,
                                delimiter=",", comments=None, usecols=j, ndmin=1)
    except ValueError:
        return None
    return values if len(values) == n_rows else None


def _fields(b: np.ndarray, n_cols: int) -> tuple | None:
    """Split whole lines b, each ending '\\n' or '\\r\\n', into fields: b;
    its digit values, 0 for any other byte; the (rows, n_cols) starts and
    stops of the fields; whether each starts with '-'; and how many bytes
    are none of digits, separators, row ends and those '-'. None unless
    every line is blank or holds n_cols fields."""
    digit = b - np.uint8(ord("0"))
    is_digit = digit < 10
    digit *= is_digit
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    lf = b[ends] == ord("\n")
    starts = np.concatenate(([0], ends + 1))[:-1]
    cr = lf & (b[ends - 1] == ord("\r"))  # b[-1] is '\n', so none at ends[0] == 0
    stops = ends - cr
    neg = b[starts] == ord("-")
    other = (len(b) - np.count_nonzero(is_digit) - len(ends)
             - np.count_nonzero(cr) - np.count_nonzero(neg))
    # a blank line: nothing between a line's start and its end
    blank = lf & (starts == stops) & np.concatenate(([True], lf[:-1]))
    if blank.any():
        starts, stops, lf, neg = (a[~blank] for a in (starts, stops, lf, neg))
    if len(lf) % n_cols or (lf.reshape(-1, n_cols)
                            != (np.arange(n_cols) == n_cols - 1)).any():
        return None
    return (b, digit, *(a.reshape(-1, n_cols) for a in (starts, stops, neg)),
            other)


def _horner(digit: np.ndarray, first: np.ndarray, stops: np.ndarray, n: int,
            skip: np.ndarray | None = None) -> np.ndarray:
    """The uint64 value of the digits of each field [first, stop), which is
    at most n bytes long, leaving out the byte at skip; digit[first - 1],
    0 as it is no digit (or the last byte, a row end), pads on the left."""
    value = np.zeros(stops.shape, np.uint64)
    at, lo = np.empty_like(stops), first - 1
    for k in range(n, 0, -1):
        np.subtract(stops, k, out=at)
        np.maximum(at, lo, out=at)
        if skip is None:
            value *= np.uint64(10)
            value += digit[at]
        else:
            value = np.where(at == skip, value, value * np.uint64(10) + digit[at])
    return value


def _int_form(b: np.ndarray, starts: np.ndarray, stops: np.ndarray,
              neg: np.ndarray) -> np.ndarray | None:
    """The first digit of each field b[starts:stops], None unless each is
    as str writes an integer: after its '-', '0' or 1 to 19 digits, the
    first no '0'. The caller makes sure the fields hold no other bytes."""
    first = starts + neg
    n_digits = stops - first
    if n_digits.size and (n_digits.min() < 1 or n_digits.max() > 19 or (
            (b[first] == ord("0")) & ((n_digits > 1) | neg)).any()):
        return None
    return first


def _int_values(b: np.ndarray, digit: np.ndarray, starts: np.ndarray,
                stops: np.ndarray, neg: np.ndarray) -> np.ndarray | None:
    """The int64 values of the fields b[starts:stops], None unless each is
    str(v) of an int64 v (see _int_form)."""
    first = _int_form(b, starts, stops, neg)
    if first is None:
        return None
    value = _horner(digit, first, stops, int((stops - first).max(initial=0)))
    if (value > neg.astype(np.uint64) + np.uint64(2**63 - 1)).any():
        return None
    signed = value.view(np.int64)  # 2**63 reads as the int64 minimum
    np.negative(signed, out=signed, where=neg)
    return signed


# 10**k for k = 0..22, each exact as a double: for an integer c <= 2**53,
# one IEEE quotient gives c / 10**k correctly rounded
_POW10 = np.array([float(10**k) for k in range(23)])


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) = v with at most 26 significant bits in each (Veltkamp)."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


def _floats_written(b: np.ndarray, digit: np.ndarray, starts: np.ndarray,
                    stops: np.ndarray, neg: np.ndarray, x: np.ndarray) -> int | None:
    """For float fields b[starts:stops] read as x: None unless each is
    repr(x); else the count of their bytes other than digits and a leading
    '-': '.', 'e' and the exponent sign.

    For 1 <= |x| < 1e16, repr writes digits without a leading zero, '.', and
    digits without a trailing zero but in 'd.0': the fewest digits that
    read back as x, of those the closest to x. Up to 15 digits are always
    the fewest, as no two such decimals read back as one double, so only 16
    or 17 get checked against x. Other values, and the few fields that this
    double arithmetic cannot decide, are compared with repr one by one.
    """
    s, t, signed = starts + neg, stops, np.asarray(x)
    x = np.abs(signed)

    def first(mark):  # the position of the first `mark` in each field, else its stop
        at = np.flatnonzero(b == ord(mark))
        return np.minimum(np.append(at, len(b))[np.searchsorted(at, s)], t)

    dot = first(".")
    n_int, n_frac = dot - s, t - dot - 1
    last_zero = b[t - 1] == ord("0")
    point_zero = (n_frac == 1) & last_zero
    slow = ((first("e") < t) | (b[s] == ord("0")) | ~(x >= 1.0) | (x >= 1e16)
            | point_zero & (n_int == 16))
    if not (slow | (dot < t) & (n_frac >= 1) & (~last_zero | (n_frac == 1))
            & (n_int + n_frac <= 17)).all():
        return None
    check = np.flatnonzero(~slow & ~point_zero & (n_int + n_frac >= 16))
    if check.size:
        s, t, dot, n_frac, x = (a[check] for a in (s, t, dot, n_frac, x))
        d = _horner(digit, s, t, int((t - s).max()), dot)
        # no decimal of one digit fewer reads back as x: neither neighbour of
        # d // 10 at 10**(1 - n_frac) does
        c = (d // np.uint64(10)).astype(np.float64)
        pw = _POW10[n_frac - 1]
        shorter = (c / pw == x) | ((c + 1) / pw == x)
        # d is the integer closest to x * 10**n_frac, from its exact product
        # p + err (Dekker)
        p = x * _POW10[n_frac]
        (xh, xl), (ph, pl) = _split(x), _split(_POW10[n_frac])
        err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl
        r = np.rint(p)
        frac = (p - r) + err
        step = np.rint(frac)
        # c past 2**53 makes c / pw inexact, and a near tie is left to repr
        undecided = (c + 1 > 2.0**53) | (np.abs(np.abs(frac - step) - 0.5) <= 1e-6)
        slow[check[undecided]] = True
        closest = r.astype(np.int64) + step.astype(np.int64)
        if (~undecided & (shorter | (closest != d.astype(np.int64)))).any():
            return None
    marks = np.count_nonzero(~slow)  # the '.' of each field checked above
    for i in np.flatnonzero(slow).tolist():
        text = b[starts[i]:stops[i]].tobytes().decode("latin-1")
        if text != repr(float(signed[i])):
            return None
        marks += sum(not ch.isdigit() for ch in text[int(neg[i]):])
    return int(marks)


def _raise_first(path: str | Path, column_line: int, faults: list) -> None:
    """Raise for the earliest row that any fault's mask rejects (the earlier
    fault on a tie), naming the file and the row's line; see EventLog.faults."""
    bad = [(np.argmax(mask), k) for k, (mask, _) in enumerate(faults) if mask.any()]
    if bad:
        row, k = min(bad)
        with open(path, "rb") as fh:
            line = next(islice(_data_lines(fh, column_line), row, None))[0]
        raise ValueError(f"{path}, line {line}: {faults[k][1](row)}")


def _data_lines(fh, column_line: int) -> Iterable[tuple[int, str]]:
    """(line number, text without its '\\n' or '\\r\\n') of each row after
    the column row of the binary file fh; blank lines hold no row."""
    for n, raw in enumerate(fh, start=1):
        line = raw.decode("latin-1").removesuffix("\n").removesuffix("\r")
        if n > column_line and line:
            yield n, line


def _bad_line(path: str | Path, column_line: int, columns: dict[str, type]
              ) -> tuple[int, str] | None:
    """(line number, fault) of the first data line the writer could not
    have written, or None if there is none."""
    with open(path, "rb") as fh:
        for line_no, line in _data_lines(fh, column_line):
            if line.startswith("#"):
                return line_no, "header line after the column row"
            fields = line.split(",")
            if len(fields) != len(columns):
                return line_no, f"expected {len(columns)} columns, got {len(fields)}"
            for field, (name, kind) in zip(fields, columns.items()):
                try:
                    value = kind(field)
                except (ValueError, OverflowError) as exc:
                    return line_no, f"{name}: {exc}"
                written = repr(float(value)) if kind is np.float64 else str(value)
                if field != written:
                    return line_no, (f"{name}: {field!r}, where the writer "
                                     f"writes {written!r}")
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
    log = EventLog(times=rows["time_s"], kinds=rows["kind"],
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
# header key -> (Calibration field, converter); and whether detect ran its
# bump pass, 1 or 0, which decides the pile-up transfers the re-fit applies
_CAL_KEYS = {"cal_per_atom_rate_hz": ("per_atom_rate", float),
             "cal_bg_rate_hz": ("bg_rate", float),
             "cal_per_atom_err_hz": ("per_atom_err", float),
             "cal_bg_err_hz": ("bg_err", float), "cal_n_levels": ("n_levels", int)}
_BUMP_KEY = "bump_pass"


def write_detected_csv(log: EventLog, bin_width: float, cal: Calibration,
                       bump_pass: bool, path: str | Path) -> None:
    _write_events(log, path, {"bin_width_s": bin_width, **{
        key: getattr(cal, name) for key, (name, _) in _CAL_KEYS.items()},
        _BUMP_KEY: int(bump_pass)})


def read_detected_csv(path: str | Path
                      ) -> tuple[EventLog, float, Calibration, bool]:
    """(log, bin width, calibration, whether the bump pass ran) of a file
    write_detected_csv made."""
    log, meta = _read_events(path, {
        **_EVENT_KEYS, "bin_width_s": _checked(float, lambda w: w > 0, "positive"),
        **{key: kind for key, (_, kind) in _CAL_KEYS.items()},
        _BUMP_KEY: _checked(int, lambda b: b in (0, 1), "0 or 1")})
    return log, meta["bin_width_s"], Calibration(**{
        name: meta[key] for key, (name, _) in _CAL_KEYS.items()}), bool(meta[_BUMP_KEY])


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
    counts = rows["counts"]
    _raise_first(path, column_line,
                 [(counts < 0, lambda i: f"negative count {counts[i]}")])
    return FluorescenceTrace(
        bin_width=meta["bin_width_s"], counts=counts,
        per_atom_rate=meta["per_atom_rate_hz"], bg_rate=meta["bg_rate_hz"],
        seed=meta["seed"])
