"""Shared helpers: exact decimal sums, seed mixing, serialization.

Amounts are summed as :class:`Units`: int64 multiples of one power of ten
per ledger, summed per group with ``np.add.at``; a ``Decimal`` is built only
for a sum that is written. A ledger whose units do not fit in int64 keeps
its ``Decimal`` amounts, which ``dsum`` and ``group_sums`` add exactly, in
any order, and hold to 60 significant digits.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, Inexact, localcontext
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError

# Sums are taken exactly, at up to _EXACT_PRECISION significant digits and
# so in any order, and only then held to _SUM_PRECISION: a total that needs
# more significant digits is a DataError, not rounded. 60 digits cover any
# realistic ledger volume; the default context (28) would cover national-scale sums.
_SUM_PRECISION = 60
_EXACT_PRECISION = 1000

_MASK64 = (1 << 64) - 1

# Epoch seconds of datetime's UTC range, 0001-01-01T00:00:00Z to
# 9999-12-31T23:59:59Z.
MIN_EPOCH = -62_135_596_800
MAX_EPOCH = 253_402_300_799


@contextmanager
def _trapping(precision: int):
    """A decimal context of ``precision`` digits in which a rounding that
    loses a digit raises :class:`DataError`."""
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.traps[Inexact] = True
        try:
            yield
        except Inexact:
            raise DataError(f"amounts cannot be summed exactly in {_SUM_PRECISION} "
                            "significant digits") from None


def _exact_sums(groups: Iterable[Iterable[Decimal]]) -> list[Decimal]:
    """The sum of each group of decimals, from ``Decimal(0)``, exact and
    independent of order; each total is then held to 60 significant digits."""
    with _trapping(_EXACT_PRECISION):
        totals = [sum(values, Decimal(0)) for values in groups]
    with _trapping(_SUM_PRECISION):
        return [+total for total in totals]


def dsum(values: Iterable[Decimal]) -> Decimal:
    """Sum decimals exactly, independent of iteration order."""
    return _exact_sums([values])[0]


def group_sums(groups: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Exact sums of ``values`` (an object array of Decimals) per integer
    group code ``0..size-1``, as an object array; an empty group sums to 0."""
    bounds = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=size)))).tolist()
    grouped = values[np.argsort(groups, kind="stable")].tolist()
    sums = np.empty(size, dtype=object)
    sums[:] = _exact_sums(grouped[a:b] for a, b in zip(bounds, bounds[1:]))
    return sums


# Units are int64, and so is the scale's factor 10**-scale, which is exact
# as a float too: a float volume is one correctly rounded division.
_INT64_END = 2**63
_SCALE_DIGITS = 18


def _unit_table(amounts: Sequence[Decimal]) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The int64 units, int8 exponents (``min(0, exponent)``) and common
    scale of decimals; None where one is not finite or is negative, a unit
    would be past int64 or the scale below ``10**-18``."""
    if not all(map(Decimal.is_finite, amounts)):
        return None
    exponent = [min(0, d.as_tuple().exponent) for d in amounts]
    scale = min(exponent, default=0)
    # A decimal's units are below 10**(adjusted() - scale + 1).
    top = max(map(Decimal.adjusted, amounts), default=0)
    if scale < -_SCALE_DIGITS or top - scale > _SCALE_DIGITS:
        return None
    factor = 10**-scale
    units = [n * factor // d for n, d in map(Decimal.as_integer_ratio, amounts)]
    if units and not 0 <= min(units) <= max(units) < _INT64_END:
        return None
    return np.array(units, dtype=np.int64), np.array(exponent, dtype=np.int8), scale


@dataclass(frozen=True, eq=False)
class Units:
    """Exact decimal amounts (of rows, links or categories) as int64 units
    at one scale.

    Amount ``k`` is ``values[k] * 10**scale``, with ``scale`` = min(0, the
    smallest exponent); ``exponent[k]`` is min(0, its own exponent). A sum
    over a group is ``Decimal(Σvalues // 10**(g - scale)).scaleb(g)``, with
    g the group's smallest ``exponent`` (0 when empty): exactly what
    ``sum(..., Decimal(0))`` returns. Its float, ``Σvalues / 10**-scale``,
    is correctly rounded, so it equals ``float()`` of that ``Decimal`` bit
    for bit. Where a unit, or the total of the units, does not fit in
    int64, ``values`` and ``exponent`` are None and ``decimals`` holds the
    amounts as an object array; ``dsum`` and ``group_sums`` then sum them.
    """

    values: np.ndarray | None
    exponent: np.ndarray | None
    scale: int
    decimals: np.ndarray | None = None

    @classmethod
    def of(cls, amounts: Sequence[Decimal], index: np.ndarray | None = None) -> "Units":
        """The non-negative ``amounts[index]`` (all of ``amounts`` when
        ``index`` is None); each item of ``amounts`` is converted once, and
        the scale is that of the items taken."""
        index = np.arange(len(amounts)) if index is None else index
        used = np.zeros(len(amounts), dtype=bool)
        used[index] = True
        table = _unit_table(list(compress(amounts, used.tolist())))
        if table is not None:
            taken = (np.cumsum(used) - 1)[index]  # into the items taken
            values, exponent = table[0][taken], table[1][taken]
            n = values.size
            # The total is summed exactly only where n times the largest unit may overflow.
            if not n or int(values.max()) * n < _INT64_END or sum(values.tolist()) < _INT64_END:
                return cls(values, exponent, table[2])
        return cls(None, None, 0, np.array(amounts, dtype=object)[index])

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(a for a in (self.values, self.exponent, self.decimals) if a is not None)

    def take(self, index: np.ndarray) -> "Units":
        if self.values is None:
            return Units(None, None, 0, self.decimals[index])
        return Units(self.values[index], self.exponent[index], self.scale)

    def sums(self, groups: np.ndarray, size: int) -> "Units":
        """The exact sum of each group code ``0..size-1``; an empty group sums to 0."""
        if self.values is None:
            return Units(None, None, 0, group_sums(groups, self.decimals, size))
        values = np.zeros(size, dtype=np.int64)
        np.add.at(values, groups, self.values)
        exponent = np.zeros(size, dtype=np.int8)
        np.minimum.at(exponent, groups, self.exponent)
        return Units(values, exponent, self.scale)

    def float_sums(self, groups: np.ndarray, size: int) -> np.ndarray:
        """``sums(groups, size).floats()``, without each group's exponent (left at 0)."""
        if self.values is None:
            return self.sums(groups, size).floats()
        values = np.zeros(size, dtype=np.int64)
        np.add.at(values, groups, self.values)
        return Units(values, np.zeros(size, dtype=np.int8), self.scale).floats()

    def total(self) -> Decimal:
        """The exact sum of every amount."""
        if self.values is None:
            return dsum(self.decimals)
        return self._decimal(int(self.values.sum()), int(self.exponent.min(initial=0)))

    def to_decimals(self) -> list[Decimal]:
        """The amounts as ``Decimal``s; a sum as ``sum(..., Decimal(0))`` gives it."""
        if self.values is None:
            return self.decimals.tolist()
        return list(map(self._decimal, self.values.tolist(), self.exponent.tolist()))

    def _decimal(self, units: int, exponent: int) -> Decimal:
        return Decimal(f"{units // 10 ** (exponent - self.scale)}E{exponent}")

    def floats(self) -> np.ndarray:
        """Each amount as the float nearest to it."""
        if self.values is None:
            return self.decimals.astype(float)
        factor = 10**-self.scale
        if self.values.max(initial=0) < 2**53:  # both exact as floats: one rounding
            return self.values / float(factor)
        return np.array([units / factor for units in self.values.tolist()], dtype=float)


def check_epochs(seconds: np.ndarray) -> None:
    """Raise ``ValueError`` if an epoch second is outside ``datetime``'s UTC range."""
    if seconds.size and not (MIN_EPOCH <= seconds.min() and seconds.max() <= MAX_EPOCH):
        raise ValueError("timestamp outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z")


def iso_rows(seconds: np.ndarray) -> np.ndarray:
    """ISO-8601 UTC stamps of epoch seconds, as ``datetime.isoformat`` writes
    them, one 25-byte uint8 row each, with each distinct day formatted
    once. Raises ``ValueError`` outside ``datetime``'s range, the only one
    where numpy and it agree."""
    seconds = np.asarray(seconds, dtype=np.int64)
    check_epochs(seconds)
    days, day = np.unique(seconds // 86_400, return_inverse=True)
    dates = np.datetime_as_string(days.astype("datetime64[D]")).astype("S10")
    rows = np.empty((seconds.size, 25), dtype=np.uint8)
    rows[:, :10] = dates.view(np.uint8).reshape(-1, 10)[day]
    rows[:, 10:] = np.frombuffer(b"T00:00:00+00:00", dtype=np.uint8)
    clock = (seconds % 86_400).astype(np.uint32)
    for column, value in ((11, clock // 3600), (14, clock // 60 % 60), (17, clock % 60)):
        rows[:, column] += value // 10
        rows[:, column + 1] += value % 10
    return rows


def iso_utc(seconds: np.ndarray) -> list[str]:
    """The stamps of :func:`iso_rows` as text."""
    return iso_rows(seconds).view("S25").ravel().astype("U25").tolist()


def mix64(a: int, b: int) -> int:
    """Mix two integers into one 64-bit seed.

    SplitMix64 finalizer over a golden-ratio-weighted combination. Pure
    integer arithmetic, so the result is identical on every platform.
    """
    z = ((a & _MASK64) + 0x9E3779B97F4A7C15 * ((b & _MASK64) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def format_duration(seconds: float) -> str:
    """Render a span in seconds as e.g. '1d 21h 0m 3s'."""
    total = int(round(seconds))
    days, rest = divmod(total, 86_400)
    hours, rest = divmod(rest, 3_600)
    minutes, secs = divmod(rest, 60)
    parts = []
    if days:
        parts.append(f"{days}d")
    if hours or parts:
        parts.append(f"{hours}h")
    if minutes or parts:
        parts.append(f"{minutes}m")
    parts.append(f"{secs}s")
    return " ".join(parts)


class _Encoder(json.JSONEncoder):
    # Decimals become strings so no precision is lost in transit.
    def default(self, o):
        if isinstance(o, Decimal):
            return str(o)
        if isinstance(o, (set, frozenset)):
            return sorted(o)
        return super().default(o)


def to_json(obj) -> str:
    return json.dumps(obj, cls=_Encoder, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: Path, obj) -> None:
    Path(path).write_text(to_json(obj), encoding="utf-8")


# A CSV chunk is at most this many rows, and at most about this many bytes
# of rows padded to its widest cells: a wide cell splits its chunk instead.
_CHUNK_ROWS = 1 << 15
_CHUNK_BYTES = 1 << 22


def _quoted(text: str, alone: bool) -> str:
    """A cell as ``csv.writer`` writes it, and quoted also where it holds
    ``\r``, which csv.writer leaves bare; when ``alone`` (one column), an
    empty cell as ``""``, as a row of one empty cell reads back as no row."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text or ('""' if alone else "")


def text_columns(rows: Iterable[Sequence], width: int) -> list[list[str]]:
    """Rows of cells as ``width`` columns of text: '' for None, str() otherwise."""
    columns: list[list[str]] = [[] for _ in range(width)]
    for row in rows:
        for column, cell in zip(columns, row):
            column.append("" if cell is None else str(cell))
    return columns


@dataclass(frozen=True, eq=False)
class TextTable:
    """Texts held as one UTF-8 buffer, each followed by ``"\\n"``: text ``k``
    is ``data[start[k]:start[k + 1] - 1]``, so no text needs an object of
    its own. UTF-8 byte order is code-point order."""

    data: bytes
    start: np.ndarray

    @classmethod
    def of(cls, texts: Sequence[str]) -> "TextTable":
        data = ("\n".join(texts) + "\n").encode("utf-8") if len(texts) else b""
        start = np.zeros(len(texts) + 1, dtype=np.int32 if len(data) < 2**31 else np.int64)
        if data.count(b"\n") == len(texts):  # no text holds a line end
            start[1:] = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
            start[1:] += 1
        else:
            start[1:] = np.cumsum([len(text.encode("utf-8")) + 1 for text in texts])
        return cls(data, start)

    def __len__(self) -> int:
        return self.start.size - 1

    def __getitem__(self, k: int) -> str:
        k = range(len(self))[k]
        return self.data[self.start[k]:self.start[k + 1] - 1].decode("utf-8")

    def cells(self, index: np.ndarray) -> list[bytes]:
        """The UTF-8 bytes of texts ``index``."""
        start, stop = self.start[index].tolist(), (self.start[index + 1] - 1).tolist()
        return list(map(self.data.__getitem__, map(slice, start, stop)))

    def take(self, index: np.ndarray) -> list[str]:
        """Texts ``index``, as a list."""
        return [cell.decode("utf-8") for cell in self.cells(index)]


@dataclass(frozen=True)
class Coded:
    """A CSV column as int ``codes`` into ``table``: a sequence of cell texts,
    or :func:`iso_rows`, which writes the codes, epoch seconds, as stamps."""

    codes: np.ndarray
    table: Sequence[str] | Callable[[np.ndarray], np.ndarray]


class _CellBytes:
    """A table's cells, each quoted and UTF-8 encoded once: cell ``k`` is
    ``data[start[k]:][:length[k]]``, and ``data`` ends in ``width + 1`` spare bytes."""

    def __init__(self, texts: Sequence[str] | TextTable, alone: bool):
        table = texts if isinstance(texts, TextTable) else TextTable.of(texts)
        data, self.start = table.data, table.start[:-1]
        self.length = np.diff(table.start) - 1
        if (b'"' in data or b"," in data or b"\r" in data or data.count(b"\n") != len(table)
                or alone and not self.length.all()):
            cells = [_quoted(text, alone).encode("utf-8") for text in table]
            data = b"".join(cells)
            self.length = np.fromiter(map(len, cells), np.int64, len(cells))
            self.start = np.cumsum(self.length) - self.length
        self.width = int(self.length.max(initial=0))
        self.data = np.frombuffer(data + bytes(self.width + 1), dtype=np.uint8)

    def rows(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cells of ``codes`` as uint8 rows padded alike, and their lengths."""
        start, length = self.start[codes], self.length[codes]
        width = max(1, int(length.max()))
        windows = np.ndarray((self.data.size - width + 1,), f"V{width}", self.data, strides=(1,))
        return windows[start].view(np.uint8).reshape(-1, width), length


def _chunk(cells: Sequence, codes: Sequence[np.ndarray]) -> bytes:
    """CSV lines of a chunk: each column's padded cells and separator side
    by side, then the padding dropped."""
    rows, offset = codes[0].size, 0
    pieces, padded = [], []
    for k, (column, chunk) in enumerate(zip(cells, codes)):
        if callable(column):  # iso_rows: stamps of one width
            block = column(chunk)
        else:
            block, length = column.rows(chunk)
            if length.min() < block.shape[1]:
                padded.append((offset, length, block.shape[1]))
        pieces += (block, np.full((rows, 1), b",\n"[k == len(cells) - 1], dtype=np.uint8))
        offset += block.shape[1] + 1
    text = np.concatenate(pieces, axis=1)
    if not padded:
        return text.tobytes()
    keep = np.ones(text.shape, dtype=bool)
    for offset, length, width in padded:
        keep[:, offset:offset + width] = np.arange(width) < length[:, None]
    return text[keep].tobytes()


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[str] | Coded]) -> None:
    """Write a CSV from equal-length columns, one line per row.

    A column is a :class:`Coded` or a sequence of cell texts (row ``k``'s
    code is ``k``). The cells of each table are quoted (see ``_quoted``)
    and encoded once, whichever columns share it; rows are then gathered
    as bytes and written a chunk at a time, so the file is never held whole.
    """
    alone = len(columns) == 1
    encoded: dict[int, _CellBytes] = {}
    cells, codes = [], []
    for column in columns:
        column = column if isinstance(column, Coded) else Coded(np.arange(len(column)), column)
        table = column.table
        if not callable(table):
            table = encoded[id(table)] = encoded.get(id(table)) or _CellBytes(table, alone)
        cells.append(table)
        codes.append(np.asarray(column.codes))
    with open(path, "wb") as fh:
        names = (_quoted(name, len(header) == 1) for name in header)
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, codes[0].size if codes else 0, _CHUNK_ROWS):
            chunk = [c[start:start + _CHUNK_ROWS] for c in codes]
            width = sum(25 if callable(t) else int(t.length[c].max())
                        for t, c in zip(cells, chunk))
            step = max(1, _CHUNK_BYTES // (width + len(cells)))  # bytes of a padded row
            for at in range(0, chunk[0].size, step):
                fh.write(_chunk(cells, [c[at:at + step] for c in chunk]))


class Forked:
    """A :func:`fork_call`'s child (pid and pipe), or the outcome of a call run here."""

    def __init__(self, pid: int | None, fd: int | None, data: bytes = b""):
        self._pid, self._fd, self._data = pid, fd, data

    def result(self):
        """Read the outcome and reap the child; return its value or raise its
        exception. The outcome is read once: its bytes are not kept."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            with open(fd, "rb") as pipe:
                self._data = pipe.read()
        if self._pid is not None:
            os.waitpid(self._pid, 0)
            self._pid = None
        data, self._data = self._data, b""
        if not data:
            raise RuntimeError("forked child ended without a result")
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:  # a value that pickles but does not load
            raise RuntimeError(f"forked child's result does not load: {exc!r}") from None
        if ok:
            return value
        raise value

    def cancel(self) -> None:
        """Kill and reap the child unless it is reaped already."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def join_all(handles: list[Forked]) -> list:
    """The results of :func:`fork_call` handles in order, once every child is
    reaped; the earliest exception is raised. An interrupt while waiting
    kills and reaps the children still running, then propagates."""
    values, failure = [], None
    try:
        for handle in handles:
            try:
                values.append(handle.result())
            except Exception as exc:
                failure = failure or exc
    finally:
        for handle in handles:  # a no-op for each child already reaped
            handle.cancel()
        handles.clear()
    if failure is not None:
        raise failure
    return values


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_call(fn: Callable, *args) -> Forked:
    """Run ``fn(*args)`` in a forked child; :func:`join_all`, or ``result()``
    on the handle, gives its value or exception and reaps the child. The bulk
    writers, the replica slices and the parse's parts run this way.

    A value or exception that cannot be pickled comes back as a
    ``RuntimeError`` naming its type and text. Only an exception is loaded
    in the child to check that it loads; a value that does not load here
    raises ``RuntimeError`` from ``result()``. The child ignores SIGINT, so
    Ctrl-C stops only the caller. It ends in ``os._exit``, so it never
    returns into the caller's stack nor flushes its stdio buffers. Without
    ``os.fork``, or where ``os.pipe`` or ``os.fork`` raises ``OSError``,
    ``fn`` runs here and now, and its exception propagates from this call.
    """
    pid, fds = None, ()
    if hasattr(os, "fork"):
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
    if pid is None:
        return Forked(None, None, pickle.dumps((True, fn(*args))))
    if pid:
        os.close(fds[1])
        return Forked(pid, fds[0])
    try:  # the child
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(fds[0])
        try:
            outcome = (True, fn(*args))
        except Exception as exc:  # raised again in the parent
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            if not outcome[0]:
                pickle.loads(data)  # fails for an exception that needs other __init__ arguments
        except Exception:
            culprit = outcome[1]
            data = pickle.dumps((False, RuntimeError(f"{type(culprit).__name__}: {culprit}")))
        with open(fds[1], "wb") as pipe:
            pipe.write(data)
    finally:  # also after a BaseException, which the parent sees as no result
        os._exit(0)
