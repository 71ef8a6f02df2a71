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


def iso_utc(seconds: np.ndarray) -> list[str]:
    """ISO-8601 UTC stamps of epoch seconds, as ``datetime.isoformat`` writes
    them, with each distinct day formatted once. Raises ``ValueError``
    outside ``datetime``'s range, the only one where numpy and it agree."""
    seconds = np.asarray(seconds, dtype=np.int64)
    check_epochs(seconds)
    days, day = np.unique(seconds // 86_400, return_inverse=True)
    dates = np.datetime_as_string(days.astype("datetime64[D]")).astype("U10")
    text = np.empty((seconds.size, 25), dtype=np.uint32)  # one code point each
    text[:, :10] = dates.view(np.uint32).reshape(-1, 10)[day]
    text[:, 10:] = np.array(["T00:00:00+00:00"]).view(np.uint32)
    second = (seconds % 86_400).astype(np.uint32)
    for column, value in ((11, second // 3600), (14, second // 60 % 60), (17, second % 60)):
        text[:, column] += value // 10
        text[:, column + 1] += value % 10
    return text.view("U25").ravel().tolist()


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


_CHUNK_ROWS = 1 << 15


def _needs_quotes(text: str) -> bool:
    # What csv.writer quotes with a "\n" line terminator, plus "\r", which
    # it leaves bare so that the row would not parse back.
    return '"' in text or "," in text or "\n" in text or "\r" in text


def _lines(columns: Sequence[Sequence[str]]) -> str:
    """CSV lines of one or more rows given as equal-length text columns."""
    cells = []
    for column in columns:
        if _needs_quotes("".join(column)):
            column = ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c
                      for c in column]
        cells.append(column)
    if len(cells) == 1:  # a row of one empty cell would read back as no row
        cells = [[c or '""' for c in cells[0]]]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def text_columns(rows: Iterable[Sequence], width: int) -> list[list[str]]:
    """Rows of cells as ``width`` columns of text: '' for None, str() otherwise."""
    columns: list[list[str]] = [[] for _ in range(width)]
    for row in rows:
        for column, cell in zip(columns, row):
            column.append("" if cell is None else str(cell))
    return columns


@dataclass(frozen=True)
class Rendered:
    """A column of ``values`` that ``render`` turns into text a slice at a
    time: ``Rendered(values, render)[a:b]`` is ``render(values[a:b])``."""

    values: Sequence
    render: Callable[[Sequence], list[str]]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, rows: slice) -> list[str]:
        return self.render(self.values[rows])


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write a CSV from equal-length columns of text cells, one line per row.

    A column is any sequence whose slices are lists of text, such as a
    list of str or a :class:`Rendered` column; it is sliced a chunk of rows
    at a time, so only one chunk of a rendered column exists as text.
    Cells are quoted as ``csv.writer`` quotes them (minimal quoting, doubled
    quotes, a lone empty cell as ``""``), and also when they hold ``\r``.
    Rows are joined and written a chunk at a time, so the file's text is
    never held whole.
    """
    rows = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_lines([[name] for name in header]))
        for start in range(0, rows, _CHUNK_ROWS):
            fh.write(_lines([column[start:start + _CHUNK_ROWS] for column in columns]))


class Forked:
    """A :func:`fork_call`'s child (pid and pipe), or the outcome of a call run here."""

    def __init__(self, pid: int | None, fd: int | None, data: bytes = b""):
        self._pid, self._fd, self._data = pid, fd, data

    def result(self):
        """Read the outcome and reap the child; return its value or raise its exception."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            with open(fd, "rb") as pipe:
                self._data = pipe.read()
        if self._pid is not None:
            os.waitpid(self._pid, 0)
            self._pid = None
        if not self._data:
            raise RuntimeError("forked child ended without a result")
        ok, value = pickle.loads(self._data)
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


def fork_call(fn: Callable, *args) -> Forked:
    """Run ``fn(*args)`` in a forked child; :func:`join_all`, or ``result()``
    on the handle, gives its value or exception and reaps the child. The
    pipeline's bulk writers and the replica ensemble's slices run this way.

    A value or exception that cannot be pickled comes back as a
    ``RuntimeError`` naming its type and text. The child ignores SIGINT, so
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
            pickle.loads(data)  # fails for an exception that needs other __init__ arguments
        except Exception:
            culprit = outcome[1]
            data = pickle.dumps((False, RuntimeError(f"{type(culprit).__name__}: {culprit}")))
        with open(fds[1], "wb") as pipe:
            pipe.write(data)
    finally:  # also after a BaseException, which the parent sees as no result
        os._exit(0)
