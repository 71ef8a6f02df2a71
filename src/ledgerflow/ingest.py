"""Ledger ingestion: CSV parsing, filtering, and normalisation.

A ledger file is a UTF-8 CSV with a header row. The column mapping ties
logical fields (timestamp, source, target, amount, plus optional id and
subtype) to column names, each of which may appear only once in the
header; timestamps may be ISO-8601 or integer epoch seconds inside
``datetime``'s UTC range. Parsing validates each row and returns a
columnar :class:`Ledger` sorted by (timestamp, tx_id) together with a
diagnostics record: int64 timestamps, int64 source and target codes
into the sorted account ids, the ids as read (one UTF-8 buffer with int
offsets, ``util.TextTable``) with each row's int64 position in them, one
int32 code per row read into a table of the distinct subtypes, int64
codes into a table of the distinct amounts' ``Decimal``s, and the amounts
again as ``util.Units``: int64 units at one scale for the whole ledger,
each row's exponent beside them (or, past int64, the ``Decimal``
fallback). No per-row object outlives the parse, each distinct amount
text is converted once, and rows are taken by numpy takes alone. A
ledger built by hand is built from column lists with ``Ledger.from_columns``,
which refuses an amount that is not finite or is negative and an empty
account id, sorts by stamp and puts only runs of equal stamps in id order.

A file is parsed a block of lines at a time, column by column, while its
blocks are plain: each line holds one cell per header column, no cell holds
a quote, whitespace, a carriage return or NUL, every stamp is
``YYYY-MM-DDTHH:MM:SS``, bare or with ``+00:00`` (as ``write_transactions``
writes it) and every amount is a finite, non-negative decimal. The blocks
are cut into parts, one per usable CPU or per ``_PART_BYTES`` where that
gives fewer (one at least); a forked child parses each, and this process
merges them in file order, so the parse's garbage stays in the children.
At the first block that is not plain (epoch, ``Z`` or offset stamps, quoted
or padded cells, blank lines, any error), or at a part whose child fails,
the row loop takes over and validates one ``csv.reader`` row at a time to
the end of the file; so every error, with its message and row number,
comes from the row loop.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import re
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError
from .util import MAX_EPOCH, MIN_EPOCH, Coded, Units, check_epochs, iso_rows, write_csv
from .util import TextTable, fork_call, usable_cpus

__all__ = [
    "Ledger",
    "ColumnMapping",
    "FilterSpec",
    "IngestDiagnostics",
    "parse_ledger",
    "parse_timestamp",
    "write_transactions",
]


@dataclass(frozen=True, eq=False)
class Ledger:
    """Transactions as columns, sorted by (timestamp, tx_id).

    ``timestamp`` is int64 UTC epoch seconds; ``source`` and ``target`` are
    int64 codes into ``accounts``, the account ids in code-point order, so
    code order is string order. Row ``k``'s id is ``ids[row[k]]``, ``ids``
    being the ids read (with a file's filtered rows) as one
    :class:`~ledgerflow.util.TextTable`, a UTF-8 buffer with int offsets,
    and its subtype is ``subtype_table[subtypes[row[k]]]``, ``subtypes``
    holding one int32 code per item of ``ids``. A row's amount is
    ``amount_table[amount_code[k]]``, the table holding each distinct
    amount text's ``Decimal`` once; ``units`` holds the amounts as
    :class:`Units`, which every volume is summed from.
    """

    accounts: tuple[str, ...]
    timestamp: np.ndarray
    source: np.ndarray
    target: np.ndarray
    row: np.ndarray
    ids: TextTable
    subtypes: np.ndarray
    subtype_table: list[str]
    amount_table: list[Decimal]
    amount_code: np.ndarray
    units: Units

    @classmethod
    def from_columns(cls, timestamp, tx_id, source, target, amount, subtype) -> "Ledger":
        """Sort and encode unsorted column lists (accounts as strings).

        Amounts are ``Decimal``s, held to the parse's rule: a row whose amount
        is not finite or is negative, or whose account id is empty, raises
        :class:`DataError` naming its transaction (the first in input order).
        """
        parsed = _Parsed()
        # Whole columns first: on 360k rows (2-vCPU host) these scans take
        # about 35 ms, a pass over the rows about 0.25 s.
        amount_code = _amount_codes(list(map(str, amount)), parsed.amount_of, parsed.decimals)
        if amount_code is None or "" in source or "" in target:
            for tx, value, payer, payee in zip(tx_id, amount, source, target):
                if not value.is_finite():
                    raise DataError(f"transaction {tx}: bad amount {value}")
                if value < 0:
                    raise DataError(f"transaction {tx}: negative amount {value}")
                if not payer or not payee:
                    raise DataError(f"transaction {tx}: empty account id")
        parsed.add(timestamp, tx_id, source, target, amount_code, list(subtype),
                   np.arange(len(timestamp)))
        return parsed.ledger()[0]

    @classmethod
    def _select(cls, stamps, tx_id, names, source, target, amounts, amount_code, subtype_code,
                subtypes, rows) -> "Ledger":
        """Rows ``rows`` of unsorted columns, sorted. ``source`` and
        ``target`` are codes into ``names``, distinct account ids in any
        order, ``amount_code`` into ``amounts``, decimals in any order, and
        ``subtype_code`` into ``subtypes``; the ledger keeps the ``tx_id``
        table and the subtype codes as they are."""
        order = rows[np.argsort(stamps[rows], kind="stable")]
        stamps = stamps[order]
        # Runs of equal stamps are put in the code-point order of their ids,
        # by Python's sort of their UTF-8 bytes, never a numpy string sort
        # (which drops trailing NULs). Both sorts are stable, so equal ids
        # keep their input order.
        tied = np.concatenate(([False], stamps[1:] == stamps[:-1], [False]))
        edges = np.flatnonzero(tied[1:] != tied[:-1]).tolist()
        for start, stop in zip(edges[::2], edges[1::2]):
            run = order[start:stop + 1]
            ids = tx_id.cells(run)
            order[start:stop + 1] = run[sorted(range(run.size), key=ids.__getitem__)]
        source, target = source[order], target[order]
        # The accounts of the taken rows, recoded in code-point order.
        used = np.zeros(len(names), dtype=bool)
        used[source] = used[target] = True
        by_name = sorted(np.flatnonzero(used).tolist(), key=names.__getitem__)
        recode = np.empty(len(names), dtype=np.int64)
        recode[by_name] = np.arange(len(by_name))
        amount_code = amount_code[order]
        return cls(
            tuple(names[i] for i in by_name),
            stamps,
            recode[source],
            recode[target],
            order,
            tx_id,
            subtype_code,
            subtypes,
            amounts,
            amount_code,
            Units.of(amounts, amount_code),
        )

    def __len__(self) -> int:
        return self.timestamp.size

    def without_self_transfers(self) -> "Ledger":
        """The rows whose source and target differ, over the accounts they
        use (this ledger where none is dropped). Codes keep their order, so
        the accounts are the nodes, and the codes the node indices, of the
        graph that ``aggregate`` makes of this ledger."""
        index = np.flatnonzero(self.source != self.target)
        if index.size == len(self):
            return self
        kept = self._take(index)
        used = np.zeros(len(self.accounts), dtype=bool)
        used[kept.source] = used[kept.target] = True
        if used.all():
            return kept
        code = np.cumsum(used) - 1
        return replace(kept, accounts=tuple(itertools.compress(self.accounts, used.tolist())),
                       source=code[kept.source], target=code[kept.target])

    def _take(self, index: np.ndarray) -> "Ledger":
        """Rows ``index``, in that order: an ``index`` out of time order
        gives a ledger that ``extract_ops`` rejects."""
        return replace(self, timestamp=self.timestamp[index], source=self.source[index],
                       target=self.target[index], row=self.row[index],
                       amount_code=self.amount_code[index], units=self.units.take(index))

    def __repr__(self) -> str:
        return f"Ledger(rows={len(self)}, accounts={len(self.accounts)})"


def _encode(values: list[str], code: dict[str, int], dtype=np.int64) -> np.ndarray:
    """The codes of ``values`` in ``code``, which gives each value it does
    not hold yet the next code."""
    code.update(zip(set(values).difference(code), itertools.count(len(code))))
    return np.fromiter(map(code.__getitem__, values), dtype, len(values))


@dataclass(frozen=True)
class ColumnMapping:
    """Column names for the logical ledger fields.

    ``timestamp``, ``source``, ``target`` and ``amount`` must exist in the
    file header. ``tx_id`` and ``subtype`` are optional: when their columns
    are absent, ids are synthesised from row numbers and the subtype filter
    is skipped. ``timestamp_format`` is one of ``auto``, ``iso8601``,
    ``epoch``; ``auto`` detects the format from the first data row, and any
    other value is a :class:`ConfigError`, and so is one column named by
    two fields. A name the mapping uses may appear only once in the header.
    """

    tx_id: str = "id"
    timestamp: str = "timeset"
    source: str = "source"
    target: str = "target"
    amount: str = "weight"
    subtype: str = "transfer_subtype"
    timestamp_format: str = "auto"

    def __post_init__(self):
        if self.timestamp_format not in ("auto", "iso8601", "epoch"):
            raise ConfigError(f"unknown timestamp_format {self.timestamp_format!r} "
                              "(auto, iso8601 or epoch)")
        seen: dict[str, str] = {}
        for name in ("tx_id", "timestamp", "source", "target", "amount", "subtype"):
            if seen.setdefault(column := getattr(self, name), name) != name:
                raise ConfigError(f"column {column!r} is mapped to {seen[column]!r} and {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        """The column names, in the order a normalized ledger writes them."""
        return (self.tx_id, self.timestamp, self.source, self.target, self.amount, self.subtype)


@dataclass(frozen=True)
class FilterSpec:
    """Which rows count as part of the analyzable economic network.

    ``keep_subtypes`` empty means keep every subtype. Accounts listed in
    ``exclude_accounts`` (system accounts, disbursement desks, ...) drop a
    row when they appear on either side.
    """

    keep_subtypes: tuple[str, ...] = ("STANDARD",)
    exclude_accounts: frozenset[str] = field(default_factory=frozenset)


@dataclass
class IngestDiagnostics:
    rows_read: int = 0
    rows_filtered: int = 0
    self_transfers_dropped: int = 0
    duplicate_tx_ids: int = 0


_EPOCH = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")
_UNIX_EPOCH = datetime(1970, 1, 1)
_UNIX_EPOCH_UTC = _UNIX_EPOCH.replace(tzinfo=timezone.utc)
_row_id = "r{:08d}".format  # a row's id, from its line number, where the file has none


def parse_timestamp(raw: str, fmt: str) -> int:
    """Parse one timestamp cell to UTC epoch seconds (fraction truncated).

    Raises ``ValueError`` for a stamp outside ``datetime``'s UTC range.
    """
    text = raw.strip()
    if fmt == "epoch":
        if not _EPOCH.fullmatch(text):
            raise ValueError(f"not epoch seconds: {raw!r}")
        seconds = int(text.partition(".")[0])
    else:
        # ISO-8601; a trailing Z is normalised, a naive stamp is taken as UTC.
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
        # What dt.timestamp() computes for the stamp read as UTC.
        since = dt - (_UNIX_EPOCH if dt.tzinfo is None else _UNIX_EPOCH_UTC)
        seconds = int(since.total_seconds())
    if not MIN_EPOCH <= seconds <= MAX_EPOCH:
        raise ValueError("outside 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z")
    return seconds


def _csv_rows(fh, path: Path, first: int) -> Iterator[tuple[int, list[str]]]:
    """The CSV rows of the binary file ``fh`` from its position, a line start,
    numbered from ``first``. Text that is not UTF-8, or a row that csv.reader
    refuses (a cell past ``csv.field_size_limit()``), raises DataError."""
    # utf-8-sig drops a byte-order mark at the start of the file, which
    # would otherwise glue itself to the first column name.
    text = io.TextIOWrapper(fh, encoding="utf-8-sig" if first == 1 else "utf-8", newline="")
    row_no = first - 1
    try:
        for row_no, row in enumerate(csv.reader(text), start=first):
            yield row_no, row
    except csv.Error as exc:
        raise DataError(f"row {row_no + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not from the file start.
        raise DataError(f"ledger {path} is not UTF-8 text ({exc.reason})") from None
    finally:
        text.detach()  # fh stays open, and is closed by its owner


def _column_indices(names: list[str], schema: ColumnMapping) -> tuple[int | None, ...]:
    """Header positions of the timestamp, source, target, amount, tx_id and
    subtype columns (the last two None when absent). A required column
    missing from the header, or a mapped one named twice, raises
    :class:`ConfigError`."""
    columns = {name: i for i, name in enumerate(names)}
    for name in schema.names:
        if names.count(name) > 1:
            raise ConfigError(f"column {name!r} appears more than once in the header")
    for logical in ("timestamp", "source", "target", "amount"):
        if getattr(schema, logical) not in columns:
            raise ConfigError(
                f"column for {logical!r} not in header: {getattr(schema, logical)!r}")
    return (columns[schema.timestamp], columns[schema.source], columns[schema.target],
            columns[schema.amount], columns.get(schema.tx_id), columns.get(schema.subtype))


def parse_ledger(
    path: str | Path,
    schema: ColumnMapping | None = None,
    filter_spec: FilterSpec | None = None,
) -> tuple[Ledger, IngestDiagnostics]:
    """Parse a ledger CSV into a filtered, time-sorted columnar ledger.

    Rows failing the filter are counted, not errors. Malformed rows raise
    :class:`DataError` with their row number; a required column missing from
    the header, or a mapped column named twice in it, raises
    :class:`ConfigError`. Duplicate transaction ids keep the first
    occurrence and are counted in the diagnostics.

    The file is read once into one ``_Parsed``: plain blocks column by column,
    in parts on forked children (``_parse_parts``), and from the first block
    that is not plain, the rest row by row. A path that is not a regular
    file (a FIFO, a pipe, a directory) raises :class:`DataError`.
    """
    schema = schema or ColumnMapping()
    filter_spec = filter_spec or FilterSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"ledger file not found: {path}")
    if not path.is_file():
        raise DataError(f"ledger {path} is not a regular file: the parse reads it by offset, "
                        "and the manifest hashes it again")
    parsed = _Parsed()
    try:
        with open(path, "rb") as fh:
            names, offset = _parse_parts(fh, schema, filter_spec, parsed)
            if offset is not None:
                fh.seek(offset)
                # No cell of a plain block holds a quote, so its lines are
                # whole rows, and the row loop numbers on from them.
                first = 1 if names is None else parsed.rows + 2
                with closing(_csv_rows(fh, path, first)) as rows:  # before fh closes
                    _parse_rows(rows, names, schema, filter_spec, parsed)
    except OSError as exc:
        raise DataError(f"cannot read ledger {path}: {exc.strerror or exc}") from None
    return parsed.ledger()


class _Parsed:
    """The rows parsed so far by either path: account, amount-text and subtype
    codes, the set of kept ids, and runs of columns with their kept rows."""

    def __init__(self):
        self.accounts: dict[str, int] = {}
        self.amount_of: dict[str, int] = {}
        self.decimals: list[Decimal] = []
        self.subtypes: dict[str, int] = {}
        self.seen_ids: set[str] = set()
        self.ids: list[str] = []
        self.runs: list[tuple[np.ndarray, ...]] = []
        self.rows = self.filtered = self.duplicates = 0
        self.add([], [], [], [], [], [], np.arange(0))  # so that no file needs a case

    def add(self, stamps, tx_id: list[str], source: list[str], target: list[str],
            amount_codes, subtype: list[str], kept: np.ndarray) -> None:
        """Appends a run of rows, ``kept`` indexing those the ledger keeps."""
        self.runs.append((np.asarray(stamps, dtype=np.int64), _encode(source, self.accounts),
                          _encode(target, self.accounts), np.asarray(amount_codes, dtype=np.int64),
                          _encode(subtype, self.subtypes, np.int32), kept + len(self.ids)))
        self.ids += tx_id

    def first_seen(self, tx_id: list[str], kept: np.ndarray, last: bool = False) -> np.ndarray:
        """The rows ``kept`` whose ids are not seen yet, now seen; the rest
        are counted duplicates. Until the first, a run is checked by size
        alone. The ``last`` run, of distinct ids, is checked without being
        added when it repeats none."""
        ids = [tx_id[k] for k in kept.tolist()]
        seen, before = self.seen_ids, len(self.seen_ids)
        if last and seen.isdisjoint(ids):
            return kept
        if not self.duplicates:
            seen.update(ids)
            if len(seen) - before == len(ids):
                return kept
            # The ids kept before this run, each looked up in turn from now on.
            self.seen_ids = seen = {self.ids[k] for run in self.runs for k in run[-1].tolist()}
        first = []
        for row, tx in zip(kept.tolist(), ids):
            if tx not in seen:
                seen.add(tx)
                first.append(row)
        self.duplicates += len(ids) - len(first)
        return np.array(first, dtype=np.int64)

    def merge(self, part: tuple, last: bool) -> int | None:
        """Appends a ``_parse_part``'s rows in this one's codes, its kept ids
        checked and synthesised ones numbered here; returns its offset.
        ``last``: no part follows it, so no row loop does if it declines none."""
        columns, accounts, amounts, subtypes, ids, rows, filtered, duplicates, offset = part
        stamps, source, target, amount_code, subtype_code, kept = columns
        if ids is None:
            tx_id = list(map(_row_id, range(self.rows + 2, self.rows + 2 + rows)))
        else:
            tx_id = ids.split("\n") if rows else []
            kept = self.first_seen(tx_id, kept, last and offset is None)
        account = _encode(accounts, self.accounts)
        self.runs.append((stamps, account[source], account[target],
                          _amount_codes(amounts, self.amount_of, self.decimals)[amount_code],
                          _encode(subtypes, self.subtypes, np.int32)[subtype_code],
                          kept + len(self.ids)))
        self.ids += tx_id
        self.rows, self.filtered, self.duplicates = (
            self.rows + rows, self.filtered + filtered, self.duplicates + duplicates)
        return offset

    def ledger(self) -> tuple[Ledger, IngestDiagnostics]:
        # Neither is needed by the sort, whose peak is parse_ledger's. The
        # ids become one table before the sort, so that no id's str
        # outlives the parse nor adds to the sort's peak.
        del self.seen_ids, self.amount_of
        ids = TextTable.of(self.ids)
        del self.ids
        stamps, source, target, amount_code, subtype_code, kept = zip(*self.runs)
        # Joined in the call, so that _select's takes free each joined column.
        ledger = Ledger._select(np.concatenate(stamps), ids, list(self.accounts),
                                np.concatenate(source), np.concatenate(target), self.decimals,
                                np.concatenate(amount_code), np.concatenate(subtype_code),
                                list(self.subtypes), np.concatenate(kept))
        return ledger, IngestDiagnostics(rows_read=self.rows, rows_filtered=self.filtered,
                                         duplicate_tx_ids=self.duplicates)


# The column path reads whole lines in blocks of about this many bytes, so
# the text of the file and its stamp and amount cells never live at once,
# and a block's cells stay in cache while its columns are read. The cells
# of a block fit csv.reader's default field limit together, so no cell
# needs measuring against it.
_BLOCK_BYTES = 1 << 16
# A part is at least this long: a 6 MiB file parsed no faster in two parts
# than in one, an 8 MiB file in 0.90 of the time (in-process, 2 vCPUs).
_PART_BYTES = 4 << 20
# A plain block with these bytes deleted is its line ends and the commas
# between cells: it holds no quote, carriage return, NUL or ASCII whitespace.
_CELL_BYTES = bytes(sorted(set(range(256)) - set(b',\n"\r\0 \t\x0b\x0c\x1c\x1d\x1e\x1f')))
_SPACE = re.compile(r"[^\S\n]")  # what str.strip strips, bar the line end
# A stamp and its comma, with every digit written as 0.
_ISO_SHAPE = np.frombuffer(b"0000-00-00T00:00:00,", dtype=np.uint8)


def _line_blocks(fd: int, start: int, stop: int) -> Iterator[bytes]:
    """Bytes ``start..stop`` of the file in blocks of whole lines, each ending in
    a newline; ``os.pread`` leaves the offset that forked children share alone."""
    rest = b""
    while chunk := os.pread(fd, min(_BLOCK_BYTES, stop - start), start):
        start += len(chunk)
        chunk = rest + chunk
        end = chunk.rfind(b"\n") + 1
        if end:
            yield chunk[:end]
        rest = chunk[end:]
    if rest:
        yield rest + b"\n"


def _plain_cells(block: bytes, width: int) -> list[str] | None:
    """The cells of a block of lines, row after row, when each line holds
    ``width`` plain cells; else None."""
    if block.translate(None, _CELL_BYTES) != (b"," * (width - 1) + b"\n") * block.count(b"\n"):
        return None
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not block.isascii() and _SPACE.search(text):
        return None
    cells = text.replace("\n", ",").split(",")
    cells.pop()  # after the last line end
    limit = csv.field_size_limit()  # csv.reader refuses a longer cell
    if len(text) - len(cells) > limit and max(map(len, cells)) > limit:
        return None
    return cells


def _iso_seconds(cells: list[str]) -> np.ndarray | None:
    """Epoch seconds of stamps written ``YYYY-MM-DDTHH:MM:SS``, bare or with
    ``+00:00``, inside ``datetime``'s range; else None."""
    n = len(cells)
    text = ",".join([*cells, ""]).replace("+00:00,", ",").encode()
    if len(text) != 20 * n:
        return None
    # Only the canonical form, in which numpy's parse agrees with
    # fromisoformat's, reaches numpy (which would only warn of a zone).
    chars = np.frombuffer(text, dtype=np.uint8).reshape(n, 20)
    if not (np.where(chars - 48 < 10, 48, chars) == _ISO_SHAPE).all():
        return None
    try:
        seconds = np.ndarray(n, "S19", text, strides=(20,)).astype("datetime64[s]")
    except ValueError:  # a month, day or time out of range
        return None
    seconds = seconds.astype(np.int64)
    if n and not (MIN_EPOCH <= seconds.min() and seconds.max() <= MAX_EPOCH):
        return None  # year 0000
    return seconds


def _amount_codes(cells: list[str], code: dict[str, int],
                  decimals: list[Decimal]) -> np.ndarray | None:
    """The cells' codes into ``decimals`` when every cell is a finite,
    non-negative decimal, else None; ``code`` gives each text its code, and
    a text it does not hold yet is converted and appended to ``decimals``."""
    new = set(cells).difference(code)
    try:
        values = list(map(Decimal, new))
    except InvalidOperation:
        return None
    if not all(map(Decimal.is_finite, values)) or (values and min(values) < 0):
        return None
    code.update(zip(new, itertools.count(len(code))))
    decimals += values
    return np.fromiter(map(code.__getitem__, cells), np.int64, len(cells))


def _parse_part(fd: int, start: int, stop: int, layout: tuple) -> tuple:
    """The plain blocks of bytes ``start..stop`` (line starts) read into a
    ``_Parsed`` of its own, packed for ``merge``: the runs joined, the tables
    in code order, the ids as one string (None for ``merge`` to number), the
    counts and the offset of the first block that is not plain, or None.
    Nothing is raised here, so every error comes from the row loop."""
    names, (i_ts, i_src, i_tgt, i_amt, i_id, i_sub), keep_subtypes, excluded = layout
    width = len(names)
    parsed = _Parsed()
    # Every row is checked, filtered or not; the filter and the sort are
    # then applied as one take. Accounts and amount texts become codes block
    # by block, each amount text converted once, and so do subtypes.
    for block in _line_blocks(fd, start, stop):
        cells = _plain_cells(block, width)
        if cells is None:
            break
        source, target = cells[i_src::width], cells[i_tgt::width]
        # An empty account is an error, and a blank row is not counted.
        if "" in source or "" in target:
            break
        n = len(source)
        subtype = cells[i_sub::width] if i_sub is not None else [""] * n
        keep = np.ones(n, dtype=bool)
        if keep_subtypes:
            keep &= np.fromiter(map(keep_subtypes.__contains__, subtype), bool, n)
        if excluded:
            keep &= ~np.fromiter(map(excluded.__contains__, source), bool, n)
            keep &= ~np.fromiter(map(excluded.__contains__, target), bool, n)
        stamp = _iso_seconds(cells[i_ts::width])
        amount = _amount_codes(cells[i_amt::width], parsed.amount_of, parsed.decimals)
        if stamp is None or amount is None:
            break
        kept = np.flatnonzero(keep)
        if i_id is None:
            tx_id = [""] * n  # a place for each row's id, which merge writes
        else:
            tx_id = cells[i_id::width]
            kept = parsed.first_seen(tx_id, kept)
        parsed.rows += n
        parsed.filtered += n - int(np.count_nonzero(keep))
        parsed.add(stamp, tx_id, source, target, amount, subtype, kept)
        start += len(block)
    else:
        start = None  # every block is plain
    return (tuple(map(np.concatenate, zip(*parsed.runs))), list(parsed.accounts),
            list(parsed.amount_of), list(parsed.subtypes),
            None if i_id is None else "\n".join(parsed.ids),
            parsed.rows, parsed.filtered, parsed.duplicates, start)


def _parse_parts(fh, schema: ColumnMapping, filter_spec: FilterSpec,
                 parsed: _Parsed) -> tuple[list[str] | None, int | None]:
    """The column path: the header's names and the offset of the first block
    that is not plain (None if none is), or (None, 0) to leave the header too
    to the row loop. Each part is parsed by a forked child, a one-part file's
    too, and this process only merges them, in file order up to the first
    that declines, so no block's cells reach its heap. A part whose child
    fails is declined whole: the row loop reads on from its first line."""
    head = fh.readline()
    header = head.removeprefix(codecs.BOM_UTF8).removesuffix(b"\n")
    names = _plain_cells(header + b"\n", header.count(b",") + 1)
    if names is None or schema.timestamp_format == "epoch":
        return None, 0
    try:
        indices = _column_indices(names, schema)
    except ConfigError:
        return None, 0
    layout = (names, indices, frozenset(filter_spec.keep_subtypes) if indices[5] is not None
              else (), filter_spec.exclude_accounts)
    fd, start, stop = fh.fileno(), len(head), os.fstat(fh.fileno()).st_size
    parts = min(usable_cpus(), (stop - start) // _PART_BYTES)
    # Each cut is the first line start at or after its share of the bytes.
    cuts = [fh.seek(start + (stop - start) * k // parts - 1) + len(fh.readline())
            for k in range(1, parts)]
    spans = list(zip([start, *cuts], [*cuts, stop]))
    handles = []
    try:
        for span in spans:
            handles.append(fork_call(_parse_part, fd, *span, layout))
        for handle, span in zip(handles, spans):
            try:
                part = handle.result()
            except Exception:  # raised, or killed, in the child
                offset = span[0]
                break
            offset = parsed.merge(part, handle is handles[-1])
            if offset is not None:
                break
    finally:
        for handle in handles:
            handle.cancel()
    return names, offset


def _parse_rows(rows: Iterator[tuple[int, list[str]]], names: list[str] | None,
                schema: ColumnMapping, filter_spec: FilterSpec, parsed: _Parsed) -> None:
    """The row loop: csv.reader rows, each validated in turn, into
    ``parsed``. ``names`` is the header, or None to read it from ``rows``."""
    if names is None:
        header = next(rows, None)
        if header is None:
            return  # an empty file
        names = [name.strip() for name in header[1]]
    idx_ts, idx_src, idx_tgt, idx_amt, idx_id, idx_sub = _column_indices(names, schema)

    ts_format = schema.timestamp_format
    if ts_format == "auto" and any(run[-1].size for run in parsed.runs):
        ts_format = "iso8601"  # what the column path's first kept stamp shows
    width = len(names)
    keep_subtypes = filter_spec.keep_subtypes if idx_sub is not None else ()
    excluded = filter_spec.exclude_accounts
    amount_of, decimals = parsed.amount_of, parsed.decimals
    stamps, tx_ids, sources, targets, amount_codes, subtypes = [], [], [], [], [], []

    for row_no, row in rows:
        if not "".join(row).strip():
            continue
        parsed.rows += 1
        if len(row) < width:
            raise DataError(f"row {row_no}: expected {width} columns, got {len(row)}")

        subtype = row[idx_sub].strip() if idx_sub is not None else ""
        source = row[idx_src].strip()
        target = row[idx_tgt].strip()
        if (keep_subtypes and subtype not in keep_subtypes) or (
            source in excluded or target in excluded
        ):
            parsed.filtered += 1
            continue

        if ts_format == "auto":
            ts_format = "epoch" if _EPOCH.fullmatch(row[idx_ts].strip()) else "iso8601"
        try:
            timestamp = parse_timestamp(row[idx_ts], ts_format)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"row {row_no}: bad timestamp {row[idx_ts]!r}: {exc}") from None
        text = row[idx_amt].strip()
        code = amount_of.get(text)
        if code is None:
            try:
                amount = Decimal(text)
            except InvalidOperation:
                amount = None
            # NaN cannot be compared and Infinity cannot be summed exactly.
            if amount is None or not amount.is_finite():
                raise DataError(f"row {row_no}: bad amount {row[idx_amt]!r}")
            if amount < 0:
                raise DataError(f"row {row_no}: negative amount {amount}")
            code = amount_of[text] = len(decimals)
            decimals.append(amount)
        if not source or not target:
            raise DataError(f"row {row_no}: empty account id")

        stamps.append(timestamp)
        tx_ids.append(row[idx_id].strip() if idx_id is not None else _row_id(row_no))
        sources.append(source)
        targets.append(target)
        amount_codes.append(code)
        subtypes.append(subtype)

    kept = parsed.first_seen(tx_ids, np.arange(len(tx_ids)))
    parsed.add(stamps, tx_ids, sources, targets, amount_codes, subtypes, kept)


def write_transactions(
    path: str | Path,
    ledger: Ledger,
    write: Callable[[Path, Sequence[str], Sequence], None] = write_csv,
) -> None:
    """Write a normalized ledger CSV in (timestamp, tx_id) order under the
    default column names (round-trips with parse).

    Every column is :class:`Coded`: ids by ``row``, accounts, amounts and
    subtypes as codes into their tables, and stamps through ``iso_rows`` a
    chunk of rows at a time. A stamp outside ``datetime``'s range raises
    ``ValueError`` before the file is opened. ``write(path, header,
    columns)`` writes the file; the default, ``write_csv``, writes it here
    and now, and a caller may hand the columns to another writer (the
    pipeline writes them in a forked child).
    """
    check_epochs(ledger.timestamp)
    accounts = ledger.accounts
    write(
        Path(path),
        ColumnMapping().names,
        (Coded(ledger.row, ledger.ids), Coded(ledger.timestamp, iso_rows),
         Coded(ledger.source, accounts), Coded(ledger.target, accounts),
         Coded(ledger.amount_code, list(map(str, ledger.amount_table))),
         Coded(ledger.subtypes[ledger.row], ledger.subtype_table)),
    )
