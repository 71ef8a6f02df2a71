"""Ledger ingestion: CSV parsing, filtering, and normalisation.

A ledger file is a UTF-8 CSV with a header row. The column mapping ties
logical fields (timestamp, source, target, amount, plus optional id and
subtype) to column names, each of which may appear only once in the
header; timestamps may be ISO-8601 or integer epoch seconds inside
``datetime``'s UTC range. Parsing validates each row and returns a
columnar :class:`Ledger` sorted by (timestamp, tx_id) together with a
diagnostics record: int64 timestamps, int64 source and target codes
into the sorted account ids, and plain lists of ids, amounts and subtypes.
No per-row object is built. :class:`Transaction` is the row type for
ledgers built by hand; ``Ledger.from_transactions`` is the one adapter
from rows to columns, and indexing a ledger builds rows on demand.
"""

from __future__ import annotations

import csv
import re
from collections.abc import Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, DataError
from .util import MAX_EPOCH, MIN_EPOCH, iso_utc, write_csv

__all__ = [
    "Transaction",
    "Ledger",
    "as_ledger",
    "ColumnMapping",
    "FilterSpec",
    "IngestDiagnostics",
    "parse_ledger",
    "parse_timestamp",
    "write_transactions",
]


@dataclass(frozen=True, order=True)
class Transaction:
    """One timestamped transfer. Timestamps are UTC epoch seconds."""

    timestamp: int
    tx_id: str
    source: str
    target: str
    amount: Decimal
    subtype: str = ""

    def __post_init__(self):
        if self.amount < 0:
            raise DataError(f"transaction {self.tx_id}: negative amount {self.amount}")
        if not self.source or not self.target:
            raise DataError(f"transaction {self.tx_id}: empty account id")


@dataclass(frozen=True, eq=False)
class Ledger(Sequence):
    """Transactions as columns, sorted by (timestamp, tx_id).

    ``timestamp`` is int64 UTC epoch seconds; ``source`` and ``target`` are
    int64 codes into ``accounts``, the account ids in code-point order, so
    code order is string order. ``tx_id``, ``amount`` and ``subtype`` are
    lists. ``ledger[i]`` builds row ``i`` as a :class:`Transaction`.
    """

    accounts: tuple[str, ...]
    timestamp: np.ndarray
    source: np.ndarray
    target: np.ndarray
    tx_id: list[str]
    amount: list[Decimal]
    subtype: list[str]

    @classmethod
    def from_columns(cls, timestamp, tx_id, source, target, amount, subtype) -> "Ledger":
        """Sort and encode unsorted column lists (accounts as strings)."""
        n = len(tx_id)
        stamps = np.array(timestamp, dtype=np.int64)
        # Ids are ranked by Python's code-point sort, never as a numpy
        # string array (which drops trailing NULs); both sorts are stable.
        id_rank = np.empty(n, dtype=np.int64)
        id_rank[sorted(range(n), key=tx_id.__getitem__)] = np.arange(n)
        order = np.lexsort((id_rank, stamps))
        accounts = tuple(sorted(set(source).union(target)))
        code = {account: i for i, account in enumerate(accounts)}
        unsorted = cls(
            accounts,
            stamps,
            np.fromiter(map(code.__getitem__, source), np.int64, n),
            np.fromiter(map(code.__getitem__, target), np.int64, n),
            tx_id,
            amount,
            subtype,
        )
        return unsorted._take(order)

    @classmethod
    def from_transactions(cls, rows: Iterable[Transaction]) -> "Ledger":
        rows = list(rows)  # the columns follow Transaction's field order
        return cls.from_columns(*([getattr(t, f.name) for t in rows] for f in fields(Transaction)))

    def __len__(self) -> int:
        return len(self.tx_id)

    def __getitem__(self, i: int) -> Transaction:
        return Transaction(
            timestamp=int(self.timestamp[i]),
            tx_id=self.tx_id[i],
            source=self.accounts[self.source[i]],
            target=self.accounts[self.target[i]],
            amount=self.amount[i],
            subtype=self.subtype[i],
        )

    def without_self_transfers(self) -> "Ledger":
        """The rows whose source and target differ, same account codes."""
        return self._take(np.flatnonzero(self.source != self.target))

    def _take(self, index: np.ndarray) -> "Ledger":
        rows = index.tolist()
        return Ledger(
            self.accounts,
            self.timestamp[index],
            self.source[index],
            self.target[index],
            [self.tx_id[i] for i in rows],
            [self.amount[i] for i in rows],
            [self.subtype[i] for i in rows],
        )

    def __repr__(self) -> str:
        return f"Ledger(rows={len(self)}, accounts={len(self.accounts)})"


def as_ledger(transactions: Ledger | Iterable[Transaction]) -> Ledger:
    """A ledger as is, or hand-built rows sorted into one."""
    if isinstance(transactions, Ledger):
        return transactions
    return Ledger.from_transactions(transactions)


@dataclass(frozen=True)
class ColumnMapping:
    """Column names for the logical ledger fields.

    ``timestamp``, ``source``, ``target`` and ``amount`` must exist in the
    file header. ``tx_id`` and ``subtype`` are optional: when their columns
    are absent, ids are synthesised from row numbers and the subtype filter
    is skipped. ``timestamp_format`` is one of ``auto``, ``iso8601``,
    ``epoch``; ``auto`` detects the format from the first data row, and any
    other value is a :class:`ConfigError`. A name the mapping uses may
    appear only once in the header.
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


def _detect_timestamp_format(value: str) -> str:
    return "epoch" if _EPOCH.fullmatch(value.strip()) else "iso8601"


def _csv_rows(path: Path) -> Iterator[list[str]]:
    """The CSV rows of ``path``. A file that cannot be read, or is not UTF-8
    text, raises :class:`DataError` naming it."""
    try:
        # utf-8-sig drops a byte-order mark, which would otherwise glue
        # itself to the first column name.
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not from the file start.
        raise DataError(f"ledger {path} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read ledger {path}: {exc.strerror or exc}") from None


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
    """
    schema = schema or ColumnMapping()
    filter_spec = filter_spec or FilterSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"ledger file not found: {path}")

    diagnostics = IngestDiagnostics()
    stamps: list[int] = []
    tx_ids: list[str] = []
    sources: list[str] = []
    targets: list[str] = []
    amounts: list[Decimal] = []
    subtypes: list[str] = []
    seen_ids: set[str] = set()

    with closing(_csv_rows(path)) as reader:
        try:
            header = next(reader)
        except StopIteration:
            return Ledger.from_columns([], [], [], [], [], []), diagnostics
        names = [name.strip() for name in header]
        columns = {name: i for i, name in enumerate(names)}
        for name in schema.names:
            if names.count(name) > 1:
                raise ConfigError(f"column {name!r} appears more than once in the header")

        for logical in ("timestamp", "source", "target", "amount"):
            if getattr(schema, logical) not in columns:
                raise ConfigError(
                    f"column for {logical!r} not in header: {getattr(schema, logical)!r}")
        idx_ts = columns[schema.timestamp]
        idx_src = columns[schema.source]
        idx_tgt = columns[schema.target]
        idx_amt = columns[schema.amount]
        idx_id = columns.get(schema.tx_id)
        idx_sub = columns.get(schema.subtype)

        ts_format = schema.timestamp_format
        width = max(columns.values()) + 1
        keep_subtypes = filter_spec.keep_subtypes if idx_sub is not None else ()
        excluded = filter_spec.exclude_accounts
        rows_read = rows_filtered = duplicates = 0

        for row_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            rows_read += 1
            if len(row) < width:
                raise DataError(f"row {row_no}: expected {width} columns, got {len(row)}")

            subtype = row[idx_sub].strip() if idx_sub is not None else ""
            source = row[idx_src].strip()
            target = row[idx_tgt].strip()
            if (keep_subtypes and subtype not in keep_subtypes) or (
                source in excluded or target in excluded
            ):
                rows_filtered += 1
                continue

            if ts_format == "auto":
                ts_format = _detect_timestamp_format(row[idx_ts])
            try:
                timestamp = parse_timestamp(row[idx_ts], ts_format)
            except (ValueError, OverflowError) as exc:
                raise DataError(f"row {row_no}: bad timestamp {row[idx_ts]!r}: {exc}") from None
            try:
                amount = Decimal(row[idx_amt].strip())
            except InvalidOperation:
                amount = None
            # NaN cannot be compared and Infinity cannot be summed exactly.
            if amount is None or not amount.is_finite():
                raise DataError(f"row {row_no}: bad amount {row[idx_amt]!r}")
            if amount < 0:
                raise DataError(f"row {row_no}: negative amount {amount}")
            if not source or not target:
                raise DataError(f"row {row_no}: empty account id")

            tx_id = row[idx_id].strip() if idx_id is not None else f"r{row_no:08d}"
            if tx_id in seen_ids:
                duplicates += 1
                continue
            seen_ids.add(tx_id)

            stamps.append(timestamp)
            tx_ids.append(tx_id)
            sources.append(source)
            targets.append(target)
            amounts.append(amount)
            subtypes.append(subtype)

    diagnostics.rows_read = rows_read
    diagnostics.rows_filtered = rows_filtered
    diagnostics.duplicate_tx_ids = duplicates
    return Ledger.from_columns(stamps, tx_ids, sources, targets, amounts, subtypes), diagnostics


def write_transactions(path: str | Path, transactions: Ledger | Iterable[Transaction]) -> None:
    """Write a normalized ledger CSV in (timestamp, tx_id) order under the
    default column names (round-trips with parse)."""
    ledger = as_ledger(transactions)
    accounts = np.array(ledger.accounts, dtype=object)
    stamps = iso_utc(ledger.timestamp)  # raises on a bad stamp before the file is opened
    write_csv(
        path,
        ColumnMapping().names,
        (ledger.tx_id, stamps, accounts[ledger.source].tolist(),
         accounts[ledger.target].tolist(), list(map(str, ledger.amount)), ledger.subtype),
    )


def keep_everything() -> FilterSpec:
    """FilterSpec that admits every subtype and account (round-trip parsing)."""
    return FilterSpec(keep_subtypes=())
