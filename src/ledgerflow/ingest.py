"""Ledger ingestion: CSV parsing, filtering, and normalisation.

A ledger file is a UTF-8 CSV with a header row. The column mapping ties
logical fields (timestamp, source, target, amount, plus optional id and
subtype) to column names; timestamps may be ISO-8601 or integer epoch
seconds. Parsing returns transactions sorted by (timestamp, tx_id) together
with a diagnostics record.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, DataError

__all__ = [
    "Transaction",
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


@dataclass(frozen=True)
class ColumnMapping:
    """Column names for the logical ledger fields.

    ``timestamp``, ``source``, ``target`` and ``amount`` must exist in the
    file header. ``tx_id`` and ``subtype`` are optional: when their columns
    are absent, ids are synthesised from row numbers and the subtype filter
    is skipped. ``timestamp_format`` is one of ``auto``, ``iso8601``,
    ``epoch``; ``auto`` detects the format from the first data row.
    """

    tx_id: str = "id"
    timestamp: str = "timeset"
    source: str = "source"
    target: str = "target"
    amount: str = "weight"
    subtype: str = "transfer_subtype"
    timestamp_format: str = "auto"


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

    def as_dict(self) -> dict:
        return {
            "rows_read": self.rows_read,
            "rows_filtered": self.rows_filtered,
            "self_transfers_dropped": self.self_transfers_dropped,
            "duplicate_tx_ids": self.duplicate_tx_ids,
        }


_EPOCH = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")


def parse_timestamp(raw: str, fmt: str) -> int:
    """Parse one timestamp cell to UTC epoch seconds (fraction truncated)."""
    text = raw.strip()
    if fmt == "epoch":
        if not _EPOCH.fullmatch(text):
            raise ValueError(f"not epoch seconds: {raw!r}")
        return int(text.partition(".")[0])
    # ISO-8601; a trailing Z is normalised, a naive stamp is taken as UTC.
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _detect_timestamp_format(value: str) -> str:
    return "epoch" if _EPOCH.fullmatch(value.strip()) else "iso8601"


def parse_ledger(
    path: str | Path,
    schema: ColumnMapping | None = None,
    filter_spec: FilterSpec | None = None,
) -> tuple[list[Transaction], IngestDiagnostics]:
    """Parse a ledger CSV into filtered, time-sorted transactions.

    Rows failing the filter are counted, not errors. Malformed rows raise
    :class:`DataError` with their row number; a required column missing from
    the header raises :class:`ConfigError`. Duplicate transaction ids keep
    the first occurrence and are counted in the diagnostics.
    """
    schema = schema or ColumnMapping()
    filter_spec = filter_spec or FilterSpec()
    path = Path(path)
    if not path.exists():
        raise DataError(f"ledger file not found: {path}")

    diagnostics = IngestDiagnostics()
    transactions: list[Transaction] = []
    seen_ids: set[str] = set()

    # utf-8-sig drops a byte-order mark, which would otherwise glue itself
    # to the first column name.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return [], diagnostics
        columns = {name.strip(): i for i, name in enumerate(header)}

        required = {
            "timestamp": schema.timestamp,
            "source": schema.source,
            "target": schema.target,
            "amount": schema.amount,
        }
        for logical, name in required.items():
            if name not in columns:
                raise ConfigError(f"column for {logical!r} not in header: {name!r}")
        idx_ts = columns[schema.timestamp]
        idx_src = columns[schema.source]
        idx_tgt = columns[schema.target]
        idx_amt = columns[schema.amount]
        idx_id = columns.get(schema.tx_id)
        idx_sub = columns.get(schema.subtype)

        ts_format = schema.timestamp_format
        width = max(columns.values()) + 1

        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            diagnostics.rows_read += 1
            if len(row) < width:
                raise DataError(f"row {row_no}: expected {width} columns, got {len(row)}")

            subtype = row[idx_sub].strip() if idx_sub is not None else ""
            source = row[idx_src].strip()
            target = row[idx_tgt].strip()

            if idx_sub is not None and filter_spec.keep_subtypes:
                if subtype not in filter_spec.keep_subtypes:
                    diagnostics.rows_filtered += 1
                    continue
            if source in filter_spec.exclude_accounts or target in filter_spec.exclude_accounts:
                diagnostics.rows_filtered += 1
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
                diagnostics.duplicate_tx_ids += 1
                continue
            seen_ids.add(tx_id)

            transactions.append(
                Transaction(
                    timestamp=timestamp,
                    tx_id=tx_id,
                    source=source,
                    target=target,
                    amount=amount,
                    subtype=subtype,
                )
            )

    transactions.sort(key=lambda t: (t.timestamp, t.tx_id))
    return transactions, diagnostics


def write_transactions(
    path: str | Path,
    transactions: Iterable[Transaction],
    schema: ColumnMapping | None = None,
) -> None:
    """Write transactions as a normalized ledger CSV (round-trips with parse)."""
    schema = schema or ColumnMapping()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [schema.tx_id, schema.timestamp, schema.source, schema.target,
             schema.amount, schema.subtype]
        )
        for tx in transactions:
            stamp = datetime.fromtimestamp(tx.timestamp, tz=timezone.utc).isoformat()
            writer.writerow([tx.tx_id, stamp, tx.source, tx.target, str(tx.amount), tx.subtype])


def keep_everything() -> FilterSpec:
    """FilterSpec that admits every subtype and account (round-trip parsing)."""
    return FilterSpec(keep_subtypes=())
