"""Recirculation operations: per-user first-in to last-out windows.

For each user, incoming transactions open a window; once outgoing
transactions follow, the next incoming transaction closes the window as one
recirculation operation (an in-run followed by an out-run at end of stream
also closes). The operation's duration, last-out minus first-in, drives a
quartile split into the frequency categories HFQ1 (fastest) through LFQ3
(slowest), and each user is signed with the set of categories their
operations fall into, held as a 4-bit mask.

Equal timestamps order a user's incoming transactions before its outgoing
ones (funds arrive before they move), sub-ordered by transaction id.

Everything runs on the columnar ledger. Each transaction is one incoming
event of its target and one outgoing event of its source. The rows are in
time order, so each event's place in (timestamp, direction, row) order
follows from its row and its run of equal stamps; one ``np.argsort`` of
the int64 key ``user * 2m + place`` (``m`` rows) orders all events by
user and then place, and a user's stream splits wherever an incoming
event follows an outgoing one.
Operations and signatures are columns (account codes and 4-bit masks); the
crosstab maps codes to nodes with ``LedgerGraph.node_index``, looks up the
operations' members' links a block at a time, counts (link category,
frequency category) and (node category, mask) pairs with ``np.bincount``,
and sums the members' volume from the ledger's int64 units
(``util.Units``). ``user_categories`` gives each signature user's node
category, for the tables the pipeline writes per user.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

import numpy as np

from .errors import DataError
from .graph import LedgerGraph
from .ingest import Ledger
from .topology import CATEGORY_ORDER, TopologyPartition

__all__ = [
    "FrequencyCategory",
    "Operations",
    "QuartileBoundaries",
    "DurationMode",
    "ClassifiedOps",
    "SIGNATURE_KEYS",
    "Signatures",
    "RecirculationCoverage",
    "CrosstabResult",
    "extract_ops",
    "classify_ops",
    "user_signatures",
    "user_categories",
    "crosstab",
]


class FrequencyCategory(str, Enum):
    HFQ1 = "HFQ1"
    HFQ2 = "HFQ2"
    HFQ3 = "HFQ3"
    LFQ3 = "LFQ3"


_CATEGORIES = tuple(FrequencyCategory)
# The signature key of each 4-bit mask (bit i: FrequencyCategory number i).
SIGNATURE_KEYS = tuple(
    "-".join(c.value for i, c in enumerate(_CATEGORIES) if mask >> i & 1) for mask in range(16)
)


@dataclass(frozen=True, eq=False)
class Operations:
    """A ledger's recirculation operations as columns, by user and time.

    Operation ``k`` belongs to account code ``user[k]``; its member rows
    are ``rows[bounds[k]:bounds[k + 1]]``, incoming ones up to
    ``split[k]``, outgoing ones from there.
    """

    ledger: Ledger
    user: np.ndarray
    first_in: np.ndarray
    last_out: np.ndarray
    rows: np.ndarray
    bounds: np.ndarray
    split: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.last_out - self.first_in

    @property
    def n_in(self) -> np.ndarray:
        return self.split - self.bounds[:-1]

    @property
    def n_out(self) -> np.ndarray:
        return self.bounds[1:] - self.split

    def __len__(self) -> int:
        return self.user.size


def extract_ops(ledger: Ledger) -> Operations:
    """All recirculation operations, grouped by user and in time order.

    Outgoing transactions before a user's first incoming one belong to no
    operation, and a trailing in-run without any outgoing transaction
    yields none. Rows are ``(timestamp, tx_id)``-sorted, as every
    ``Ledger``'s are, so the row number breaks timestamp ties in
    transaction-id order, and an event's place in time follows from its row;
    a ledger whose stamps are out of order (a take by an unsorted index) is
    a :class:`DataError`.
    """
    m = len(ledger)
    stamp = ledger.timestamp
    if np.any(stamp[1:] < stamp[:-1]):
        raise DataError("extract_ops needs a ledger whose rows are in time order")
    span = 2 * m  # event e is row e's incoming event, event m + e row e's outgoing one
    position = np.int32 if span < 2**31 else np.int64
    # Rows are in time order, so in (stamp, direction, row) order the events
    # of a run of L equal stamps from row s take places 2s .. 2s + 2L - 1:
    # row r's incoming event s + r, its outgoing one L places later.
    run = np.flatnonzero(np.concatenate(([True], stamp[1:] != stamp[:-1])))
    length = np.diff(run, append=m)
    place = np.repeat(run, length) + np.arange(m)
    del run
    # user * 2m + place is distinct per event and below (2m + 1) * 2m,
    # which fits int64 for fewer than 1.5e9 rows. Built in place: no
    # temporary of the key's size.
    key = np.empty(span, dtype=np.int64)
    np.multiply(ledger.target, span, out=key[:m])
    key[:m] += place
    np.multiply(ledger.source, span, out=key[m:])
    key[m:] += place
    del place
    key[m:] += np.repeat(length, length)
    del length
    order = np.argsort(key).astype(position)
    user = key[order]
    del key
    user //= span
    outgoing = order >= m

    # A segment starts at each user's first event and wherever an incoming
    # event follows an outgoing one; it is an in-run then an out-run.
    new = np.ones(span, dtype=bool)
    new[1:] = (user[1:] != user[:-1]) | (outgoing[:-1] & ~outgoing[1:])
    starts = np.flatnonzero(new).astype(position)
    del new
    user = user[starts]
    lengths = np.diff(starts, append=position(span))
    n_in = np.add.reduceat(~outgoing, starts, dtype=position)
    del outgoing, starts
    is_op = (n_in > 0) & (n_in < lengths)
    bounds = np.concatenate(([0], np.cumsum(lengths[is_op], dtype=np.int64)))
    rows = order[np.repeat(is_op, lengths)]
    del order, lengths
    rows[rows >= m] -= m
    # An operation's first member is incoming and its last outgoing.
    return Operations(
        ledger=ledger,
        user=user[is_op],
        first_in=stamp[rows[bounds[:-1]]],
        last_out=stamp[rows[bounds[1:] - 1]],
        rows=rows,
        bounds=bounds,
        split=bounds[:-1] + n_in[is_op],
    )


@dataclass(frozen=True)
class QuartileBoundaries:
    q1: float
    q2: float
    q3: float


@dataclass(frozen=True)
class DurationMode:
    value: int
    count: int


@dataclass(frozen=True)
class ClassifiedOps:
    """Operations with their quartile boundaries and category codes.

    ``codes[k]`` indexes ``FrequencyCategory`` for operation ``k``.
    """

    ops: Operations
    boundaries: QuartileBoundaries
    codes: np.ndarray
    modes: dict[FrequencyCategory, DurationMode | None]
    global_mode: DurationMode


def _mode(durations: np.ndarray) -> DurationMode | None:
    """Most frequent duration; the smallest one on ties."""
    if not durations.size:
        return None
    values, counts = np.unique(durations, return_counts=True)
    top = int(np.argmax(counts))
    return DurationMode(value=int(values[top]), count=int(counts[top]))


def classify_ops(ops: Operations) -> ClassifiedOps:
    """Quartile split of the duration distribution (linear interpolation).

    HFQ1: d <= Q1;  HFQ2: Q1 < d <= Q2;  HFQ3: Q2 < d <= Q3;  LFQ3: d > Q3.
    """
    if not len(ops):
        raise DataError("classify_ops needs at least one operation")
    durations = ops.duration
    q1, q2, q3 = (float(q) for q in np.quantile(durations.astype(float), [0.25, 0.5, 0.75]))
    # Durations of in-range timestamps are exact as floats.
    codes = np.searchsorted([q1, q2, q3], durations.astype(float), side="left")
    return ClassifiedOps(
        ops=ops,
        boundaries=QuartileBoundaries(q1, q2, q3),
        codes=codes,
        modes={c: _mode(durations[codes == i]) for i, c in enumerate(_CATEGORIES)},
        global_mode=_mode(durations),
    )


@dataclass(frozen=True, eq=False)
class Signatures:
    """The users with operations, by account code ``user`` (into the
    operations' ``ledger.accounts``), each with a 4-bit ``mask``: bit i is
    set when one of the user's operations falls into ``FrequencyCategory``
    number i, and ``SIGNATURE_KEYS[mask]`` is the signature's key."""

    ledger: Ledger
    user: np.ndarray
    mask: np.ndarray

    def __len__(self) -> int:
        return self.user.size


def user_signatures(classified: ClassifiedOps) -> Signatures:
    """The signatures of the users with at least one operation."""
    ops = classified.ops
    masks = np.zeros(len(ops.ledger.accounts), dtype=np.int64)
    np.bitwise_or.at(masks, ops.user, 1 << classified.codes)
    users = np.flatnonzero(masks)
    return Signatures(ops.ledger, users, masks[users])


def user_categories(g: LedgerGraph, partition: TopologyPartition,
                    signatures: Signatures) -> np.ndarray:
    """Each signature user's node-category code in ``partition`` of ``g``
    (into ``CATEGORY_ORDER``); a user that is not a node of ``g`` is a
    :class:`DataError`."""
    node = g.node_index(signatures.ledger.accounts)[signatures.user]
    if (node < 0).any():
        user = signatures.ledger.accounts[signatures.user[np.argmin(node)]]
        raise DataError(f"user {user!r} is not in the graph")
    return partition.labels.node[node]


@dataclass(frozen=True)
class RecirculationCoverage:
    op_count: int
    tx_in_ops: int
    tx_share: float
    volume_in_ops: Decimal
    volume_share: float
    tx_counted_twice: int
    recirculating_users: int
    user_share: float


@dataclass(frozen=True)
class CrosstabResult:
    """Recirculation traffic against the topological partition.

    ``tx_table``: per link-category label, member transactions by frequency
    category; a transaction inside two operations (outgoing of one user's,
    incoming of another's) counts once per operation. ``user_table``:
    recirculating users by node category and signature key.
    """

    tx_table: dict[str, dict[str, int]]
    user_table: dict[str, dict[str, int]]
    coverage: RecirculationCoverage


# Members are looked up this many at a time, so that no int64 temporary of
# the lookup is over 1 MiB however many members there are. Smaller blocks
# made it slower: on the 458,619 members of the 40k ledger (in-process, 2
# vCPUs) 72 ms at 2**13 and 62 ms at 2**15, against 54 ms at 2**17 and for
# all members at once.
_MEMBER_BLOCK = 1 << 17


def _member_links(g: LedgerGraph, ops: Operations,
                  node_of: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Each block of ``ops.rows`` by its start, with each member's link: its
    (source, target) among ``g``'s sorted keys, ``node_of`` being
    ``g.node_index(ops.ledger.accounts)``. A member whose link is not in
    ``g`` is a :class:`DataError`."""
    ledger = ops.ledger
    n = g.node_count
    link_keys = np.append(g.sources * n + g.targets, -1)
    for start in range(0, ops.rows.size, _MEMBER_BLOCK):
        rows = ops.rows[start:start + _MEMBER_BLOCK]
        sources, targets = node_of[ledger.source[rows]], node_of[ledger.target[rows]]
        keys = sources * n + targets
        link = np.searchsorted(link_keys[:-1], keys)
        found = (sources >= 0) & (targets >= 0) & (link_keys[link] == keys)
        if not found.all():
            tx_id = ledger.ids[ledger.row[rows[np.argmin(found)]]]
            raise DataError(f"operation transaction {tx_id!r} is not in the graph")
        yield start, link


def crosstab(
    g: LedgerGraph,
    partition: TopologyPartition,
    classified: ClassifiedOps,
    signatures: Signatures,
) -> CrosstabResult:
    """Cross-tabulate operations against topology.

    ``g`` and ``partition`` must come from the ledger the operations were
    extracted from, and ``signatures`` from ``classified``; a member
    transaction whose link is not in ``g`` is a :class:`DataError`.
    """
    ops = classified.ops
    ledger = ops.ledger
    width = len(_CATEGORIES)
    counts = np.zeros(len(CATEGORY_ORDER) * width, dtype=np.int64)
    node_of = g.node_index(ledger.accounts)
    for start, link in _member_links(g, ops, node_of):
        # The operations from the one holding member ``start`` to the one
        # ending at or after the block's end, each with its count of members
        # in the block.
        stop = start + link.size
        first = np.searchsorted(ops.bounds, start, "right") - 1
        end = np.searchsorted(ops.bounds, stop)
        sizes = np.diff(np.clip(ops.bounds[first:end + 1], start, stop))
        codes = np.repeat(classified.codes[first:end], sizes)
        cells = partition.labels.link[link] * width + codes
        counts += np.bincount(cells, minlength=counts.size)
    tx_table = {
        label: {c.value: count for c, count in zip(_CATEGORIES, row)}
        for label, row in zip(CATEGORY_ORDER, counts.reshape(-1, width).tolist())
        if any(row)
    }

    cells = partition.labels.node[node_of[signatures.user]] * 16 + signatures.mask
    users = np.bincount(cells, minlength=len(CATEGORY_ORDER) * 16).reshape(-1, 16)
    user_table = {label: {key: count for key, count in zip(SIGNATURE_KEYS, row) if count}
                  for label, row in zip(CATEGORY_ORDER, users.tolist()) if any(row)}

    memberships = np.bincount(ops.rows, minlength=len(ledger))
    members = np.flatnonzero(memberships)
    volume_in_ops = ledger.units.take(members).total()
    coverage = RecirculationCoverage(
        op_count=len(ops),
        tx_in_ops=members.size,
        tx_share=members.size / g.tx_count if g.tx_count else 0.0,
        volume_in_ops=volume_in_ops,
        volume_share=float(volume_in_ops / g.volume) if g.volume else 0.0,
        tx_counted_twice=int(np.count_nonzero(memberships == 2)),
        recirculating_users=len(signatures),
        user_share=len(signatures) / g.node_count if g.node_count else 0.0,
    )
    return CrosstabResult(tx_table=tx_table, user_table=user_table, coverage=coverage)
