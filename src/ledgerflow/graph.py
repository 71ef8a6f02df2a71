"""The aggregated transaction graph.

Transactions are aggregated into a weighted directed simple graph: one link
per ordered (source, target) pair, carrying the count and exact volume of
its transactions. A transaction's link is its own (source, target), so a
link keeps no transaction ids. Self-transfers are dropped during
aggregation (a self-loop has no place in the topological categorisation)
and reported in a diagnostics record.

Aggregation works on the columnar ledger: links are ``np.unique`` over
``source * n + target`` of the integer account codes, counts a
``np.bincount``, and volumes plain ``Decimal`` sums inside one exact
context. Because codes follow the sorted account ids, the unique keys come
out in sorted link order, and the graph's links and nodes are read straight
from those columns.

Graphs are immutable once built. A graph keeps no adjacency lists: its
links as int64 ``sources``/``targets`` columns into the sorted ``nodes``
are what every analysis reads (degrees are ``np.bincount`` over them), so
every downstream result is deterministic regardless of input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .ingest import Ledger, Transaction, as_ledger
from .util import dsum, exact_sums

__all__ = ["LinkRecord", "LedgerGraph", "AggregateDiagnostics", "aggregate"]


class LinkRecord(NamedTuple):
    """The transactions aggregated onto one ordered node pair."""

    count: int
    volume: Decimal

    def merged(self, other: "LinkRecord") -> "LinkRecord":
        return LinkRecord(self.count + other.count, self.volume + other.volume)


@dataclass(frozen=True)
class AggregateDiagnostics:
    self_transfers_dropped: int


class LedgerGraph:
    """Weighted directed simple graph over account ids.

    Nodes are exactly the endpoints of links; aggregation never creates
    isolated nodes. ``links`` maps ordered (source, target) pairs to their
    :class:`LinkRecord` and iterates in sorted order; ``sources`` and
    ``targets`` are the same links as int64 indices into ``nodes``.
    """

    __slots__ = ("links", "nodes", "sources", "targets", "tx_count", "volume")

    def __init__(self, links: Mapping[tuple[str, str], LinkRecord]):
        nodes = tuple(sorted({v for pair in links for v in pair}))
        index = {v: i for i, v in enumerate(nodes)}
        ordered = sorted(links.items())
        ends = np.array([index[v] for pair, _ in ordered for v in pair], dtype=np.int64)
        self._build(nodes, ends[0::2], ends[1::2], [record for _, record in ordered])

    @classmethod
    def _from_sorted(cls, nodes, sources, targets, records) -> "LedgerGraph":
        g = cls.__new__(cls)
        g._build(nodes, sources, targets, records)
        return g

    def _build(self, nodes: tuple[str, ...], sources: np.ndarray, targets: np.ndarray,
               records: list[LinkRecord]) -> None:
        # Links arrive sorted by (source, target) index, which is string order.
        loops = np.flatnonzero(sources == targets)
        if loops.size:
            raise DataError(f"self-loop link {nodes[sources[loops[0]]]!r} is not allowed")
        sources.flags.writeable = targets.flags.writeable = False
        names = np.array(nodes, dtype=object)
        self.links: dict[tuple[str, str], LinkRecord] = dict(
            zip(zip(names[sources].tolist(), names[targets].tolist()), records)
        )
        self.nodes: tuple[str, ...] = nodes
        self.sources: np.ndarray = sources
        self.targets: np.ndarray = targets
        self.tx_count: int = sum(record.count for record in records)
        self.volume: Decimal = dsum(record.volume for record in records)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def link_list(self) -> list[tuple[str, str, LinkRecord]]:
        """Links as (source, target, record) triples in sorted order."""
        return [(s, t, rec) for (s, t), rec in self.links.items()]

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        amount: Decimal = Decimal(1),
    ) -> "LedgerGraph":
        """Build a graph from bare ordered pairs (one synthetic tx per pair).

        Convenience for demos and tests; duplicate pairs collapse into one
        link with accumulated count and volume.
        """
        links: dict[tuple[str, str], LinkRecord] = {}
        record = LinkRecord(1, amount)
        for source, target in edges:
            key = (str(source), str(target))
            links[key] = links[key].merged(record) if key in links else record
        return cls(links)

    def __repr__(self) -> str:
        return (f"LedgerGraph(nodes={self.node_count}, links={self.link_count}, "
                f"tx={self.tx_count}, volume={self.volume})")


def aggregate(
    transactions: Ledger | Sequence[Transaction],
) -> tuple[LedgerGraph, AggregateDiagnostics]:
    """Aggregate a ledger (or hand-built transactions) into a LedgerGraph.

    Self-transfers (source == target) are dropped and counted; an empty
    input yields an empty graph.
    """
    ledger = as_ledger(transactions)
    rows = np.flatnonzero(ledger.source != ledger.target)
    sources, targets = ledger.source[rows], ledger.target[rows]
    # Accounts seen only in self-transfers are not nodes.
    used = np.zeros(len(ledger.accounts), dtype=bool)
    used[sources] = used[targets] = True
    node_of = np.cumsum(used) - 1
    nodes = tuple(compress(ledger.accounts, used.tolist()))
    n = max(len(nodes), 1)
    keys, link_of_row = np.unique(node_of[sources] * n + node_of[targets], return_inverse=True)
    counts = np.bincount(link_of_row, minlength=keys.size)

    # Each link's amounts in row order, summed exactly.
    amount = ledger.amount
    grouped = [amount[i] for i in rows[np.argsort(link_of_row, kind="stable")].tolist()]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    zero = Decimal(0)
    with exact_sums():
        volumes = [sum(grouped[a:b], zero) for a, b in zip(bounds, bounds[1:])]
    records = list(map(LinkRecord, counts.tolist(), volumes))
    graph = LedgerGraph._from_sorted(nodes, keys // n, keys % n, records)
    return graph, AggregateDiagnostics(self_transfers_dropped=len(ledger) - rows.size)
