"""The aggregated transaction graph.

Transactions are aggregated into a weighted directed simple graph: one link
per ordered (source, target) pair, carrying the count and exact volume of
its transactions. A transaction's link is its own (source, target), so a
link keeps no transaction ids. Self-transfers are dropped during
aggregation (a self-loop has no place in the topological categorisation)
and reported in a diagnostics record.

A graph is its link table, held as columns in sorted link order: int64
``sources``/``targets`` into the sorted ``nodes``, int64 ``counts`` and the
link volumes as ``util.Units`` (int64 units at the ledger's scale with each
link's exponent, or exact ``Decimal``s past int64). Every analysis reads
those columns (degrees are ``np.bincount`` over them), so every downstream
result is deterministic regardless of input ordering; no stage builds the
links' ``Decimal`` volumes.

Rows become links one way: ``merge_links`` is ``np.unique`` over
``source * n + target`` of integer node codes, which gives the links in
sorted order (codes follow the sorted ids) and each row's link; counts add
with ``np.add.at`` and volumes with ``Units.sums``, exactly (a sum past 60
significant digits is a ``DataError``). Aggregation and the null model's
replicas both merge this way. Graphs are immutable once built, and once
unpickled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import Ledger
from .util import Units

__all__ = ["LedgerGraph", "AggregateDiagnostics", "aggregate", "merge_links"]


@dataclass(frozen=True)
class AggregateDiagnostics:
    self_transfers_dropped: int


def merge_links(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct pairs of integer rows ``sources[k] -> targets[k]`` over
    nodes ``0..n-1`` as sorted (sources, targets), plus each row's index
    among them."""
    n = max(n, 1)
    keys = sources * n + targets
    if n * n <= 2**31:  # int32 keys sort faster
        keys = keys.astype(np.int32)
    keys, link_of_row = np.unique(keys, return_inverse=True)
    return *np.divmod(keys.astype(np.int64, copy=False), n), link_of_row


class LedgerGraph:
    """Weighted directed simple graph over account ids.

    ``nodes`` are the sorted account ids, exactly the endpoints of links;
    aggregation never creates isolated nodes. ``sources``, ``targets``,
    ``counts`` and ``units`` (the volumes) are read-only columns with one
    entry per link, in sorted (source, target) order; ``tx_count`` and
    ``volume`` are their totals. A graph is built by :func:`aggregate`, or
    from integer link rows by ``_from_rows``.
    """

    __slots__ = ("nodes", "sources", "targets", "counts", "units", "tx_count", "volume")

    @classmethod
    def _from_rows(cls, nodes: tuple[str, ...], sources: np.ndarray, targets: np.ndarray,
                   counts, amounts: Units) -> "LedgerGraph":
        """The links of integer rows ``sources[k] -> targets[k]`` over
        ``nodes``, carrying ``counts`` and ``amounts``; rows on one pair add up."""
        loops = np.flatnonzero(sources == targets)
        if loops.size:
            raise DataError(f"self-loop link {nodes[sources[loops[0]]]!r} is not allowed")
        sources, targets, link_of_row = merge_links(len(nodes), sources, targets)
        link_counts = np.zeros(sources.size, dtype=np.int64)
        np.add.at(link_counts, link_of_row, counts)
        units = amounts.sums(link_of_row, sources.size)
        g = cls.__new__(cls)
        g.nodes = nodes
        g.sources = sources
        g.targets = targets
        g.counts = link_counts
        g.units = units
        g.tx_count = int(link_counts.sum())
        g.volume = units.total()
        g._freeze()
        return g

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._freeze()

    def _freeze(self) -> None:
        for column in (self.sources, self.targets, self.counts, *self.units.arrays):
            column.flags.writeable = False

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return self.sources.size

    def node_index(self, accounts: tuple[str, ...]) -> np.ndarray:
        """Each account's index in ``nodes``, or -1 where it is not a node."""
        if accounts == self.nodes:  # every account is a node
            return np.arange(self.node_count)
        nodes, accounts = np.array(self.nodes, dtype=object), np.array(accounts, dtype=object)
        index = np.searchsorted(nodes, accounts)
        return np.where(np.append(nodes, None)[index] == accounts, index, -1)

    def __repr__(self) -> str:
        return (f"LedgerGraph(nodes={self.node_count}, links={self.link_count}, "
                f"tx={self.tx_count}, volume={self.volume})")


def aggregate(ledger: Ledger) -> tuple[LedgerGraph, AggregateDiagnostics]:
    """Aggregate a ledger into a LedgerGraph.

    Self-transfers (source == target) are dropped and counted; an empty
    ledger yields an empty graph.
    """
    kept = ledger.without_self_transfers()  # accounts seen only in self-transfers are not nodes
    graph = LedgerGraph._from_rows(kept.accounts, kept.source, kept.target, 1, kept.units)
    return graph, AggregateDiagnostics(self_transfers_dropped=len(ledger) - len(kept))
