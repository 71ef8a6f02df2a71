"""The aggregated transaction graph.

Transactions are aggregated into a weighted directed simple graph: one link
per ordered (source, target) pair, carrying the count and exact volume of
its transactions. A transaction's link is its own (source, target), so a
link keeps no transaction ids. Self-transfers are dropped during
aggregation (a self-loop has no place in the topological categorisation)
and reported in a diagnostics record.

A graph is its link table, held as columns in sorted link order: int64
``sources``/``targets`` into the sorted ``nodes``, int64 ``counts`` and an
object array of ``Decimal`` ``volumes``. Every analysis reads those columns
(degrees are ``np.bincount`` over them), so every downstream result is
deterministic regardless of input ordering. ``links`` is a read-only
mapping view of the same table, ordered account-id pairs to
:class:`LinkRecord`; it is built on first access, for tests and library
callers, and nothing in the package reads it.

Rows become links one way: ``merge_links`` is ``np.unique`` over
``source * n + target`` of integer node codes, which gives the links in
sorted order (codes follow the sorted ids) and each row's link; counts add
with ``np.add.at`` and volumes with ``util.group_sums``, exactly (a sum
past 60 significant digits is a ``DataError``).
Aggregation, ``from_edges``, the mapping constructor and the null model's
replicas all merge this way. Graphs are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import compress
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError
from .ingest import Ledger, Transaction, as_ledger
from .util import dsum, group_sums

__all__ = ["LinkRecord", "LedgerGraph", "AggregateDiagnostics", "aggregate", "merge_links"]


class LinkRecord(NamedTuple):
    """The transactions aggregated onto one ordered node pair."""

    count: int
    volume: Decimal


@dataclass(frozen=True)
class AggregateDiagnostics:
    self_transfers_dropped: int


def merge_links(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct pairs of integer rows ``sources[k] -> targets[k]`` over
    nodes ``0..n-1`` as sorted (sources, targets), plus each row's index
    among them."""
    n = max(n, 1)
    keys, link_of_row = np.unique(sources * n + targets, return_inverse=True)
    return keys // n, keys % n, link_of_row


def _coded(pairs: Iterable[tuple[str, str]]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The sorted ids of (source, target) pairs, and the pairs' ends as
    int64 indices into them."""
    nodes = tuple(sorted({v for pair in pairs for v in pair}))
    index = {v: i for i, v in enumerate(nodes)}
    ends = np.array([index[v] for pair in pairs for v in pair], dtype=np.int64)
    return nodes, ends[0::2], ends[1::2]


class LedgerGraph:
    """Weighted directed simple graph over account ids.

    Nodes are exactly the endpoints of links; aggregation never creates
    isolated nodes. ``sources``, ``targets``, ``counts`` and ``volumes``
    are read-only columns with one entry per link, in sorted (source,
    target) order; ``links`` is the same table as a mapping of ordered
    account-id pairs to :class:`LinkRecord`, built when first read.
    """

    __slots__ = ("nodes", "sources", "targets", "counts", "volumes", "tx_count", "volume",
                 "_links")

    def __init__(self, links: Mapping[tuple[str, str], LinkRecord]):
        records = list(links.values())
        self._merge(*_coded(links), [r.count for r in records],
                    np.array([r.volume for r in records], dtype=object))

    @classmethod
    def _from_rows(cls, nodes, sources, targets, counts, amounts) -> "LedgerGraph":
        g = cls.__new__(cls)
        g._merge(nodes, sources, targets, counts, amounts)
        return g

    def _merge(self, nodes: tuple[str, ...], sources: np.ndarray, targets: np.ndarray,
               counts, amounts: np.ndarray) -> None:
        """Take the links of integer rows ``sources[k] -> targets[k]`` over
        ``nodes``, carrying ``counts`` and ``amounts`` (an object array);
        rows on one pair add up."""
        loops = np.flatnonzero(sources == targets)
        if loops.size:
            raise DataError(f"self-loop link {nodes[sources[loops[0]]]!r} is not allowed")
        sources, targets, link_of_row = merge_links(len(nodes), sources, targets)
        link_counts = np.zeros(sources.size, dtype=np.int64)
        np.add.at(link_counts, link_of_row, counts)
        volumes = group_sums(link_of_row, amounts, sources.size)
        for column in (sources, targets, link_counts, volumes):
            column.flags.writeable = False
        self.nodes: tuple[str, ...] = nodes
        self.sources: np.ndarray = sources
        self.targets: np.ndarray = targets
        self.counts: np.ndarray = link_counts
        self.volumes: np.ndarray = volumes
        self.tx_count: int = int(link_counts.sum())
        self.volume: Decimal = dsum(volumes)
        self._links: Mapping[tuple[str, str], LinkRecord] | None = None

    def __reduce__(self):
        # A pickle (what a pool worker receives) holds the columns, never
        # the links view.
        return LedgerGraph._from_rows, (self.nodes, self.sources, self.targets, self.counts,
                                        self.volumes)

    @property
    def links(self) -> Mapping[tuple[str, str], LinkRecord]:
        """Read-only mapping of ordered (source, target) ids to their
        :class:`LinkRecord`, in sorted order; built on first access."""
        if self._links is None:
            names = np.array(self.nodes, dtype=object)
            pairs = zip(names[self.sources].tolist(), names[self.targets].tolist())
            records = map(LinkRecord, self.counts.tolist(), self.volumes.tolist())
            self._links = MappingProxyType(dict(zip(pairs, records)))
        return self._links

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def link_count(self) -> int:
        return self.sources.size

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
        pairs = [(str(source), str(target)) for source, target in edges]
        return cls._from_rows(*_coded(pairs), 1, np.full(len(pairs), amount, dtype=object))

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
    graph = LedgerGraph._from_rows(nodes, node_of[sources], node_of[targets], 1,
                                   np.array(ledger.amount, dtype=object)[rows])
    return graph, AggregateDiagnostics(self_transfers_dropped=len(ledger) - rows.size)
