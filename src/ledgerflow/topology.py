"""Exclusive topological categorisation of a ledger graph.

Every node and every link is assigned to exactly one category:

* cyclic components: strongly connected components of two or more nodes,
  labelled by their boundary traffic with acyclic components and
  single-nodes (``scc0``, ``sccTin``, ``sccTout``, ``sccTmix``);
* acyclic components: weakly connected groups of two or more non-cyclic
  nodes, labelled by their boundary traffic with cyclic components
  (``dag0``, ``dagTin``, ``dagTout``, ``dagTmix``);
* single-nodes: non-cyclic nodes whose links all attach to cyclic
  components (``in-single-node``, ``out-single-node``, ``bridge_scc``);
* boundary links that belong to no node component (``edge_dag2scc``,
  ``edge_scc2dag``, ``edge_scc2scc``).

Links internal to a component, and links between a single-node and a cyclic
component, are owned by that component; only the three boundary kinds stand
alone. The partition is complete: category node/link/tx/volume totals add
up exactly to the graph totals.

The categoriser works on integer endpoint columns sorted by source. The
strongly connected components, and the weak components of the links between
non-cyclic nodes, come from ``scipy.sparse.csgraph``, handed CSR matrices
built straight from the columns. Boundary flags and single-nodes are read
off the links with exactly one cyclic end, each once, and one table maps a
node's kind and flags to its category code. Category statistics are
``np.bincount`` tables over the codes and ``label``'s components, plus one
weak-components pass over the single-node and boundary links; volumes are
summed exactly per code as ``util.Units``, and a ``Decimal`` is built only
for a volume that is written. ``categorize`` wraps ``label`` for a
:class:`LedgerGraph`: its :class:`TopologyPartition` carries the codes and
each node's component index, in ``g.nodes`` and link-column order. Null
replicas call ``label`` and ``tabulate`` on their arrays directly. The
string-keyed dict view of a partition and its structural check live in
``tests/oracles.py`` as test references.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cached_property
from typing import Mapping, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graph import LedgerGraph

__all__ = [
    "NodeCategory",
    "EdgeKind",
    "TopologyPartition",
    "CategoryRow",
    "OneTimeRow",
    "OneTimeUserTable",
    "CATEGORY_ORDER",
    "NODE_CATEGORIES",
    "EDGE_CATEGORIES",
    "Labels",
    "label",
    "categorize",
    "tabulate",
    "category_stats",
    "one_time_users",
]


class NodeCategory(str, Enum):
    SCC_TMIX = "sccTmix"
    SCC_TIN = "sccTin"
    SCC_TOUT = "sccTout"
    SCC0 = "scc0"
    DAG_TMIX = "dagTmix"
    DAG_TIN = "dagTin"
    DAG_TOUT = "dagTout"
    DAG0 = "dag0"
    IN_SINGLE = "in-single-node"
    OUT_SINGLE = "out-single-node"
    BRIDGE_SCC = "bridge_scc"

    @property
    def is_scc(self) -> bool:
        return self.value.startswith("scc")

    @property
    def is_dag(self) -> bool:
        return self.value.startswith("dag")

    @property
    def is_single(self) -> bool:
        return not (self.is_scc or self.is_dag)


class EdgeKind(str, Enum):
    INTERNAL = "internal"                # intra-SCC or intra-DAG link
    ATTACHMENT = "attachment"            # single-node <-> SCC link
    DAG2SCC = "edge_dag2scc"
    SCC2DAG = "edge_scc2dag"
    SCC2SCC = "edge_scc2scc"


NODE_CATEGORIES: tuple[str, ...] = tuple(c.value for c in NodeCategory)
EDGE_CATEGORIES: tuple[str, ...] = (
    EdgeKind.DAG2SCC.value,
    EdgeKind.SCC2DAG.value,
    EdgeKind.SCC2SCC.value,
)

# Canonical report row order (largest empirical groups first by convention).
CATEGORY_ORDER: tuple[str, ...] = (
    "sccTmix",
    "in-single-node",
    "dagTin",
    "dag0",
    "out-single-node",
    "scc0",
    "sccTin",
    "dagTmix",
    "dagTout",
    "sccTout",
    "bridge_scc",
    "edge_dag2scc",
    "edge_scc2dag",
    "edge_scc2scc",
)


@dataclass(frozen=True)
class CategoryRow:
    scc_count: int
    wcc_count: int
    node_count: int
    link_count: int
    tx_count: int
    volume: Decimal


class Labels(NamedTuple):
    """Category codes (indices into ``CATEGORY_ORDER``) of one graph."""

    node: np.ndarray       # per node
    link: np.ndarray       # per link


@dataclass(frozen=True, eq=False)
class TopologyPartition:
    """Exclusive assignment of every node and link of one graph.

    ``labels`` holds the category codes in ``g.nodes`` (``nodes``) and
    link-column order; ``component`` is each node's component index from
    ``label``; ``node_category`` maps account ids to their category, built
    on first read (no stage reads it).
    """

    labels: Labels
    component: np.ndarray
    nodes: tuple[str, ...]

    @cached_property
    def node_category(self) -> Mapping[str, NodeCategory]:
        return dict(zip(self.nodes, map(_NODE_CATEGORY.__getitem__, self.labels.node.tolist())))


_CODE = {label: code for code, label in enumerate(CATEGORY_ORDER)}
_NODE_CATEGORY = [NodeCategory(c) if c in NODE_CATEGORIES else None for c in CATEGORY_ORDER]
# Indexed by 2 * inbound + outbound (cyclic) or 2 * sends + receives (acyclic).
_SCC_CODES = np.array([_CODE[c] for c in ("scc0", "sccTout", "sccTin", "sccTmix")])
_DAG_CODES = np.array([_CODE[c] for c in ("dag0", "dagTout", "dagTin", "dagTmix")])
_BOUNDARY = np.array([_CODE["edge_scc2dag"], _CODE["edge_dag2scc"]])  # by entering a cyclic end
# Indexed by 4 * kind + flags, for single-nodes (2 * sends + receives; an
# isolated node is out-single), acyclic and cyclic nodes.
_NODE_CODES = np.array([_CODE[c] for c in ("out-single-node", "out-single-node",
                        "in-single-node", "bridge_scc")] + [*_DAG_CODES, *_SCC_CODES])
_CYCLIC = np.array([c.startswith("scc") for c in CATEGORY_ORDER])
_PASSED = np.array([not c.startswith(("scc", "dag")) for c in CATEGORY_ORDER])
_BLOCK = np.cumsum(_PASSED) - 1  # each passed category's block of (category, node) vertices


def _components(n: int, sources: np.ndarray, targets: np.ndarray, connection: str) -> np.ndarray:
    """Strong or weak component id of each node ``0..n-1``; ``sources`` must
    be sorted, as they are the rows of the CSR matrix handed to csgraph."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(sources.size), targets, indptr), shape=(n, n))
    return connected_components(graph, directed=True, connection=connection)[1]


def _touched_components(size: int, heads: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, ...]:
    """Which ids of ``0..size-1`` the links ``heads -> tails`` (``heads``
    sorted) touch, as a mask and in order, and the weak component of each,
    taken over those ids alone."""
    touched = np.zeros(size, dtype=bool)
    touched[heads] = touched[tails] = True
    members = np.flatnonzero(touched)
    vertex = np.empty(size, dtype=np.int64)
    vertex[members] = np.arange(members.size)
    return touched, members, _components(members.size, vertex[heads], vertex[tails], "weak")


def label(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[Labels, np.ndarray]:
    """Category codes of a simple digraph on nodes ``0..n-1``, links sorted by source.

    Returns the labels and each node's component id: its SCC for a cyclic
    node, else ``n`` plus one member's index for an acyclic component and
    ``n + v`` for single-node v.
    """
    scc = _components(n, sources, targets, "strong")
    cyclic = np.bincount(scc, minlength=1)[scc] >= 2
    scc_of = np.where(cyclic, scc, -1)  # at each link end
    s_scc, t_scc = scc_of[sources], scc_of[targets]
    s_cyc, t_cyc = s_scc >= 0, t_scc >= 0
    # A link between non-cyclic ends makes both acyclic; each weak component
    # of those links is numbered n + one of its members' index.
    plain = np.flatnonzero(~(s_cyc | t_cyc))
    dag, members, wcc = _touched_components(n, sources[plain], targets[plain])
    component = np.where(cyclic, scc, n + np.arange(n))
    component[members] = n + members[wcc]

    # The links with one cyclic end, the hub, set every flag: at component
    # + 2n for a link into the hub (the SCC's inbound, the other end's sends),
    # else at component. The other end is acyclic or a single-node, all of
    # whose links are such; a bridge single-node's do not count for the SCC.
    cross = np.flatnonzero(s_cyc != t_cyc)
    side = n * t_cyc[cross]
    ends = np.where(side, sources[cross], targets[cross])
    seen = np.zeros(4 * n, dtype=bool)
    owner = component[ends]
    seen[2 * side + owner] = True
    bridge = ~dag[ends] & seen[owner] & seen[owner + 2 * n]
    seen[(2 * side + s_scc[cross] + t_scc[cross] + 1)[~bridge]] = True  # the other end's is -1
    node = _NODE_CODES[4 * (2 * cyclic + dag) + (2 * seen[2 * n:] + seen[:2 * n])[component]]
    # Internal links belong to their component, a single-node's attachment
    # links to the single-node; the rest are boundary links, those of an
    # acyclic end by direction.
    link = node[sources]
    link[(s_scc != t_scc) & s_cyc & t_cyc] = _CODE["edge_scc2scc"]
    link[cross] = np.where(dag, _BOUNDARY[:, None], node).ravel()[side + ends]
    return Labels(node=node, link=link), component


def categorize(g: LedgerGraph) -> TopologyPartition:
    """Partition a graph into the exclusive topological categories."""
    labels, component = label(g.node_count, g.sources, g.targets)
    return TopologyPartition(labels, component, g.nodes)


def tabulate(
    labels: Labels,
    component: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    counts: np.ndarray,
    record_link: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-category sizes from array labels: ``(table, record_code)``.

    ``labels`` and ``component`` are ``label``'s for the links ``sources ->
    targets``, sorted by source. ``table`` is int64, ``CATEGORY_ORDER`` rows by the
    ``CategoryRow`` count columns (scc, wcc, node, link, tx); ``record_code``
    is the category of each link record, which volumes are summed by.
    ``counts`` is per link record; ``record_link`` maps each record to the
    link carrying it (identity when omitted). A category's weak components
    span its owned links plus their endpoints, so e.g. single-nodes
    attached to one hub form one component.
    """
    size = len(CATEGORY_ORDER)
    n = labels.node.size
    record_code = labels.link if record_link is None else labels.link[record_link]
    node_count = np.bincount(labels.node, minlength=size)
    link_count = np.bincount(labels.link, minlength=size)
    tx_count = np.zeros(size, dtype=np.int64)
    np.add.at(tx_count, record_code, counts)

    # A cyclic or acyclic category owns exactly the links inside its
    # components, so its weak components are label's components.
    code_of = np.full(2 * n, size)
    code_of[component] = labels.node
    wcc_count = np.bincount(code_of, minlength=size + 1)[:size]
    scc_count = np.where(_CYCLIC, wcc_count, 0)
    # The single-node and boundary-link categories need one weak-components
    # pass over (category, node) vertices of their links: node v in the
    # category's block b is b * n + v. The links go in (category, source)
    # order, which a stable (radix) sort of their uint8 codes gives.
    passed = np.flatnonzero(_PASSED[labels.link])
    passed = passed[np.argsort(labels.link[passed].astype(np.uint8), kind="stable")]
    block = _BLOCK[labels.link[passed]] * n
    _, vertex, vertex_wcc = _touched_components(_PASSED.sum() * n, block + sources[passed],
                                                block + targets[passed])
    wcc_block = np.empty(vertex_wcc.max(initial=-1) + 1, dtype=np.int64)
    wcc_block[vertex_wcc] = vertex // n  # each component lies in one block
    wcc_count[_PASSED] = np.bincount(wcc_block, minlength=_PASSED.sum())

    table = np.stack([scc_count, wcc_count, node_count, link_count, tx_count], axis=1)
    return table, record_code


def category_stats(g: LedgerGraph, partition: TopologyPartition) -> dict[str, CategoryRow]:
    """Per-category sizes: components, nodes, links, transactions, volume."""
    table, link_code = tabulate(partition.labels, partition.component, g.sources, g.targets,
                                g.counts)
    volume = g.units.sums(link_code, len(table)).to_decimals()
    return {name: CategoryRow(*row, total)
            for name, row, total in zip(CATEGORY_ORDER, table.tolist(), volume)}


@dataclass(frozen=True)
class OneTimeRow:
    one_outgoing: int
    one_incoming: int
    outgoing_volume: Decimal
    incoming_volume: Decimal


@dataclass(frozen=True)
class OneTimeUserTable:
    """One-transaction users per node category, split by direction."""

    rows: dict[str, OneTimeRow]
    total: OneTimeRow


def one_time_users(g: LedgerGraph, partition: TopologyPartition) -> OneTimeUserTable:
    """Users with exactly one transaction in the whole ledger.

    Such a user has one link carrying one transaction, so its volume is
    that link's; each row's volumes are summed exactly.
    """
    out_tx = np.bincount(g.sources, weights=g.counts, minlength=g.node_count)
    in_tx = np.bincount(g.targets, weights=g.counts, minlength=g.node_count)
    one_time = (out_tx + in_tx) == 1
    size = len(CATEGORY_ORDER)
    directions = []
    for ends in (g.sources, g.targets):
        links = np.flatnonzero(one_time[ends])
        codes = partition.labels.node[ends[links]]
        directions.append((np.bincount(codes, minlength=size),
                           g.units.take(links).sums(codes, size)))
    (out_n, out_units), (in_n, in_units) = directions
    out_v, in_v = out_units.to_decimals(), in_units.to_decimals()
    rows = {
        CATEGORY_ORDER[code]:
            OneTimeRow(int(out_n[code]), int(in_n[code]), out_v[code], in_v[code])
        for code in np.flatnonzero(out_n + in_n).tolist()
    }
    total = OneTimeRow(int(out_n.sum()), int(in_n.sum()), out_units.total(), in_units.total())
    return OneTimeUserTable(rows=dict(sorted(rows.items())), total=total)
