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

The categoriser works on integer endpoint columns: strongly connected
components and the weak components of non-cyclic links come from
``scipy.sparse.csgraph``, boundary flags are boolean scatters per component,
and every node and link gets one category code. Category statistics are
``np.bincount`` tables over those codes. ``categorize`` and
``category_stats`` wrap this for a string-keyed :class:`LedgerGraph`; null
replicas call ``label`` and ``tabulate`` on their arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graph import LedgerGraph
from .util import dsum

__all__ = [
    "NodeCategory",
    "EdgeKind",
    "EdgeAssignment",
    "TopologyPartition",
    "CategoryRow",
    "OneTimeRow",
    "OneTimeUserTable",
    "CATEGORY_ORDER",
    "NODE_CATEGORIES",
    "EDGE_CATEGORIES",
    "LinkColumns",
    "Labels",
    "strongly_connected_components",
    "link_columns",
    "label",
    "categorize",
    "partition_labels",
    "tabulate",
    "category_stats",
    "one_time_users",
    "verify_partition",
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
class EdgeAssignment:
    kind: EdgeKind
    component_id: str | None  # set for INTERNAL and ATTACHMENT links


@dataclass(frozen=True)
class TopologyPartition:
    """Exclusive assignment of every node and link of one graph."""

    node_category: Mapping[str, NodeCategory]
    node_component: Mapping[str, str]
    components: Mapping[str, tuple[str, ...]]
    component_category: Mapping[str, NodeCategory]
    edge_assignment: Mapping[tuple[str, str], EdgeAssignment]

    @cached_property
    def _component_label(self) -> dict[str, str]:
        return {cid: category.value for cid, category in self.component_category.items()}

    def edge_label(self, pair: tuple[str, str]) -> str:
        """Report label of the category a link's traffic belongs to."""
        assignment = self.edge_assignment[pair]
        if assignment.component_id is not None:
            return self._component_label[assignment.component_id]
        return assignment.kind.value


@dataclass(frozen=True)
class CategoryRow:
    scc_count: int
    wcc_count: int
    node_count: int
    link_count: int
    tx_count: int
    volume: Decimal


class LinkColumns(NamedTuple):
    """A graph's links as integer columns, in ``g.links`` order.

    Node ids index the sorted ``g.nodes``, so integer (source, target) order
    equals the graph's string link order.
    """

    n: int
    sources: np.ndarray
    targets: np.ndarray
    counts: np.ndarray
    volumes: np.ndarray  # Decimal objects


def link_columns(g: LedgerGraph) -> LinkColumns:
    records = list(g.links.values())
    volumes = np.empty(len(records), dtype=object)
    volumes[:] = [r.volume for r in records]
    return LinkColumns(
        n=g.node_count,
        sources=g.sources,
        targets=g.targets,
        counts=np.array([r.count for r in records], dtype=np.int64),
        volumes=volumes,
    )


class Labels(NamedTuple):
    """Category codes (indices into ``CATEGORY_ORDER``) of one graph."""

    node: np.ndarray       # per node
    link: np.ndarray       # per link
    scc_codes: np.ndarray  # per cyclic component


_CODE = {label: code for code, label in enumerate(CATEGORY_ORDER)}
_NODE_CATEGORY = {_CODE[c.value]: c for c in NodeCategory}
_EDGE_CODES = np.array([_CODE[c] for c in EDGE_CATEGORIES])
# Indexed by 2 * inbound + outbound (cyclic) or 2 * sends + receives (acyclic).
_SCC_CODES = np.array([_CODE[c] for c in ("scc0", "sccTout", "sccTin", "sccTmix")])
_DAG_CODES = np.array([_CODE[c] for c in ("dag0", "dagTout", "dagTin", "dagTmix")])


def _components(n: int, sources: np.ndarray, targets: np.ndarray, connection: str) -> np.ndarray:
    ones = np.ones(sources.size, dtype=np.int8)
    graph = csr_matrix((ones, (sources, targets)), shape=(n, n))
    return connected_components(graph, directed=True, connection=connection)[1]


def _members(component: np.ndarray) -> dict[int, list[int]]:
    """Node ids per component id, ascending; components by first member."""
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(component.tolist()):
        groups.setdefault(c, []).append(i)
    return groups


def strongly_connected_components(g: LedgerGraph) -> list[tuple[str, ...]]:
    """All SCCs (including singletons) as sorted tuples, by first member."""
    cols = link_columns(g)
    scc = _components(cols.n, cols.sources, cols.targets, "strong")
    return [tuple(g.nodes[i] for i in group) for group in _members(scc).values()]


def label(n: int, sources: np.ndarray, targets: np.ndarray) -> tuple[Labels, np.ndarray]:
    """Category codes of a simple digraph on nodes ``0..n-1``.

    Returns the labels and each node's component id (its SCC for cyclic
    nodes, its weak component of non-cyclic links offset by ``n`` otherwise).
    """
    scc = _components(n, sources, targets, "strong")
    cyclic = np.bincount(scc, minlength=1)[scc] >= 2
    s_cyc, t_cyc = cyclic[sources], cyclic[targets]
    plain = ~s_cyc & ~t_cyc
    wcc = _components(n, sources[plain], targets[plain], "weak")
    dag = ~cyclic & (np.bincount(wcc, minlength=1)[wcc] >= 2)
    single = ~cyclic & ~dag
    has_out = np.bincount(sources, minlength=n) > 0
    has_in = np.bincount(targets, minlength=n) > 0
    bridge = single & has_out & has_in

    # Boundary flags per component; links of bridge single-nodes do not count.
    scc_in, scc_out, dag_sends, dag_receives = np.zeros((4, n), dtype=bool)
    scc_out[scc[sources[s_cyc & ~t_cyc & ~bridge[targets]]]] = True
    scc_in[scc[targets[~s_cyc & t_cyc & ~bridge[sources]]]] = True
    dag_sends[wcc[sources[dag[sources] & t_cyc]]] = True
    dag_receives[wcc[targets[s_cyc & dag[targets]]]] = True

    node = np.select(
        [cyclic, dag, bridge, has_out],
        [_SCC_CODES[2 * scc_in[scc] + scc_out[scc]],
         _DAG_CODES[2 * dag_sends[wcc] + dag_receives[wcc]],
         _CODE["bridge_scc"], _CODE["in-single-node"]],
        _CODE["out-single-node"],
    )
    # Internal links belong to their component, attachments to the
    # single-node; the rest are boundary links.
    internal = plain | (s_cyc & t_cyc & (scc[sources] == scc[targets]))
    link = np.select(
        [internal, s_cyc & t_cyc, s_cyc & single[targets], s_cyc, single[sources]],
        [node[sources], _CODE["edge_scc2scc"], node[targets], _CODE["edge_scc2dag"],
         node[sources]],
        _CODE["edge_dag2scc"],
    )
    first = np.unique(scc[cyclic], return_index=True)[1]
    labels = Labels(node=node, link=link, scc_codes=node[cyclic][first])
    return labels, np.where(cyclic, scc, n + wcc)


def categorize(g: LedgerGraph) -> TopologyPartition:
    """Partition a graph into the exclusive topological categories."""
    cols = link_columns(g)
    labels, component = label(cols.n, cols.sources, cols.targets)
    nodes = g.nodes
    node_codes = labels.node.tolist()

    # Members of each component in node order; the id names the first.
    cid_of: dict[int, str] = {}
    node_component: dict[str, str] = {}
    node_category: dict[str, NodeCategory] = {}
    components: dict[str, tuple[str, ...]] = {}
    component_category: dict[str, NodeCategory] = {}
    for c, group in _members(component).items():
        members = tuple(nodes[i] for i in group)
        category = _NODE_CATEGORY[node_codes[group[0]]]
        kind = "scc" if category.is_scc else "dag" if category.is_dag else "node"
        cid = cid_of[c] = f"{kind}:{members[0]}"
        components[cid] = members
        component_category[cid] = category
        for v in members:
            node_component[v] = cid
            node_category[v] = category

    # Boundary links have no owner. An internal link belongs to its
    # component, an attachment to its single-node end, whose component id
    # (offset past every SCC id) is the larger. Links that share a kind and
    # an owner share one assignment.
    cs, ct = component[cols.sources], component[cols.targets]
    boundary = np.isin(labels.link, _EDGE_CODES)
    key = np.where(boundary, -labels.link, 2 * np.maximum(cs, ct) + (cs != ct))
    keys, which = np.unique(key, return_inverse=True)
    assignments = [
        EdgeAssignment(EdgeKind(CATEGORY_ORDER[-k]), None) if k < 0
        else EdgeAssignment(EdgeKind.ATTACHMENT if k % 2 else EdgeKind.INTERNAL, cid_of[k // 2])
        for k in keys.tolist()
    ]
    edge_assignment = dict(zip(g.links, map(assignments.__getitem__, which.tolist())))

    return TopologyPartition(
        node_category=node_category,
        node_component=node_component,
        components=components,
        component_category=component_category,
        edge_assignment=edge_assignment,
    )


def tabulate(
    labels: Labels,
    sources: np.ndarray,
    targets: np.ndarray,
    counts: np.ndarray,
    volumes: np.ndarray,
    record_link: np.ndarray | None = None,
) -> dict[str, CategoryRow]:
    """Per-category rows from array labels; every category appears.

    ``counts`` and ``volumes`` are per link record; ``record_link`` maps each
    record to the link carrying it (identity when omitted). A category's
    weak components span its owned links plus their endpoints, so e.g.
    single-nodes attached to one hub form one component.
    """
    size = len(CATEGORY_ORDER)
    n = labels.node.size
    record_code = labels.link if record_link is None else labels.link[record_link]
    node_count = np.bincount(labels.node, minlength=size)
    link_count = np.bincount(labels.link, minlength=size)
    scc_count = np.bincount(labels.scc_codes, minlength=size)
    tx_count = np.zeros(size, dtype=np.int64)
    np.add.at(tx_count, record_code, counts)

    # One weak-components pass over (category, node) vertices.
    keys, ends = np.unique(
        np.concatenate([labels.link * n + sources, labels.link * n + targets]),
        return_inverse=True,
    )
    vertex_wcc = _components(keys.size, ends[: sources.size], ends[sources.size:], "weak")
    first = np.unique(vertex_wcc, return_index=True)[1]
    wcc_count = np.bincount(keys[first] // n, minlength=size)

    bounds = [0] + np.cumsum(np.bincount(record_code, minlength=size)).tolist()
    grouped = volumes[np.argsort(record_code, kind="stable")]
    return {
        name: CategoryRow(
            scc_count=int(scc_count[code]),
            wcc_count=int(wcc_count[code]),
            node_count=int(node_count[code]),
            link_count=int(link_count[code]),
            tx_count=int(tx_count[code]),
            volume=dsum(grouped[bounds[code]:bounds[code + 1]]),
        )
        for code, name in enumerate(CATEGORY_ORDER)
    }


def partition_labels(g: LedgerGraph, partition: TopologyPartition) -> Labels:
    """A partition's category codes in ``g.nodes`` and ``g.links`` order."""
    node = [_CODE[partition.node_category[v]] for v in g.nodes]
    link = [_CODE[partition.edge_label(pair)] for pair in g.links]
    sccs = [_CODE[c.value] for c in partition.component_category.values() if c.is_scc]
    return Labels(*(np.array(codes, dtype=np.int64) for codes in (node, link, sccs)))


def category_stats(g: LedgerGraph, partition: TopologyPartition) -> dict[str, CategoryRow]:
    """Per-category sizes: components, nodes, links, transactions, volume."""
    cols = link_columns(g)
    labels = partition_labels(g, partition)
    return tabulate(labels, cols.sources, cols.targets, cols.counts, cols.volumes)


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
    cols = link_columns(g)
    out_tx = np.bincount(cols.sources, weights=cols.counts, minlength=cols.n)
    in_tx = np.bincount(cols.targets, weights=cols.counts, minlength=cols.n)
    one_time = (out_tx + in_tx) == 1
    cells: dict[str, tuple[list[Decimal], list[Decimal]]] = {}
    for ends, direction in ((cols.sources, 0), (cols.targets, 1)):
        mine = one_time[ends]
        for v, link in zip(ends[mine].tolist(), np.flatnonzero(mine).tolist()):
            label = partition.node_category[g.nodes[v]].value
            cells.setdefault(label, ([], []))[direction].append(cols.volumes[link])

    rows = {
        label: OneTimeRow(
            one_outgoing=len(out_v),
            one_incoming=len(in_v),
            outgoing_volume=dsum(out_v),
            incoming_volume=dsum(in_v),
        )
        for label, (out_v, in_v) in sorted(cells.items())
    }
    total = OneTimeRow(
        one_outgoing=sum(r.one_outgoing for r in rows.values()),
        one_incoming=sum(r.one_incoming for r in rows.values()),
        outgoing_volume=dsum(r.outgoing_volume for r in rows.values()),
        incoming_volume=dsum(r.incoming_volume for r in rows.values()),
    )
    return OneTimeUserTable(rows=rows, total=total)


def _strongly_connected(members: tuple[str, ...], g: LedgerGraph) -> bool:
    member_set = set(members)
    for adj in (g.out_adj, g.in_adj):
        seen = {members[0]}
        frontier = [members[0]]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in member_set and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != member_set:
            return False
    return True


def _acyclic(members: tuple[str, ...], g: LedgerGraph) -> bool:
    member_set = set(members)
    indeg = {v: 0 for v in members}
    succ: dict[str, list[str]] = {v: [] for v in members}
    for source, target in g.links:
        if source in member_set and target in member_set:
            succ[source].append(target)
            indeg[target] += 1
    queue = [v for v in members if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(members)


def verify_partition(g: LedgerGraph, partition: TopologyPartition) -> None:
    """Raise ValueError unless the partition satisfies its structural contract.

    Checks exclusivity and completeness of the assignments, strong
    connectivity of cyclic components, acyclicity of acyclic components,
    bridge endpoints in distinct SCCs, and the absence of DAG-DAG and
    single-node-DAG links.
    """
    if set(partition.node_category) != set(g.nodes):
        raise ValueError("node assignment does not cover the graph exactly")
    if set(partition.edge_assignment) != set(g.links):
        raise ValueError("edge assignment does not cover the graph exactly")

    member_of: dict[str, str] = {}
    for cid, members in partition.components.items():
        for v in members:
            if v in member_of:
                raise ValueError(f"node {v} in two components")
            member_of[v] = cid
    if set(member_of) != set(g.nodes):
        raise ValueError("components do not cover the graph exactly")

    for cid, members in partition.components.items():
        category = partition.component_category[cid]
        if category.is_scc:
            if len(members) < 2 or not _strongly_connected(members, g):
                raise ValueError(f"{cid} is not a strongly connected component")
        elif category.is_dag:
            if len(members) < 2 or not _acyclic(members, g):
                raise ValueError(f"{cid} is not an acyclic component")
        else:
            if len(members) != 1:
                raise ValueError(f"{cid} is a single-node component with {len(members)} nodes")

    for (source, target) in g.links:
        sc = partition.node_category[source]
        tc = partition.node_category[target]
        if sc.is_dag and tc.is_dag and partition.node_component[source] != partition.node_component[target]:
            raise ValueError(f"link {source}->{target} joins two distinct DAG components")
        if (sc.is_single and tc.is_dag) or (sc.is_dag and tc.is_single):
            raise ValueError(f"link {source}->{target} joins a single-node and a DAG")
        if sc.is_single and tc.is_single:
            raise ValueError(f"link {source}->{target} joins two single-nodes")

    for v, category in partition.node_category.items():
        if category is not NodeCategory.BRIDGE_SCC:
            continue
        in_comps = {partition.node_component[u] for u in g.in_adj[v]}
        out_comps = {partition.node_component[u] for u in g.out_adj[v]}
        if in_comps & out_comps:
            raise ValueError(f"bridge node {v} receives from and sends to the same SCC")
