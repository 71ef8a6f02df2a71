"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense reachability closures, triple
enumeration with canonical pattern matching, a literal segment-splitting
replay of the recirculation definition, and an exact inverse-CDF sampler
for discrete power laws. None of it shares code with the library paths it
verifies. The string-keyed endpoint swap, categoriser and category
statistics that the integer-array implementations replaced also live here,
as slow references, and so do the row-at-a-time sort, dict aggregation and
per-transaction crosstab that the columnar ledger replaced, the one-lexsort
row order that the stamp sort with id-ordered ties replaced, the
four-column event lexsort of ``reference_extract_ops`` that one int64 sort
key replaced in ``extract_ops``, the
neighbourhood-walk triad census of general digraphs that the closed-form
acyclic census replaced, the checked closed-form census of one graph
(``census``) and the per-category loop of them (``reference_label_census``)
that one unchecked pass over every ``dag*`` category replaced, and the two
power-law fits, each with its own cutoff scan, that the shared scan
replaced, and the significance scoring over one dict table per replica
that the stacked replica arrays replaced,
with the per-cell scorer (``reference_cell``, and its 1-D
``anderson_darling_normal``) that one vectorised pass over each table
replaced, the one-pass weak-component count of every category
(``reference_wcc_count``) that ``tabulate`` now takes mostly from
``label``'s components, and the HFQ1-only share that ``strategy_report``
now takes from the signature masks, and the CSV writer that built one
string per cell and joined each row (``reference_csv_text``) that
``util.write_csv``'s byte tables replaced, and the lookup of every
operation member's link at once (``reference_member_links``) that the
crosstab's lookup a block at a time replaced. ``dict_view`` expands an array
partition into the string-keyed one the categoriser used to return, and ``verify_partition`` checks that view's
structural contract. ``keep_everything`` is the filter that admits every
row, for parses that must give back what was written, and
``strongly_connected_components`` lists the strong components that
``topology.label`` computes as member tuples, for tests that compare or
measure them.

The library holds its tables only as columns. The per-object forms that
tests write cases in and read results through are adapters here, and do
use the library: ``Transaction`` rows (built with ``tx``) become a ledger
through ``ledger_of`` (``Ledger.from_columns``) and come back through
``rows_of``; ``graph_of`` builds a graph of bare pairs, ``graph_from_links``
one of a ``LinkRecord`` mapping, and ``links_of`` reads a graph back as that
mapping; ``swapped_links`` is ``nullmodel._swap`` in account ids; and
``ops_of`` and ``categories_of`` read operations as ``RecirculationOp``
records and their frequency categories, and ``signatures_of`` reads
signature columns as ``TemporalSignature`` records.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from decimal import Decimal
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtr, zeta

from ledgerflow.degrees import _ALPHA_BOUNDS, MIN_DISTINCT_VALUES, PowerLawFit
from ledgerflow.graph import LedgerGraph
from ledgerflow.ingest import FilterSpec, Ledger
from ledgerflow.errors import AnalysisError, DataError
from ledgerflow.nullmodel import FEATURES, EnsembleSpec, RandomizationError, SwapMode, _swap
from ledgerflow.recirculation import (
    ClassifiedOps,
    FrequencyCategory,
    Operations,
    RecirculationCoverage,
    CrosstabResult,
    Signatures,
)
from ledgerflow.topology import (
    CATEGORY_ORDER,
    EDGE_CATEGORIES,
    CategoryRow,
    EdgeKind,
    Labels,
    NodeCategory,
    TopologyPartition,
    _components,
)
from ledgerflow.stats import (
    _MIN_ENSEMBLE, ALPHA_LEVEL, SignificanceCell, _ad_p_value, _standardised,
)
from ledgerflow.triads import DEFAULT_CENSUS_CATEGORIES, TRIAD_LABELS, _closed_forms
from ledgerflow.util import Units, dsum

# --------------------------------------------------------------------------
# topology oracle: classify via dense reachability, compare by member sets
# --------------------------------------------------------------------------


def kind_of(category: str) -> str:
    """A category's kind read off its name, as ``topology.CATEGORY_KIND``
    holds it: "scc", "dag", "edge" (a boundary link) or "node" (a single-node)."""
    return next((kind for kind in ("scc", "dag", "edge") if category.startswith(kind)), "node")


def naive_categorize(g: LedgerGraph):
    """Category and component (as a frozenset) per node, plus edge kinds.

    Returns (node_view, edge_view) where node_view[v] = (category_label,
    frozenset_of_component_members) and edge_view[(s, t)] = (kind_label,
    owner_member_frozenset_or_None).
    """
    nodes = list(g.nodes)
    links = links_of(g)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for s, t in links:
        adj[index[s], index[t]] = True

    reach = adj.copy()
    for k in range(n):  # Warshall closure over paths of length >= 1
        reach |= np.outer(reach[:, k], reach[k, :])

    cyclic = [v for v in nodes if reach[index[v], index[v]]]
    cyc_set = set(cyclic)

    # SCC membership: mutual reachability among cyclic nodes.
    scc_of: dict[str, frozenset[str]] = {}
    for v in cyclic:
        if v in scc_of:
            continue
        i = index[v]
        members = frozenset(
            w for w in cyclic if reach[i, index[w]] and reach[index[w], i]
        ) | {v}
        members = frozenset(members)
        for w in members:
            scc_of[w] = members

    # Weak closure among non-cyclic nodes.
    plain = [v for v in nodes if v not in cyc_set]
    sym = np.zeros((n, n), dtype=bool)
    for s, t in links:
        if s not in cyc_set and t not in cyc_set:
            sym[index[s], index[t]] = sym[index[t], index[s]] = True
    wreach = sym.copy()
    for k in range(n):
        wreach |= np.outer(wreach[:, k], wreach[k, :])

    group_of: dict[str, frozenset[str]] = {}
    for v in plain:
        if v in group_of:
            continue
        i = index[v]
        members = frozenset(w for w in plain if wreach[i, index[w]]) | {v}
        for w in members:
            group_of[w] = frozenset(members)

    dag_of = {v: c for v, c in group_of.items() if len(c) >= 2}
    single = {v for v, c in group_of.items() if len(c) == 1}

    single_cat: dict[str, str] = {}
    for v in single:
        outgoing = any(s == v for s, _ in links)
        incoming = any(t == v for _, t in links)
        if outgoing and incoming:
            single_cat[v] = "bridge_scc"
        elif outgoing:
            single_cat[v] = "in-single-node"
        else:
            single_cat[v] = "out-single-node"

    dag_sends: set[frozenset[str]] = set()
    dag_receives: set[frozenset[str]] = set()
    scc_in: set[frozenset[str]] = set()
    scc_out: set[frozenset[str]] = set()
    for s, t in links:
        s_cyc, t_cyc = s in cyc_set, t in cyc_set
        if s_cyc and not t_cyc:
            if t in dag_of:
                dag_receives.add(dag_of[t])
                scc_out.add(scc_of[s])
            elif single_cat[t] != "bridge_scc":
                scc_out.add(scc_of[s])
        elif not s_cyc and t_cyc:
            if s in dag_of:
                dag_sends.add(dag_of[s])
                scc_in.add(scc_of[t])
            elif single_cat[s] != "bridge_scc":
                scc_in.add(scc_of[t])

    node_view: dict[str, tuple[str, frozenset[str]]] = {}
    for v in nodes:
        if v in cyc_set:
            comp = scc_of[v]
            inbound, outbound = comp in scc_in, comp in scc_out
            label = (
                "sccTmix" if inbound and outbound
                else "sccTin" if inbound
                else "sccTout" if outbound
                else "scc0"
            )
            node_view[v] = (label, comp)
        elif v in dag_of:
            comp = dag_of[v]
            sends, receives = comp in dag_sends, comp in dag_receives
            label = (
                "dagTmix" if sends and receives
                else "dagTin" if sends
                else "dagTout" if receives
                else "dag0"
            )
            node_view[v] = (label, comp)
        else:
            node_view[v] = (single_cat[v], frozenset({v}))

    edge_view: dict[tuple[str, str], tuple[str, frozenset[str] | None]] = {}
    for s, t in links:
        s_cyc, t_cyc = s in cyc_set, t in cyc_set
        if s_cyc and t_cyc:
            if scc_of[s] == scc_of[t]:
                edge_view[(s, t)] = ("internal", scc_of[s])
            else:
                edge_view[(s, t)] = ("edge_scc2scc", None)
        elif not s_cyc and not t_cyc:
            edge_view[(s, t)] = ("internal", dag_of[s])
        elif s_cyc:
            if t in single:
                edge_view[(s, t)] = ("attachment", frozenset({t}))
            else:
                edge_view[(s, t)] = ("edge_scc2dag", None)
        else:
            if s in single:
                edge_view[(s, t)] = ("attachment", frozenset({s}))
            else:
                edge_view[(s, t)] = ("edge_dag2scc", None)
    return node_view, edge_view


# --------------------------------------------------------------------------
# string-keyed partition: the dict view the categoriser used to return,
# expanded from the array codes, and its structural contract
# --------------------------------------------------------------------------


def adjacency(g: LedgerGraph) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """Sorted successors and predecessors of every node."""
    out_adj: dict[str, list[str]] = {v: [] for v in g.nodes}
    in_adj: dict[str, list[str]] = {v: [] for v in g.nodes}
    for source, target in links_of(g):  # sorted by (source, target)
        out_adj[source].append(target)
        in_adj[target].append(source)
    return (
        {v: tuple(w) for v, w in out_adj.items()},
        {v: tuple(w) for v, w in in_adj.items()},
    )


@dataclass(frozen=True)
class EdgeAssignment:
    kind: EdgeKind
    component_id: str | None  # set for INTERNAL and ATTACHMENT links


@dataclass(frozen=True)
class DictPartition:
    """Exclusive assignment of every node and link, keyed by account ids."""

    node_category: Mapping[str, NodeCategory]
    node_component: Mapping[str, str]
    components: Mapping[str, tuple[str, ...]]
    component_category: Mapping[str, NodeCategory]
    edge_assignment: Mapping[tuple[str, str], EdgeAssignment]

    def edge_label(self, pair: tuple[str, str]) -> str:
        """Report label of the category a link's traffic belongs to."""
        assignment = self.edge_assignment[pair]
        if assignment.component_id is not None:
            return self.component_category[assignment.component_id].value
        return assignment.kind.value


def dict_view(g: LedgerGraph, partition: TopologyPartition) -> DictPartition:
    """``categorize(g)`` expanded into dicts, one component at a time."""
    nodes = g.nodes
    node_codes = partition.labels.node.tolist()
    component = partition.component.tolist()
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(component):
        groups.setdefault(c, []).append(i)

    # Members of each component in node order; the id names the first.
    cid_of: dict[int, str] = {}
    node_component: dict[str, str] = {}
    node_category: dict[str, NodeCategory] = {}
    components: dict[str, tuple[str, ...]] = {}
    component_category: dict[str, NodeCategory] = {}
    for c, group in groups.items():
        members = tuple(nodes[i] for i in group)
        category = NodeCategory(CATEGORY_ORDER[node_codes[group[0]]])
        kind = kind_of(category)
        cid = cid_of[c] = f"{kind}:{members[0]}"
        components[cid] = members
        component_category[cid] = category
        for v in members:
            node_component[v] = cid
            node_category[v] = category

    # An internal link belongs to its component, an attachment to its
    # single-node end, whose component index (offset past every SCC) is
    # the larger; boundary links have no owner.
    edge_assignment: dict[tuple[str, str], EdgeAssignment] = {}
    ends = zip(g.sources.tolist(), g.targets.tolist())
    for pair, code, (s, t) in zip(links_of(g), partition.labels.link.tolist(), ends):
        label = CATEGORY_ORDER[code]
        cs, ct = component[s], component[t]
        if label in EDGE_CATEGORIES:
            edge_assignment[pair] = EdgeAssignment(EdgeKind(label), None)
        else:
            kind = EdgeKind.INTERNAL if cs == ct else EdgeKind.ATTACHMENT
            edge_assignment[pair] = EdgeAssignment(kind, cid_of[max(cs, ct)])

    return DictPartition(
        node_category=node_category,
        node_component=node_component,
        components=components,
        component_category=component_category,
        edge_assignment=edge_assignment,
    )


def reference_labels(g: LedgerGraph, partition: DictPartition) -> Labels:
    """A dict partition's category codes in ``g.nodes`` and link order."""
    code = {label: i for i, label in enumerate(CATEGORY_ORDER)}
    node = [code[partition.node_category[v]] for v in g.nodes]
    link = [code[partition.edge_label(pair)] for pair in links_of(g)]
    return Labels(*(np.array(codes, dtype=np.int64) for codes in (node, link)))


def _strongly_connected(members: tuple[str, ...], adj_pair) -> bool:
    member_set = set(members)
    for adj in adj_pair:
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


def _acyclic(members: tuple[str, ...], links: Iterable[tuple[str, str]]) -> bool:
    member_set = set(members)
    indeg = {v: 0 for v in members}
    succ: dict[str, list[str]] = {v: [] for v in members}
    for source, target in links:
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


def verify_partition(g: LedgerGraph, partition: DictPartition) -> None:
    """Raise ValueError unless the partition satisfies its structural contract.

    Checks exclusivity and completeness of the assignments, strong
    connectivity of cyclic components, acyclicity of acyclic components,
    bridge endpoints in distinct SCCs, and the absence of DAG-DAG and
    single-node-DAG links.
    """
    links = links_of(g)
    if set(partition.node_category) != set(g.nodes):
        raise ValueError("node assignment does not cover the graph exactly")
    if set(partition.edge_assignment) != set(links):
        raise ValueError("edge assignment does not cover the graph exactly")

    member_of: dict[str, str] = {}
    for cid, members in partition.components.items():
        for v in members:
            if v in member_of:
                raise ValueError(f"node {v} in two components")
            member_of[v] = cid
    if set(member_of) != set(g.nodes):
        raise ValueError("components do not cover the graph exactly")

    out_adj, in_adj = adjacency(g)
    for cid, members in partition.components.items():
        kind = kind_of(partition.component_category[cid])
        if kind == "scc":
            if len(members) < 2 or not _strongly_connected(members, (out_adj, in_adj)):
                raise ValueError(f"{cid} is not a strongly connected component")
        elif kind == "dag":
            if len(members) < 2 or not _acyclic(members, links):
                raise ValueError(f"{cid} is not an acyclic component")
        else:
            if len(members) != 1:
                raise ValueError(f"{cid} is a single-node component with {len(members)} nodes")

    for (source, target) in links:
        sk = kind_of(partition.node_category[source])
        tk = kind_of(partition.node_category[target])
        if sk == tk == "dag" and partition.node_component[source] != partition.node_component[target]:
            raise ValueError(f"link {source}->{target} joins two distinct DAG components")
        if {sk, tk} == {"node", "dag"}:
            raise ValueError(f"link {source}->{target} joins a single-node and a DAG")
        if sk == tk == "node":
            raise ValueError(f"link {source}->{target} joins two single-nodes")

    for v, category in partition.node_category.items():
        if category is not NodeCategory.BRIDGE_SCC:
            continue
        in_comps = {partition.node_component[u] for u in in_adj[v]}
        out_comps = {partition.node_component[u] for u in out_adj[v]}
        if in_comps & out_comps:
            raise ValueError(f"bridge node {v} receives from and sends to the same SCC")


# --------------------------------------------------------------------------
# reference categoriser and category stats: the dict-based implementations
# (Tarjan SCCs, union-find weak components, per-link scans) that the array
# categoriser replaced; the fast path must match them exactly
# --------------------------------------------------------------------------


def strongly_connected_components(g: LedgerGraph) -> list[tuple[str, ...]]:
    """All SCCs (including singletons) as tuples, by first member, from the
    strong component ids that ``topology.label`` uses."""
    groups: dict[int, list[str]] = {}
    for v, c in zip(g.nodes, _components(g.node_count, g.sources, g.targets, "strong").tolist()):
        groups.setdefault(c, []).append(v)
    return [tuple(group) for group in groups.values()]


def reference_wcc_count(labels: Labels, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Weak components per category in one pass over (category, node)
    vertices of every link, each vertex joined by the links its category
    owns: the count ``tabulate`` took before it read the cyclic and acyclic
    categories' components from ``label``. Its matrix is built from
    coordinates, so the links may come in any order."""
    size = len(CATEGORY_ORDER)
    n = labels.node.size
    keys, ends = np.unique(
        np.concatenate([labels.link * n + sources, labels.link * n + targets]),
        return_inverse=True,
    )
    ones = np.ones(sources.size, dtype=np.int8)
    graph = coo_matrix((ones, (ends[: sources.size], ends[sources.size:])),
                       shape=(keys.size, keys.size))
    vertex_wcc = connected_components(graph, directed=True, connection="weak")[1]
    first = np.unique(vertex_wcc, return_index=True)[1]
    return np.bincount(keys[first] // max(n, 1), minlength=size)


def tarjan_sccs(g: LedgerGraph) -> list[tuple[str, ...]]:
    """All SCCs (including singletons) via iterative Tarjan, deterministic."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[tuple[str, ...]] = []
    counter = 0
    adj, _ = adjacency(g)

    for root in g.nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[str, Iterable[str]]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                out.append(tuple(sorted(members)))
    return out


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, x: str) -> str:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Smaller id wins so roots are order-independent.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def reference_categorize(g: LedgerGraph) -> DictPartition:
    """Dict-based categoriser (Tarjan + union-find) the array path replaced."""
    links = links_of(g)
    # 1. Cyclic components: SCCs of size >= 2.
    scc_of: dict[str, str] = {}
    scc_members: dict[str, tuple[str, ...]] = {}
    for members in tarjan_sccs(g):
        if len(members) >= 2:
            cid = f"scc:{members[0]}"
            scc_members[cid] = members
            for v in members:
                scc_of[v] = cid

    # 2. Non-cyclic nodes: weak components of the induced subgraph.
    plain = [v for v in g.nodes if v not in scc_of]
    uf = _UnionFind(plain)
    for source, target in links:
        if source not in scc_of and target not in scc_of:
            uf.union(source, target)
    groups: dict[str, list[str]] = {}
    for v in plain:
        groups.setdefault(uf.find(v), []).append(v)

    dag_members: dict[str, tuple[str, ...]] = {}
    dag_of: dict[str, str] = {}
    singles: list[str] = []
    for members in groups.values():
        if len(members) >= 2:
            members = tuple(sorted(members))
            cid = f"dag:{members[0]}"
            dag_members[cid] = members
            for v in members:
                dag_of[v] = cid
        else:
            singles.append(members[0])

    # 3. Single-node classification. All links of a single-node attach to
    # cyclic components (anything else would have merged it into a DAG).
    single_category: dict[str, NodeCategory] = {}
    out_adj, in_adj = adjacency(g)
    for v in sorted(singles):
        has_out = bool(out_adj[v])
        has_in = bool(in_adj[v])
        if has_out and has_in:
            single_category[v] = NodeCategory.BRIDGE_SCC
        elif has_out:
            single_category[v] = NodeCategory.IN_SINGLE
        else:
            single_category[v] = NodeCategory.OUT_SINGLE

    # 4./5. Boundary scan: one pass over all links collects, per component,
    # whether it sends to / receives from the node kinds that matter.
    dag_sends_to_cyc: set[str] = set()
    dag_receives_from_cyc: set[str] = set()
    scc_receives: set[str] = set()  # from DAG nodes or non-bridge single-nodes
    scc_sends: set[str] = set()
    for source, target in links:
        cs = scc_of.get(source)
        ct = scc_of.get(target)
        if cs is not None and ct is None:
            if target in dag_of:
                dag_receives_from_cyc.add(dag_of[target])
                scc_sends.add(cs)
            elif single_category[target] is not NodeCategory.BRIDGE_SCC:
                scc_sends.add(cs)
        elif cs is None and ct is not None:
            if source in dag_of:
                dag_sends_to_cyc.add(dag_of[source])
                scc_receives.add(ct)
            elif single_category[source] is not NodeCategory.BRIDGE_SCC:
                scc_receives.add(ct)

    component_category: dict[str, NodeCategory] = {}
    for cid in scc_members:
        inbound = cid in scc_receives
        outbound = cid in scc_sends
        if inbound and outbound:
            component_category[cid] = NodeCategory.SCC_TMIX
        elif inbound:
            component_category[cid] = NodeCategory.SCC_TIN
        elif outbound:
            component_category[cid] = NodeCategory.SCC_TOUT
        else:
            component_category[cid] = NodeCategory.SCC0
    for cid in dag_members:
        sends = cid in dag_sends_to_cyc
        receives = cid in dag_receives_from_cyc
        if sends and receives:
            component_category[cid] = NodeCategory.DAG_TMIX
        elif sends:
            component_category[cid] = NodeCategory.DAG_TIN
        elif receives:
            component_category[cid] = NodeCategory.DAG_TOUT
        else:
            component_category[cid] = NodeCategory.DAG0

    components: dict[str, tuple[str, ...]] = {}
    components.update(scc_members)
    components.update(dag_members)
    node_component: dict[str, str] = {}
    node_category: dict[str, NodeCategory] = {}
    for cid, members in scc_members.items():
        for v in members:
            node_component[v] = cid
            node_category[v] = component_category[cid]
    for cid, members in dag_members.items():
        for v in members:
            node_component[v] = cid
            node_category[v] = component_category[cid]
    for v, category in single_category.items():
        cid = f"node:{v}"
        components[cid] = (v,)
        component_category[cid] = category
        node_component[v] = cid
        node_category[v] = category

    # 6. Edge assignment.
    edge_assignment: dict[tuple[str, str], EdgeAssignment] = {}
    for pair in links:
        source, target = pair
        cs = scc_of.get(source)
        ct = scc_of.get(target)
        if cs is not None and ct is not None:
            if cs == ct:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.INTERNAL, cs)
            else:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.SCC2SCC, None)
        elif cs is None and ct is None:
            edge_assignment[pair] = EdgeAssignment(EdgeKind.INTERNAL, dag_of[source])
        elif cs is not None:  # SCC -> non-cyclic
            if target in single_category:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.ATTACHMENT, node_component[target])
            else:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.SCC2DAG, None)
        else:  # non-cyclic -> SCC
            if source in single_category:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.ATTACHMENT, node_component[source])
            else:
                edge_assignment[pair] = EdgeAssignment(EdgeKind.DAG2SCC, None)

    return DictPartition(
        node_category=node_category,
        node_component=node_component,
        components=components,
        component_category=component_category,
        edge_assignment=edge_assignment,
    )


def reference_category_stats(
    g: LedgerGraph, partition: DictPartition
) -> dict[str, CategoryRow]:
    """Per-category sizes: components, nodes, links, transactions, volume.

    Every category label appears in the result, zeroed when absent. The
    weakly-connected-component count of a category is taken over the
    subgraph of its owned links plus both endpoints of each, which groups
    e.g. single-nodes that attach to the same hub.
    """
    node_count: dict[str, int] = {label: 0 for label in CATEGORY_ORDER}
    for category in partition.node_category.values():
        node_count[category.value] += 1

    link_count: dict[str, int] = {label: 0 for label in CATEGORY_ORDER}
    tx_count: dict[str, int] = {label: 0 for label in CATEGORY_ORDER}
    volumes: dict[str, list[Decimal]] = {label: [] for label in CATEGORY_ORDER}
    endpoint_sets: dict[str, _UnionFind] = {label: _UnionFind([]) for label in CATEGORY_ORDER}

    for pair, record in links_of(g).items():
        label = partition.edge_label(pair)
        link_count[label] += 1
        tx_count[label] += record.count
        volumes[label].append(record.volume)
        uf = endpoint_sets[label]
        for v in pair:
            if v not in uf.parent:
                uf.parent[v] = v
        uf.union(pair[0], pair[1])

    scc_count: dict[str, int] = {label: 0 for label in CATEGORY_ORDER}
    for cid, category in partition.component_category.items():
        if kind_of(category) == "scc":
            scc_count[category.value] += 1

    result: dict[str, CategoryRow] = {}
    for label in CATEGORY_ORDER:
        uf = endpoint_sets[label]
        wcc = len({uf.find(v) for v in uf.parent})
        result[label] = CategoryRow(
            scc_count=scc_count[label],
            wcc_count=wcc,
            node_count=node_count[label],
            link_count=link_count[label],
            tx_count=tx_count[label],
            volume=dsum(volumes[label]),
        )
    return result


# --------------------------------------------------------------------------
# reference ensemble scoring: one dict table per replica, read cell by cell
# through a callback; a category missing from a table counts as zeros
# --------------------------------------------------------------------------

Table = TypeVar("Table")

_ZERO_ROW = CategoryRow(0, 0, 0, 0, 0, Decimal(0))


def _feature(stats: Mapping[str, CategoryRow], category: str, feature: str) -> float:
    return float(getattr(stats.get(category, _ZERO_ROW), feature))


def _triad_count(census_tables: Mapping[str, Mapping[str, int]], label: str, triad: str) -> float:
    return float(census_tables[label][triad])


@dataclass(frozen=True)
class AndersonDarlingResult:
    statistic: float          # A^2 with estimated mean and sd
    corrected: float          # A*^2 = A^2 (1 + 0.75/n + 2.25/n^2)
    p_value: float
    rejected: bool            # normality rejected at the 5% level


def anderson_darling_normal(samples: Sequence[float]) -> AndersonDarlingResult:
    """Anderson-Darling normality test of one sample, mean and sd estimated
    from it; the per-cell test that ``score_ensemble``'s pass replaced.

    A degenerate (zero-variance) sample is reported as rejected with an
    infinite statistic: a point mass is as far from normal as it gets.
    """
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    if n < 4:
        raise ValueError("Anderson-Darling needs at least 4 observations")
    sd = arr.std(ddof=1)
    if sd == 0.0:
        return AndersonDarlingResult(math.inf, math.inf, 0.0, True)
    w = (np.sort(arr) - arr.mean()) / sd
    z = ndtr(w)
    z = np.clip(z, 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    s = np.sum((2 * i - 1.0) / n * (np.log(z) + np.log1p(-z[::-1])))
    a2 = -n - s
    a2c = a2 * (1.0 + 0.75 / n + 2.25 / (n * n))
    p = min(1.0, max(0.0, _ad_p_value(a2c)))
    return AndersonDarlingResult(float(a2), float(a2c), float(p), p < ALPHA_LEVEL)


def z_score(value: float, samples: Sequence[float]) -> float | None:
    """(value - mean) / sample sd; None when the sd is zero."""
    arr = np.asarray(samples, dtype=float)
    return _standardised(value, float(arr.mean()), float(arr.std(ddof=1)))


def robust_z_score(value: float, samples: Sequence[float]) -> float | None:
    """(value - median) / IQR with linear-interpolation quartiles; None when IQR is zero."""
    q1, q2, q3 = np.quantile(np.asarray(samples, dtype=float), [0.25, 0.5, 0.75])
    return _standardised(value, float(q2), float(q3 - q1))


def reference_cell(category: str, feature: str, empirical: float,
                   samples: np.ndarray) -> SignificanceCell:
    """One scored cell from its contiguous 1-D float64 samples, each
    statistic taken alone: the per-cell scorer that ``score_ensemble``'s
    one pass over a table replaced."""
    q1, q2, q3 = np.quantile(samples, [0.25, 0.5, 0.75])
    mean, sd = float(samples.mean()), float(samples.std(ddof=1))
    median, iqr = float(q2), float(q3 - q1)
    ad = anderson_darling_normal(samples)
    return SignificanceCell(
        category=category,
        feature=feature,
        empirical=float(empirical),
        null_mean=mean,
        null_sd=sd,
        null_median=median,
        null_iqr=iqr,
        z=_standardised(empirical, mean, sd),
        robust_z=_standardised(empirical, median, iqr),
        ad_statistic=None if np.isinf(ad.statistic) else ad.statistic,
        ad_p_value=ad.p_value,
        normality="rejected" if ad.rejected else "not_rejected",
        preferred="robust_z" if ad.rejected else "z",
    )


def reference_score_ensemble(
    empirical: Table,
    ensemble: Sequence[Table],
    rows: Sequence[str],
    columns: Sequence[str],
    value: Callable[[Table, str, str], float],
) -> list[SignificanceCell]:
    """Score every (row, column) of the empirical table against the replicas.

    ``value(table, row, column)`` reads one cell of the empirical table or
    of a replica table; each cell is scored by ``reference_cell``.
    """
    if len(ensemble) < _MIN_ENSEMBLE:
        raise AnalysisError(f"ensemble of {len(ensemble)} is below the minimum of {_MIN_ENSEMBLE}")
    cells = []
    for row in rows:
        for column in columns:
            samples = np.array([value(table, row, column) for table in ensemble])
            cells.append(reference_cell(row, column, value(empirical, row, column), samples))
    return cells


def reference_significance(
    empirical: Mapping[str, CategoryRow],
    ensemble: Sequence[Mapping[str, CategoryRow]],
) -> list[SignificanceCell]:
    """``nullmodel.significance`` over one ``category_stats`` dict per replica."""
    return reference_score_ensemble(empirical, ensemble, CATEGORY_ORDER, FEATURES, _feature)


def reference_triad_significance(
    empirical: Mapping[str, Mapping[str, int]],
    ensemble: Sequence[Mapping[str, Mapping[str, int]]],
) -> list[SignificanceCell]:
    """``triads.triad_significance`` over one ``category_census`` dict per replica."""
    labels = [category.value for category in DEFAULT_CENSUS_CATEGORIES]
    return reference_score_ensemble(empirical, ensemble, labels, TRIAD_LABELS, _triad_count)


# --------------------------------------------------------------------------
# reference endpoint swap: one Python list per column, full self-loop scan
# --------------------------------------------------------------------------


def reference_randomize_endpoints(
    g: LedgerGraph,
    mode: SwapMode,
    seed: int,
    max_repair_attempts: int = 100,
) -> list[tuple[str, str, LinkRecord]]:
    """String-list endpoint swap that the integer-column engine replaced.

    Scans every position for self-loops; the engine visits only the loops
    left by the permutation and must draw the same random stream.
    """
    triples = [(s, t, rec) for (s, t), rec in links_of(g).items()]
    sources = [s for s, _, _ in triples]
    targets = [t for _, t, _ in triples]
    records = [rec for _, _, rec in triples]
    m = len(triples)
    if m <= 1:
        return triples

    rng = np.random.default_rng(seed & (2**64 - 1))
    pool = None
    if mode is SwapMode.BOTH:
        pool = rng.integers(0, 2, size=m)
        source_idx = np.flatnonzero(pool == 0)
        target_idx = np.flatnonzero(pool == 1)
        perm_s = source_idx[rng.permutation(source_idx.size)]
        new_sources = list(sources)
        for pos, j in zip(source_idx, perm_s):
            new_sources[pos] = sources[j]
        perm_t = target_idx[rng.permutation(target_idx.size)]
        new_targets = list(targets)
        for pos, j in zip(target_idx, perm_t):
            new_targets[pos] = targets[j]
        sources, targets = new_sources, new_targets
    elif mode is SwapMode.TARGET:
        perm = rng.permutation(m)
        targets = [targets[j] for j in perm]
    elif mode is SwapMode.SOURCE:
        perm = rng.permutation(m)
        sources = [sources[j] for j in perm]
    else:
        raise ValueError(f"unknown swap mode: {mode!r}")

    # Repair self-loops by exchanging the permuted-column entry with a
    # random partner; a swap inside one column never changes its multiset.
    for i in range(m):
        if sources[i] != targets[i]:
            continue
        if mode is SwapMode.SOURCE or (mode is SwapMode.BOTH and pool[i] == 0):
            column = sources
            fixed = targets
        else:
            column = targets
            fixed = sources
        repaired = False
        for _ in range(max_repair_attempts):
            j = int(rng.integers(0, m))
            if j == i:
                continue
            # After the exchange neither position may be a self-loop.
            if fixed[i] == column[j] or fixed[j] == column[i]:
                continue
            column[i], column[j] = column[j], column[i]
            repaired = True
            break
        if not repaired:
            raise RandomizationError(seed, i)

    return list(zip(sources, targets, records))


# --------------------------------------------------------------------------
# triad oracle: enumerate every triple, match against canonical patterns
# --------------------------------------------------------------------------

# Canonical representative edge sets over nodes 0, 1, 2 for the 16 classes.
_REPRESENTATIVES: dict[str, tuple[tuple[int, int], ...]] = {
    "003": (),
    "012": ((0, 1),),
    "102": ((0, 1), (1, 0)),
    "021D": ((1, 0), (1, 2)),
    "021U": ((0, 1), (2, 1)),
    "021C": ((0, 1), (1, 2)),
    "111D": ((0, 2), (2, 0), (1, 2)),
    "111U": ((0, 2), (2, 0), (2, 1)),
    "030T": ((0, 1), (2, 1), (0, 2)),
    "030C": ((1, 0), (2, 1), (0, 2)),
    "201": ((0, 1), (1, 0), (0, 2), (2, 0)),
    "120D": ((1, 2), (1, 0), (0, 2), (2, 0)),
    "120U": ((0, 1), (2, 1), (0, 2), (2, 0)),
    "120C": ((0, 1), (1, 2), (0, 2), (2, 0)),
    "210": ((0, 1), (1, 2), (2, 1), (0, 2), (2, 0)),
    "300": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}


def _pattern_table() -> dict[frozenset[tuple[int, int]], str]:
    table: dict[frozenset[tuple[int, int]], str] = {}
    for label, edges in _REPRESENTATIVES.items():
        for perm in itertools.permutations(range(3)):
            pattern = frozenset((perm[a], perm[b]) for a, b in edges)
            existing = table.get(pattern)
            if existing is not None and existing != label:
                raise AssertionError(f"pattern maps to {existing} and {label}")
            table[pattern] = label
    if len(table) != 64:
        raise AssertionError(f"expected 64 patterns, built {len(table)}")
    return table


_PATTERNS = _pattern_table()


def brute_force_census(nodes, edges) -> dict[str, int]:
    """Classify every unordered triple by canonical pattern lookup."""
    node_list = sorted(set(nodes))
    edge_set = set(edges)
    counts = {label: 0 for label in _REPRESENTATIVES}
    for a, b, c in itertools.combinations(node_list, 3):
        triple = (a, b, c)
        pos = {v: i for i, v in enumerate(triple)}
        pattern = frozenset(
            (pos[s], pos[t])
            for s, t in itertools.permutations(triple, 2)
            if (s, t) in edge_set
        )
        counts[_PATTERNS[pattern]] += 1
    return counts


# The neighbourhood-walk census for general digraphs (Batagelj & Mrvar,
# 2001) that the closed-form acyclic census replaced: class index (1-based
# into the triad labels) for each of the 64 combinations of the six directed
# edges among an ordered triple.
_TRICODES = (
    1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5, 9,
    9, 13, 6, 10, 9, 14, 7, 14, 12, 15, 2, 5, 6, 7, 6, 9, 10, 14, 4, 9,
    9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7, 12, 14, 15, 8, 14, 13, 15,
    11, 15, 15, 16,
)
_CODE_TO_LABEL = dict(enumerate(tuple(_REPRESENTATIVES)[code - 1] for code in _TRICODES))


def walk_census(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, int]:
    """Census of any simple digraph by walking connected pairs.

    Third nodes unconnected to a pair close the dyadic classes in constant
    time per pair; the rest are classified by edge code. Raises ValueError
    on a self-loop.
    """
    node_list = sorted(set(nodes))
    succ: dict[str, set[str]] = {v: set() for v in node_list}
    pred: dict[str, set[str]] = {v: set() for v in node_list}
    for s, t in edges:
        if s == t:
            raise ValueError(f"self-loop {s!r} in census input")
        succ[s].add(t)
        pred[t].add(s)

    order = {v: i for i, v in enumerate(node_list)}
    n = len(node_list)
    counts = dict.fromkeys(_REPRESENTATIVES, 0)

    for v in node_list:
        v_nbrs = succ[v] | pred[v]
        for u in v_nbrs:
            if order[u] <= order[v]:
                continue
            neighborhood = (v_nbrs | succ[u] | pred[u]) - {u, v}
            if u in succ[v] and v in succ[u]:
                counts["102"] += n - len(neighborhood) - 2
            else:
                counts["012"] += n - len(neighborhood) - 2
            for w in neighborhood:
                if order[u] < order[w] or (
                    order[v] < order[w] < order[u]
                    and v not in succ[w]
                    and v not in pred[w]
                ):
                    code = (
                        (1 if u in succ[v] else 0)
                        + (2 if v in succ[u] else 0)
                        + (4 if w in succ[v] else 0)
                        + (8 if v in succ[w] else 0)
                        + (16 if w in succ[u] else 0)
                        + (32 if u in succ[w] else 0)
                    )
                    counts[_CODE_TO_LABEL[code]] += 1

    total_triples = n * (n - 1) * (n - 2) // 6
    counts["003"] = total_triples - sum(counts.values())
    if counts["003"] < 0:
        raise AssertionError("triad census does not sum to C(n, 3)")
    return counts


def graph_census(g: LedgerGraph) -> dict[str, int]:
    """``walk_census`` of a whole graph."""
    return walk_census(g.nodes, links_of(g).keys())


def census(n: int, sources: np.ndarray, targets: np.ndarray) -> dict[str, int]:
    """Triad census of an acyclic simple digraph with ``n`` nodes, by the
    closed forms of ``triads._closed_forms``, which ``label_census`` runs
    unchecked; the graph is checked here first.

    ``sources[k] -> targets[k]`` are its links as non-negative integer node
    ids, not necessarily ``0..n-1``; nodes without links are isolated.
    Raises :class:`AnalysisError` on a self-loop, parallel link, mutual
    dyad or 3-cycle (where the closed forms fail), or on more than ``n``
    linked nodes.
    """
    sources, targets = np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
    if np.unique(np.concatenate((sources, targets))).size > n:
        raise AnalysisError(f"census links touch more than its {n} nodes")
    links = set(zip(sources.tolist(), targets.tolist()))
    if len(links) < sources.size:
        raise AnalysisError("parallel links in census input")
    heads = {}
    for tail, head in links:
        heads.setdefault(tail, []).append(head)
    # A self-loop is its own reverse, a mutual dyad's reverse is a link,
    # and a 3-cycle closes a 2-path with the reverse of its end pair.
    for tail, head in links:
        if (head, tail) in links or any((end, tail) in links for end in heads.get(head, ())):
            raise AnalysisError("census input has a self-loop, mutual dyad or 3-cycle")
    size = int(max(sources.max(initial=0), targets.max(initial=0))) + 1
    row = _closed_forms(np.sort(sources * size + targets), size, np.zeros(size, dtype=np.intp),
                        np.array([n]))[0]
    counts = dict(zip(TRIAD_LABELS, row.tolist()))
    counts["003"] = n * (n - 1) * (n - 2) // 6 - sum(counts.values())
    return counts


def reference_label_census(
    labels: Labels,
    sources: np.ndarray,
    targets: np.ndarray,
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> np.ndarray:
    """``triads.label_census`` as one checked ``census`` per category: a
    category's subgraph is its nodes and the links that carry its code."""
    node_count = np.bincount(labels.node, minlength=len(CATEGORY_ORDER))
    table = np.zeros((len(categories), len(TRIAD_LABELS)), dtype=np.int64)
    for row, category in zip(table, categories):
        code = CATEGORY_ORDER.index(category.value)
        owned = labels.link == code
        row[:] = list(census(int(node_count[code]), sources[owned], targets[owned]).values())
    return table


# --------------------------------------------------------------------------
# recirculation oracle: split each user's stream at out->in boundaries
# --------------------------------------------------------------------------


def oracle_extract_ops(transactions) -> list[tuple[str, int, int, tuple[str, ...], tuple[str, ...]]]:
    """Operations as (user, first_in, last_out, in_ids, out_ids) tuples.

    Replays the definition segment-wise: a user's event stream splits where
    an incoming event follows an outgoing one; each segment is an in-run
    followed by an out-run and yields an operation when both are non-empty.
    """
    events: dict[str, list[tuple[int, int, str]]] = {}
    for tx in transactions:
        events.setdefault(tx.target, []).append((tx.timestamp, 0, tx.tx_id))
        events.setdefault(tx.source, []).append((tx.timestamp, 1, tx.tx_id))

    ops = []
    for user in sorted(events):
        stream = sorted(events[user])
        segments: list[list[tuple[int, int, str]]] = [[]]
        for k, event in enumerate(stream):
            if k > 0 and event[1] == 0 and stream[k - 1][1] == 1:
                segments.append([])
            segments[-1].append(event)
        for segment in segments:
            incoming = [e for e in segment if e[1] == 0]
            outgoing = [e for e in segment if e[1] == 1]
            # Leading outgoing events in the first segment precede any
            # incoming event and belong to no operation; within a segment
            # the in-run precedes the out-run by construction.
            if not incoming or not outgoing:
                continue
            ops.append(
                (
                    user,
                    incoming[0][0],
                    outgoing[-1][0],
                    tuple(e[2] for e in incoming),
                    tuple(e[2] for e in outgoing),
                )
            )
    return ops


def reference_extract_ops(ledger: Ledger) -> Operations:
    """``extract_ops`` as it was before it sorted one int64 key: one
    ``np.lexsort`` of all events by (user, timestamp, direction, row),
    over four tiled and permuted 2m-event columns."""
    m = len(ledger)
    row = np.tile(np.arange(m), 2)
    user = np.concatenate((ledger.target, ledger.source))
    stamp = np.tile(ledger.timestamp, 2)
    outgoing = np.repeat(np.array([False, True]), m)  # incoming sorts first
    order = np.lexsort((row, outgoing, stamp, user))
    row, user, stamp, outgoing = row[order], user[order], stamp[order], outgoing[order]
    new = np.ones(2 * m, dtype=bool)
    new[1:] = (user[1:] != user[:-1]) | (outgoing[:-1] & ~outgoing[1:])
    starts = np.flatnonzero(new)
    lengths = np.diff(np.append(starts, 2 * m))
    incoming_before = np.concatenate(([0], np.cumsum(~outgoing)))
    n_in = incoming_before[starts + lengths] - incoming_before[starts]
    is_op = (n_in > 0) & (n_in < lengths)
    first, last = starts[is_op], starts[is_op] + lengths[is_op] - 1
    bounds = np.concatenate(([0], np.cumsum(lengths[is_op])))
    return Operations(
        ledger=ledger,
        user=user[first],
        first_in=stamp[first],
        last_out=stamp[last],
        rows=row[np.repeat(is_op, lengths)],
        bounds=bounds,
        split=bounds[:-1] + n_in[is_op],
    )


# --------------------------------------------------------------------------
# row-at-a-time ledger references: sort, row order, aggregation, crosstab
# --------------------------------------------------------------------------


def reference_sort(transactions) -> list[Transaction]:
    """Transactions in (timestamp, tx_id) order, as objects."""
    return sorted(transactions, key=lambda t: (t.timestamp, t.tx_id))


def reference_ledger_order(timestamp, tx_id) -> np.ndarray:
    """The row order ``Ledger.from_columns`` gave before it sorted by stamp
    alone and ordered only runs of equal stamps by id: one ``lexsort`` over
    the stamps and a code-point rank of every id."""
    n = len(tx_id)
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[sorted(range(n), key=tx_id.__getitem__)] = np.arange(n)
    return np.lexsort((id_rank, np.array(timestamp, dtype=np.int64)))


def reference_aggregate(transactions) -> tuple[dict[tuple[str, str], tuple[int, Decimal]], int]:
    """Per ordered pair, (count, exact volume), in sorted pair order, plus
    the number of self-transfers dropped."""
    buckets: dict[tuple[str, str], list[Transaction]] = {}
    dropped = 0
    for t in reference_sort(transactions):
        if t.source == t.target:
            dropped += 1
            continue
        buckets.setdefault((t.source, t.target), []).append(t)
    links = {
        pair: (len(txs), dsum(t.amount for t in txs)) for pair, txs in sorted(buckets.items())
    }
    return links, dropped


def reference_member_links(g: LedgerGraph, ops: Operations) -> np.ndarray:
    """Each operation member's link in ``g``, every member looked up at once
    among the graph's sorted (source, target) keys; a member whose link is
    not in ``g`` is a :class:`DataError`."""
    ledger, rows = ops.ledger, ops.rows
    node_of = g.node_index(ledger.accounts)
    n = g.node_count
    sources, targets = node_of[ledger.source[rows]], node_of[ledger.target[rows]]
    keys = sources * n + targets
    link_keys = np.append(g.sources * n + g.targets, -1)
    link = np.searchsorted(link_keys[:-1], keys)
    found = (sources >= 0) & (targets >= 0) & (link_keys[link] == keys)
    if not found.all():
        tx_id = ledger.ids[ledger.row[rows[np.argmin(found)]]]
        raise DataError(f"operation transaction {tx_id!r} is not in the graph")
    return link


def reference_crosstab(g, partition, classified, signatures, transactions) -> CrosstabResult:
    """Crosstab that looks up every operation member by transaction id."""
    links = links_of(g)
    by_id = {t.tx_id: t for t in transactions}
    tx_table: dict[str, dict[str, int]] = {}
    memberships: Counter[str] = Counter()
    for op, category in zip(ops_of(classified.ops), categories_of(classified)):
        for tx_id in op.in_tx_ids + op.out_tx_ids:
            t = by_id[tx_id]
            pair = (t.source, t.target)
            if pair not in links:
                raise DataError(f"operation transaction {tx_id!r} is not in the graph")
            label = partition.edge_label(pair)
            row = tx_table.setdefault(label, {c.value: 0 for c in FrequencyCategory})
            row[category.value] += 1
            memberships[tx_id] += 1

    user_table: dict[str, dict[str, int]] = {}
    for signature in signatures:
        node_label = partition.node_category[signature.user].value
        row = user_table.setdefault(node_label, {})
        row[signature.key] = row.get(signature.key, 0) + 1

    volume_in_ops = dsum(by_id[tx_id].amount for tx_id in sorted(memberships))
    coverage = RecirculationCoverage(
        op_count=len(classified.ops),
        tx_in_ops=len(memberships),
        tx_share=len(memberships) / g.tx_count if g.tx_count else 0.0,
        volume_in_ops=volume_in_ops,
        volume_share=float(volume_in_ops / g.volume) if g.volume else 0.0,
        tx_counted_twice=sum(1 for count in memberships.values() if count == 2),
        recirculating_users=len(signatures),
        user_share=len(signatures) / g.node_count if g.node_count else 0.0,
    )
    return CrosstabResult(tx_table=tx_table, user_table=user_table, coverage=coverage)


# --------------------------------------------------------------------------
# discrete power-law sampler: exact inverse CDF
# --------------------------------------------------------------------------


def sample_discrete_power_law(
    alpha: float, size: int, rng: np.random.Generator, xmin: int = 1
) -> np.ndarray:
    """Exact samples with P(X >= x) = zeta(alpha, x) / zeta(alpha, xmin)."""
    denominator = zeta(alpha, xmin)
    table_max = 100_000
    xs = np.arange(xmin, table_max + 2)
    ccdf = zeta(alpha, xs) / denominator  # decreasing in x
    us = rng.random(size)
    # Find the largest x with CCDF(x) >= u.
    positions = np.searchsorted(-ccdf, -us, side="right")
    out = xs[np.clip(positions - 1, 0, len(xs) - 1)].astype(np.int64)
    for i in np.flatnonzero(positions >= len(xs) - 1):  # beyond the table
        u = us[i]
        lo = table_max
        hi = 2 * lo
        while zeta(alpha, hi) / denominator >= u:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if zeta(alpha, mid) / denominator >= u:
                lo = mid
            else:
                hi = mid
        out[i] = lo
    return out


# --------------------------------------------------------------------------
# power-law fits: one cutoff scan per fit, as written before the shared scan
# --------------------------------------------------------------------------

_MAX_XMIN_CANDIDATES = 150


def _reference_cutoffs(unique_values: np.ndarray) -> np.ndarray:
    # Leave at least a handful of tail points; cap the scan length.
    candidates = unique_values[:-2] if unique_values.size > 2 else unique_values[:1]
    if candidates.size > _MAX_XMIN_CANDIDATES:
        idx = np.linspace(0, candidates.size - 1, _MAX_XMIN_CANDIDATES).astype(int)
        candidates = candidates[np.unique(idx)]
    return candidates


def reference_bounded_minimum(func, lo: float, hi: float) -> float:
    """scipy's bounded Brent minimiser, which ``degrees._bounded_minimum``
    ports."""
    return float(minimize_scalar(func, bounds=(lo, hi), method="bounded").x)


def reference_fit_discrete_power_law(values) -> PowerLawFit:
    """Discrete ML power-law fit with KS-selected lower cutoff."""
    data = np.asarray([v for v in values if v >= 1], dtype=float)
    unique_values = np.unique(data)
    if data.size < 4 or unique_values.size < 2:
        return PowerLawFit(None, None, None, 0, False)

    data.sort()
    log_data = np.log(data)
    suffix_log = np.concatenate([np.cumsum(log_data[::-1])[::-1], [0.0]])

    best: tuple[float, float, float, int] | None = None
    for xmin in _reference_cutoffs(unique_values):
        start = int(np.searchsorted(data, xmin, side="left"))
        n_tail = data.size - start
        if n_tail < 4:
            continue
        log_sum = suffix_log[start]

        def nll(alpha: float) -> float:
            return n_tail * math.log(zeta(alpha, xmin)) + alpha * log_sum

        res = minimize_scalar(nll, bounds=_ALPHA_BOUNDS, method="bounded")
        alpha = float(res.x)

        tail_unique = unique_values[unique_values >= xmin]
        denom = zeta(alpha, xmin)
        theory_cdf = 1.0 - zeta(alpha, tail_unique + 1.0) / denom
        empirical_cdf = np.searchsorted(data, tail_unique, side="right")
        empirical_cdf = (empirical_cdf - start) / n_tail
        ks = float(np.max(np.abs(empirical_cdf - theory_cdf)))
        if best is None or ks < best[2]:
            best = (alpha, float(xmin), ks, n_tail)

    if best is None:
        return PowerLawFit(None, None, None, 0, False)
    alpha, xmin, ks, n_tail = best
    return PowerLawFit(alpha, xmin, ks, n_tail, unique_values.size >= MIN_DISTINCT_VALUES)


def reference_fit_continuous_power_law(values) -> PowerLawFit:
    """Continuous (Hill-style) ML power-law fit with KS-selected cutoff."""
    data = np.asarray([v for v in values if v > 0], dtype=float)
    unique_values = np.unique(data)
    if data.size < 4 or unique_values.size < 2:
        return PowerLawFit(None, None, None, 0, False)

    data.sort()
    best: tuple[float, float, float, int] | None = None
    for xmin in _reference_cutoffs(unique_values):
        start = int(np.searchsorted(data, xmin, side="left"))
        tail = data[start:]
        if tail.size < 4:
            continue
        alpha = 1.0 + tail.size / float(np.sum(np.log(tail / xmin)))
        theory_cdf = 1.0 - np.power(xmin / tail, alpha - 1.0)
        i = np.arange(1, tail.size + 1)
        ks = float(
            max(
                np.max(np.abs(i / tail.size - theory_cdf)),
                np.max(np.abs((i - 1) / tail.size - theory_cdf)),
            )
        )
        if best is None or ks < best[2]:
            best = (float(alpha), float(xmin), ks, tail.size)

    if best is None:
        return PowerLawFit(None, None, None, 0, False)
    alpha, xmin, ks, n_tail = best
    return PowerLawFit(alpha, xmin, ks, n_tail, unique_values.size >= MIN_DISTINCT_VALUES)


# --------------------------------------------------------------------------
# shared builders: the per-object forms of the library's columns (hand-built
# transaction rows, the link mapping and one record per operation), which
# tests write their cases in and read results through
# --------------------------------------------------------------------------


def keep_everything() -> FilterSpec:
    """FilterSpec that admits every subtype and account (round-trip parsing)."""
    return FilterSpec(keep_subtypes=())


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


def tx(
    tx_id: str,
    timestamp: int,
    source: str,
    target: str,
    amount: str | int = 1,
    subtype: str = "STANDARD",
) -> Transaction:
    return Transaction(
        timestamp=timestamp,
        tx_id=tx_id,
        source=source,
        target=target,
        amount=Decimal(str(amount)),
        subtype=subtype,
    )


def ledger_of(rows: Iterable[Transaction]) -> Ledger:
    """Hand-built rows sorted into a ledger by ``Ledger.from_columns``."""
    rows = list(rows)  # the columns follow Transaction's field order
    return Ledger.from_columns(*([getattr(t, f.name) for t in rows] for f in fields(Transaction)))


def ids_of(ledger: Ledger) -> list[str]:
    """Each row's id, decoded from the ledger's id table."""
    return [cell.decode("utf-8") for cell in ledger.ids.cells(ledger.row)]


def amounts_of(ledger: Ledger) -> list[Decimal]:
    """Each row's ``Decimal`` amount, from the ledger's amount table."""
    return [ledger.amount_table[code] for code in ledger.amount_code.tolist()]


def subtypes_of(ledger: Ledger) -> list[str]:
    """Each row's subtype, from the ledger's subtype table."""
    return [ledger.subtype_table[code] for code in ledger.subtypes[ledger.row].tolist()]


def rows_of(ledger: Ledger) -> list[Transaction]:
    """A ledger's rows as transactions, in ledger order, read off its columns."""
    accounts = ledger.accounts
    return [
        Transaction(stamp, tx_id, accounts[source], accounts[target], amount, subtype)
        for stamp, tx_id, source, target, amount, subtype in zip(
            ledger.timestamp.tolist(), ids_of(ledger), ledger.source.tolist(),
            ledger.target.tolist(), amounts_of(ledger), subtypes_of(ledger))
    ]


class LinkRecord(NamedTuple):
    """The transactions aggregated onto one ordered node pair."""

    count: int
    volume: Decimal


def _coded(pairs: Iterable[tuple[str, str]]) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The sorted ids of (source, target) pairs, and the pairs' ends as
    int64 indices into them."""
    nodes = tuple(sorted({v for pair in pairs for v in pair}))
    index = {v: i for i, v in enumerate(nodes)}
    ends = np.array([index[v] for pair in pairs for v in pair], dtype=np.int64)
    return nodes, ends[0::2], ends[1::2]


def graph_of(pairs: Iterable[tuple[str, str]], amount: Decimal = Decimal(1)) -> LedgerGraph:
    """The graph of bare ordered pairs, one transaction of ``amount`` each;
    duplicate pairs collapse into one link with accumulated count and volume."""
    pairs = [(str(source), str(target)) for source, target in pairs]
    return LedgerGraph._from_rows(*_coded(pairs), 1,
                                  Units.of([amount], np.zeros(len(pairs), dtype=np.int64)))


def graph_from_links(links: Mapping[tuple[str, str], LinkRecord]) -> LedgerGraph:
    """The graph of a mapping of ordered account-id pairs to their records."""
    records = list(links.values())
    return LedgerGraph._from_rows(*_coded(links), [r.count for r in records],
                                  Units.of([r.volume for r in records]))


def links_of(g: LedgerGraph) -> dict[tuple[str, str], LinkRecord]:
    """A graph's links as a mapping of ordered account-id pairs to their
    records, in sorted order."""
    names = np.array(g.nodes, dtype=object)
    pairs = zip(names[g.sources].tolist(), names[g.targets].tolist())
    return dict(zip(pairs, map(LinkRecord, g.counts.tolist(), g.units.to_decimals())))


def swapped_links(
    g: LedgerGraph,
    mode: SwapMode,
    seed: int,
    max_repair_attempts: int = EnsembleSpec.max_repair_attempts,
) -> list[tuple[str, str, LinkRecord]]:
    """``nullmodel._swap`` of a graph's links, before parallel links merge,
    as (source id, target id, record) in link order."""
    sources, targets, _ = _swap(g.sources, g.targets, mode, seed, max_repair_attempts)
    records = map(LinkRecord, g.counts.tolist(), g.units.to_decimals())
    return [(g.nodes[s], g.nodes[t], record)
            for s, t, record in zip(sources.tolist(), targets.tolist(), records)]


@dataclass(frozen=True)
class RecirculationOp:
    """One first-in to last-out window of one user."""

    user: str
    first_in: int
    last_out: int
    in_tx_ids: tuple[str, ...]
    out_tx_ids: tuple[str, ...]

    @property
    def duration(self) -> int:
        return self.last_out - self.first_in


def ops_of(ops: Operations) -> list[RecirculationOp]:
    """Operation columns as one record per operation, in order."""
    ledger = ops.ledger
    ids = ids_of(ledger)
    tx_ids = [ids[r] for r in ops.rows.tolist()]
    bounds = ops.bounds.tolist()
    return [
        RecirculationOp(ledger.accounts[user], first_in, last_out,
                        tuple(tx_ids[a:b]), tuple(tx_ids[b:c]))
        for user, first_in, last_out, a, b, c in zip(
            ops.user.tolist(), ops.first_in.tolist(), ops.last_out.tolist(), bounds,
            ops.split.tolist(), bounds[1:])
    ]


def categories_of(classified: ClassifiedOps) -> tuple[FrequencyCategory, ...]:
    """Each operation's frequency category, in operation order."""
    categories = tuple(FrequencyCategory)
    return tuple(categories[code] for code in classified.codes.tolist())


@dataclass(frozen=True)
class TemporalSignature:
    """The set of frequency categories a user's operations fall into."""

    user: str
    categories: frozenset[FrequencyCategory]

    @property
    def key(self) -> str:
        return "-".join(c.value for c in FrequencyCategory if c in self.categories)


def signatures_of(signatures: Signatures) -> list[TemporalSignature]:
    """Signature columns as one record per user, in order (which was the
    list ``user_signatures`` returned)."""
    accounts = signatures.ledger.accounts
    return [
        TemporalSignature(accounts[user], frozenset(
            c for i, c in enumerate(FrequencyCategory) if mask >> i & 1))
        for user, mask in zip(signatures.user.tolist(), signatures.mask.tolist())
    ]


def reference_hfq1_only(signatures: Sequence[TemporalSignature],
                        partition) -> tuple[float, dict[str, float]]:
    """``strategy_report``'s HFQ1-only user share and node-category
    breakdown, from one record per user."""
    hfq1_only = [s for s in signatures if s.categories == frozenset({FrequencyCategory.HFQ1})]
    share = len(hfq1_only) / len(signatures) if signatures else 0.0
    counts = Counter(partition.node_category[s.user].value for s in hfq1_only)
    return share, {label: count / len(hfq1_only) for label, count in sorted(counts.items())}


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


def reference_csv_text(header: Sequence[str], columns: Sequence[Sequence[str]]) -> str:
    """The text ``util.write_csv`` writes for columns of cell texts, built
    row by row: each cell quoted where it must be, each row joined."""
    rows = _lines(columns) if columns and columns[0] else ""
    return _lines([[name] for name in header]) + rows
