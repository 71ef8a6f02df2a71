"""Triadic census over directed simple graphs and category subgraphs.

Every unordered triple of nodes falls into one of the 16 canonical directed
triad classes. The census walks connected pairs and their joint
neighborhoods and closes the disconnected-third-node classes (003, 012,
102) in constant time per pair, so sparse graphs avoid the cubic scan. The
result is checked against the C(n, 3) total identity on every call.

Category censuses run on the subgraph induced by a category's nodes and
internally-owned links; boundary links never enter. ``triad_significance``
scores the empirical per-category counts against the censuses that
``nullmodel.run_ensemble`` takes of each replica, with the same scoring as
the category-size significance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import LedgerGraph
from .stats import SignificanceCell, score_ensemble
from .topology import NodeCategory, TopologyPartition, EdgeKind
from .topology import categorize  # noqa: F401  (perfbench/tracer.py wraps triads.categorize)

__all__ = [
    "TRIAD_LABELS",
    "DEFAULT_CENSUS_CATEGORIES",
    "census",
    "census_of_graph",
    "category_census",
    "triad_significance",
]

TRIAD_LABELS: tuple[str, ...] = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

# Class index (1-based into TRIAD_LABELS) for each of the 64 possible
# combinations of the six directed edges among an ordered triple.
_TRICODES = (
    1, 2, 2, 3, 2, 4, 6, 8, 2, 6, 5, 7, 3, 8, 7, 11, 2, 6, 4, 8, 5, 9,
    9, 13, 6, 10, 9, 14, 7, 14, 12, 15, 2, 5, 6, 7, 6, 9, 10, 14, 4, 9,
    9, 12, 8, 13, 14, 15, 3, 7, 8, 11, 7, 12, 14, 15, 8, 14, 13, 15,
    11, 15, 15, 16,
)
_CODE_TO_LABEL = {i: TRIAD_LABELS[code - 1] for i, code in enumerate(_TRICODES)}

DEFAULT_CENSUS_CATEGORIES: tuple[NodeCategory, ...] = (
    NodeCategory.DAG0,
    NodeCategory.DAG_TIN,
    NodeCategory.DAG_TOUT,
    NodeCategory.DAG_TMIX,
)


def census(nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> dict[str, int]:
    """Count the 16 triad classes over all unordered node triples.

    ``edges`` must connect nodes from ``nodes`` and contain no self-loops.
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
    counts = dict.fromkeys(TRIAD_LABELS, 0)

    for v in node_list:
        v_nbrs = succ[v] | pred[v]
        for u in v_nbrs:
            if order[u] <= order[v]:
                continue
            neighborhood = (v_nbrs | succ[u] | pred[u]) - {u, v}
            # Third nodes unconnected to both v and u form dyadic triads.
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
    if sum(counts.values()) != total_triples or counts["003"] < 0:
        raise AssertionError("triad census does not sum to C(n, 3)")
    return counts


def census_of_graph(g: LedgerGraph) -> dict[str, int]:
    return census(g.nodes, g.links.keys())


def _category_subgraph(
    partition: TopologyPartition, category: NodeCategory
) -> tuple[list[str], list[tuple[str, str]]]:
    nodes = [v for v, c in partition.node_category.items() if c is category]
    wanted = {cid for cid, c in partition.component_category.items() if c is category}
    edges = [
        pair
        for pair, assignment in partition.edge_assignment.items()
        if assignment.kind is EdgeKind.INTERNAL and assignment.component_id in wanted
    ]
    return nodes, edges


def category_census(
    g: LedgerGraph,
    partition: TopologyPartition,
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> dict[str, dict[str, int]]:
    """Census of each requested category's induced subgraph."""
    result: dict[str, dict[str, int]] = {}
    for category in categories:
        nodes, edges = _category_subgraph(partition, category)
        result[category.value] = census(nodes, edges)
    return result


def _triad_count(census_tables: dict[str, dict[str, int]], label: str, triad: str) -> float:
    return float(census_tables[label][triad])


def triad_significance(
    empirical: dict[str, dict[str, int]],
    ensemble: Sequence[dict[str, dict[str, int]]],
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> list[SignificanceCell]:
    """Score empirical per-category triad counts against replica censuses.

    ``empirical`` and each entry of ``ensemble`` are ``category_census``
    tables covering ``categories``. One cell per (category, triad label); a
    category absent from a replica has an all-zero census there. Requires
    at least 8 replicas for the Anderson-Darling approximation.
    """
    labels = [category.value for category in categories]
    return score_ensemble(empirical, ensemble, labels, TRIAD_LABELS, _triad_count)
