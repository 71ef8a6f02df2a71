"""Triad census of the acyclic category subgraphs, and its significance.

Every unordered triple of nodes falls into one of the 16 canonical directed
triad classes (Holland & Leinhardt 1976). Censuses are taken only of the
acyclic (``dag*``) categories. With no mutual dyad and no cycle only six
classes occur, each in closed form (Moody 1998): with out-, in- and total
degrees o, i, d per node, m links, n nodes and T transitive triangles (the
2-paths u -> v -> w whose end pair u -> w is a link), 030T = T,
021D = sum C(o, 2) - T, 021U = sum C(i, 2) - T, 021C = sum o*i - T,
012 = m*n - sum d^2 + 3T, and 003 completes C(n, 3). The 2-paths are
expanded from the links' sorted integer keys ``source * size + target``,
and their end pairs looked up with ``np.searchsorted``. A category's
subgraph is its nodes and the links that carry its code, and no ``dag*``
link leaves its category, so ``label_census`` takes every category's census
in one pass with per-category sums, and runs no check: ``topology.label``
makes these subgraphs simple and acyclic. ``census``, for any caller's
graph, checks that it is. The general-digraph census lives in
``tests/oracles.py`` as a reference. ``triad_significance`` scores the
empirical censuses against those ``nullmodel.run_ensemble`` takes of each
replica.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .graph import LedgerGraph
from .stats import SignificanceCell, score_ensemble
from .topology import CATEGORY_KIND, CATEGORY_ORDER, Labels, NodeCategory, TopologyPartition
from .topology import categorize  # noqa: F401  (perfbench/tracer.py wraps triads.categorize)

__all__ = [
    "TRIAD_LABELS",
    "DEFAULT_CENSUS_CATEGORIES",
    "census",
    "label_census",
    "category_census",
    "triad_significance",
]

TRIAD_LABELS: tuple[str, ...] = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)

_ACYCLIC = np.array(CATEGORY_KIND) == "dag"

DEFAULT_CENSUS_CATEGORIES: tuple[NodeCategory, ...] = (
    NodeCategory.DAG0,
    NodeCategory.DAG_TIN,
    NodeCategory.DAG_TOUT,
    NodeCategory.DAG_TMIX,
)


def _is_link(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each key in ``query`` is one of the sorted ``keys``."""
    return np.take(keys, np.searchsorted(keys, query), mode="clip") == query


def _closed_forms(keys: np.ndarray, size: int, group: np.ndarray, nodes: np.ndarray,
                  check: bool = False) -> np.ndarray:
    """Census, 003 left 0, of each node group of an acyclic simple digraph as
    int64 groups × ``TRIAD_LABELS``: ``keys`` are its sorted links ``source *
    size + target``, ``group`` each node's group (no link joins two groups),
    ``nodes`` each group's size. ``check`` raises where the closed forms fail."""
    if check and np.any(keys[1:] == keys[:-1]):
        raise AnalysisError("parallel links in census input")
    tails, heads = np.divmod(keys, size)
    out_deg, in_deg = np.bincount(tails, minlength=size), np.bincount(heads, minlength=size)
    # The 2-paths: each link tail -> head continues along every out-link
    # of head, which the sorted links hold in one run from first_out[head].
    first_out = np.cumsum(out_deg) - out_deg
    fan = out_deg[heads]
    firsts = np.repeat(tails, fan)
    ends = heads[np.arange(fan.sum()) + np.repeat(first_out[heads] - (np.cumsum(fan) - fan), fan)]
    # A self-loop is its own reverse, a mutual dyad's reverse is a link,
    # and a 3-cycle closes a 2-path with the reverse of its end pair.
    if check and _is_link(keys, np.concatenate((heads * size + tails, ends * size + firsts))).any():
        raise AnalysisError("census input has a self-loop, mutual dyad or 3-cycle")
    # Each group's links, 2-paths, sum o(o-1), sum i(i-1) and sum d^2, as
    # exact sums over its links (a node of degree d ends d links).
    degree, by = out_deg + in_deg, group[tails]
    sums = np.zeros((5, nodes.size), dtype=np.int64)
    for row, per_link in zip(sums, (1, fan, out_deg[tails] - 1, in_deg[heads] - 1,
                                    degree[tails] + degree[heads])):
        np.add.at(row, by, per_link)
    m, paths, out_pairs, in_pairs, squares = sums
    t = np.bincount(group[firsts[_is_link(keys, firsts * size + ends)]], minlength=nodes.size)
    table = np.zeros((nodes.size, len(TRIAD_LABELS)), dtype=np.int64)
    table[:, [TRIAD_LABELS.index(label) for label in ("012", "021D", "021U", "021C", "030T")]] = \
        np.column_stack((m * nodes - squares + 3 * t, out_pairs // 2 - t, in_pairs // 2 - t,
                         paths - t, t))
    return table


def census(n: int, sources: np.ndarray, targets: np.ndarray) -> dict[str, int]:
    """Triad census of an acyclic simple digraph with ``n`` nodes.

    ``sources[k] -> targets[k]`` are its links as non-negative integer node
    ids, not necessarily ``0..n-1``; nodes without links are isolated.
    Raises :class:`AnalysisError` on a self-loop, parallel link, mutual
    dyad or 3-cycle (where the closed forms fail), or on more than ``n``
    linked nodes.
    """
    sources, targets = np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
    if np.unique(np.concatenate((sources, targets))).size > n:
        raise AnalysisError(f"census links touch more than its {n} nodes")
    size = int(max(sources.max(initial=0), targets.max(initial=0))) + 1
    row = _closed_forms(np.sort(sources * size + targets), size, np.zeros(size, dtype=np.intp),
                        np.array([n]), check=True)[0]
    counts = dict(zip(TRIAD_LABELS, row.tolist()))
    counts["003"] = n * (n - 1) * (n - 2) // 6 - sum(counts.values())
    return counts


def label_census(
    labels: Labels,
    sources: np.ndarray,
    targets: np.ndarray,
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> np.ndarray:
    """Census of each acyclic category from array labels of one graph's
    links, as int64 ``categories`` × ``TRIAD_LABELS``.

    One pass over the links of every ``dag*`` category serves all of them,
    unchecked: ``label`` makes each a simple acyclic subgraph whose links
    join two of its own nodes.
    """
    codes = [CATEGORY_ORDER.index(category.value) for category in categories]
    if not _ACYCLIC[codes].all():
        raise ValueError("label_census counts acyclic categories only")
    n = max(labels.node.size, 1)
    owned = np.flatnonzero(_ACYCLIC[labels.link])
    nodes = np.bincount(labels.node, minlength=len(CATEGORY_ORDER))
    table = _closed_forms(np.sort(sources[owned] * n + targets[owned]), n, labels.node, nodes)
    table[:, 0] = nodes * (nodes - 1) * (nodes - 2) // 6 - table.sum(axis=1)
    return table[codes]


def category_census(
    g: LedgerGraph,
    partition: TopologyPartition,
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> dict[str, dict[str, int]]:
    """Census of each requested (acyclic) category's subgraph."""
    table = label_census(partition.labels, g.sources, g.targets, categories)
    return {category.value: dict(zip(TRIAD_LABELS, row))
            for category, row in zip(categories, table.tolist())}


def triad_significance(
    empirical: Mapping[str, Mapping[str, int]],
    ensemble: np.ndarray,
) -> list[SignificanceCell]:
    """Score empirical per-category triad counts against replica censuses.

    ``empirical`` is a ``category_census`` table covering
    ``DEFAULT_CENSUS_CATEGORIES``, ``ensemble`` the census array of
    ``nullmodel.run_ensemble`` with at least 8 replicas. One cell per
    (category, triad label).
    """
    labels = [category.value for category in DEFAULT_CENSUS_CATEGORIES]
    table = [[empirical[label][triad] for triad in TRIAD_LABELS] for label in labels]
    return score_ensemble(np.array(table, dtype=float), ensemble, labels, TRIAD_LABELS)
