"""Triad census of the acyclic category subgraphs, and its significance.

Every unordered triple of nodes falls into one of the 16 canonical directed
triad classes (Holland & Leinhardt 1976). Censuses are taken only of the
acyclic (``dag*``) categories. With no mutual dyad and no cycle only six
classes occur, each in closed form (Moody 1998): with out-, in- and total
degrees o, i, d per node, m links, n nodes and T transitive triangles (the
2-paths u -> v -> w whose end pair u -> w is a link), 030T = T,
021D = sum C(o, 2) - T, 021U = sum C(i, 2) - T, 021C = sum o*i - T,
012 = m*n - sum d^2 + 3T, and 003 completes C(n, 3). T and the checks that
the graph is acyclic and simple run on the links' integer keys
``source * size + target``, sorted once and searched with
``np.searchsorted``; the 2-paths are expanded from the sorted links' offsets
per source. The general-digraph census lives in ``tests/oracles.py`` as a
reference.

A category's subgraph is its nodes and the links that carry its category
code; boundary links never enter. ``triad_significance`` scores the
empirical censuses against those ``nullmodel.run_ensemble`` takes of each
replica, with the same scoring as the category-size significance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import AnalysisError
from .graph import LedgerGraph
from .stats import SignificanceCell, score_ensemble
from .topology import CATEGORY_ORDER, Labels, NodeCategory, TopologyPartition
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

DEFAULT_CENSUS_CATEGORIES: tuple[NodeCategory, ...] = (
    NodeCategory.DAG0,
    NodeCategory.DAG_TIN,
    NodeCategory.DAG_TOUT,
    NodeCategory.DAG_TMIX,
)


def _pairs(degree: np.ndarray) -> int:
    return int((degree * (degree - 1)).sum()) // 2


def _is_link(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each key in ``query`` is one of the sorted ``keys``."""
    return np.take(keys, np.searchsorted(keys, query), mode="clip") == query


def census(n: int, sources: np.ndarray, targets: np.ndarray) -> dict[str, int]:
    """Triad census of an acyclic simple digraph with ``n`` nodes.

    ``sources[k] -> targets[k]`` are its links as non-negative integer node
    ids, not necessarily ``0..n-1``; nodes without links are isolated.
    Raises :class:`AnalysisError` on a self-loop, parallel link, mutual
    dyad or 3-cycle (where the closed forms fail), or on more than ``n``
    linked nodes.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    counts = dict.fromkeys(TRIAD_LABELS, 0)
    m = sources.size
    if m:
        size = int(max(sources.max(), targets.max())) + 1
        out_deg = np.bincount(sources, minlength=size)
        in_deg = np.bincount(targets, minlength=size)
        degree = out_deg + in_deg
        if np.count_nonzero(degree) > n:
            raise AnalysisError(f"census links touch more than its {n} nodes")
        keys = np.sort(sources * size + targets)
        if np.any(keys[1:] == keys[:-1]):
            raise AnalysisError("parallel links in census input")
        tails, heads = np.divmod(keys, size)
        # The 2-paths: each link tail -> head continues along every out-link
        # of head, which the sorted links hold in one run from first_out[head].
        first_out = np.cumsum(out_deg) - out_deg
        fan = out_deg[heads]
        firsts = np.repeat(tails, fan)
        ends = heads[np.arange(fan.sum())
                     + np.repeat(first_out[heads] - (np.cumsum(fan) - fan), fan)]
        # A self-loop is its own reverse, a mutual dyad's reverse is a link,
        # and a 3-cycle closes a 2-path with the reverse of its end pair.
        if _is_link(keys, np.concatenate((heads * size + tails, ends * size + firsts))).any():
            raise AnalysisError("census input has a self-loop, mutual dyad or 3-cycle")
        t = int(_is_link(keys, firsts * size + ends).sum())
        counts["030T"] = t
        counts["021D"] = _pairs(out_deg) - t
        counts["021U"] = _pairs(in_deg) - t
        counts["021C"] = int((out_deg * in_deg).sum()) - t
        counts["012"] = m * n - int((degree * degree).sum()) + 3 * t
    counts["003"] = n * (n - 1) * (n - 2) // 6 - sum(counts.values())
    return counts


def label_census(
    labels: Labels,
    sources: np.ndarray,
    targets: np.ndarray,
    categories: Sequence[NodeCategory] = DEFAULT_CENSUS_CATEGORIES,
) -> np.ndarray:
    """Census of each category from array labels of one graph's links, as
    int64 ``categories`` × ``TRIAD_LABELS``.

    A category's subgraph is its nodes and the links that carry its code.
    """
    node_count = np.bincount(labels.node, minlength=len(CATEGORY_ORDER))
    table = np.zeros((len(categories), len(TRIAD_LABELS)), dtype=np.int64)
    for row, category in zip(table, categories):
        code = CATEGORY_ORDER.index(category.value)
        owned = labels.link == code
        row[:] = list(census(int(node_count[code]), sources[owned], targets[owned]).values())
    return table


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
