"""Degree-structure-preserving randomisation and ensemble significance.

A replica is produced by permuting one endpoint column of the link list:
target-swap permutes targets, source-swap permutes sources, and both-swap
assigns each link to the source pool or the target pool by a fair draw and
permutes each pool's column within the pool. A link always carries its full
transaction record with it, so replica totals equal the empirical totals
exactly. Self-loops produced by the permutation are repaired by pairwise
exchanges within the permuted column (degree multisets stay intact); links
that land on the same ordered pair are merged.

Replicas live on the graph's integer link columns: a replica is one
permuted int64 endpoint column with its self-loops repaired. Parallel links
merge through ``graph.merge_links`` (``np.unique`` on ``source * n +
target``), the step that aggregation uses too; inside an ensemble the
per-link counts and volumes (the graph's int64 units) stay in the original
link order, and ``topology.tabulate`` gives each record its category
through the merge's row-to-link index; ``Units.float_sums`` sums the units
per category, so a replica's category volumes are int64 sums, scored as
floats, and no exponent or ``Decimal`` is taken. ``randomize`` builds the
merged replica as a graph, adding parallel links' counts and volumes
exactly.

An ensemble builds each replica once, re-runs the topological
categorisation (``topology.label``) on it, and stacks three arrays per
replica: its category ``FEATURES`` as floats, the triad census of its
DAG categories, and its event counts (self-loops repaired, reseeded or
not, links merged). The empirical category sizes are scored against the first
with z-scores, robust z-scores, and an Anderson-Darling normality verdict
per cell; ``triads`` scores the empirical censuses against the second.
``jobs`` forked children (``util.fork_call``) build contiguous slices of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from . import triads
from .errors import AnalysisError
from .graph import LedgerGraph, merge_links
from .stats import SignificanceCell, score_ensemble
from .topology import CATEGORY_ORDER, CategoryRow, label, tabulate
from .topology import categorize, category_stats  # noqa: F401  (perfbench/tracer.py wraps these)
from .util import fork_call, join_all, mix64, usable_cpus

__all__ = [
    "SwapMode",
    "EnsembleSpec",
    "RandomizationError",
    "derive_seed",
    "randomize",
    "run_ensemble",
    "significance",
    "FEATURES",
]

FEATURES: tuple[str, ...] = ("wcc_count", "node_count", "link_count", "tx_count", "volume")

_REPLICA_RETRIES = 3


class SwapMode(str, Enum):
    TARGET = "target"
    SOURCE = "source"
    BOTH = "both"


@dataclass(frozen=True)
class EnsembleSpec:
    mode: SwapMode
    replicas: int = 1000
    master_seed: int = 0
    max_repair_attempts: int = 100

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.max_repair_attempts < 1:
            raise ValueError("max_repair_attempts must be >= 1")


class RandomizationError(AnalysisError):
    """Self-loop repair budget exhausted; carries the offending seed. Pickles whole."""

    def __init__(self, seed: int, position: int):
        super().__init__(seed, position)
        self.seed, self.position = seed, position

    def __str__(self) -> str:
        return f"could not repair self-loop at link {self.position} (seed {self.seed})"


def derive_seed(master_seed: int, index: int) -> int:
    """Replica seed from (master seed, replica index); fixed 64-bit mixing."""
    return mix64(master_seed, index)


def _swap(sources: np.ndarray, targets: np.ndarray, mode: SwapMode, seed: int,
          max_repair_attempts: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Swapped integer endpoint columns, before merging parallel links, and
    the number of self-loops repaired."""
    m = sources.size
    if m <= 1:
        return sources, targets, 0

    rng = np.random.default_rng(seed & (2**64 - 1))
    pool = None
    if mode is SwapMode.BOTH:
        pool = rng.integers(0, 2, size=m)
        sources, targets = sources.copy(), targets.copy()
        for column, idx in ((sources, np.flatnonzero(pool == 0)),
                            (targets, np.flatnonzero(pool == 1))):
            column[idx] = column[idx[rng.permutation(idx.size)]]
    elif mode is SwapMode.TARGET:
        targets = targets[rng.permutation(m)]
    elif mode is SwapMode.SOURCE:
        sources = sources[rng.permutation(m)]
    else:
        raise ValueError(f"unknown swap mode: {mode!r}")

    # Repair self-loops by exchanging the permuted-column entry with a
    # random partner; a swap inside one column never changes its multiset.
    # An accepted swap never creates a self-loop, so only the positions
    # that are loops now need visiting, in order, each re-checked when
    # reached (an earlier swap may have repaired it).
    repairs = 0
    for i in np.flatnonzero(sources == targets).tolist():
        if sources[i] != targets[i]:
            continue
        if mode is SwapMode.SOURCE or (mode is SwapMode.BOTH and pool[i] == 0):
            column, fixed = sources, targets
        else:
            column, fixed = targets, sources
        for _ in range(max_repair_attempts):
            j = int(rng.integers(0, m))
            if j == i:
                continue
            # After the exchange neither position may be a self-loop.
            if fixed[i] == column[j] or fixed[j] == column[i]:
                continue
            column[i], column[j] = column[j], column[i]
            repairs += 1
            break
        else:
            raise RandomizationError(seed, i)
    return sources, targets, repairs


def randomize(
    g: LedgerGraph,
    mode: SwapMode,
    seed: int,
    max_repair_attempts: int = EnsembleSpec.max_repair_attempts,
) -> LedgerGraph:
    """One randomised replica; parallel links merged by adding their records."""
    sources, targets, _ = _swap(g.sources, g.targets, mode, seed, max_repair_attempts)
    return LedgerGraph._from_rows(g.nodes, sources, targets, g.counts, g.units)


def _replica(g: LedgerGraph, spec: EnsembleSpec, index: int) -> tuple[np.ndarray, ...]:
    """Merged replica links as sorted (sources, targets), the merged link
    that carries each original link record, and its event counts."""
    seed = derive_seed(spec.master_seed, index)
    for attempt in range(_REPLICA_RETRIES + 1):
        try:
            sources, targets, repairs = _swap(
                g.sources, g.targets, spec.mode, seed, spec.max_repair_attempts
            )
            break
        except RandomizationError:
            if attempt == _REPLICA_RETRIES:
                raise
            seed = derive_seed(derive_seed(spec.master_seed, index), attempt + 1)
    merged = merge_links(g.node_count, sources, targets)
    return (*merged, np.array([repairs, attempt > 0, sources.size - merged[0].size]))


def _replica_tables(g: LedgerGraph, spec: EnsembleSpec, index: int) -> tuple[np.ndarray, ...]:
    sources, targets, record_link, events = _replica(g, spec, index)
    labels, component = label(g.node_count, sources, targets)
    table, record_code = tabulate(labels, component, sources, targets, g.counts, record_link)
    features = np.column_stack([table[:, 1:], g.units.float_sums(record_code, len(table))])
    return features, triads.label_census(labels, sources, targets), events


def _replica_slice(g: LedgerGraph, spec: EnsembleSpec, start: int,
                   stop: int) -> tuple[np.ndarray, ...]:
    """The stacked tables of replicas ``start..stop-1``, built in index order."""
    return tuple(map(np.stack, zip(*(_replica_tables(g, spec, i) for i in range(start, stop)))))


def run_ensemble(
    g: LedgerGraph,
    spec: EnsembleSpec,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Category features, category triad censuses and events of every replica.

    A float64 array of replicas × ``CATEGORY_ORDER`` × ``FEATURES``, an
    int64 array of replicas × ``triads.DEFAULT_CENSUS_CATEGORIES`` ×
    ``triads.TRIAD_LABELS``, and an int64 array of replicas × 3 event
    counts: self-loops repaired, 1 if reseeded after a
    ``RandomizationError``, parallel links merged. Each replica is built and categorised once;
    ``jobs`` forked children build contiguous slices of replica indices,
    stacked in index order, and the earliest slice's failure is raised, so
    output and failure (the lowest failing replica's) match any job count.
    """
    # A child beyond one per replica, or per CPU this process may use, would idle.
    jobs = min(jobs, spec.replicas, usable_cpus())
    if jobs <= 1:
        return _replica_slice(g, spec, 0, spec.replicas)
    bounds = [spec.replicas * k // jobs for k in range(jobs + 1)]
    handles: list = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            handles.append(fork_call(_replica_slice, g, spec, start, stop))
    finally:  # also when a slice built here fails: an earlier slice's failure wins
        slices = join_all(handles)
    return tuple(map(np.concatenate, zip(*slices)))


def significance(
    empirical: Mapping[str, CategoryRow], ensemble: np.ndarray
) -> list[SignificanceCell]:
    """Score the empirical ``FEATURES`` of each category against an ensemble.

    ``empirical`` is a ``category_stats`` table, ``ensemble`` the features
    array of ``run_ensemble`` with at least 8 replicas.
    """
    table = [[float(getattr(empirical[category], feature)) for feature in FEATURES]
             for category in CATEGORY_ORDER]
    return score_ensemble(np.array(table), ensemble, CATEGORY_ORDER, FEATURES)
