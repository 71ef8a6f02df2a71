"""Degree-structure-preserving randomisation and ensemble significance.

A replica is produced by permuting one endpoint column of the link list:
target-swap permutes targets, source-swap permutes sources, and both-swap
assigns each link to the source pool or the target pool by a fair draw and
permutes each pool's column within the pool. A link always carries its full
transaction record with it, so replica totals equal the empirical totals
exactly. Self-loops produced by the permutation are repaired by pairwise
exchanges within the permuted column (degree multisets stay intact); links
that land on the same ordered pair are merged.

An ensemble builds each replica once, re-runs the topological
categorisation on it, and keeps two tables per replica: its category
statistics and the triad census of its DAG categories. The empirical
category sizes are scored against the first with z-scores, robust z-scores,
and an Anderson-Darling normality verdict per cell; ``triads`` scores the
empirical censuses against the second.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import triads
from .errors import AnalysisError
from .graph import LedgerGraph, LinkRecord
from .stats import SignificanceCell, score_ensemble
from .topology import CATEGORY_ORDER, CategoryRow, categorize, category_stats
from .util import mix64

__all__ = [
    "SwapMode",
    "EnsembleSpec",
    "RandomizationError",
    "derive_seed",
    "randomize_endpoints",
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


class RandomizationError(AnalysisError):
    """Self-loop repair budget exhausted; carries the offending seed."""

    def __init__(self, seed: int, position: int):
        super().__init__(f"could not repair self-loop at link {position} (seed {seed})")
        self.seed = seed


def derive_seed(master_seed: int, index: int) -> int:
    """Replica seed from (master seed, replica index); fixed 64-bit mixing."""
    return mix64(master_seed, index)


def randomize_endpoints(
    g: LedgerGraph,
    mode: SwapMode,
    seed: int,
    max_repair_attempts: int = 100,
) -> list[tuple[str, str, LinkRecord]]:
    """Swapped link list before merging parallel links.

    Deterministic in (graph, mode, seed). Raises
    :class:`RandomizationError` when a self-loop cannot be repaired within
    the attempt budget.
    """
    triples = g.link_list()
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


def randomize(
    g: LedgerGraph,
    mode: SwapMode,
    seed: int,
    max_repair_attempts: int = 100,
) -> LedgerGraph:
    """One randomised replica; parallel links merged by record concatenation."""
    merged: dict[tuple[str, str], LinkRecord] = {}
    for source, target, record in randomize_endpoints(g, mode, seed, max_repair_attempts):
        key = (source, target)
        merged[key] = merged[key].merged(record) if key in merged else record
    return LedgerGraph(merged)


def _replica(g: LedgerGraph, spec: EnsembleSpec, index: int) -> LedgerGraph:
    seed = derive_seed(spec.master_seed, index)
    for attempt in range(_REPLICA_RETRIES + 1):
        try:
            return randomize(g, spec.mode, seed, spec.max_repair_attempts)
        except RandomizationError:
            if attempt == _REPLICA_RETRIES:
                raise
            seed = derive_seed(derive_seed(spec.master_seed, index), attempt + 1)
    raise AssertionError("unreachable")


def _replica_tables(
    g: LedgerGraph, spec: EnsembleSpec, index: int
) -> tuple[dict[str, CategoryRow], dict[str, dict[str, int]]]:
    replica = _replica(g, spec, index)
    partition = categorize(replica)
    return category_stats(replica, partition), triads.category_census(replica, partition)


_WORKER_STATE: dict = {}


def _init_worker(g: LedgerGraph, spec: EnsembleSpec) -> None:
    _WORKER_STATE["graph"] = g
    _WORKER_STATE["spec"] = spec


def _run_worker(index: int):
    return _replica_tables(_WORKER_STATE["graph"], _WORKER_STATE["spec"], index)


def run_ensemble(
    g: LedgerGraph,
    spec: EnsembleSpec,
    jobs: int = 1,
) -> tuple[list[dict[str, CategoryRow]], list[dict[str, dict[str, int]]]]:
    """Category statistics and category triad censuses of every replica.

    Each replica is built and categorised once and yields both tables; the
    censuses cover ``triads.DEFAULT_CENSUS_CATEGORIES``. Both lists are in
    replica-index order regardless of worker scheduling, so output is
    identical for any job count.
    """
    indices = range(spec.replicas)
    if jobs <= 1:
        pairs = [_replica_tables(g, spec, i) for i in indices]
    else:
        chunk = max(1, spec.replicas // (jobs * 4))
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(g, spec)
        ) as executor:
            pairs = list(executor.map(_run_worker, indices, chunksize=chunk))
    return [stats for stats, _ in pairs], [census for _, census in pairs]


_ZERO_ROW = CategoryRow(0, 0, 0, 0, 0, Decimal(0))


def _feature(stats: Mapping[str, CategoryRow], category: str, feature: str) -> float:
    return float(getattr(stats.get(category, _ZERO_ROW), feature))


def significance(
    empirical: Mapping[str, CategoryRow],
    ensemble: Sequence[Mapping[str, CategoryRow]],
    features: tuple[str, ...] = FEATURES,
) -> list[SignificanceCell]:
    """Score empirical category sizes against a replica ensemble.

    A category absent from a replica contributes zero for every feature in
    that replica (its table row is materialised as zeros). Requires at
    least 8 replicas for the Anderson-Darling approximation.
    """
    return score_ensemble(empirical, ensemble, CATEGORY_ORDER, features, _feature)
