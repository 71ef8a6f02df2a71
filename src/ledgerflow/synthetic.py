"""Deterministic synthetic ledgers with planted topological structures.

A scenario plants disjoint structures, each with a known category:

* ``cycles``: directed simple cycles (every member buys and sells once);
* ``cliques``: complete directed subgraphs, dense strongly connected
  components whose degree heterogeneity survives endpoint shuffling;
* ``stars``: collector stars, several senders feeding one collector;
* ``dyads``: isolated sender/receiver pairs.

Cycles and cliques categorise as ``scc0``; stars and dyads as ``dag0``.
The generator emits the expected per-node category alongside the
transactions so an analyzer can be held to the planted ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .ingest import Ledger
from .util import MAX_EPOCH, MIN_EPOCH

__all__ = ["ScenarioSpec", "SyntheticLedger", "generate_synthetic"]

_DEFAULT_START = 1_577_836_800  # 2020-01-01T00:00:00Z


@dataclass(frozen=True)
class ScenarioSpec:
    cycles: int = 0
    cycle_length: int = 3
    cliques: int = 0
    clique_size: int = 4
    stars: int = 0
    star_arms: int = 2
    dyads: int = 0
    start_time: int = _DEFAULT_START
    horizon: int = 30 * 86_400

    def __post_init__(self):
        if self.cycle_length < 2:
            raise ValueError("cycle_length must be >= 2")
        if self.clique_size < 2:
            raise ValueError("clique_size must be >= 2")
        if self.star_arms < 2:
            raise ValueError("star_arms must be >= 2 (one collector needs two senders)")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not MIN_EPOCH <= self.start_time <= self.start_time + self.horizon <= MAX_EPOCH:
            raise ValueError("start_time + horizon must stay within years 1..9999")


@dataclass(frozen=True)
class SyntheticLedger:
    transactions: Ledger
    node_category: dict[str, str]


def _amount(rng: np.random.Generator) -> Decimal:
    return Decimal(int(rng.integers(100, 50_001))).scaleb(-2)


def generate_synthetic(spec: ScenarioSpec, seed: int) -> SyntheticLedger:
    """Build the scenario's ledger; fully determined by (spec, seed)."""
    rng = np.random.default_rng(seed & (2**64 - 1))
    pending: list[tuple[str, str]] = []
    truth: dict[str, str] = {}

    for c in range(spec.cycles):
        names = [f"cyc{c:04d}n{i:02d}" for i in range(spec.cycle_length)]
        for name in names:
            truth[name] = "scc0"
        for i, name in enumerate(names):
            pending.append((name, names[(i + 1) % len(names)]))

    for q in range(spec.cliques):
        names = [f"clq{q:04d}n{i:02d}" for i in range(spec.clique_size)]
        for name in names:
            truth[name] = "scc0"
        for a in names:
            for b in names:
                if a != b:
                    pending.append((a, b))

    for s in range(spec.stars):
        collector = f"star{s:04d}c"
        truth[collector] = "dag0"
        for arm in range(spec.star_arms):
            sender = f"star{s:04d}a{arm:02d}"
            truth[sender] = "dag0"
            pending.append((sender, collector))

    for d in range(spec.dyads):
        a, b = f"dyad{d:04d}a", f"dyad{d:04d}b"
        truth[a] = "dag0"
        truth[b] = "dag0"
        pending.append((a, b))

    times = np.sort(rng.integers(0, spec.horizon, size=len(pending)))
    transactions = Ledger.from_columns(
        (spec.start_time + times).tolist(),
        [f"s{i:07d}" for i in range(len(pending))],
        [source for source, _ in pending],
        [target for _, target in pending],
        [_amount(rng) for _ in pending],
        ["STANDARD"] * len(pending),
    )
    return SyntheticLedger(transactions=transactions, node_category=truth)
