"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Criterion 9 needs the real 2020-2021 ledger and is
skipped unless SARAFU_LEDGER_CSV points at it.
"""

import os
import random
import time
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest

from ledgerflow.degrees import degree_stats
from ledgerflow.graph import aggregate
from ledgerflow.ingest import parse_ledger
from ledgerflow.nullmodel import (
    EnsembleSpec,
    SwapMode,
    derive_seed,
    randomize,
    run_ensemble,
)
from ledgerflow.recirculation import classify_ops, crosstab, extract_ops, user_signatures
from ledgerflow.stats import score_ensemble
from ledgerflow.synthetic import ScenarioSpec, generate_synthetic
from ledgerflow.topology import (
    EdgeKind,
    categorize,
    category_stats,
)
from ledgerflow.triads import category_census, triad_significance
from ledgerflow.util import dsum

from conftest import random_digraph
from oracles import (
    brute_force_census,
    dict_view,
    graph_census,
    graph_of,
    ledger_of,
    links_of,
    naive_categorize,
    oracle_extract_ops,
    ops_of,
    robust_z_score,
    strongly_connected_components,
    swapped_links,
    tx,
    verify_partition,
    z_score,
)

MUTUAL_OR_CYCLIC = ("102", "111D", "111U", "030C", "201", "120D", "120U", "120C", "210", "300")

GENERATOR_SCENARIOS = [
    ScenarioSpec(cycles=20, cycle_length=3),
    ScenarioSpec(cliques=10, clique_size=5),
    ScenarioSpec(stars=40, star_arms=3),
    ScenarioSpec(dyads=50),
    ScenarioSpec(cycles=30, cycle_length=4, cliques=15, clique_size=4, stars=60, dyads=40),
]


def _report(criterion: str, elapsed: float, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s){suffix}")


def _check_partition(g):
    partition = categorize(g)
    # strong connectivity + acyclicity + exclusivity
    verify_partition(g, dict_view(g, partition))
    stats = category_stats(g, partition)
    assert sum(r.node_count for r in stats.values()) == g.node_count
    assert sum(r.link_count for r in stats.values()) == g.link_count
    assert sum(r.tx_count for r in stats.values()) == g.tx_count
    assert dsum(r.volume for r in stats.values()) == g.volume


def test_criterion_1_partition_completeness():
    start = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(1000):
        _check_partition(random_digraph(rng, 200))
    for i, spec in enumerate(GENERATOR_SCENARIOS):
        ledger = generate_synthetic(spec, seed=i)
        g, _ = aggregate(ledger.transactions)
        _check_partition(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("1 partition completeness", elapsed, "1000 digraphs + 5 scenarios")


def test_criterion_2_categorisation_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2002)
    for trial in range(200):
        g = random_digraph(rng, 50)
        partition = dict_view(g, categorize(g))
        node_view, edge_view = naive_categorize(g)
        for v in g.nodes:
            members = frozenset(partition.components[partition.node_component[v]])
            assert (partition.node_category[v].value, members) == node_view[v], (trial, v)
        for pair, assignment in partition.edge_assignment.items():
            owner = (
                frozenset(partition.components[assignment.component_id])
                if assignment.component_id
                else None
            )
            assert (assignment.kind.value, owner) == edge_view[pair], (trial, pair)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("2 categorisation oracle equivalence", elapsed, "200 digraphs, n <= 50")


def test_criterion_3_null_model_conservation_determinism():
    start = time.perf_counter()
    rng = random.Random(3003)
    pairs = set()
    while len(pairs) < 5000:
        a, b = rng.randrange(1600), rng.randrange(1600)
        if a != b:
            pairs.add((f"v{a:04d}", f"v{b:04d}"))
    g = graph_of(sorted(pairs))
    source_multiset = Counter(s for (s, _), _ in links_of(g).items())
    target_multiset = Counter(t for (_, t), _ in links_of(g).items())

    for mode in SwapMode:
        for i in range(100):
            seed = derive_seed(33, i)
            triples = swapped_links(g, mode, seed)
            assert Counter(s for s, _, _ in triples) == source_multiset
            assert Counter(t for _, t, _ in triples) == target_multiset
            replica = randomize(g, mode, seed)
            assert replica.tx_count == g.tx_count
            assert replica.volume == g.volume
            assert replica.link_count <= g.link_count
            assert links_of(randomize(g, mode, seed)) == links_of(replica)  # bit-identical
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("3 null-model conservation + determinism", elapsed, "3 modes x 100 replicas, 5000 links")


def test_criterion_4_randomization_collapses_cyclic_diversity():
    start = time.perf_counter()
    spec = ScenarioSpec(cliques=24, clique_size=5, stars=40, star_arms=2, dyads=20)
    ledger = generate_synthetic(spec, seed=7)
    g, _ = aggregate(ledger.transactions)
    empirical = category_stats(g, categorize(g))
    planted = sum(r.scc_count for r in empirical.values())
    assert planted >= 20

    single_scc = 0
    for i in range(100):
        replica = randomize(g, SwapMode.TARGET, derive_seed(99, i))
        stats = category_stats(replica, categorize(replica))
        if sum(r.scc_count for r in stats.values()) == 1:
            single_scc += 1
    elapsed = time.perf_counter() - start
    assert single_scc >= 95, f"only {single_scc}/100 replicas collapsed to one SCC"
    _report("4 randomization collapses cyclic diversity", elapsed, f"{single_scc}/100 single-SCC")


def test_criterion_5_triad_census_identities():
    start = time.perf_counter()
    rng = random.Random(5005)
    for _ in range(500):
        g = random_digraph(rng, 15)
        counts = graph_census(g)
        assert counts == brute_force_census(g.nodes, links_of(g).keys())
        n = g.node_count
        assert sum(counts.values()) == n * (n - 1) * (n - 2) // 6
        partition = categorize(g)
        view = dict_view(g, partition)
        for label, table in category_census(g, partition).items():
            for triad in MUTUAL_OR_CYCLIC:
                assert table[triad] == 0
            nodes = [v for v, c in view.node_category.items() if c.value == label]
            links = [
                pair for pair, a in view.edge_assignment.items()
                if a.kind is EdgeKind.INTERNAL
                and view.component_category[a.component_id].value == label
            ]
            assert table == brute_force_census(nodes, links)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("5 triad census identities", elapsed, "500 digraphs, n <= 15")


def test_criterion_6_planted_collector_significance():
    start = time.perf_counter()
    spec = ScenarioSpec(cliques=30, clique_size=5, stars=50, star_arms=2, dyads=20)
    ledger = generate_synthetic(spec, seed=11)
    g, _ = aggregate(ledger.transactions)
    census_tables = category_census(g, categorize(g))
    assert census_tables["dag0"]["021U"] >= 50

    ensemble_spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=200, master_seed=5)
    _, census_ensemble, _ = run_ensemble(g, ensemble_spec)
    cells = triad_significance(census_tables, census_ensemble)
    cell = next(c for c in cells if c.category == "dag0" and c.feature == "021U")
    elapsed = time.perf_counter() - start
    assert cell.robust_z is not None
    assert cell.robust_z > 10.0, f"robust z {cell.robust_z}"
    _report("6 planted-collector significance", elapsed, f"robust_z={cell.robust_z:.1f}")


def test_criterion_7_recirculation_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(7007)
    for trial in range(1000):
        n = rng.randrange(1, 51)
        txs = []
        for i in range(n):
            stamp = rng.randrange(0, 30)  # narrow range forces ties
            other = rng.choice(["a", "b", "c"])
            if rng.random() < 0.5:
                txs.append(tx(f"x{i:03d}", stamp, other, "u"))
            else:
                txs.append(tx(f"x{i:03d}", stamp, "u", other))
        txs.sort(key=lambda t: (t.timestamp, t.tx_id))
        ops = ops_of(extract_ops(ledger_of(txs)))
        mine = [(o.user, o.first_in, o.last_out, o.in_tx_ids, o.out_tx_ids) for o in ops]
        assert mine == oracle_extract_ops(txs), trial
        per_user: dict[str, list] = {}
        for op in ops:
            assert op.duration >= 0
            per_user.setdefault(op.user, []).append(op)
        for sequence in per_user.values():
            for left, right in zip(sequence, sequence[1:]):
                assert left.last_out < right.first_in
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("7 recirculation oracle equivalence", elapsed, "1000 streams with ties")


def test_criterion_8_statistical_kernels():
    start = time.perf_counter()
    assert z_score(10, [2, 4, 6]) == pytest.approx(3.0, abs=1e-12)
    assert robust_z_score(10, [1, 2, 3, 4, 5]) == pytest.approx(3.5, abs=1e-12)

    def normality(samples: np.ndarray) -> str:  # of one cell of 10,000 replicas
        (cell,) = score_ensemble(np.zeros((1, 1)), samples.reshape(-1, 1, 1), ["a"], ["x"])
        return cell.normality

    rejected_uniform = 0
    accepted_normal = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        if normality(rng.uniform(size=10_000)) == "rejected":
            rejected_uniform += 1
        if normality(rng.normal(size=10_000)) == "not_rejected":
            accepted_normal += 1
    elapsed = time.perf_counter() - start
    assert rejected_uniform >= 18, f"uniform rejected only {rejected_uniform}/20"
    assert accepted_normal >= 18, f"normal accepted only {accepted_normal}/20"
    _report(
        "8 statistical kernels",
        elapsed,
        f"uniform {rejected_uniform}/20 rejected, normal {accepted_normal}/20 accepted",
    )


SARAFU_ENV = "SARAFU_LEDGER_CSV"


@pytest.mark.skipif(
    SARAFU_ENV not in os.environ,
    reason=f"set {SARAFU_ENV} to the 2020-2021 user-to-user ledger CSV to run",
)
def test_criterion_9_sarafu_reproduction():
    start = time.perf_counter()
    transactions, diagnostics = parse_ledger(os.environ[SARAFU_ENV])
    g, _ = aggregate(transactions)

    mismatches: list[str] = []

    def check(name, actual, expected, tolerance=0):
        if tolerance:
            ok = abs(actual - expected) <= tolerance
        else:
            ok = actual == expected
        if not ok:
            mismatches.append(f"{name}: got {actual}, expected {expected}")

    check("nodes", g.node_count, 39_433)
    check("transactions", g.tx_count, 360_117)
    check("volume", g.volume, Decimal("182605612.73"))

    partition = categorize(g)
    stats = category_stats(g, partition)
    check("sccTmix WCCs", stats["sccTmix"].wcc_count, 67)
    check("sccTmix nodes", stats["sccTmix"].node_count, 20_173)
    check("sccTmix tx", stats["sccTmix"].tx_count, 318_567)
    check("sccTmix volume", stats["sccTmix"].volume, Decimal("175590852.21"))
    largest = max(
        (len(c) for c in strongly_connected_components(g)), default=0
    )
    check("largest SCC", largest, 19_737)

    ops = extract_ops(transactions.without_self_transfers())
    classified = classify_ops(ops)
    check("operations", len(ops), 123_741)
    signatures = user_signatures(classified)
    check("recirculating users", len(signatures), 9_984)
    tables = crosstab(g, partition, classified, signatures)
    check("tx in operations", tables.coverage.tx_in_ops, 328_191)
    check("Q1 seconds", classified.boundaries.q1, 19 * 60 + 39, tolerance=60)
    check("Q2 seconds", classified.boundaries.q2, 10 * 3600 + 3 * 60, tolerance=60)
    check("Q3 seconds", classified.boundaries.q3, 86_400 + 21 * 3600, tolerance=60)

    degrees = degree_stats(g)
    check("alpha_in", degrees.alpha_in.alpha, 1.53, tolerance=0.05)
    check("alpha_out", degrees.alpha_out.alpha, 1.47, tolerance=0.05)
    check("pearson", degrees.pearson_tx_vs_volume, 0.58, tolerance=0.02)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"pipeline without ensembles took {elapsed:.0f}s"
    # Preprocessing differences (the unpublished system-account list) must be
    # reported, not silently absorbed.
    assert not mismatches, "; ".join(mismatches) + f" | diagnostics={diagnostics.__dict__}"
    _report("9 dataset reproduction", elapsed)
