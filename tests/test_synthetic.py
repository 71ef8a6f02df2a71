import pytest

from ledgerflow.graph import aggregate
from ledgerflow.synthetic import ScenarioSpec, generate_synthetic
from ledgerflow.topology import categorize
from ledgerflow.triads import category_census

from oracles import dict_view, rows_of, verify_partition


def test_single_cycle_is_isolated_scc():
    ledger = generate_synthetic(ScenarioSpec(cycles=1, cycle_length=3), seed=1)
    g, _ = aggregate(ledger.transactions)
    partition = categorize(g)
    assert len(dict_view(g, partition).components) == 1
    assert {c.value for c in partition.node_category.values()} == {"scc0"}


def test_single_star_is_dag0_with_collector_triad():
    ledger = generate_synthetic(ScenarioSpec(stars=1, star_arms=2), seed=1)
    g, _ = aggregate(ledger.transactions)
    partition = categorize(g)
    assert {c.value for c in partition.node_category.values()} == {"dag0"}
    assert category_census(g, partition)["dag0"]["021U"] == 1


def test_mixed_scenario_matches_ground_truth():
    spec = ScenarioSpec(
        cycles=150, cycle_length=4, cliques=100, clique_size=4, stars=150, dyads=100
    )
    ledger = generate_synthetic(spec, seed=5)
    g, _ = aggregate(ledger.transactions)
    partition = categorize(g)
    verify_partition(g, dict_view(g, partition))
    assert {v: c.value for v, c in partition.node_category.items()} == ledger.node_category


def test_generation_is_deterministic():
    spec = ScenarioSpec(cycles=3, stars=4, dyads=5)

    def generated(seed):
        ledger = generate_synthetic(spec, seed=seed)
        return rows_of(ledger.transactions), ledger.node_category

    assert generated(9) == generated(9)
    assert generated(9) != generated(10)


def test_transactions_are_time_sorted_standard_subtype():
    ledger = generate_synthetic(ScenarioSpec(cycles=5, stars=5), seed=2)
    stamps = [t.timestamp for t in rows_of(ledger.transactions)]
    assert stamps == sorted(stamps)
    assert {t.subtype for t in rows_of(ledger.transactions)} == {"STANDARD"}


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(cycle_length=1)
    with pytest.raises(ValueError):
        ScenarioSpec(star_arms=1)
