import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow.graph import aggregate
from ledgerflow.nullmodel import EnsembleSpec, RandomizationError, SwapMode, randomize, run_ensemble
from ledgerflow.synthetic import ScenarioSpec, generate_synthetic
from ledgerflow.topology import CATEGORY_ORDER, NodeCategory, categorize
from ledgerflow.errors import AnalysisError
from ledgerflow.triads import (
    DEFAULT_CENSUS_CATEGORIES, TRIAD_LABELS, category_census, label_census, triad_significance,
)

from conftest import random_digraph
from oracles import (
    brute_force_census, census, graph_census, graph_of, links_of, reference_label_census,
    walk_census,
)

MUTUAL_OR_CYCLIC = ("102", "111D", "111U", "030C", "201", "120D", "120U", "120C", "210", "300")
ZERO = dict.fromkeys(TRIAD_LABELS, 0)


def test_three_isolated_nodes():
    result = walk_census(["a", "b", "c"], [])
    assert result["003"] == 1
    assert sum(result.values()) == 1


@pytest.mark.parametrize(
    "edges,label",
    [
        ([("A", "B"), ("C", "B")], "021U"),   # two senders, one collector
        ([("A", "B"), ("B", "C")], "021C"),   # chain through a broker
        ([("B", "A"), ("B", "C")], "021D"),   # one distributor
    ],
)
def test_orientation_conventions(edges, label):
    result = walk_census(["A", "B", "C"], edges)
    assert result[label] == 1
    assert sum(result.values()) == 1
    ids = {"A": 0, "B": 1, "C": 2}
    assert census(3, *np.array([(ids[s], ids[t]) for s, t in edges]).T) == result


def _random_dag(rng: random.Random) -> tuple[int, list[int], list[tuple[int, int]]]:
    """(n, sparse node ids, links) of a random DAG; some nodes isolated,
    some graphs with a hub that touches most of the others."""
    n = rng.randrange(0, 30)
    ids = sorted(rng.sample(range(10 * n + 50), n))
    order = rng.sample(ids, n)  # links run from earlier to later nodes
    pairs = set()
    for _ in range(rng.randrange(0, 3 * n + 1) if n >= 2 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((order[a], order[b]))
    if n >= 4 and rng.random() < 0.5:
        hub = rng.randrange(n)
        for other in rng.sample(range(n), rng.randrange(n // 2, n)):
            if other != hub:
                pairs.add((order[min(hub, other)], order[max(hub, other)]))
    return n, ids, sorted(pairs)


def test_closed_form_matches_oracles_on_random_dags():
    rng = random.Random(6006)
    shapes = Counter()
    for _ in range(400):
        n, ids, pairs = _random_dag(rng)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        mine = census(n, ends[:, 0], ends[:, 1])
        assert mine == walk_census(ids, pairs) == brute_force_census(ids, pairs)
        assert sum(mine.values()) == n * (n - 1) * (n - 2) // 6
        shapes["n<3"] += n < 3
        shapes["m=0"] += not pairs
        shapes["isolated"] += len({v for p in pairs for v in p}) < n
        shapes["hub"] += max(Counter(v for p in pairs for v in p).values(), default=0) >= n // 2 >= 3
        shapes["030T"] += mine["030T"] > 0
    assert min(shapes.values()) >= 10, shapes


def _hub_dag(k: int, rng: random.Random) -> list[tuple[int, int]]:
    """Senders 0..k-1 -> hub 2k -> receivers k..2k-1, with sender chains and
    sender -> receiver shortcuts that close transitive triangles."""
    hub = 2 * k
    pairs = {(i, hub) for i in range(k)} | {(hub, k + i) for i in range(k)}
    pairs |= {tuple(sorted(rng.sample(range(k), 2))) for _ in range(k)}
    pairs |= {(rng.randrange(k), k + rng.randrange(k)) for _ in range(2 * k)}
    return sorted(pairs)


@pytest.mark.parametrize(
    "n,pairs",
    [
        (11, _hub_dag(5, random.Random(1))),
        (81, _hub_dag(40, random.Random(2))),
        (30, [(a, b) for a in range(30) for b in range(a + 1, 30)]),  # complete DAG
    ],
    ids=["hub-5", "hub-40", "complete-30"],
)
def test_closed_form_matches_oracles_on_dense_dags(n, pairs):
    rng = random.Random(n)
    ids = rng.sample(range(20 * n), n)  # sparse, shuffled node ids
    relabeled = [(ids[a], ids[b]) for a, b in pairs]
    ends = np.array(relabeled, dtype=np.int64)
    mine = census(n, ends[:, 0], ends[:, 1])
    assert mine == walk_census(sorted(ids), relabeled)
    assert sum(mine.values()) == n * (n - 1) * (n - 2) // 6
    if len(pairs) == n * (n - 1) // 2:
        assert mine["030T"] == n * (n - 1) * (n - 2) // 6


def test_closed_form_counts_nodes_without_links():
    assert census(5, np.array([7]), np.array([3])) == {**ZERO, "003": 7, "012": 3}
    assert census(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == ZERO
    assert census(2, np.array([0]), np.array([1])) == ZERO


@pytest.mark.parametrize(
    "n,pairs,message",
    [
        (2, [(0, 1), (1, 0)], "mutual dyad"),
        (4, [(5, 9), (9, 2), (2, 9)], "mutual dyad"),
        (3, [(0, 1), (1, 2), (2, 0)], "3-cycle"),
        (2, [(0, 1), (0, 1)], "parallel"),
        (1, [(4, 4)], "self-loop"),
        (2, [(0, 1), (1, 2)], "more than its 2 nodes"),
        # Receiver 52 links back to sender 39, which links to no sender and
        # not to 52: the cycle closes only through the hub, of degree 80.
        (81, _hub_dag(40, random.Random(3)) + [(52, 39)], "3-cycle"),
    ],
)
def test_closed_form_refuses_graphs_it_does_not_fit(n, pairs, message):
    ends = np.array(pairs, dtype=np.int64)
    with pytest.raises(AnalysisError, match=message):
        census(n, ends[:, 0], ends[:, 1])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([6, 15, 40]),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.sampled_from(list(SwapMode)))
def test_one_pass_census_matches_the_checked_census_per_category(rnd, max_nodes, density, mode):
    # The replica path's kernel runs none of census's checks; label must
    # hand it simple acyclic categories, on graphs and on their replicas.
    g = random_digraph(rnd, max_nodes, density)
    graphs = [g]
    try:
        graphs.append(randomize(g, mode, rnd.getrandbits(64)))
    except RandomizationError:
        pass
    for h in graphs:
        labels = categorize(h).labels
        table = label_census(labels, h.sources, h.targets)
        assert np.array_equal(table, reference_label_census(labels, h.sources, h.targets))
        assert np.array_equal(label_census(labels, h.sources, h.targets,
                                           DEFAULT_CENSUS_CATEGORIES[::-1]), table[::-1])
        for row, category in zip(table.tolist(), DEFAULT_CENSUS_CATEGORIES):
            code = CATEGORY_ORDER.index(category.value)
            owned = labels.link == code
            nodes = [h.nodes[v] for v in np.flatnonzero(labels.node == code)]
            links = [(h.nodes[s], h.nodes[t]) for s, t in zip(h.sources[owned], h.targets[owned])]
            assert dict(zip(TRIAD_LABELS, row)) == brute_force_census(nodes, links)


def test_one_pass_census_takes_acyclic_categories_only():
    g = graph_of([("A", "B"), ("B", "A")])
    with pytest.raises(ValueError, match="acyclic"):
        label_census(categorize(g).labels, g.sources, g.targets, (NodeCategory.SCC0,))


def test_census_matches_brute_force_on_random_graphs():
    rng = random.Random(101)
    for _ in range(150):
        g = random_digraph(rng, 12)
        mine = graph_census(g)
        assert mine == brute_force_census(g.nodes, links_of(g).keys())
        n = g.node_count
        assert sum(mine.values()) == n * (n - 1) * (n - 2) // 6


def test_census_rejects_self_loops():
    with pytest.raises(ValueError):
        walk_census(["a"], [("a", "a")])


def test_census_matches_networkx_when_available():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4242)
    for _ in range(60):
        g = random_digraph(rng, 25)
        G = nx.DiGraph()
        G.add_nodes_from(g.nodes)
        G.add_edges_from(links_of(g).keys())
        assert graph_census(g) == nx.triadic_census(G)


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(9))), st.randoms(use_true_random=False))
def test_relabeling_invariance(perm, rnd):
    pairs = set()
    for _ in range(15):
        a, b = rnd.randrange(9), rnd.randrange(9)
        if a != b:
            pairs.add((a, b))
    base = walk_census([str(i) for i in range(9)], [(str(a), str(b)) for a, b in pairs])
    relabeled = walk_census(
        [str(perm[i]) for i in range(9)],
        [(str(perm[a]), str(perm[b])) for a, b in pairs],
    )
    assert base == relabeled


def test_dag_category_subgraphs_have_no_mutual_or_cyclic_triads():
    rng = random.Random(55)
    for _ in range(40):
        g = random_digraph(rng, 40)
        tables = category_census(g, categorize(g))
        for table in tables.values():
            for label in MUTUAL_OR_CYCLIC:
                assert table[label] == 0


def test_category_census_collector_in_dag0():
    g = graph_of([("A", "B"), ("C", "B")])
    tables = category_census(g, categorize(g))
    assert tables["dag0"]["021U"] == 1


def test_two_node_category_has_empty_census():
    g = graph_of([("A", "B")])
    tables = category_census(g, categorize(g))
    assert sum(tables["dag0"].values()) == 0


def test_planted_collectors_count_in_dag0():
    ledger = generate_synthetic(ScenarioSpec(stars=50, star_arms=2), seed=4)
    g, _ = aggregate(ledger.transactions)
    tables = category_census(g, categorize(g))
    assert tables["dag0"]["021U"] >= 50


def test_boundary_links_never_enter_the_census():
    # dagTin component A,B,C feeds an SCC; the boundary link B->P must not
    # add triads with SCC nodes.
    g = graph_of(
        [("A", "B"), ("C", "B"), ("B", "P"), ("P", "Q"), ("Q", "P")]
    )
    tables = category_census(g, categorize(g))
    assert tables["dagTin"]["021U"] == 1
    assert sum(tables["dagTin"].values()) == 1  # only the {A, B, C} triple


def test_triad_significance_parallel_matches_serial():
    ledger = generate_synthetic(ScenarioSpec(cliques=5, clique_size=4, stars=10), seed=3)
    g, _ = aggregate(ledger.transactions)
    empirical = category_census(g, categorize(g))
    spec = EnsembleSpec(mode=SwapMode.BOTH, replicas=8, master_seed=6)
    _, parallel, _ = run_ensemble(g, spec, jobs=2)
    _, serial, _ = run_ensemble(g, spec, jobs=1)
    assert triad_significance(empirical, parallel) == triad_significance(empirical, serial)


def test_triad_absent_everywhere_is_undefined():
    ledger = generate_synthetic(ScenarioSpec(cliques=4, clique_size=4, stars=6), seed=9)
    g, _ = aggregate(ledger.transactions)
    empirical = category_census(g, categorize(g))
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=10, master_seed=1)
    cells = triad_significance(empirical, run_ensemble(g, spec)[1])
    by_key = {(c.category, c.feature): c for c in cells}
    cell = by_key[("dagTmix", "300")]  # impossible in any acyclic subgraph
    assert cell.empirical == 0.0
    assert cell.z is None
    assert cell.robust_z is None
