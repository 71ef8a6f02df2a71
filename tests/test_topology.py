import random
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow.graph import aggregate
from ledgerflow.nullmodel import EnsembleSpec, SwapMode, _replica
from ledgerflow.topology import (
    CATEGORY_ORDER,
    categorize,
    category_stats,
    label,
    one_time_users,
    tabulate,
)
from ledgerflow.util import dsum

from conftest import random_digraph, reweighted
from oracles import (
    dict_view,
    graph_from_links,
    graph_of,
    ledger_of,
    links_of,
    naive_categorize,
    reference_categorize,
    reference_category_stats,
    reference_labels,
    reference_wcc_count,
    strongly_connected_components,
    tarjan_sccs,
    tx,
    verify_partition,
)


def cats(g):
    p = dict_view(g, categorize(g))
    return {v: p.node_category[v].value for v in g.nodes}, p


def test_isolated_two_cycle_is_scc0():
    g = graph_of([("A", "B"), ("B", "A")])
    labels, p = cats(g)
    assert labels == {"A": "scc0", "B": "scc0"}
    assert all(a.kind.value == "internal" for a in p.edge_assignment.values())


def test_feeder_into_cycle():
    g = graph_of([("A", "B"), ("B", "C"), ("C", "A"), ("D", "A")])
    labels, p = cats(g)
    assert labels["D"] == "in-single-node"
    assert labels["A"] == labels["B"] == labels["C"] == "sccTin"
    assert p.edge_assignment[("D", "A")].component_id == p.node_component["D"]


def test_bridge_between_two_sccs():
    # A bridge connection leaves both SCCs in scc0: SCC-to-SCC contact,
    # direct or through a bridge node, does not change an SCC's class.
    g = graph_of(
        [("A", "B"), ("B", "C"), ("C", "A"),
         ("D", "E"), ("E", "F"), ("F", "D"),
         ("C", "G"), ("G", "E")]
    )
    labels, p = cats(g)
    assert labels["G"] == "bridge_scc"
    assert labels["A"] == "scc0"
    assert labels["D"] == "scc0"
    for pair in (("C", "G"), ("G", "E")):
        assignment = p.edge_assignment[pair]
        assert assignment.kind.value == "attachment"
        assert assignment.component_id == p.node_component["G"]


def test_chain_between_sccs_is_dag_tmix_not_bridge():
    g = graph_of(
        [("A", "B"), ("B", "C"), ("C", "A"),
         ("D", "E"), ("E", "F"), ("F", "D"),
         ("C", "G"), ("G", "H"), ("H", "E")]
    )
    labels, _ = cats(g)
    assert labels["G"] == labels["H"] == "dagTmix"
    assert labels["A"] == "sccTout"
    assert labels["D"] == "sccTin"


def test_direct_scc_to_scc_edge():
    g = graph_of(
        [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("B", "C")]
    )
    labels, p = cats(g)
    assert set(labels.values()) == {"scc0"}
    assert p.edge_assignment[("B", "C")].kind.value == "edge_scc2scc"


def test_single_receiving_from_two_sccs_is_out_single():
    g = graph_of(
        [("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("B", "X"), ("D", "X")]
    )
    labels, _ = cats(g)
    assert labels["X"] == "out-single-node"
    assert labels["A"] == "sccTout"


def test_isolated_dag_categories():
    g = graph_of(
        [("A", "B"), ("C", "B"),                      # dag0 collector
         ("P", "Q"), ("Q", "P"),                      # scc0 dyad cycle
         ("B", "P"),                                  # dag -> scc boundary
         ("Q", "R"), ("R", "S")]                      # scc -> dag chain
    )
    labels, p = cats(g)
    assert labels["A"] == labels["B"] == labels["C"] == "dagTin"
    assert labels["R"] == labels["S"] == "dagTout"
    assert labels["P"] == "sccTmix"
    assert p.edge_assignment[("B", "P")].kind.value == "edge_dag2scc"
    assert p.edge_assignment[("Q", "R")].kind.value == "edge_scc2dag"


def test_oracle_equivalence_on_random_digraphs():
    rng = random.Random(42)
    for _ in range(60):
        g = random_digraph(rng, 40)
        p = dict_view(g, categorize(g))
        node_view, edge_view = naive_categorize(g)
        for v in g.nodes:
            members = frozenset(p.components[p.node_component[v]])
            assert (p.node_category[v].value, members) == node_view[v]
        for pair, assignment in p.edge_assignment.items():
            owner = (
                frozenset(p.components[assignment.component_id])
                if assignment.component_id
                else None
            )
            assert (assignment.kind.value, owner) == edge_view[pair]


def test_categorize_matches_dict_reference():
    # The array categoriser against the Tarjan/union-find one it replaced,
    # node for node and link for link, and the bincount stats likewise.
    rng = random.Random(2024)
    for _ in range(150):
        g = reweighted(random_digraph(rng, rng.choice([6, 40, 120])), rng)
        partition, ref = categorize(g), reference_categorize(g)
        p = dict_view(g, partition)
        assert partition.node_category == ref.node_category
        assert p.node_category == ref.node_category
        assert p.node_component == ref.node_component
        assert p.components == ref.components
        assert p.component_category == ref.component_category
        assert p.edge_assignment == ref.edge_assignment
        assert list(p.edge_assignment) == list(links_of(g))
        for mine, theirs in zip(partition.labels, reference_labels(g, ref)):
            assert mine.tolist() == theirs.tolist()
        assert category_stats(g, partition) == reference_category_stats(g, ref)
        assert set(strongly_connected_components(g)) == set(tarjan_sccs(g))


def test_partition_verifies_on_random_digraphs():
    rng = random.Random(7)
    for _ in range(100):
        g = random_digraph(rng, 80)
        verify_partition(g, dict_view(g, categorize(g)))


def test_sccs_match_networkx_when_available():
    nx = pytest.importorskip("networkx")

    rng = random.Random(4243)
    for _ in range(60):
        g = random_digraph(rng, 60)
        mine = {frozenset(c) for c in strongly_connected_components(g)}
        theirs = {frozenset(c) for c in nx.strongly_connected_components(nx.DiGraph(list(links_of(g))))}
        assert mine == theirs


def test_completeness_identities():
    rng = random.Random(3)
    for _ in range(50):
        g = random_digraph(rng, 60)
        stats = category_stats(g, categorize(g))
        assert sum(r.node_count for r in stats.values()) == g.node_count
        assert sum(r.link_count for r in stats.values()) == g.link_count
        assert sum(r.tx_count for r in stats.values()) == g.tx_count
        assert dsum(r.volume for r in stats.values()) == g.volume


def test_determinism_under_insertion_order():
    rng = random.Random(13)
    g = random_digraph(rng, 50)
    shuffled = list(links_of(g).items())
    rng.shuffle(shuffled)
    g2 = graph_from_links(dict(shuffled))
    p1, p2 = dict_view(g, categorize(g)), dict_view(g2, categorize(g2))
    assert p1.node_category == p2.node_category
    assert p1.node_component == p2.node_component
    assert p1.edge_assignment == p2.edge_assignment


def test_idempotence_on_component_subgraphs():
    rng = random.Random(99)
    g = random_digraph(rng, 60)
    p = dict_view(g, categorize(g))
    for cid, members in p.components.items():
        if len(members) < 2:
            continue
        member_set = set(members)
        internal = {
            pair: links_of(g)[pair]
            for pair, a in p.edge_assignment.items()
            if a.component_id == cid and pair[0] in member_set and pair[1] in member_set
        }
        sub = graph_from_links(internal)
        sub_p = dict_view(sub, categorize(sub))
        assert set(sub.nodes) == member_set
        assert len(sub_p.components) == 1
        (sub_members,) = sub_p.components.values()
        assert set(sub_members) == member_set
        expected = "scc0" if p.component_category[cid].is_scc else "dag0"
        assert next(iter(sub_p.component_category.values())).value == expected


def test_category_stats_feeder_example():
    g = graph_of([("A", "B"), ("B", "C"), ("C", "A"), ("D", "A")])
    stats = category_stats(g, categorize(g))
    assert stats["sccTin"].node_count == 3
    assert stats["sccTin"].link_count == 3
    assert stats["sccTin"].scc_count == 1
    assert stats["in-single-node"].node_count == 1
    assert stats["in-single-node"].link_count == 1
    assert dsum(r.volume for r in stats.values()) == g.volume


def test_category_stats_empty_graph():
    g, _ = aggregate(ledger_of([]))
    stats = category_stats(g, categorize(g))
    assert set(stats) == set(CATEGORY_ORDER)
    assert all(
        (r.scc_count, r.wcc_count, r.node_count, r.link_count, r.tx_count) == (0, 0, 0, 0, 0)
        and r.volume == Decimal(0)
        for r in stats.values()
    )


def test_wcc_groups_singles_sharing_a_hub():
    # X and Y feed the same hub A so they land in one weak component of the
    # attachment-link subgraph; Z feeds B and stays separate.
    g = graph_of(
        [("A", "B"), ("B", "C"), ("C", "A"), ("X", "A"), ("Y", "A"), ("Z", "B")]
    )
    stats = category_stats(g, categorize(g))
    assert stats["in-single-node"].node_count == 3
    assert stats["in-single-node"].wcc_count == 2


def _wcc_counts(n, sources, targets):
    """``tabulate``'s wcc column and the one-pass reference count."""
    labels, component = label(n, sources, targets)
    table, _ = tabulate(labels, component, sources, targets, np.ones(sources.size, dtype=np.int64))
    return table[:, 1].tolist(), reference_wcc_count(labels, sources, targets).tolist()


def test_wcc_count_matches_the_one_pass_reference_on_random_digraphs():
    rng = random.Random(23)
    for trial in range(60):
        g = random_digraph(rng, rng.choice([6, 40, 150]))
        mine, reference = _wcc_counts(g.node_count, g.sources, g.targets)
        assert mine == reference
        # replicas: the swapped graph, its parallel links merged
        spec = EnsembleSpec(mode=rng.choice(list(SwapMode)), replicas=1, master_seed=trial)
        sources, targets, _, _ = _replica(g, spec, 0)
        mine, reference = _wcc_counts(g.node_count, sources, targets)
        assert mine == reference


def _cycle(name: str, size: int = 2) -> list[tuple[str, str]]:
    return [(f"{name}{k}", f"{name}{(k + 1) % size}") for k in range(size)]


@pytest.mark.parametrize("links, expected", [
    # bridge_scc: hubs H and J share the cycle a's node a0, so they form one
    # component with their many attachment links; K joins e to f alone. A
    # bridge's links leave its cycles' boundary flags unset.
    ([*_cycle("a"), *_cycle("b"), *_cycle("c"), *_cycle("d"), *_cycle("e"), *_cycle("f"),
      ("a0", "H"), ("b0", "H"), ("H", "c0"), ("H", "d0"), ("H", "d1"), ("a0", "J"), ("J", "d0"),
      ("e0", "K"), ("K", "f0")],
     {"bridge_scc": 2, "scc0": 6, "in-single-node": 0, "out-single-node": 0}),
    # edge_* chains: a -> b -> c directly through b0, b -> c once more from
    # b1, and c -> x -> y -> d through a DAG
    ([*_cycle("a", 3), *_cycle("b"), *_cycle("c"), *_cycle("d"), ("a0", "b0"), ("b0", "c0"),
      ("b1", "c1"), ("c1", "x"), ("x", "y"), ("y", "d0")],
     {"edge_scc2scc": 2, "edge_scc2dag": 1, "edge_dag2scc": 1, "dagTmix": 1}),
    # every link inside a cyclic or acyclic component: the pass is empty
    ([*_cycle("a", 3), *_cycle("b"), ("x", "y"), ("y", "z"), ("w", "y")],
     {"scc0": 2, "dag0": 1, "bridge_scc": 0, "in-single-node": 0}),
    # the empty graph
    ([], {label: 0 for label in CATEGORY_ORDER}),
])
def test_wcc_count_on_planted_graphs(links, expected):
    g = graph_of(links)
    mine, reference = _wcc_counts(g.node_count, g.sources, g.targets)
    assert mine == reference
    assert {label: mine[CATEGORY_ORDER.index(label)] for label in expected} == expected
    stats = reference_category_stats(g, reference_categorize(g))
    assert mine == [stats[label].wcc_count for label in CATEGORY_ORDER]


def test_one_time_users_directions():
    txs = [
        tx("t1", 0, "A", "B", 2),
        tx("t2", 1, "B", "C", 3),
        tx("t3", 2, "C", "A", 4),
        tx("t4", 3, "D", "A", 10),     # D: exactly one outgoing
        tx("t5", 4, "A", "E", 7),      # E: exactly one incoming
        tx("t6", 5, "A", "B", 1),      # A, B, C recirculate
    ]
    g, _ = aggregate(ledger_of(txs))
    table = one_time_users(g, categorize(g))
    assert table.rows["in-single-node"].one_outgoing == 1
    assert table.rows["in-single-node"].outgoing_volume == Decimal(10)
    assert table.rows["out-single-node"].one_incoming == 1
    assert table.rows["out-single-node"].incoming_volume == Decimal(7)
    assert table.total.one_outgoing == 1
    assert table.total.one_incoming == 1


def test_one_time_volume_is_not_rounded():
    # 32 significant digits: more than the default 28-digit context keeps.
    amount = "0.12345678901234567890123456789012"
    txs = [
        tx("t1", 0, "A", "B", 2),
        tx("t2", 1, "B", "A", 3),
        tx("t3", 2, "D", "A", amount),
    ]
    g, _ = aggregate(ledger_of(txs))
    partition = categorize(g)
    table = one_time_users(g, partition)
    assert str(table.rows["in-single-node"].outgoing_volume) == amount
    assert str(table.total.outgoing_volume) == amount
    assert str(category_stats(g, partition)["in-single-node"].volume) == amount


def test_user_with_one_in_and_one_out_is_not_one_time():
    txs = [
        tx("t1", 0, "A", "B", 2),
        tx("t2", 1, "B", "A", 2),
        tx("t3", 2, "A", "B", 2),
    ]
    g, _ = aggregate(ledger_of(txs))
    table = one_time_users(g, categorize(g))
    assert not table.rows  # A sent twice/received once; B 2 tx total


edge_lists = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_partition_properties_hold_on_arbitrary_digraphs(pairs):
    g = graph_of((f"n{a}", f"n{b}") for a, b in set(pairs))
    p = categorize(g)
    verify_partition(g, dict_view(g, p))
    stats = category_stats(g, p)
    assert sum(r.node_count for r in stats.values()) == g.node_count
    assert dsum(r.volume for r in stats.values()) == g.volume
