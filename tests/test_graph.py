import pickle
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow.errors import DataError
from ledgerflow.graph import LedgerGraph, LinkRecord, aggregate
from ledgerflow.util import dsum

from oracles import tx


def test_aggregate_accumulates_per_pair():
    g, diag = aggregate([tx("t1", 0, "A", "B", 5), tx("t2", 1, "A", "B", 7)])
    assert g.link_count == 1
    record = g.links[("A", "B")]
    assert record.count == 2
    assert record.volume == Decimal(12)
    assert diag.self_transfers_dropped == 0


def test_self_transfer_dropped_and_counted():
    g, diag = aggregate([tx("t1", 0, "A", "A", 5)])
    assert g.node_count == 0
    assert g.link_count == 0
    assert diag.self_transfers_dropped == 1


def test_empty_input_gives_empty_graph():
    g, _ = aggregate([])
    assert g.node_count == 0
    assert g.volume == Decimal(0)


def test_constructor_rejects_self_loops():
    with pytest.raises(DataError):
        LedgerGraph({("A", "A"): LinkRecord(1, Decimal(1))})


def test_nodes_are_exactly_link_endpoints():
    g = LedgerGraph.from_edges([("B", "A"), ("C", "A")])
    assert g.nodes == ("A", "B", "C")
    assert [t for s, t in g.links if s == "A"] == []
    assert [s for s, t in g.links if t == "A"] == ["B", "C"]


def test_from_edges_merges_duplicates():
    g = LedgerGraph.from_edges([("A", "B"), ("A", "B")])
    assert g.link_count == 1
    assert g.links[("A", "B")].count == 2
    # Doubled, a 30-digit amount needs more than the default 28 digits.
    wide = LedgerGraph.from_edges([("A", "B"), ("A", "B")], Decimal("1" * 30))
    assert wide.links[("A", "B")].volume == wide.volume == Decimal("2" * 30)


def test_links_view_is_read_only_and_built_once():
    g = LedgerGraph.from_edges([("A", "B"), ("B", "C")])
    assert g.links is g.links
    with pytest.raises(TypeError):
        g.links[("A", "C")] = LinkRecord(1, Decimal(1))
    assert list(g.counts) == [1, 1] and list(g.volumes) == [Decimal(1), Decimal(1)]
    with pytest.raises(ValueError):
        g.counts[0] = 2


def test_pickle_holds_the_columns_not_the_links_view():
    # What a pool worker receives must not grow once the view is built.
    g = LedgerGraph.from_edges([("A", "B"), ("B", "C"), ("A", "B")], Decimal("0.50"))
    before = pickle.dumps(g)
    assert g.links
    assert pickle.dumps(g) == before
    copy = pickle.loads(before)
    assert copy.links == g.links
    assert (copy.nodes, copy.tx_count, copy.volume) == (g.nodes, g.tx_count, g.volume)


def test_link_order_independent_of_insertion():
    links = {
        ("B", "C"): LinkRecord(1, Decimal(2)),
        ("A", "B"): LinkRecord(1, Decimal(1)),
    }
    g1 = LedgerGraph(links)
    g2 = LedgerGraph(dict(reversed(links.items())))
    assert list(g1.links) == list(g2.links) == [("A", "B"), ("B", "C")]
    assert g1.nodes == g2.nodes


amounts = st.decimals(
    min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False, places=2
)


@st.composite
def transaction_batches(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    names = ["a", "b", "c", "d", "e"]
    return [
        tx(
            f"t{i:03d}",
            draw(st.integers(min_value=0, max_value=1000)),
            draw(st.sampled_from(names)),
            draw(st.sampled_from(names)),
            draw(amounts),
        )
        for i in range(n)
    ]


@settings(max_examples=100, deadline=None)
@given(transaction_batches())
def test_aggregation_conserves_mass_and_count(txs):
    g, diag = aggregate(txs)
    non_self = [t for t in txs if t.source != t.target]
    assert dsum(rec.volume for rec in g.links.values()) == dsum(t.amount for t in non_self)
    assert sum(rec.count for rec in g.links.values()) == len(non_self)
    assert diag.self_transfers_dropped == len(txs) - len(non_self)
    assert g.tx_count == len(non_self)
