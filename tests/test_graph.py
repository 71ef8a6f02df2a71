import pickle
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow.errors import DataError
from ledgerflow.graph import aggregate, merge_links
from ledgerflow.util import dsum

from oracles import LinkRecord, graph_from_links, graph_of, ledger_of, links_of, rows_of, tx


def test_aggregate_accumulates_per_pair():
    g, diag = aggregate(ledger_of([tx("t1", 0, "A", "B", 5), tx("t2", 1, "A", "B", 7)]))
    assert g.link_count == 1
    record = links_of(g)[("A", "B")]
    assert record.count == 2
    assert record.volume == Decimal(12)
    assert diag.self_transfers_dropped == 0


def test_self_transfer_dropped_and_counted():
    g, diag = aggregate(ledger_of([tx("t1", 0, "A", "A", 5)]))
    assert g.node_count == 0
    assert g.link_count == 0
    assert diag.self_transfers_dropped == 1


def test_empty_input_gives_empty_graph():
    g, _ = aggregate(ledger_of([]))
    assert g.node_count == 0
    assert g.volume == Decimal(0)


def test_constructor_rejects_self_loops():
    with pytest.raises(DataError):
        graph_from_links({("A", "A"): LinkRecord(1, Decimal(1))})


def test_nodes_are_exactly_link_endpoints():
    g = graph_of([("B", "A"), ("C", "A")])
    assert g.nodes == ("A", "B", "C")
    assert [t for s, t in links_of(g) if s == "A"] == []
    assert [s for s, t in links_of(g) if t == "A"] == ["B", "C"]


def test_node_index_looks_accounts_up_by_name():
    g = graph_of([("B", "A"), ("C", "A")])
    assert g.node_index(g.nodes).tolist() == [0, 1, 2]
    # "BB" sorts between two nodes and "D" past the last: neither is a node.
    assert g.node_index(("A", "B", "BB", "C", "D")).tolist() == [0, 1, -1, 2, -1]
    assert g.node_index(()).tolist() == []


def test_the_ledger_without_self_transfers_is_numbered_as_the_graph():
    # "bs" is seen only in a self-transfer: it is no node, and no account of
    # the ledger without self-transfers, so "c" moves from code 3 to 2.
    ledger = ledger_of([tx("t1", 0, "a", "b"), tx("t2", 1, "bs", "bs"), tx("t3", 2, "b", "c")])
    g, diag = aggregate(ledger)
    clean = ledger.without_self_transfers()
    assert ledger.accounts == ("a", "b", "bs", "c")
    assert clean.accounts == g.nodes == ("a", "b", "c")
    assert (clean.source.tolist(), clean.target.tolist()) == ([0, 1], [1, 2])
    assert rows_of(clean) == [t for t in rows_of(ledger) if t.source != t.target]
    assert diag.self_transfers_dropped == len(ledger) - len(clean) == 1


def test_a_ledger_without_self_transfers_is_itself():
    ledger = ledger_of([tx("t1", 0, "a", "b"), tx("t2", 1, "b", "c")])
    assert ledger.without_self_transfers() is ledger


@pytest.mark.parametrize("n", [5, 46_340, 46_341, 2**16])  # int32 keys up to 46,340 nodes
def test_merge_links_sorts_pairs_at_any_node_count(n):
    sources = np.array([n - 1, 0, n - 1, 2, 0, 2])
    targets = np.array([n - 2, 3, n - 2, 1, 3, 4])
    merged_sources, merged_targets, link_of_row = merge_links(n, sources, targets)
    pairs = sorted(set(zip(sources.tolist(), targets.tolist())))
    assert list(zip(merged_sources.tolist(), merged_targets.tolist())) == pairs
    assert merged_sources.dtype == merged_targets.dtype == np.int64
    assert [pairs[k] for k in link_of_row] == list(zip(sources.tolist(), targets.tolist()))


def test_from_edges_merges_duplicates():
    g = graph_of([("A", "B"), ("A", "B")])
    assert g.link_count == 1
    assert links_of(g)[("A", "B")].count == 2
    # Doubled, a 30-digit amount needs more than the default 28 digits.
    wide = graph_of([("A", "B"), ("A", "B")], Decimal("1" * 30))
    assert links_of(wide)[("A", "B")].volume == wide.volume == Decimal("2" * 30)


def test_link_columns_are_read_only():
    g = graph_of([("A", "B"), ("B", "C")])
    assert list(g.counts) == [1, 1] and g.units.to_decimals() == [Decimal(1), Decimal(1)]
    with pytest.raises(ValueError):
        g.counts[0] = 2


def test_pickle_holds_the_columns_not_the_links_view():
    # A pickle holds the columns and must not grow once the view is built.
    g = graph_of([("A", "B"), ("B", "C"), ("A", "B")], Decimal("0.50"))
    before = pickle.dumps(g)
    assert links_of(g)
    assert pickle.dumps(g) == before
    copy = pickle.loads(before)
    assert links_of(copy) == links_of(g)
    assert (copy.nodes, copy.tx_count, copy.volume) == (g.nodes, g.tx_count, g.volume)


@pytest.mark.parametrize("small", ["0.50", "1E-30"], ids=["units", "decimal-fallback"])
def test_unpickled_columns_are_read_only(small):
    g = graph_from_links({("A", "B"): LinkRecord(2, Decimal(small)),
                          ("B", "C"): LinkRecord(1, Decimal("1E+10"))})
    assert (g.units.values is None) == (small == "1E-30")
    copy = pickle.loads(pickle.dumps(g))
    columns = (copy.sources, copy.targets, copy.counts, *copy.units.arrays)
    assert len(columns) == 4 + (g.units.values is not None)
    assert not any(column.flags.writeable for column in columns)
    assert str(copy.volume) == str(g.volume)


def test_link_order_independent_of_insertion():
    links = {
        ("B", "C"): LinkRecord(1, Decimal(2)),
        ("A", "B"): LinkRecord(1, Decimal(1)),
    }
    g1 = graph_from_links(links)
    g2 = graph_from_links(dict(reversed(links.items())))
    assert list(links_of(g1)) == list(links_of(g2)) == [("A", "B"), ("B", "C")]
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
    g, diag = aggregate(ledger_of(txs))
    non_self = [t for t in txs if t.source != t.target]
    assert dsum(rec.volume for rec in links_of(g).values()) == dsum(t.amount for t in non_self)
    assert sum(rec.count for rec in links_of(g).values()) == len(non_self)
    assert diag.self_transfers_dropped == len(txs) - len(non_self)
    assert g.tx_count == len(non_self)
