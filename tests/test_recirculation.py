import random
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledgerflow.errors import DataError
from ledgerflow.graph import aggregate
from ledgerflow.ingest import Ledger
from ledgerflow.pipeline import strategy_report
from ledgerflow.recirculation import (
    SIGNATURE_KEYS,
    FrequencyCategory,
    classify_ops,
    crosstab,
    extract_ops,
    user_categories,
    user_signatures,
)
from ledgerflow.topology import categorize, category_stats, one_time_users

from oracles import (
    categories_of,
    dict_view,
    ledger_of,
    oracle_extract_ops,
    ops_of,
    reference_crosstab,
    reference_extract_ops,
    reference_hfq1_only,
    rows_of,
    signatures_of,
    tx,
)


def test_window_with_closing_incoming():
    # receive at t, t+1; send at t+2, t+3; receive at t+4 closes the window
    txs = [
        tx("t1", 100, "x", "u"),
        tx("t2", 101, "y", "u"),
        tx("t3", 102, "u", "x"),
        tx("t4", 103, "u", "y"),
        tx("t5", 104, "x", "u"),
    ]
    ops = [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"]
    assert len(ops) == 1
    op = ops[0]
    assert op.duration == 3  # last_out - first_in
    assert op.in_tx_ids == ("t1", "t2")
    assert op.out_tx_ids == ("t3", "t4")


def test_only_outgoing_yields_no_ops():
    txs = [tx("t1", 0, "u", "a"), tx("t2", 1, "u", "b")]
    assert [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"] == []


def test_trailing_in_run_yields_no_op():
    txs = [tx("t1", 0, "a", "u"), tx("t2", 1, "u", "a"), tx("t3", 2, "b", "u")]
    ops = [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"]
    assert len(ops) == 1
    assert ops[0].out_tx_ids == ("t2",)


def test_outgoing_before_first_incoming_ignored():
    txs = [tx("t1", 0, "u", "a"), tx("t2", 1, "a", "u"), tx("t3", 2, "u", "b")]
    ops = [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"]
    assert len(ops) == 1
    assert ops[0].in_tx_ids == ("t2",)
    assert ops[0].out_tx_ids == ("t3",)


def test_tie_incoming_sorts_before_outgoing():
    # Same timestamp: funds arrive before they move, so both transactions
    # fall into one operation of duration zero.
    txs = [tx("t1", 50, "a", "u"), tx("t2", 50, "u", "b")]
    ops = [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"]
    assert len(ops) == 1
    assert ops[0].duration == 0


def _random_stream(rng: random.Random, user: str, others: list[str], n: int):
    txs = []
    for i in range(n):
        stamp = rng.randrange(0, 40)  # narrow window forces timestamp ties
        other = rng.choice(others)
        if rng.random() < 0.5:
            txs.append(tx(f"{user}_{i:03d}", stamp, other, user))
        else:
            txs.append(tx(f"{user}_{i:03d}", stamp, user, other))
    return sorted(txs, key=lambda t: (t.timestamp, t.tx_id))


def test_matches_state_machine_oracle_on_random_streams():
    rng = random.Random(77)
    for trial in range(200):
        txs = _random_stream(rng, "u", ["a", "b"], rng.randrange(1, 50))
        mine = [
            (op.user, op.first_in, op.last_out, op.in_tx_ids, op.out_tx_ids)
            for op in ops_of(extract_ops(ledger_of(txs)))
        ]
        assert mine == oracle_extract_ops(txs), trial


def test_ops_are_time_disjoint_and_ordered():
    rng = random.Random(13)
    for _ in range(100):
        txs = _random_stream(rng, "u", ["a", "b", "c"], 40)
        ops = [op for op in ops_of(extract_ops(ledger_of(txs))) if op.user == "u"]
        for op in ops:
            assert op.duration >= 0
        for left, right in zip(ops, ops[1:]):
            assert left.last_out < right.first_in


def test_each_tx_in_at_most_two_ops():
    rng = random.Random(99)
    users = [f"u{i}" for i in range(6)]
    txs = []
    for i in range(300):
        a, b = rng.sample(users, 2)
        txs.append(tx(f"t{i:04d}", rng.randrange(0, 100), a, b))
    txs.sort(key=lambda t: (t.timestamp, t.tx_id))
    memberships = {}
    for op in ops_of(extract_ops(ledger_of(txs))):
        for tx_id in op.in_tx_ids:
            memberships.setdefault(tx_id, []).append(("in", op.user))
        for tx_id in op.out_tx_ids:
            memberships.setdefault(tx_id, []).append(("out", op.user))
    for entries in memberships.values():
        assert len(entries) <= 2
        assert len({kind for kind, _ in entries}) == len(entries)


# Four stamps force long tie runs; "src" only sends and "snk" only receives.
EVENT_ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(("a", "b", "c", "src")),
              st.sampled_from(("a", "b", "c", "snk"))),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(EVENT_ROWS)
@example([])
@example([(0, "a", "b")])
@example([(0, "a", "a")])
@example([(5, "src", "a"), (5, "a", "snk")])
def test_extract_ops_matches_the_lexsort_reference(rows):
    ledger = ledger_of(tx(f"t{i:03d}", *row) for i, row in enumerate(rows))
    mine, reference = extract_ops(ledger), reference_extract_ops(ledger)
    for column in ("user", "first_in", "last_out", "rows", "bounds", "split"):
        assert getattr(mine, column).tolist() == getattr(reference, column).tolist(), column


def test_extract_ops_rejects_rows_out_of_time_order():
    # A take by an unsorted index breaks the time order that each event's
    # place is read from; equal stamps in any row order are still in order.
    ledger = ledger_of([tx("t1", 0, "a", "b"), tx("t2", 1, "b", "c"), tx("t3", 1, "c", "a")])
    with pytest.raises(DataError, match="time order"):
        extract_ops(ledger._take(np.array([1, 0, 2])))
    assert len(extract_ops(ledger._take(np.array([0, 2, 1])))) == len(extract_ops(ledger))


def test_extract_ops_holds_few_bytes_per_row():
    # At most one int64 key, its int64 argsort and their int32 copy live at
    # once: 40 bytes a row (two events), where the lexsort's four tiled
    # event columns and their permuted copies peaked at about 116.
    m = 100_000
    rng = random.Random(17)
    accounts = [f"a{k:04d}" for k in range(5_000)]
    sources = [rng.choice(accounts) for _ in range(m)]
    ledger = Ledger.from_columns(
        sorted(rng.randrange(m // 4) for _ in range(m)), [f"t{k:06d}" for k in range(m)],
        sources, [rng.choice(accounts) for _ in range(m)], [Decimal(1)] * m, [""] * m)
    tracemalloc.start()
    try:
        ops = extract_ops(ledger)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ops) > m // 10
    assert peak < 48 * m, peak / m


def test_reextraction_of_sorted_input_is_stable():
    rng = random.Random(3)
    txs = _random_stream(rng, "u", ["a"], 30)
    assert ops_of(extract_ops(ledger_of(txs))) == ops_of(
        extract_ops(ledger_of(sorted(txs, key=lambda t: (t.timestamp, t.tx_id))))
    )


def _ops_with_durations(durations):
    # One-way counterparties (pure sender in, pure receiver out) so only the
    # u-users produce operations.
    txs = []
    base = 0
    for i, d in enumerate(durations):
        base += 10_000
        txs.append(tx(f"i{i:03d}", base, f"src{i:03d}", f"u{i:03d}"))
        txs.append(tx(f"o{i:03d}", base + d, f"u{i:03d}", f"snk{i:03d}"))
    return extract_ops(ledger_of(sorted(txs, key=lambda t: (t.timestamp, t.tx_id))))


def test_quartile_boundaries_linear_interpolation():
    ops = _ops_with_durations([1, 2, 3, 4])
    classified = classify_ops(ops)
    assert classified.boundaries.q1 == pytest.approx(1.75)
    assert classified.boundaries.q2 == pytest.approx(2.5)
    assert classified.boundaries.q3 == pytest.approx(3.25)
    by_duration = dict(zip((op.duration for op in ops_of(classified.ops)),
                           categories_of(classified)))
    assert by_duration[1] is FrequencyCategory.HFQ1
    assert by_duration[2] is FrequencyCategory.HFQ2
    assert by_duration[3] is FrequencyCategory.HFQ3
    assert by_duration[4] is FrequencyCategory.LFQ3


def test_equal_durations_all_hfq1():
    classified = classify_ops(_ops_with_durations([7, 7, 7, 7, 7]))
    assert set(categories_of(classified)) == {FrequencyCategory.HFQ1}


def test_single_op_degenerate_boundaries():
    classified = classify_ops(_ops_with_durations([42]))
    assert classified.boundaries.q1 == classified.boundaries.q3 == 42.0
    assert categories_of(classified) == (FrequencyCategory.HFQ1,)


def test_mode_prefers_smallest_on_ties():
    classified = classify_ops(_ops_with_durations([5, 5, 9, 9, 100, 100, 100, 2000]))
    assert classified.global_mode.value == 100
    assert classified.global_mode.count == 3
    assert classified.modes[FrequencyCategory.HFQ1].value == 5


def test_quartile_balance_without_boundary_ties():
    rng = random.Random(4)
    durations = rng.sample(range(100_000), 200)  # all distinct
    classified = classify_ops(_ops_with_durations(durations))
    n = len(durations)
    counts = {c: 0 for c in FrequencyCategory}
    for category in categories_of(classified):
        counts[category] += 1
    for count in counts.values():
        assert n // 4 - 1 <= count <= -(-n // 4) + 1


def test_user_signature_mixed_speeds():
    txs = [
        tx("i1", 0, "s1", "u"), tx("o1", 5, "u", "k1"),          # 5 s
        tx("i2", 1_000_000, "s2", "u"), tx("o2", 1_432_000, "u", "k2"),  # 5 d
        tx("i3", 2_000_000, "s3", "u"), tx("o3", 2_000_060, "u", "k3"),
        tx("i4", 3_000_000, "s4", "u"), tx("o4", 3_040_000, "u", "k4"),
    ]
    ledger = ledger_of(sorted(txs, key=lambda t: (t.timestamp, t.tx_id)))
    signatures = user_signatures(classify_ops(extract_ops(ledger)))
    (mask,) = signatures.mask[signatures.user == ledger.accounts.index("u")].tolist()
    assert mask & 0b0001 and mask & 0b1000  # HFQ1 and LFQ3


def test_singleton_signature():
    ops = _ops_with_durations([3])
    classified = classify_ops(ops)
    signatures = user_signatures(classified)
    assert signatures.mask.tolist() == [0b0001]
    assert SIGNATURE_KEYS[0b0001] == "HFQ1"


def test_signature_key_order():
    ops = _ops_with_durations([1, 10, 100, 100000])
    classified = classify_ops(ops)
    keys = {SIGNATURE_KEYS[mask] for mask in user_signatures(classified).mask.tolist()}
    assert all("-" not in k or k.index("HFQ") == 0 for k in keys)
    assert SIGNATURE_KEYS[0b1011] == "HFQ1-HFQ2-LFQ3"


def test_crosstab_alternating_pair_counts_twice():
    txs = []
    stamp = 0
    for i in range(10):
        stamp += 10
        source, target = ("A", "B") if i % 2 == 0 else ("B", "A")
        txs.append(tx(f"t{i:02d}", stamp, source, target, 3))
    txs.sort(key=lambda t: (t.timestamp, t.tx_id))
    g, _ = aggregate(ledger_of(txs))
    partition = categorize(g)
    ops = extract_ops(ledger_of(txs))
    classified = classify_ops(ops)
    signatures = user_signatures(classified)
    result = crosstab(g, partition, classified, signatures)
    total_cells = sum(sum(row.values()) for row in result.tx_table.values())
    # Every transaction inside both an "out" and an "in" operation except the
    # boundary ones that close without re-entering a window.
    assert result.coverage.tx_in_ops == g.tx_count
    assert result.coverage.tx_share == 1.0
    assert result.coverage.volume_share == pytest.approx(1.0)
    assert total_cells == result.coverage.tx_in_ops + result.coverage.tx_counted_twice
    assert set(result.tx_table) == {"scc0"}
    assert result.coverage.recirculating_users == 2


def test_crosstab_rejects_foreign_transactions():
    txs = [tx("i1", 0, "a", "u"), tx("o1", 1, "u", "a")]
    g, _ = aggregate(ledger_of([tx("i1", 0, "a", "u"), tx("x1", 1, "u", "b")]))
    partition = categorize(g)
    classified = classify_ops(extract_ops(ledger_of(txs)))
    signatures = user_signatures(classified)
    with pytest.raises(DataError, match="'o1' is not in the graph"):
        crosstab(g, partition, classified, signatures)


def test_crosstab_finds_a_foreign_graphs_nodes_by_name():
    # As many accounts as the graph has nodes, but "c" is not one of them.
    txs = [tx("i1", 0, "a", "u"), tx("o1", 1, "u", "c")]
    g, _ = aggregate(ledger_of([tx("i1", 0, "a", "u"), tx("x1", 1, "u", "b")]))
    classified = classify_ops(extract_ops(ledger_of(txs)))
    with pytest.raises(DataError, match="'o1' is not in the graph"):
        crosstab(g, categorize(g), classified, user_signatures(classified))


def test_user_categories_reject_a_foreign_graph():
    # "u" has an operation, but the graph's ledger never saw it.
    classified = classify_ops(extract_ops(ledger_of(
        [tx("i1", 0, "a", "u"), tx("o1", 1, "u", "b")])))
    g, _ = aggregate(ledger_of([tx("x1", 0, "a", "b"), tx("x2", 1, "b", "c")]))
    with pytest.raises(DataError, match="user 'u' is not in the graph"):
        user_categories(g, categorize(g), user_signatures(classified))


def test_classify_requires_ops():
    with pytest.raises(DataError):
        classify_ops([])


def _every_mask_rows():
    # User u<m> has one operation in each category of mask m: durations 1,
    # 10, 100 and 1000 s, eight operations each, fall into HFQ1 to LFQ3
    # (boundaries 7.75, 55 and 325 s). Pure senders and receivers open and
    # close the windows.
    rows, stamp = [], 0
    for mask in range(1, 16):
        for bit, duration in enumerate((1, 10, 100, 1000)):
            if mask >> bit & 1:
                stamp += 10_000
                rows.append((stamp, f"src{mask:02d}", f"u{mask:02d}"))
                rows.append((stamp + duration, f"u{mask:02d}", f"snk{mask:02d}"))
    return rows


def test_every_mask_rows_sign_every_mask():
    ledger = ledger_of(tx(f"t{i:03d}", *row) for i, row in enumerate(_every_mask_rows()))
    signatures = user_signatures(classify_ops(extract_ops(ledger)))
    assert [ledger.accounts[u] for u in signatures.user.tolist()] == [
        f"u{m:02d}" for m in range(1, 16)]
    assert signatures.mask.tolist() == list(range(1, 16))


# Narrow stamps force ties; "S", which sorts first, is seen only in
# self-transfers, so the ledger's account codes and the node indices differ
# when it is, until the self-transfers are dropped.
SMALL_ROWS = st.lists(
    st.tuples(st.integers(0, 12), st.sampled_from("Sabcd"), st.sampled_from("Sabcd")),
    min_size=2, max_size=40,
).map(lambda rows: [(stamp, a, a if "S" in (a, b) else b) for stamp, a, b in rows])


@settings(max_examples=200, deadline=None)
@given(SMALL_ROWS)
@example(_every_mask_rows())
def test_signature_columns_match_one_record_per_user(rows):
    # The crosstab's user table and coverage, and the report's HFQ1-only
    # share and breakdown, from the mask columns and from one
    # TemporalSignature per user.
    ledger = ledger_of(tx(f"t{i:03d}", *row) for i, row in enumerate(rows))
    clean = ledger.without_self_transfers()
    g, _ = aggregate(ledger)
    assert clean.accounts == g.nodes
    # The same rows in the parsed ledger's codes: crosstab and
    # user_categories then find the nodes by name.
    for kept in (clean, ledger._take(np.flatnonzero(ledger.source != ledger.target))):
        _check_signature_columns(g, kept, rows_of(clean))


def _check_signature_columns(g, clean, clean_rows):
    ops = extract_ops(clean)
    if not ops:
        return
    partition = categorize(g)
    classified = classify_ops(ops)
    signatures = user_signatures(classified)
    records = signatures_of(signatures)
    assert len(records) == len({op.user for op in ops_of(ops)})
    mine = crosstab(g, partition, classified, signatures)
    reference = reference_crosstab(g, dict_view(g, partition), classified, records,
                                   clean_rows)
    assert mine == reference
    report = strategy_report(g.volume, category_stats(g, partition),
                             one_time_users(g, partition), signatures.mask,
                             user_categories(g, partition, signatures))
    share, breakdown = reference_hfq1_only(records, partition)
    assert report.hfq1_only_user_share == share
    assert report.hfq1_only_breakdown == breakdown
