"""The columnar ledger against the row-at-a-time references it replaced.

Random ledgers mix amounts that are equal in value but not in exponent, so
a volume string shows any change in how sums are formed, and account and
transaction ids that differ only by trailing NULs, which numpy string
arrays would drop: order must stay Python's code-point order.
"""

import random
from decimal import Decimal

import pytest

from ledgerflow.errors import DataError
from ledgerflow.graph import aggregate
from ledgerflow.ingest import Ledger, parse_ledger, write_transactions
from ledgerflow.recirculation import classify_ops, crosstab, extract_ops, user_signatures
from ledgerflow.topology import categorize

from oracles import (
    Transaction,
    dict_view,
    keep_everything,
    ledger_of,
    links_of,
    reference_aggregate,
    reference_crosstab,
    reference_ledger_order,
    reference_sort,
    rows_of,
    tx,
)

AMOUNTS = ("1", "1.0", "1.00", "1E+2", "0E-5", "0.1", "2.50", "12345678901234567890.123")
NAMES = ("a", "a\x00", "a\x00\x00", "b", "b\x00", "ab", "é", "Z")


def random_ledger(rng: random.Random, n: int, self_share: float = 0.1):
    txs = []
    for i in range(n):
        source = rng.choice(NAMES)
        target = source if rng.random() < self_share else rng.choice(NAMES)
        txs.append(tx(
            f"t{i // 2}" + "\x00" * (i % 2),
            rng.randrange(-3, 12),  # narrow range forces timestamp ties
            source,
            target,
            rng.choice(AMOUNTS),
        ))
    rng.shuffle(txs)
    return txs


def test_rows_follow_the_object_sort():
    rng = random.Random(41)
    for trial in range(200):
        txs = random_ledger(rng, rng.randrange(0, 40))
        ledger = ledger_of(txs)
        assert rows_of(ledger) == reference_sort(txs), trial
        assert ledger.accounts == tuple(sorted({v for t in txs for v in (t.source, t.target)}))


def test_from_columns_matches_the_lexsort_order():
    # Tied stamps, ids equal but for trailing NULs, and (as hand-built rows
    # may have) repeated ids, some with equal stamps too.
    rng = random.Random(45)
    for trial in range(300):
        txs = random_ledger(rng, rng.randrange(0, 40))
        for t in rng.sample(txs, min(len(txs), rng.randrange(0, 6))):
            txs.append(tx(t.tx_id, rng.choice([t.timestamp, rng.randrange(-3, 12)]),
                          rng.choice(NAMES), rng.choice(NAMES), rng.choice(AMOUNTS)))
        rng.shuffle(txs)
        columns = [[getattr(t, name) for t in txs]
                   for name in ("timestamp", "tx_id", "source", "target", "amount", "subtype")]
        ledger = Ledger.from_columns(*columns)
        order = reference_ledger_order(columns[0], columns[1]).tolist()
        stamps, ids, sources, targets, amounts, subtypes = (
            [column[i] for i in order] for column in columns)
        assert ledger.timestamp.tolist() == stamps, trial
        assert ledger.tx_id == ids, trial
        assert [ledger.accounts[c] for c in ledger.source.tolist()] == sources, trial
        assert [ledger.accounts[c] for c in ledger.target.tolist()] == targets, trial
        assert list(map(str, ledger.amount)) == list(map(str, amounts)), trial
        assert ledger.subtype == subtypes, trial
        assert ledger.accounts == tuple(sorted(set(sources).union(targets))), trial
        assert rows_of(ledger.without_self_transfers()) == [
            t for t in rows_of(ledger) if t.source != t.target], trial


@pytest.mark.parametrize("rows, message", [
    ([("t1", 3, "a", "b", "-0.01")], "transaction t1: negative amount -0.01"),
    ([("t1", 3, "", "b", "1")], "transaction t1: empty account id"),
    ([("t1", 3, "a", "", "1")], "transaction t1: empty account id"),
    ([("t1", 3, "", "b", "-1")], "transaction t1: negative amount -1"),
    # The first bad row in input order is named, not the first in time.
    ([("t9", 9, "a", "", "1"), ("t1", 1, "a", "b", "-1")], "transaction t9: empty account id"),
], ids=["negative", "empty-source", "empty-target", "amount-first", "input-order"])
def test_from_columns_refuses_what_a_transaction_refuses(rows, message):
    # A hand-built ledger is built with from_columns: it makes the checks
    # a Transaction row makes, with the same messages.
    rows = [("t0", 5, "a", "b", "1"), *rows]
    with pytest.raises(DataError) as refused_row:
        [Transaction(stamp, tx_id, s, t, Decimal(a)) for tx_id, stamp, s, t, a in rows]
    with pytest.raises(DataError) as refused_columns:
        Ledger.from_columns(
            [stamp for _, stamp, _, _, _ in rows], [tx_id for tx_id, _, _, _, _ in rows],
            [s for _, _, s, _, _ in rows], [t for _, _, _, t, _ in rows],
            [Decimal(a) for _, _, _, _, a in rows], [""] * len(rows))
    assert str(refused_columns.value) == str(refused_row.value) == message


def test_aggregate_matches_dict_reference():
    rng = random.Random(42)
    for trial in range(200):
        txs = random_ledger(rng, rng.randrange(0, 40))
        g, diag = aggregate(ledger_of(txs))
        links, dropped = reference_aggregate(txs)
        assert list(links_of(g)) == list(links), trial
        for pair, (count, volume) in links.items():
            record = links_of(g)[pair]
            assert (record.count, str(record.volume)) == (count, str(volume)), (trial, pair)
        assert g.nodes == tuple(sorted({v for pair in links for v in pair}))
        assert diag.self_transfers_dropped == dropped


def test_crosstab_matches_per_transaction_reference():
    rng = random.Random(43)
    checked = 0
    for trial in range(200):
        clean = [t for t in random_ledger(rng, rng.randrange(2, 60)) if t.source != t.target]
        ops = extract_ops(ledger_of(clean))
        if not ops:
            continue
        g, _ = aggregate(ledger_of(clean))
        partition = categorize(g)
        classified = classify_ops(ops)
        signatures = user_signatures(classified)
        mine = crosstab(g, partition, classified, signatures)
        reference = reference_crosstab(g, dict_view(g, partition), classified, signatures, clean)
        assert mine == reference, trial
        assert str(mine.coverage.volume_in_ops) == str(reference.coverage.volume_in_ops)
        checked += 1
    assert checked > 150


def test_write_parse_round_trip_keeps_code_point_order(tmp_path):
    rng = random.Random(44)
    for trial in range(30):
        txs = random_ledger(rng, rng.randrange(1, 40), self_share=0.0)
        path = tmp_path / f"ledger{trial}.csv"
        write_transactions(path, ledger_of(txs))
        parsed, _ = parse_ledger(path, filter_spec=keep_everything())
        assert [(t.tx_id, t.source, t.target, str(t.amount)) for t in rows_of(parsed)] == [
            (t.tx_id, t.source, t.target, str(t.amount)) for t in reference_sort(txs)
        ], trial
