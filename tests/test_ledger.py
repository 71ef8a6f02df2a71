"""The columnar ledger against the row-at-a-time references it replaced.

Random ledgers mix amounts that are equal in value but not in exponent, so
a volume string shows any change in how sums are formed, and account and
transaction ids that differ only by trailing NULs, which numpy string
arrays would drop: order must stay Python's code-point order.
"""

import random

from ledgerflow.graph import aggregate
from ledgerflow.ingest import Ledger, parse_ledger, write_transactions
from ledgerflow.recirculation import classify_ops, crosstab, extract_ops, user_signatures
from ledgerflow.topology import categorize

from oracles import (
    dict_view,
    keep_everything,
    reference_aggregate,
    reference_crosstab,
    reference_ledger_order,
    reference_sort,
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
        ledger = Ledger.from_transactions(txs)
        assert list(ledger) == reference_sort(txs), trial
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
        assert list(ledger.without_self_transfers()) == [
            t for t in ledger if t.source != t.target], trial


def test_aggregate_matches_dict_reference():
    rng = random.Random(42)
    for trial in range(200):
        txs = random_ledger(rng, rng.randrange(0, 40))
        g, diag = aggregate(txs)
        links, dropped = reference_aggregate(txs)
        assert list(g.links) == list(links), trial
        for pair, (count, volume) in links.items():
            record = g.links[pair]
            assert (record.count, str(record.volume)) == (count, str(volume)), (trial, pair)
        assert g.nodes == tuple(sorted({v for pair in links for v in pair}))
        assert diag.self_transfers_dropped == dropped


def test_crosstab_matches_per_transaction_reference():
    rng = random.Random(43)
    checked = 0
    for trial in range(200):
        clean = [t for t in random_ledger(rng, rng.randrange(2, 60)) if t.source != t.target]
        ops = extract_ops(clean)
        if not ops:
            continue
        g, _ = aggregate(clean)
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
        write_transactions(path, txs)
        parsed, _ = parse_ledger(path, filter_spec=keep_everything())
        assert [(t.tx_id, t.source, t.target, str(t.amount)) for t in parsed] == [
            (t.tx_id, t.source, t.target, str(t.amount)) for t in reference_sort(txs)
        ], trial
