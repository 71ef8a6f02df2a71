"""The columnar ledger against the row-at-a-time references it replaced.

Random ledgers mix amounts that are equal in value but not in exponent, so
a volume string shows any change in how sums are formed, and account and
transaction ids that differ only by trailing NULs, which numpy string
arrays would drop: order must stay Python's code-point order.
"""

import csv
import dataclasses
import io
import random
from datetime import datetime, timezone
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow import ingest, recirculation
from ledgerflow.errors import DataError
from ledgerflow.graph import aggregate
from ledgerflow.ingest import ColumnMapping, Ledger, parse_ledger, write_transactions
from ledgerflow.recirculation import classify_ops, crosstab, extract_ops, user_signatures
from ledgerflow.topology import categorize

from conftest import economy_ledger
from oracles import (
    Transaction,
    dict_view,
    keep_everything,
    ledger_of,
    links_of,
    reference_aggregate,
    reference_crosstab,
    reference_ledger_order,
    reference_member_links,
    reference_sort,
    rows_of,
    signatures_of,
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(("t0", "t1", "t1\x00", "t2")),
                          st.sampled_from(NAMES), st.sampled_from(NAMES),
                          st.sampled_from(AMOUNTS)), max_size=300))
def test_from_columns_follows_the_object_sort_under_dense_ties(rows):
    # Four stamps and four ids: long runs of tied stamps, and rows equal in
    # (stamp, id), which keep their input order (the subtype tells them apart).
    txs = [tx(tx_id, stamp, source, target, amount, subtype=str(k))
           for k, (stamp, tx_id, source, target, amount) in enumerate(rows)]
    assert rows_of(ledger_of(txs)) == reference_sort(txs)


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
        reference = reference_crosstab(g, dict_view(g, partition), classified,
                                       signatures_of(signatures), clean)
        assert mine == reference, trial
        assert str(mine.coverage.volume_in_ops) == str(reference.coverage.volume_in_ops)
        checked += 1
    assert checked > 150


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_crosstab_looks_members_up_as_the_whole_array_lookup(tmp_path, monkeypatch, block):
    # Blocks of one or seven members split most operations, and the
    # economy ledgers' many blocks take every kind of boundary.
    monkeypatch.setattr(recirculation, "_MEMBER_BLOCK", block)
    rng = random.Random(45)
    ledgers = [random_ledger(rng, rng.randrange(2, 60)) for _ in range(60)]
    for seed in (5, 6):
        path = tmp_path / f"economy-{seed}.csv"
        path.write_text(economy_ledger(200, seed), encoding="utf-8")
        ledgers.append(rows_of(parse_ledger(path)[0]))
    checked = 0
    for txs in ledgers:
        clean = [t for t in txs if t.source != t.target]
        ledger = ledger_of(clean)
        ops = extract_ops(ledger)
        if not ops:
            continue
        g, _ = aggregate(ledger)
        blocks = list(recirculation._member_links(g, ops, g.node_index(ledger.accounts)))
        assert [start for start, _ in blocks] == list(range(0, ops.rows.size, block))
        links = np.concatenate([link for _, link in blocks])
        assert links.tolist() == reference_member_links(g, ops).tolist()
        partition = categorize(g)
        classified = classify_ops(ops)
        signatures = user_signatures(classified)
        assert crosstab(g, partition, classified, signatures) == reference_crosstab(
            g, dict_view(g, partition), classified, signatures_of(signatures), clean)
        checked += 1
    assert checked > 45


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


# --------------------------------------------------------------------------
# rows taken by index: the id and subtype lists stay as read
# --------------------------------------------------------------------------

SUBTYPES = ("STANDARD", "AGENT_OUT", "", "STANDARD\x00")


def test_takes_give_the_ids_and_subtypes_of_list_takes():
    rng = random.Random(47)
    for trial in range(200):
        txs = [dataclasses.replace(t, subtype=rng.choice(SUBTYPES))
               for t in random_ledger(rng, rng.randrange(0, 40), self_share=0.3)]
        ledger = ledger_of(txs)
        ids, subtypes = ledger.tx_id, ledger.subtype
        n = len(ledger)
        i = np.array([rng.randrange(n) for _ in range(rng.randrange(2 * n + 1))], dtype=np.int64)
        j = np.array([rng.randrange(i.size) for _ in range(rng.randrange(2 * i.size + 1))],
                     dtype=np.int64)
        taken = ledger._take(i)._take(j)
        rows = i[j].tolist()
        assert taken.tx_id == [ids[r] for r in rows], trial
        assert taken.subtype == [subtypes[r] for r in rows], trial
        assert len(taken) == len(rows)
        kept = [r for r, t in enumerate(rows_of(ledger)) if t.source != t.target]
        clean = ledger.without_self_transfers()
        assert clean.tx_id == [ids[r] for r in kept], trial
        assert clean.subtype == [subtypes[r] for r in kept], trial


def test_long_ledger_round_trips_and_writes_what_csv_writes(tmp_path):
    # 70,000 rows in shuffled order take three render chunks of 32,768; the
    # last two rows, the third chunk's, hold the only cells that need quotes.
    rng = random.Random(48)
    txs = [
        Transaction(1_600_000_000 + (i if i >= 69_998 else rng.randrange(-10**6, 0)),
                    f"t{i:05d}" + '"' * (i == 69_999),
                    f"a{rng.randrange(300)}", "b,c" if i == 69_998 else f"b{rng.randrange(300)}",
                    Decimal(rng.randrange(10**5)).scaleb(-2), rng.choice(SUBTYPES[:3]))
        for i in range(70_000)
    ]
    rng.shuffle(txs)
    path = tmp_path / "ledger.csv"
    write_transactions(path, ledger_of(txs))
    parsed, diagnostics = parse_ledger(path, filter_spec=keep_everything())
    assert diagnostics.rows_read == 70_000
    assert rows_of(parsed) == reference_sort(txs)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(ColumnMapping().names)
    writer.writerows(
        (t.tx_id, datetime.fromtimestamp(t.timestamp, timezone.utc).isoformat(), t.source,
         t.target, str(t.amount), t.subtype)
        for t in reference_sort(txs)
    )
    assert path.read_text(encoding="utf-8") == expected.getvalue()


def test_crosstab_names_the_foreign_transaction_after_a_take():
    # The taken ledger's rows 0, 1, 2 are rows 1, 3, 4 of the one it was
    # taken from; "o1" (u -> a) is not a link of the graph.
    txs = [tx("z0", 0, "q", "r"), tx("i1", 1, "a", "u"), tx("z1", 2, "r", "q"),
           tx("o1", 3, "u", "a"), tx("o2", 4, "u", "b")]
    ledger = ledger_of(txs)._take(np.array([1, 3, 4]))
    assert ledger.row.tolist() == [1, 3, 4]
    g, _ = aggregate(ledger_of([tx("i1", 1, "a", "u"), tx("o2", 4, "u", "b")]))
    classified = classify_ops(extract_ops(ledger))
    with pytest.raises(DataError, match="'o1' is not in the graph"):
        crosstab(g, categorize(g), classified, user_signatures(classified))


def test_from_columns_and_the_row_loop_give_the_column_paths_rows(tmp_path, monkeypatch):
    # The column path keeps every parsed id and subtype, filtered rows
    # included; the row loop and from_columns keep the kept rows' only.
    path = tmp_path / "economy.csv"
    path.write_text(economy_ledger(300, 5), encoding="utf-8")
    columns, diagnostics = parse_ledger(path)
    assert diagnostics.rows_filtered > 0
    assert len(columns.ids) == len(columns.subtypes) == diagnostics.rows_read
    monkeypatch.setattr(ingest, "_plain_cells", lambda *args: None)  # the row loop from the header
    row_loop, _ = parse_ledger(path)
    order = list(range(len(columns)))
    random.Random(49).shuffle(order)
    by_hand = Ledger.from_columns(*([column[k] for k in order] for column in (
        columns.timestamp.tolist(), columns.tx_id,
        [columns.accounts[c] for c in columns.source.tolist()],
        [columns.accounts[c] for c in columns.target.tolist()], columns.amount,
        columns.subtype)))
    assert len(row_loop.ids) == len(by_hand.ids) == len(columns)
    for ledger in (row_loop, by_hand):
        assert ledger.tx_id == columns.tx_id
        assert ledger.subtype == columns.subtype
        assert sorted(ledger.row.tolist()) == list(range(len(columns)))
