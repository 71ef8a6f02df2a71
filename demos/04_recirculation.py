#!/usr/bin/env python3
"""Extract recirculation operations and the quartile frequency categories.

A recirculation operation is one user's window from the first incoming
transaction to the last outgoing one before the next incoming transaction
arrives. Durations split at their quartiles into HFQ1 (fastest) through
LFQ3 (slowest); each user is signed with the categories of its operations
and cross-tabulated against the topological partition.
"""

from collections import Counter
from pathlib import Path

from ledgerflow import (
    aggregate,
    categorize,
    classify_ops,
    crosstab,
    extract_ops,
    parse_ledger,
    user_signatures,
)
from ledgerflow.recirculation import SIGNATURE_KEYS
from ledgerflow.util import format_duration

LEDGER = Path(__file__).parent / "data" / "demo_ledger.csv"


def main() -> None:
    transactions, _ = parse_ledger(LEDGER)
    clean = transactions.without_self_transfers()
    graph, _ = aggregate(clean)
    partition = categorize(graph)

    ops = extract_ops(clean)
    print(f"{len(ops)} recirculation operations across "
          f"{len(set(ops.user.tolist()))} users")

    classified = classify_ops(ops)
    b = classified.boundaries
    print(f"quartile boundaries: Q1 {format_duration(b.q1)}, "
          f"Q2 {format_duration(b.q2)}, Q3 {format_duration(b.q3)}")
    print(f"most frequent duration: {format_duration(classified.global_mode.value)} "
          f"({classified.global_mode.count} times)")

    signatures = user_signatures(classified)
    print("\nsignature counts:")
    for key, count in Counter(SIGNATURE_KEYS[m] for m in signatures.mask.tolist()).most_common():
        print(f"  {key:<20} {count}")

    tables = crosstab(graph, partition, classified, signatures)
    cov = tables.coverage
    print(f"\ncoverage: {cov.tx_in_ops} transactions inside operations "
          f"({cov.tx_share:.1%} of all, {cov.volume_share:.1%} of volume), "
          f"{cov.tx_counted_twice} counted in two operations")
    print("\ntransactions by link category and frequency:")
    for label, row in sorted(tables.tx_table.items()):
        print(f"  {label:<16} {dict(row)}")


if __name__ == "__main__":
    main()
