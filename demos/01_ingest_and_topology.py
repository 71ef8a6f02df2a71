#!/usr/bin/env python3
"""Walk through ingestion and the topological categorisation.

Parses the bundled demo ledger, aggregates it into a weighted directed
simple graph, partitions every node and link into its exclusive category,
and prints the category-size table. The planted structures show up as
isolated strongly connected components (scc0) and isolated acyclic
components (dag0).
"""

from pathlib import Path

from ledgerflow import aggregate, categorize, category_stats, parse_ledger
from ledgerflow.topology import CATEGORY_KIND, CATEGORY_ORDER

LEDGER = Path(__file__).parent / "data" / "demo_ledger.csv"


def main() -> None:
    transactions, diagnostics = parse_ledger(LEDGER)
    print(f"parsed {len(transactions)} transactions "
          f"({diagnostics.rows_filtered} filtered, "
          f"{diagnostics.duplicate_tx_ids} duplicate ids)")

    graph, agg_diag = aggregate(transactions)
    print(f"aggregated into {graph.node_count} nodes, {graph.link_count} links, "
          f"volume {graph.volume} "
          f"({agg_diag.self_transfers_dropped} self-transfers dropped)")

    partition = categorize(graph)
    stats = category_stats(graph, partition)

    print("\ncategory                sccs  wccs  nodes  links     tx  volume")
    for label, kind in zip(CATEGORY_ORDER, CATEGORY_KIND):
        row = stats[label]
        if row.node_count == 0 and row.link_count == 0:
            continue
        sccs = row.scc_count if kind == "scc" else "-"
        print(f"{label:<22} {sccs:>5} {row.wcc_count:>5} {row.node_count:>6} "
              f"{row.link_count:>6} {row.tx_count:>6}  {row.volume}")

    total_volume = sum(float(r.volume) for r in stats.values())
    print(f"\ncompleteness: category volumes sum to {total_volume:.2f} "
          f"== graph volume {float(graph.volume):.2f}")


if __name__ == "__main__":
    main()
