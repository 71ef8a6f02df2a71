#!/usr/bin/env python3
"""Score empirical category sizes against degree-preserving null models.

Each replica permutes one endpoint column of the link list (links keep
their transactions), the partition is recomputed, and the empirical table
is scored in standard deviations (z) and interquartile ranges (robust z).
Isolated cyclic structures are fragile under the shuffle: the replicas
concentrate all cyclic mass in one giant component, which is exactly why
the planted scc0 components score as over-represented.
"""

from pathlib import Path

from ledgerflow import (
    EnsembleSpec,
    SwapMode,
    aggregate,
    categorize,
    category_stats,
    parse_ledger,
    run_ensemble,
    significance,
)

LEDGER = Path(__file__).parent / "data" / "demo_ledger.csv"


def main() -> None:
    transactions, _ = parse_ledger(LEDGER)
    graph, _ = aggregate(transactions)
    stats = category_stats(graph, categorize(graph))

    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=300, master_seed=2020)
    print(f"running {spec.replicas} target-swap replicas ...")
    stats_ensemble, _, _ = run_ensemble(graph, spec)
    cells = significance(stats, stats_ensemble)

    print("\nstrongly significant cells (|preferred score| >= 3):")
    print("category              feature      empirical  null_mean      z   robust_z")
    for cell in cells:
        score = cell.z if cell.preferred == "z" else cell.robust_z
        if score is None or abs(score) < 3:
            continue
        z = "undef" if cell.z is None else f"{cell.z:7.1f}"
        rz = "undef" if cell.robust_z is None else f"{cell.robust_z:7.1f}"
        print(f"{cell.category:<21} {cell.feature:<12} {cell.empirical:>9.0f} "
              f"{cell.null_mean:>10.1f} {z:>7} {rz:>9}")

    undefined = sum(1 for c in cells if c.z is None)
    print(f"\n{undefined} cells have undefined z (zero spread in the nulls), "
          "e.g. every replica concentrates the cyclic mass in one component")


if __name__ == "__main__":
    main()
