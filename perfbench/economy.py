"""Seeded "economy" ledger generator for the benchmark.

Self-contained on purpose: it imports nothing from ``ledgerflow`` and uses
only the standard library's ``random`` (whose streams are stable across
Python versions), so a change to the package's own synthetic generator can
never change a benchmark workload.

A ledger of ``accounts`` accounts has a Pareto-weighted core: link sources
and targets are drawn by heavy-tailed per-account weights, and the number
of transfers on each link is heavy-tailed too (a few links are reused
hundreds of times, most once or twice). Around the core sits a small
planted periphery (isolated cycles, cycles fed by or feeding one account,
cycles hanging off the core, bridge accounts between cycles, and stars)
so that the rare topology categories are never empty. About 3% of rows
carry a non-``STANDARD`` subtype and a few are self-transfers; rows are
written in shuffled order with ISO-8601 timestamps under the default
column names. The same (accounts, seed) always gives the same bytes.

Run ``python3 perfbench/economy.py ACCOUNTS SEED OUT.csv`` to write one.
"""

from __future__ import annotations

import random
import sys
from itertools import accumulate
from datetime import datetime, timezone
from pathlib import Path

HEADER = "id,timeset,source,target,weight,transfer_subtype\n"

TRANSFERS_PER_ACCOUNT = 9
LINKS_PER_ACCOUNT = 3.75
NON_STANDARD_SHARE = 0.03
NON_STANDARD_SUBTYPES = ("DISBURSEMENT", "RECLAMATION", "AGENT_OUT")
START = int(datetime(2020, 1, 25, tzinfo=timezone.utc).timestamp())
HORIZON = 507 * 86_400

# Planted periphery, per 1,000 accounts (at least one of each).
_PERIPHERY_PER_1000 = {
    "isolated_cycles": 1.0,
    "fed_cycles": 0.75,
    "feeding_cycles": 0.75,
    "hanging_cycles": 0.5,
    "bridges": 0.5,
    "stars": 1.0,
}


def _account_ids(rng: random.Random, n: int) -> list[str]:
    ids: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        candidate = f"{rng.getrandbits(48):012x}"
        if candidate not in ids:
            ids.add(candidate)
            out.append(candidate)
    return out


def _pareto_weights(rng: random.Random, n: int, alpha: float) -> list[float]:
    """Pareto(alpha) quantiles at n evenly spaced levels, in random order.

    Every seed gets the same multiset of weights, so ledgers of one size
    differ in who is heavy, not in how heavy the tail is; that keeps the
    cost of analysing them alike across seeds.
    """
    weights = [((i + 0.5) / n) ** (-1 / alpha) for i in range(n)]
    rng.shuffle(weights)
    return weights


def _core_links(
    rng: random.Random,
    core: list[str],
    out_cum: list[float],
    in_cum: list[float],
    n_links: int,
) -> list[tuple[str, str]]:
    """Distinct directed links over Pareto-weighted senders and receivers."""
    n = len(core)
    links: set[tuple[str, str]] = set()
    ordered: list[tuple[str, str]] = []

    def add(s: str, t: str) -> None:
        if s != t and (s, t) not in links:
            links.add((s, t))
            ordered.append((s, t))

    # Every core account takes part in at least one link.
    for account in core:
        if rng.random() < 0.5:
            add(account, core[rng.choices(range(n), cum_weights=in_cum)[0]])
        else:
            add(core[rng.choices(range(n), cum_weights=out_cum)[0]], account)
    while len(ordered) < n_links:
        batch = n_links - len(ordered)
        sources = rng.choices(range(n), cum_weights=out_cum, k=batch)
        targets = rng.choices(range(n), cum_weights=in_cum, k=batch)
        for s, t in zip(sources, targets):
            add(core[s], core[t])
    return ordered


def _plan(accounts: int) -> dict[str, int]:
    return {
        name: max(1, round(rate * accounts / 1000))
        for name, rate in _PERIPHERY_PER_1000.items()
    }


# Accounts per planted structure: cycle length (cycling through 2..5 or
# 2..4), plus the feeder/sink/bridge account, plus star hub and arms.
def _periphery_size(accounts: int) -> int:
    plan = _plan(accounts)
    return (
        sum(2 + i % 4 for i in range(plan["isolated_cycles"]))
        + sum(3 + i % 3 for i in range(plan["fed_cycles"]))
        + sum(3 + i % 3 for i in range(plan["feeding_cycles"]))
        + sum(2 + i % 3 for i in range(plan["hanging_cycles"]))
        + 5 * plan["bridges"]
        + sum(3 + i % 4 for i in range(plan["stars"]))
    )


def _periphery(
    rng: random.Random, ids: list[str], accounts: int, hubs: list[str]
) -> list[tuple[str, str]]:
    """Links of the planted structures over ``ids``, attached to ``hubs``."""
    plan = _plan(accounts)
    links: list[tuple[str, str]] = []
    pool = iter(ids)

    def take(k: int) -> list[str]:
        return [next(pool) for _ in range(k)]

    def cycle(k: int) -> list[str]:
        members = take(k)
        links.extend(zip(members, members[1:] + members[:1]))
        return members

    for i in range(plan["isolated_cycles"]):           # scc0
        cycle(2 + i % 4)
    for i in range(plan["fed_cycles"]):                # sccTin + in-single-node
        members = cycle(2 + i % 3)
        links.append((take(1)[0], rng.choice(members)))
    for i in range(plan["feeding_cycles"]):            # sccTout + out-single-node
        members = cycle(2 + i % 3)
        links.append((rng.choice(members), take(1)[0]))
    for i in range(plan["hanging_cycles"]):            # edge_scc2scc
        members = cycle(2 + i % 3)
        links.append((rng.choice(hubs), rng.choice(members)))
    for _ in range(plan["bridges"]):                   # bridge_scc between two cycles
        upstream = cycle(2)
        downstream = cycle(2)
        bridge = take(1)[0]
        links.append((rng.choice(upstream), bridge))
        links.append((bridge, rng.choice(downstream)))
    for i in range(plan["stars"]):                     # dag0 / dagTin / dagTout stars
        hub, *arms = take(3 + i % 4)
        for arm in arms:
            links.append((arm, hub) if i % 3 == 1 else (hub, arm))
        if i % 3 == 1:
            links.append((hub, rng.choice(hubs)))      # edge_dag2scc
        elif i % 3 == 2:
            links.append((rng.choice(hubs), hub))      # edge_scc2dag
    if next(pool, None) is not None:
        raise AssertionError("periphery plan and size disagree")
    return links


def _stamp(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _amount(rng: random.Random) -> str:
    return f"{10 * rng.paretovariate(1.6):.2f}"


def generate(accounts: int, seed: int) -> str:
    """The ledger CSV text for (accounts, seed)."""
    if accounts < 100:
        raise ValueError("accounts must be >= 100")
    rng = random.Random(seed)
    ids = _account_ids(rng, accounts)
    n_planted = _periphery_size(accounts)
    core = ids[n_planted:]
    out_w = _pareto_weights(rng, len(core), 1.2)
    in_w = _pareto_weights(rng, len(core), 1.2)
    # Planted structures attach to the busiest accounts, which sit in the
    # core's giant cyclic component.
    busiest = sorted(range(len(core)), key=lambda i: -out_w[i] * in_w[i])
    hubs = [core[i] for i in busiest[:20]]
    planted = _periphery(rng, ids[:n_planted], accounts, hubs)
    n_links = round(LINKS_PER_ACCOUNT * accounts) - len(planted)
    core_links = _core_links(rng, core, list(accumulate(out_w)), list(accumulate(in_w)), n_links)

    # Heavy-tailed reuse: every link carries one transfer, the rest are
    # spread by Pareto reuse weights (core) or kept small (periphery).
    n_transfers = TRANSFERS_PER_ACCOUNT * accounts
    counts = [1] * len(core_links)
    extra = n_transfers - len(core_links) - 2 * len(planted)
    reuse_cum = list(accumulate(_pareto_weights(rng, len(core_links), 1.1)))
    for j in rng.choices(range(len(core_links)), cum_weights=reuse_cum, k=max(0, extra)):
        counts[j] += 1
    pairs: list[tuple[str, str]] = []
    for link, c in zip(core_links, counts):
        pairs.extend([link] * c)
    for link in planted:
        pairs.extend([link] * 2)

    rows: list[tuple[str, str, str, str]] = []   # source, target, amount, subtype
    for s, t in pairs:
        rows.append((s, t, _amount(rng), "STANDARD"))
    n_non_standard = round(NON_STANDARD_SHARE * len(rows) / (1 - NON_STANDARD_SHARE))
    for _ in range(n_non_standard):
        s, t = rng.sample(core, 2)
        rows.append((s, t, _amount(rng), rng.choice(NON_STANDARD_SUBTYPES)))
    for _ in range(max(3, accounts // 2000)):
        s = rng.choice(core)
        rows.append((s, s, _amount(rng), "STANDARD"))

    stamps = [START + rng.randrange(HORIZON) for _ in rows]
    order = list(range(len(rows)))
    rng.shuffle(order)
    lines = [HEADER]
    for tx_id, i in enumerate(order, start=1):
        s, t, amount, subtype = rows[i]
        lines.append(f"{tx_id},{_stamp(stamps[i])},{s},{t},{amount},{subtype}\n")
    return "".join(lines)


def write_ledger(path: Path, accounts: int, seed: int) -> None:
    Path(path).write_bytes(generate(accounts, seed).encode("utf-8"))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: economy.py ACCOUNTS SEED OUT.csv")
    write_ledger(Path(sys.argv[3]), int(sys.argv[1]), int(sys.argv[2]))
