import importlib.util
import os
import random
from decimal import Decimal
from pathlib import Path

import pytest

from ledgerflow.graph import LedgerGraph

from oracles import LinkRecord, graph_from_links, graph_of, links_of


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test that leaves a child process running or unreaped (a forked
    writer, a replica slice, a parse part)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid or '(still running)'} outlived the test")


def economy_ledger(accounts: int, seed: int) -> str:
    """The text of a ``perfbench/economy.py`` ledger."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "economy.py"
    spec = importlib.util.spec_from_file_location("perfbench_economy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(accounts, seed)


def random_digraph(rng: random.Random, max_nodes: int, density: float | None = None) -> LedgerGraph:
    """Random simple digraph; nodes are exactly the link endpoints."""
    n = rng.randint(2, max_nodes)
    if density is None:
        density = rng.choice([0.5, 1.0, 2.0, 3.0])
    m = max(1, int(n * density))
    pairs = set()
    for _ in range(m * 10):
        if len(pairs) >= m:
            break
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.add((f"n{a:03d}", f"n{b:03d}"))
    return graph_of(sorted(pairs))


def reweighted(g: LedgerGraph, rng: random.Random) -> LedgerGraph:
    """``g`` with random transaction counts and cent volumes on its links."""
    links = {}
    for pair in links_of(g):
        links[pair] = LinkRecord(rng.randint(1, 4), Decimal(rng.randint(1, 10**6)).scaleb(-2))
    return graph_from_links(links)
