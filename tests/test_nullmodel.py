import errno
import os
import pickle
import random
import re
import signal
import time
from collections import Counter
from decimal import Decimal
from typing import Mapping

import numpy as np
import pytest

from ledgerflow.graph import LedgerGraph
from ledgerflow.nullmodel import (
    FEATURES,
    EnsembleSpec,
    RandomizationError,
    SwapMode,
    _replica,
    derive_seed,
    randomize,
    run_ensemble,
    significance,
)
from ledgerflow.errors import AnalysisError
from ledgerflow.topology import (
    CATEGORY_ORDER, CategoryRow, categorize, category_stats, label, tabulate,
)
from ledgerflow.triads import (
    DEFAULT_CENSUS_CATEGORIES, TRIAD_LABELS, category_census, triad_significance,
)
from ledgerflow.util import dsum, mix64

from conftest import random_digraph, reweighted
from oracles import (
    LinkRecord,
    graph_from_links,
    graph_of,
    links_of,
    reference_categorize,
    reference_category_stats,
    reference_label_census,
    reference_labels,
    reference_randomize_endpoints,
    reference_significance,
    reference_triad_significance,
    swapped_links,
)

MODES = (SwapMode.TARGET, SwapMode.SOURCE, SwapMode.BOTH)


def _features(stats: Mapping[str, CategoryRow]) -> np.ndarray:
    """A category_stats table as the float features an ensemble keeps."""
    return np.array([[float(getattr(stats[category], feature)) for feature in FEATURES]
                     for category in CATEGORY_ORDER])


def _census_rows(tables: Mapping[str, Mapping[str, int]]) -> np.ndarray:
    """A category_census table as the census array an ensemble keeps."""
    return np.array([[tables[category.value][triad] for triad in TRIAD_LABELS]
                     for category in DEFAULT_CENSUS_CATEGORIES])


def _replica_stats(g: LedgerGraph, spec: EnsembleSpec, index: int) -> dict[str, CategoryRow]:
    """``tabulate`` on replica ``index`` of the ensemble, as exact rows."""
    sources, targets, record_link, _ = _replica(g, spec, index)
    labels, component = label(g.node_count, sources, targets)
    table, record_code = tabulate(labels, component, sources, targets, g.counts, record_link)
    volume = g.units.sums(record_code, len(CATEGORY_ORDER))
    return {name: CategoryRow(*row, total)
            for name, row, total in zip(CATEGORY_ORDER, table.tolist(), volume.to_decimals())}


def _same(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_single_link_graph_unchanged():
    g = graph_of([("A", "B")])
    for mode in MODES:
        replica = randomize(g, mode, seed=7)
        assert links_of(replica) == links_of(g)


def test_two_links_target_swap_is_fair():
    g = graph_of([("A", "B"), ("C", "D")])
    outcomes = Counter()
    for seed in range(10_000):
        replica = randomize(g, SwapMode.TARGET, seed)
        outcomes[tuple(sorted(links_of(replica)))] += 1
    identity = outcomes[(("A", "B"), ("C", "D"))]
    crossed = outcomes[(("A", "D"), ("C", "B"))]
    assert identity + crossed == 10_000
    assert abs(identity - 5_000) <= 200  # 50% each within 2 points


@pytest.mark.parametrize("mode", MODES)
def test_degree_multisets_preserved_pre_merge(mode):
    rng = random.Random(31)
    for _ in range(20):
        g = random_digraph(rng, 60)
        triples = swapped_links(g, mode, seed=rng.randrange(2**60))
        sources = Counter(s for s, _, _ in triples)
        targets = Counter(t for _, t, _ in triples)
        assert sources == Counter(s for (s, _), _ in links_of(g).items())
        assert targets == Counter(t for (_, t), _ in links_of(g).items())
        assert all(s != t for s, t, _ in triples)


# Merging 1E+30 with 1 needs 31 digits, more than the default context's 28.
WIDE_VOLUMES = graph_from_links({
    ("a", "x"): LinkRecord(1, Decimal("1E+30")),
    ("b", "y"): LinkRecord(1, Decimal(1)),
    ("a", "y"): LinkRecord(1, Decimal(1)),
    ("b", "x"): LinkRecord(1, Decimal(1)),
})


@pytest.mark.parametrize("mode", MODES)
def test_replica_units_sum_to_the_graphs(mode):
    # Mixed exponents on one scale: every replica's category units, and a
    # randomized graph's link units, add up to the graph's exactly.
    rng = random.Random(5)
    amounts = ["1", "1.0", "1E+2", "0E-5", "2.50", "-0"]
    g = graph_from_links({pair: LinkRecord(rng.randint(1, 3), Decimal(rng.choice(amounts)))
                          for pair in links_of(random_digraph(rng, 60, 2.0))})
    assert g.units.values is not None and g.units.scale == -5
    total = int(g.units.values.sum())
    spec = EnsembleSpec(mode=mode, replicas=8, master_seed=3)
    for index in range(spec.replicas):
        sources, targets, record_link, _ = _replica(g, spec, index)
        labels, component = label(g.node_count, sources, targets)
        _, record_code = tabulate(labels, component, sources, targets, g.counts, record_link)
        volume = g.units.sums(record_code, len(CATEGORY_ORDER))
        assert int(volume.values.sum()) == total
        assert str(volume.total()) == str(g.volume)
        replica = randomize(g, mode, derive_seed(spec.master_seed, index))
        assert int(replica.units.values.sum()) == total
        assert str(replica.volume) == str(g.volume)


@pytest.mark.parametrize("mode", MODES)
def test_conservation_exact(mode):
    rng = random.Random(17)
    cases = [(random_digraph(rng, 80), seed) for seed in range(10)]
    cases += [(WIDE_VOLUMES, seed) for seed in range(10)]
    for g, seed in cases:
        replica = randomize(g, mode, seed)
        assert replica.tx_count == g.tx_count
        assert replica.volume == g.volume
        assert replica.link_count <= g.link_count


def test_bit_identical_for_same_seed():
    rng = random.Random(5)
    g = random_digraph(rng, 100)
    for mode in MODES:
        a = randomize(g, mode, seed=123456789)
        b = randomize(g, mode, seed=123456789)
        assert links_of(a) == links_of(b)
        c = randomize(g, mode, seed=987654321)
        if links_of(c) != links_of(a):
            break
    else:
        pytest.fail("different seeds never changed the replica")


def test_mutual_dyad_repair():
    # Target permutation over {A->B, B->A} yields two self-loops half the
    # time; repair must always produce a loop-free replica.
    g = graph_of([("A", "B"), ("B", "A")])
    for seed in range(200):
        replica = randomize(g, SwapMode.TARGET, seed)
        assert links_of(replica) == links_of(g)


def test_repair_budget_exhaustion_raises():
    # A -> B plus many A -> x links: any loop at (A, A) is repairable only
    # with a partner whose target is not A; zero attempts must fail fast.
    g = graph_of([("A", "B"), ("B", "A")])
    with pytest.raises(RandomizationError, match="seed"):
        for seed in range(50):
            randomize(g, SwapMode.TARGET, seed, max_repair_attempts=0)


@pytest.mark.parametrize("field", ["replicas", "max_repair_attempts"])
def test_ensemble_spec_rejects_values_below_one(field):
    with pytest.raises(ValueError, match=field):
        EnsembleSpec(mode=SwapMode.TARGET, **{field: 0})


def test_derive_seed_is_frozen():
    # Pinned values guard the mixing function against silent change; any
    # edit here breaks replica reproducibility across versions.
    assert mix64(0, 0) == 16294208416658607535
    assert mix64(0, 1) == 7960286522194355700
    assert mix64(1, 0) == 10451216379200822465
    assert derive_seed(42, 7) == mix64(42, 7) == 14769051326987775908
    assert derive_seed(42, 7) != derive_seed(42, 8)


def test_run_ensemble_deterministic():
    rng = random.Random(5)
    g = random_digraph(rng, 40)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=1, master_seed=99)
    assert _same(run_ensemble(g, spec), run_ensemble(g, spec))


def test_run_ensemble_stacks_arrays_in_replica_order():
    g = random_digraph(random.Random(6), 40)
    spec = EnsembleSpec(mode=SwapMode.SOURCE, replicas=5, master_seed=8)
    features, censuses, _ = run_ensemble(g, spec)
    assert features.shape == (5, len(CATEGORY_ORDER), len(FEATURES))
    assert features.dtype == np.float64
    assert censuses.shape == (5, len(DEFAULT_CENSUS_CATEGORIES), len(TRIAD_LABELS))
    assert censuses.dtype == np.int64
    for index in range(spec.replicas):
        assert np.array_equal(features[index], _features(_replica_stats(g, spec, index)))


def test_run_ensemble_conserves_totals():
    rng = random.Random(8)
    g = random_digraph(rng, 50)
    spec = EnsembleSpec(mode=SwapMode.BOTH, replicas=12, master_seed=3)
    features, _, _ = run_ensemble(g, spec)
    for index in range(spec.replicas):
        stats = _replica_stats(g, spec, index)
        assert sum(r.tx_count for r in stats.values()) == g.tx_count
        assert dsum(r.volume for r in stats.values()) == g.volume
        assert np.array_equal(features[index], _features(stats))


def test_run_ensemble_parallel_matches_serial():
    rng = random.Random(21)
    g = random_digraph(rng, 40)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=8, master_seed=11)
    assert _same(run_ensemble(g, spec, jobs=2), run_ensemble(g, spec, jobs=1))


@pytest.fixture
def forks(monkeypatch):
    """Counts the children that ``run_ensemble`` forks: one entry per call
    that forked, holding its number of children. Each child's slice must
    start where the one before it stopped."""
    import ledgerflow.nullmodel as nullmodel

    fork_call, children, stops = nullmodel.fork_call, [], []

    def counting_fork_call(fn, g, spec, start, stop):
        if start == 0:
            children.append(0)
        else:
            assert start == stops[-1]
        children[-1] += 1
        stops.append(stop)
        return fork_call(fn, g, spec, start, stop)

    monkeypatch.setattr(nullmodel, "fork_call", counting_fork_call)
    return children


def test_run_ensemble_pool_has_at_most_one_worker_per_replica(monkeypatch, forks):
    import ledgerflow.nullmodel as nullmodel

    monkeypatch.setattr(nullmodel, "usable_cpus", lambda: 64)
    g = random_digraph(random.Random(5), 30)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=3, master_seed=2)
    serial = run_ensemble(g, spec, jobs=1)
    assert _same(run_ensemble(g, spec, jobs=64), serial)
    assert _same(run_ensemble(g, spec, jobs=2), serial)
    assert forks == [3, 2]


@pytest.mark.parametrize("affinity", [True, False])
def test_run_ensemble_pool_has_at_most_one_worker_per_usable_cpu(
    monkeypatch, forks, affinity
):
    import ledgerflow.util as util

    # Three CPUs the process may use, out of eight on the machine when the
    # OS reports an affinity mask; three on the machine when it does not.
    if affinity:
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(util.os, "cpu_count", lambda: 8)
    else:
        monkeypatch.delattr(util.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(util.os, "cpu_count", lambda: 3)
    g = random_digraph(random.Random(5), 30)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=12, master_seed=2)
    serial = run_ensemble(g, spec, jobs=1)
    assert _same(run_ensemble(g, spec, jobs=500), serial)
    assert _same(run_ensemble(g, spec, jobs=2), serial)
    assert forks == [3, 2]


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _forks_fail_after(monkeypatch, count: int) -> None:
    """``os.fork`` works ``count`` times, then raises ``EAGAIN``."""
    fork, calls = os.fork, []

    def limited():
        calls.append(None)
        if len(calls) > count:
            raise OSError(errno.EAGAIN, "no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", limited)


@pytest.mark.parametrize("forked", [0, 1])
def test_run_ensemble_builds_the_slices_here_when_fork_fails(monkeypatch, forks, forked):
    import ledgerflow.nullmodel as nullmodel

    monkeypatch.setattr(nullmodel, "usable_cpus", lambda: 2)
    g = random_digraph(random.Random(9), 30)
    spec = EnsembleSpec(mode=SwapMode.BOTH, replicas=9, master_seed=7)
    serial = run_ensemble(g, spec, jobs=1)
    before = _open_fds()
    _forks_fail_after(monkeypatch, forked)
    assert _same(run_ensemble(g, spec, jobs=2), serial)
    assert forks == [2]
    assert _open_fds() == before


def test_randomization_error_pickles_whole():
    copy = pickle.loads(pickle.dumps(RandomizationError(5, 2)))
    assert type(copy) is RandomizationError
    assert str(copy) == "could not repair self-loop at link 2 (seed 5)"
    assert (copy.seed, copy.position) == (5, 2)


# Two children, or two children of which only the first forks: the second
# slice is then built here and fails first, and the first child's failure
# must still win.
@pytest.mark.parametrize("jobs, forked", [(1, 0), (2, 2), (2, 1)])
def test_run_ensemble_raises_the_lowest_failing_replicas_error(monkeypatch, jobs, forked):
    import ledgerflow.nullmodel as nullmodel

    replica_tables = nullmodel._replica_tables

    def failing(g, spec, index):
        # Replicas 2 and 5 fail, one in each slice of 0..3 and 4..7; the
        # first slice fails last.
        if index == 2:
            time.sleep(0.3)
        if index in (2, 5):
            raise RandomizationError(index, 0)
        return replica_tables(g, spec, index)

    monkeypatch.setattr(nullmodel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(nullmodel, "_replica_tables", failing)
    _forks_fail_after(monkeypatch, forked)
    g = random_digraph(random.Random(3), 30)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=8, master_seed=1)
    message = r"^could not repair self-loop at link 0 \(seed 2\)$"
    with pytest.raises(RandomizationError, match=message) as caught:
        run_ensemble(g, spec, jobs=jobs)
    assert caught.value.seed == 2


def test_ctrl_c_during_a_forked_ensemble_kills_its_children(monkeypatch):
    import ledgerflow.nullmodel as nullmodel

    def slow(g, spec, index):
        time.sleep(5)

    monkeypatch.setattr(nullmodel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(nullmodel, "_replica_tables", slow)
    g = random_digraph(random.Random(3), 30)
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=8, master_seed=1)
    # A SIGINT to this process half a second in, from a timer rather than a
    # thread, so that no thread is running when the children are forked.
    alarm = signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(g, spec, jobs=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, alarm)
    # Sooner than any child's first replica would end; the autouse fixture
    # checks that no child is left running or unreaped.
    assert time.monotonic() - started < 4


def test_run_ensemble_tables_come_from_one_replica():
    rng = random.Random(13)
    g = random_digraph(rng, 40)
    spec = EnsembleSpec(mode=SwapMode.SOURCE, replicas=3, master_seed=4)
    stats_ensemble, census_ensemble, _ = run_ensemble(g, spec)
    for index in range(spec.replicas):
        replica = randomize(g, spec.mode, derive_seed(spec.master_seed, index))
        partition = categorize(replica)
        assert np.array_equal(stats_ensemble[index], _features(category_stats(replica, partition)))
        assert np.array_equal(census_ensemble[index],
                              _census_rows(category_census(replica, partition)))


@pytest.mark.parametrize("mode", MODES)
def test_swap_engine_draws_the_reference_stream(mode):
    # Same seed, same swaps, same repairs (or the same failure) as the
    # full-scan string implementation the integer engine replaced.
    rng = random.Random(61)
    for _ in range(40):
        g = random_digraph(rng, rng.choice([4, 10, 60]))
        for seed in range(5):
            for budget in (100, 1):
                try:
                    expected = reference_randomize_endpoints(g, mode, seed, budget)
                except RandomizationError as exc:
                    with pytest.raises(RandomizationError, match=re.escape(str(exc))):
                        swapped_links(g, mode, seed, budget)
                else:
                    assert swapped_links(g, mode, seed, budget) == expected


@pytest.mark.parametrize("mode", MODES)
def test_run_ensemble_matches_dict_reference(mode):
    rng = random.Random(47)
    for trial in range(6):
        g = reweighted(random_digraph(rng, 60), rng)
        spec = EnsembleSpec(mode=mode, replicas=4, master_seed=trial)
        stats_ensemble, census_ensemble, _ = run_ensemble(g, spec)
        for index in range(spec.replicas):
            replica = randomize(g, mode, derive_seed(spec.master_seed, index))
            partition = reference_categorize(replica)
            expected = reference_category_stats(replica, partition)
            # tabulate is exact in all six fields, Decimal volume included
            stats = _replica_stats(g, spec, index)
            assert stats == expected
            assert sum(r.tx_count for r in stats.values()) == g.tx_count
            assert dsum(r.volume for r in stats.values()) == g.volume
            assert np.array_equal(stats_ensemble[index], _features(expected))
            labels = reference_labels(replica, partition)
            assert np.array_equal(census_ensemble[index],
                                  reference_label_census(labels, replica.sources, replica.targets))


def test_replicas_reseed_after_a_failed_repair():
    # A replica whose self-loop repair fails is rebuilt from derived seeds,
    # in order; the array ensemble must land on the same replicas.
    g = graph_of([("A", "B"), ("B", "A"), ("B", "C")])
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=16, master_seed=5, max_repair_attempts=1)
    stats_ensemble, _, events = run_ensemble(g, spec)
    reseeded = []
    for index, features in enumerate(stats_ensemble):
        first = derive_seed(spec.master_seed, index)
        for attempt, seed in enumerate([first] + [derive_seed(first, a) for a in (1, 2, 3)]):
            try:
                replica = randomize(g, spec.mode, seed, spec.max_repair_attempts)
                break
            except RandomizationError:
                pass
        reseeded.append(int(attempt > 0))
        expected = reference_category_stats(replica, reference_categorize(replica))
        assert _replica_stats(g, spec, index) == expected
        assert np.array_equal(features, _features(expected))
    # the events count each replica that needed a new seed once
    assert events[:, 1].tolist() == reseeded and 0 < sum(reseeded) < spec.replicas


def test_events_count_repairs_and_merges_on_planted_graphs():
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=32, master_seed=9)

    def first_draw(index: int, m: int) -> np.ndarray:
        # a target swap permutes the target column with its first draw
        return np.random.default_rng(derive_seed(spec.master_seed, index)).permutation(m)

    # A 2-cycle: a crossed permutation makes both links self-loops, and the
    # one exchange that repairs the first repairs the second too.
    crossed = [int(first_draw(index, 2)[0] == 1) for index in range(spec.replicas)]
    _, _, events = run_ensemble(graph_of([("A", "B"), ("B", "A")]), spec)
    assert events.tolist() == [[c, 0, 0] for c in crossed] and 0 < sum(crossed) < 32
    # A's two links merge when both get X, i.e. when Y lands on B's link.
    y_last = [int(first_draw(index, 3)[2] == 1) for index in range(spec.replicas)]
    _, _, events = run_ensemble(graph_of([("A", "X"), ("A", "Y"), ("B", "X")]), spec)
    assert events.tolist() == [[0, 0, y] for y in y_last] and 0 < sum(y_last) < 32


def test_randomization_concentrates_cyclic_mass():
    # On a dense-enough random digraph the shuffle leaves exactly one
    # strongly connected component in nearly every replica.
    rng = random.Random(2)
    pairs = set()
    while len(pairs) < 800:
        a, b = rng.randrange(200), rng.randrange(200)
        if a != b:
            pairs.add((f"v{a:03d}", f"v{b:03d}"))
    g = graph_of(sorted(pairs))
    spec = EnsembleSpec(mode=SwapMode.TARGET, replicas=100, master_seed=77)
    single = sum(
        1 for index in range(spec.replicas)
        if sum(r.scc_count for r in _replica_stats(g, spec, index).values()) == 1
    )
    assert single >= 95


def _row(value: int) -> CategoryRow:
    return CategoryRow(0, value, value, value, value, Decimal(value))


def _table(rows: Mapping[str, CategoryRow]) -> dict[str, CategoryRow]:
    """A category_stats table with ``rows``, zero in every other category."""
    return {category: rows.get(category, _row(0)) for category in CATEGORY_ORDER}


def _ensemble(tables) -> np.ndarray:
    return np.stack([_features(_table(table)) for table in tables])


def test_significance_z_zero_at_null_mean():
    empirical = _table({"dag0": _row(4)})
    ensemble = _ensemble({"dag0": _row(v)} for v in (2, 4, 6, 5, 3, 4, 4, 4))
    cells = significance(empirical, ensemble)
    cell = next(c for c in cells if c.category == "dag0" and c.feature == "node_count")
    assert cell.z == pytest.approx(0.0, abs=1e-12)


def test_significance_absent_category_counts_as_zero():
    # dag0 is zero in every replica, as a category no replica has.
    empirical = _table({"dag0": _row(10)})
    ensemble = np.zeros((8, len(CATEGORY_ORDER), len(FEATURES)))
    cells = significance(empirical, ensemble)
    cell = next(c for c in cells if c.category == "dag0" and c.feature == "tx_count")
    assert cell.null_mean == 0.0
    assert cell.z is None          # zero spread in the nulls
    assert cell.robust_z is None
    assert cell.normality == "rejected"


def test_significance_requires_eight_replicas():
    with pytest.raises(AnalysisError):
        significance(_table({}), np.zeros((7, len(CATEGORY_ORDER), len(FEATURES))))


def test_significance_preferred_score_follows_normality():
    rng = random.Random(2)
    values = [rng.gauss(100, 10) for _ in range(400)]
    ensemble = _ensemble({"dag0": _row(int(v))} for v in values)
    cells = significance(_table({"dag0": _row(130)}), ensemble)
    cell = next(c for c in cells if c.category == "dag0" and c.feature == "node_count")
    assert cell.preferred == ("robust_z" if cell.normality == "rejected" else "z")
    assert cell.z is not None and cell.robust_z is not None


@pytest.mark.parametrize("mode", MODES)
def test_scoring_matches_dict_reference_on_run_ensemble(mode):
    # The arrays score to the same cells, field for field, as one dict
    # table per replica read through a callback.
    rng = random.Random(71)
    for trial in range(3):
        g = reweighted(random_digraph(rng, 60), rng)
        partition = categorize(g)
        spec = EnsembleSpec(mode=mode, replicas=8, master_seed=trial)
        stats_ensemble, census_ensemble, _ = run_ensemble(g, spec)
        replicas = [randomize(g, mode, derive_seed(spec.master_seed, index))
                    for index in range(spec.replicas)]
        stats_dicts = [reference_category_stats(r, reference_categorize(r)) for r in replicas]
        census_dicts = [category_census(r, categorize(r)) for r in replicas]
        stats = category_stats(g, partition)
        assert significance(stats, stats_ensemble) == reference_significance(stats, stats_dicts)
        census = category_census(g, partition)
        assert (triad_significance(census, census_ensemble)
                == reference_triad_significance(census, census_dicts))


def _random_row(rng: random.Random) -> CategoryRow:
    return CategoryRow(*(rng.randint(0, 40) for _ in range(5)),
                       Decimal(rng.randint(0, 10**7)).scaleb(-2))


def test_significance_hand_ensembles_match_dict_reference():
    # dag0 is the same in every replica (a constant column), sccTout is
    # zero in every replica and missing from the dict tables, and
    # bridge_scc is non-zero in one replica only.
    rng = random.Random(19)
    tables = []
    for index in range(10):
        table = {category: _random_row(rng) for category in CATEGORY_ORDER}
        table["dag0"] = CategoryRow(1, 2, 3, 4, 5, Decimal("6.07"))
        del table["sccTout"]
        table["bridge_scc"] = _random_row(rng) if index == 3 else _row(0)
        tables.append(table)
    empirical = {category: _random_row(rng) for category in CATEGORY_ORDER}
    cells = significance(empirical, _ensemble(tables))
    assert cells == reference_significance(empirical, tables)
    by_key = {(c.category, c.feature): c for c in cells}
    assert by_key[("dag0", "volume")].null_sd == 0.0
    assert by_key[("sccTout", "tx_count")].null_mean == 0.0
    assert by_key[("bridge_scc", "link_count")].null_median == 0.0


def test_triad_significance_hand_ensembles_match_dict_reference():
    # 003 is the same in every replica, dagTmix is zero in every replica,
    # and dag0's 030T is non-zero in one replica only.
    rng = random.Random(23)
    labels = [category.value for category in DEFAULT_CENSUS_CATEGORIES]
    tables = []
    for index in range(9):
        table = {label: {triad: rng.randint(0, 500) for triad in TRIAD_LABELS}
                 for label in labels}
        for label in labels:
            table[label]["003"] = 1000
        table["dagTmix"] = dict.fromkeys(TRIAD_LABELS, 0)
        table["dag0"]["030T"] = 12 if index == 4 else 0
        tables.append(table)
    empirical = {label: {triad: rng.randint(0, 500) for triad in TRIAD_LABELS}
                 for label in labels}
    ensemble = np.stack([_census_rows(table) for table in tables])
    cells = triad_significance(empirical, ensemble)
    assert cells == reference_triad_significance(empirical, tables)
    by_key = {(c.category, c.feature): c for c in cells}
    assert by_key[("dag0", "003")].null_sd == 0.0
    assert by_key[("dagTmix", "021U")].null_mean == 0.0
    assert by_key[("dag0", "030T")].null_median == 0.0
