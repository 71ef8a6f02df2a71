import errno
import json
import math
import os
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ledgerflow import cli, pipeline, util
from ledgerflow.errors import ConfigError
from ledgerflow.graph import LedgerGraph, aggregate
from ledgerflow.ingest import parse_ledger, write_transactions
from ledgerflow.nullmodel import EnsembleSpec, SwapMode, run_ensemble
from ledgerflow.pipeline import (
    ALL_STAGES,
    PipelineConfig,
    run_pipeline,
    strategy_report,
    write_scenario,
)
from ledgerflow.recirculation import (
    classify_ops,
    extract_ops,
    user_categories,
    user_signatures,
)
from ledgerflow.synthetic import ScenarioSpec
from ledgerflow.topology import TopologyPartition, categorize, category_stats, one_time_users
from ledgerflow.util import dsum, usable_cpus

from conftest import economy_ledger
from oracles import ledger_of, tx

DEMO_LEDGER = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_ledger.csv"


def small_config(input_path, output_dir, **overrides) -> PipelineConfig:
    defaults = dict(
        input_path=Path(input_path),
        output_dir=Path(output_dir),
        modes=(SwapMode.TARGET,),
        replicas=20,
        master_seed=9,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_bundled_demo_ledger_full_run(tmp_path):
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"))
    assert [s["name"] for s in result.manifest["stages"]] == [
        "ingest", "topology", "significance", "triads", "recirculation", "report",
    ]
    names = {p.name for p in result.output_files}
    for expected in (
        "transactions_normalized.csv",
        "ingest_diagnostics.json",
        "category_stats.csv",
        "significance_target.csv",
        "triad_census.csv",
        "operations.csv",
        "strategy_report.json",
        "manifest.json",
    ):
        assert expected in names
    for path in result.output_files:
        assert path.exists()


def test_same_config_twice_is_byte_identical(tmp_path):
    first = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "a"))
    second = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "b"))
    names = sorted(p.name for p in first.output_files)
    assert names == sorted(p.name for p in second.output_files)
    for name in names:
        if name == "manifest.json":
            continue  # stage wall times legitimately differ
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_ensemble_stages_build_each_replica_once(tmp_path, monkeypatch):
    import ledgerflow.nullmodel as nullmodel

    calls = []
    original = nullmodel._replica

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nullmodel, "_replica", counting)
    modes = (SwapMode.TARGET, SwapMode.SOURCE, SwapMode.BOTH)
    config = small_config(DEMO_LEDGER, tmp_path / "out", modes=modes, replicas=8)
    run_pipeline(config, stages=frozenset({"significance", "triads"}))
    assert len(calls) == len(modes) * 8


def test_economy_ledgers_sum_no_decimals(tmp_path, monkeypatch):
    # An economy ledger's amounts fit int64 units, so every stage, with 8
    # replicas of each mode, sums them as integers: the Decimal sums never run.
    ledger = tmp_path / "economy.csv"
    ledger.write_text(economy_ledger(600, 3), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("a Decimal sum ran")

    # util's own names, and any module's imported copy of them.
    for module in [m for name, m in sys.modules.items() if name.startswith("ledgerflow")]:
        for name in ("group_sums", "dsum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert util.dsum is refuse
    config = PipelineConfig(input_path=ledger, output_dir=tmp_path / "out", replicas=8)
    assert len(pipeline.run_pipeline(config).output_files) == 32


def test_a_run_builds_no_per_row_list_and_no_account_mapping(tmp_path, monkeypatch):
    # No stage reads the partition's account-id mapping; a ledger has no
    # per-row list of ids, subtypes or amounts to build.
    def refuse(self):
        raise AssertionError("the account mapping was built")

    monkeypatch.setattr(TopologyPartition, "node_category", property(refuse))
    ledger = tmp_path / "economy.csv"
    ledger.write_text(economy_ledger(600, 3), encoding="utf-8")
    config = PipelineConfig(input_path=ledger, output_dir=tmp_path / "out", replicas=8)
    assert len(run_pipeline(config).output_files) == 32


def test_a_run_finds_no_node_by_name(tmp_path, monkeypatch):
    # "bs" is seen only in a self-transfer, so it is an account of the
    # parsed ledger but no node; the ledger the run keeps is numbered as the
    # graph, so crosstab and user_categories take node_index's identity.
    txs = [tx("t1", 0, "a", "b"), tx("t2", 1, "bs", "bs"), tx("t3", 2, "b", "c"),
           tx("t4", 3, "c", "b"), tx("t5", 4, "b", "a")]
    path = tmp_path / "ledger.csv"
    write_transactions(path, ledger_of(txs))
    same, node_index = [], LedgerGraph.node_index

    def spy(g, accounts):
        same.append(accounts == g.nodes)
        return node_index(g, accounts)

    monkeypatch.setattr(LedgerGraph, "node_index", spy)
    result = run_pipeline(small_config(path, tmp_path / "out"), DESCRIPTIVE)
    assert same == [True, True]
    assert json.loads((tmp_path / "out" / "ingest_diagnostics.json").read_text())[
        "self_transfers_dropped"] == 1
    assert "operations.csv" in {p.name for p in result.output_files}


def test_json_only_format(tmp_path):
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out", formats=("json",)))
    names = {p.name for p in result.output_files}
    assert "category_stats.json" in names
    assert "category_stats.csv" not in names
    # structured records are emitted regardless of the table format
    assert "ingest_diagnostics.json" in names


def test_no_format_is_config_error(tmp_path):
    # With no table format a run would write no table and still look
    # complete.
    with pytest.raises(ConfigError, match="format"):
        small_config(DEMO_LEDGER, tmp_path / "out", formats=())


def test_repeated_swap_mode_is_config_error(tmp_path):
    # A repeated mode would run its ensemble twice and list its files twice.
    with pytest.raises(ConfigError, match="^swap mode 'both' given twice$"):
        small_config(DEMO_LEDGER, tmp_path / "out",
                     modes=(SwapMode.BOTH, SwapMode.TARGET, SwapMode.BOTH))


_ENSEMBLE_COUNTS = {"replicas", "self_loop_repairs", "reseeded_replicas", "links_merged_mean",
                    "links_merged_max"}


def test_stage_entries_hold_cpu_time_and_peak_rss(tmp_path):
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"))
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert written["stages"] == result.manifest["stages"]
    for stage in result.manifest["stages"]:
        # the stage that builds the replicas also counts their events
        counts = _ENSEMBLE_COUNTS if stage["name"] == "significance" else set()
        assert set(stage) == {"name", "seconds", "cpu_seconds", "children_cpu_seconds",
                              "peak_rss_mb", "children_peak_rss_mb"} | counts
        for key in ("seconds", "cpu_seconds", "children_cpu_seconds", "peak_rss_mb",
                    "children_peak_rss_mb"):
            assert isinstance(stage[key], float) and math.isfinite(stage[key]), stage
            assert stage[key] >= 0, stage
        assert stage["peak_rss_mb"] > 0, stage


def test_no_stage_field_is_negative_zero(tmp_path, monkeypatch):
    # Children that used 0.01 s user and 0.02 s system CPU before the run
    # and none in it: (0.01 + 0.02) - 0.01 - 0.02 is below zero, and rounds
    # to -0.0 in the manifest.
    getrusage = pipeline.resource.getrusage

    def no_new_children(who):
        usage = getrusage(who)
        if who != pipeline.resource.RUSAGE_CHILDREN:
            return usage
        return type("Usage", (), {"ru_utime": 0.01, "ru_stime": 0.02,
                                  "ru_maxrss": usage.ru_maxrss})()

    monkeypatch.setattr(pipeline.resource, "getrusage", no_new_children)
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"))
    for stage in result.manifest["stages"]:
        assert stage["children_cpu_seconds"] == 0.0, stage
        for key, value in stage.items():
            assert key == "name" or math.copysign(1.0, value) == 1.0, (key, stage)


def test_children_cpu_is_counted_where_the_children_are_reaped(tmp_path):
    # The forked writers are reaped at the final join, timed under ingest,
    # and the replica slices under the first ensemble stage.
    if usable_cpus() < 2:
        pytest.skip("replica slices fork only with two usable CPUs")
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out", replicas=8, jobs=2))
    cpu = {stage["name"]: stage["children_cpu_seconds"] for stage in result.manifest["stages"]}
    assert cpu.pop("ingest") > 0 and cpu.pop("significance") > 0
    assert cpu == dict.fromkeys(("topology", "triads", "recirculation", "report"), 0.0)


@pytest.mark.parametrize("stages", [ALL_STAGES, ("ingest", "triads")])
def test_first_ensemble_stage_counts_the_null_models_events(tmp_path, stages):
    # Every mode's replicas are counted once, under the first selected of
    # the two ensemble stages; the counts are run_ensemble's events.
    config = small_config(DEMO_LEDGER, tmp_path / "out", modes=tuple(SwapMode), replicas=8)
    result = run_pipeline(config, stages=frozenset(stages))
    graph, _ = aggregate(parse_ledger(DEMO_LEDGER, config.column_mapping, config.filter_spec)[0])
    events = np.concatenate([
        run_ensemble(graph, EnsembleSpec(mode, replicas=8, master_seed=9))[2] for mode in SwapMode
    ])
    entries = {stage["name"]: stage for stage in result.manifest["stages"]}
    first = "significance" if "significance" in stages else "triads"
    assert {key: entries[first][key] for key in _ENSEMBLE_COUNTS} == {
        "replicas": 24,
        "self_loop_repairs": int(events[:, 0].sum()),
        "reseeded_replicas": int(events[:, 1].sum()),
        "links_merged_mean": round(float(events[:, 2].mean()), 6),
        "links_merged_max": int(events[:, 2].max()),
    }
    assert events[:, 0].sum() > 0 and events[:, 2].max() > 0
    assert all(_ENSEMBLE_COUNTS.isdisjoint(entry) for name, entry in entries.items()
               if name != first)


def test_an_ingest_run_records_only_its_own_stage(tmp_path):
    # The topology stage used to run, and write nothing, in an ingest run.
    result = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "ingest"), frozenset({"ingest"}))
    assert [s["name"] for s in result.manifest["stages"]] == ["ingest"]
    with_topology = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "both"),
                                 frozenset({"ingest", "topology"}))
    assert [s["name"] for s in with_topology.manifest["stages"]] == ["ingest", "topology"]
    files = _bundle(tmp_path / "ingest")
    assert sorted(files) == ["degree_stats.json", "ingest_diagnostics.json", "ledger_totals.json",
                             "transactions_normalized.csv"]
    assert files == {name: data for name, data in _bundle(tmp_path / "both").items()
                     if name in files}


def test_unknown_stage_is_config_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="'topolgy'"):
        run_pipeline(small_config(DEMO_LEDGER, out), stages=frozenset({"topolgy"}))
    assert not out.exists()


def _strategy_inputs(txs):
    g, _ = aggregate(ledger_of(txs))
    partition = categorize(g)
    stats = category_stats(g, partition)
    one_time = one_time_users(g, partition)
    ops = extract_ops(ledger_of(txs))
    mask = user_category = np.zeros(0, dtype=np.int64)
    if ops:
        signatures = user_signatures(classify_ops(ops))
        mask, user_category = signatures.mask, user_categories(g, partition, signatures)
    return g, partition, stats, one_time, mask, user_category


def test_strategy_shares_zero_without_one_time_users():
    txs = [
        tx("t1", 0, "A", "B", 5), tx("t2", 1, "B", "A", 5),
        tx("t3", 2, "A", "B", 5), tx("t4", 3, "B", "A", 5),
    ]
    g, partition, stats, one_time, mask, user_category = _strategy_inputs(txs)
    report = strategy_report(g.volume, stats, one_time, mask, user_category)
    assert report.one_time_collector_share == 0.0
    assert report.dag_collector_volume_share == 0.0


def test_strategy_planted_one_time_feeders():
    # Ten one-time senders feed a collector that sits inside a cycle; the
    # share must equal the planted volume fraction exactly.
    txs = [
        tx("c1", 0, "A", "B", 100),
        tx("c2", 1, "B", "C", 100),
        tx("c3", 2, "C", "A", 100),
    ]
    planted = Decimal(0)
    for i in range(10):
        planted += Decimal(7)
        txs.append(tx(f"f{i:02d}", 10 + i, f"feeder{i:02d}", "A", 7))
    g, partition, stats, one_time, mask, user_category = _strategy_inputs(txs)
    report = strategy_report(g.volume, stats, one_time, mask, user_category)
    assert partition.node_category[ "feeder00"].value == "in-single-node"
    assert report.one_time_collector_share == pytest.approx(float(Decimal(70) / g.volume))


def test_strategy_hfq1_share_and_breakdown():
    # One fast pass around a 4-cycle: u1..u3 each receive then forward within
    # a second (u0 only opens the round and closes it, so it has no op).
    txs = [tx(f"t{i}", 10 + i, f"u{i}", f"u{(i + 1) % 4}", 3) for i in range(4)]
    g, partition, stats, one_time, mask, user_category = _strategy_inputs(txs)
    report = strategy_report(g.volume, stats, one_time, mask, user_category)
    assert report.hfq1_only_user_share == 1.0
    assert set(report.hfq1_only_breakdown) == {"scc0"}


def test_strategy_consistency_with_written_tables(tmp_path):
    out = tmp_path / "out"
    run_pipeline(small_config(DEMO_LEDGER, out))
    strategy = json.loads((out / "strategy_report.json").read_text())
    one_time = json.loads((out / "one_time_users.json").read_text())
    stats = json.loads((out / "category_stats.json").read_text())
    totals = json.loads((out / "ledger_totals.json").read_text())

    total_volume = Decimal(totals["volume"])
    expected = dsum(
        Decimal(one_time["rows"][label]["outgoing_volume"])
        for label in ("in-single-node", "dag0", "dagTin")
        if label in one_time["rows"]
    )
    assert strategy["one_time_collector_share"] == pytest.approx(
        float(expected / total_volume)
    )
    signatures = (out / "user_signatures.csv").read_text().splitlines()[1:]
    hfq1_only = [line for line in signatures if line.split(",")[1] == "HFQ1"]
    assert strategy["hfq1_only_user_share"] == pytest.approx(
        len(hfq1_only) / len(signatures)
    )
    assert Decimal(stats["sccTmix"]["volume"]) + Decimal(stats["scc0"]["volume"]) <= total_volume


def test_write_scenario_outputs(tmp_path):
    ledger_path, truth_path = write_scenario(
        tmp_path, ScenarioSpec(cycles=2, stars=2, dyads=1), seed=8
    )
    assert ledger_path.exists() and truth_path.exists()
    header = truth_path.read_text().splitlines()[0]
    assert header == "node_id,category"


DESCRIPTIVE = frozenset({"ingest", "topology", "recirculation", "report"})


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _raise(exc: BaseException):
    raise exc


def _fork_fails(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: _raise(OSError(errno.EAGAIN, "no more processes")))


def _no_space_for(name: str, monkeypatch):
    write_csv = pipeline.write_csv

    def full_disk(path, header, columns):
        if Path(path).name == name:
            raise OSError(errno.ENOSPC, "No space left on device")
        write_csv(path, header, columns)

    monkeypatch.setattr(pipeline, "write_csv", full_disk)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bundle(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


def test_bundle_is_the_same_when_fork_fails(tmp_path, monkeypatch):
    before = _open_fds()
    forked = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "forked"), DESCRIPTIVE)
    _no_children_left()
    _fork_fails(monkeypatch)
    serial = run_pipeline(small_config(DEMO_LEDGER, tmp_path / "serial"), DESCRIPTIVE)
    assert _open_fds() == before
    assert [p.name for p in forked.output_files] == [p.name for p in serial.output_files]
    bundle = _bundle(tmp_path / "forked")
    assert {"transactions_normalized.csv", "edge_assignment.csv", "operations.csv"} <= set(bundle)
    assert bundle == _bundle(tmp_path / "serial")


def test_failed_write_in_a_child_is_reported_as_in_process(tmp_path, monkeypatch):
    _no_space_for("edge_assignment.csv", monkeypatch)
    argv = ["run", str(DEMO_LEDGER), "--mode", "target", "--replicas", "8", "--output"]
    forked = cli.main(argv + [str(tmp_path / "forked")])
    _no_children_left()
    _fork_fails(monkeypatch)
    serial = cli.main(argv + [str(tmp_path / "serial")])
    assert forked == serial == 4
    for side in ("forked", "serial"):
        assert json.loads((tmp_path / side / "error_report.json").read_text()) == {
            "error_type": "OSError", "message": "[Errno 28] No space left on device",
            "exit_code": 4,
        }
        assert not (tmp_path / side / "manifest.json").exists()


def test_child_failure_beats_a_later_parent_failure(tmp_path, monkeypatch):
    _no_space_for("edge_assignment.csv", monkeypatch)
    monkeypatch.setattr(pipeline, "extract_ops", lambda ledger: _raise(ValueError("later")))
    with pytest.raises(OSError) as caught:
        run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"), DESCRIPTIVE)
    assert caught.value.errno == errno.ENOSPC
    _no_children_left()


def test_parent_failure_stands_when_no_child_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "extract_ops", lambda ledger: _raise(ValueError("later")))
    with pytest.raises(ValueError, match="later"):
        run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"), DESCRIPTIVE)
    _no_children_left()


def test_interrupted_join_still_reaps_every_child(tmp_path, monkeypatch):
    waitpid, interrupted = os.waitpid, []

    def interrupt_once(pid, options):
        if not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", interrupt_once)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(small_config(DEMO_LEDGER, tmp_path / "out"), DESCRIPTIVE)
    monkeypatch.undo()
    assert interrupted
    _no_children_left()
