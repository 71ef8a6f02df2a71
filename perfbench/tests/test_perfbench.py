"""Tests of the benchmark's own code: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bundle  # noqa: E402
import economy  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_table, self_times  # noqa: E402


def test_generator_is_deterministic_in_size_and_seed():
    first = economy.generate(300, 11)
    assert economy.generate(300, 11) == first
    assert economy.generate(300, 12) != first
    assert economy.generate(301, 11) != first


def test_generator_rows_look_like_a_ledger():
    rows = list(csv.DictReader(io.StringIO(economy.generate(1000, 3))))
    assert list(rows[0]) == ["id", "timeset", "source", "target", "weight", "transfer_subtype"]
    assert len({row["id"] for row in rows}) == len(rows)
    non_standard = sum(row["transfer_subtype"] != "STANDARD" for row in rows)
    assert 0.02 < non_standard / len(rows) < 0.04
    assert any(row["source"] == row["target"] for row in rows)
    stamps = [row["timeset"] for row in rows]
    assert stamps != sorted(stamps)
    assert all(s[4] == "-" and s[10] == "T" for s in stamps)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("leaf", 6.0, 8.0, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    table = layer_table(spans + [_span("a", 9.0, 9.5, 0)])
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == 3.5
    assert table["root"]["self_s"] == 2.5


def test_tracer_records_nesting_errors_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x, scale=2):
        return x * scale

    traced_inner = tracer.wrap("inner", inner, lambda args, result: {"scale": args["scale"]})

    def outer():
        traced_inner(1)
        return traced_inner(2, scale=3)

    def broken():
        raise ValueError("no")

    assert tracer.wrap("outer", outer)() == 6
    try:
        tracer.wrap("broken", broken)()
    except ValueError:
        pass
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0), ("broken", None)]
    assert [s.get("counts") for s in tracer.spans[1:3]] == [{"scale": 2}, {"scale": 3}]
    assert tracer.spans[3]["error"] == "ValueError"
    table = layer_table(tracer.spans)
    assert table["outer"]["self_s"] == table["outer"]["total_s"] - table["inner"]["total_s"]
    assert table["broken"]["errors"] == 1


MANIFEST = {
    "config": {"jobs": 2, "replicas": 8, "modes": ["target"]},
    "input": {"path": "/tmp/x.csv", "sha256": "ab"},
    "outputs": ["a.csv"],
    "seeds": {"significance_target": 0},
    "stages": [{"name": "ingest", "seconds": 1.5}],
    "versions": {"python": "3.11.7"},
}


def test_normaliser_drops_only_volatile_fields():
    normal = bundle.normalise_manifest(MANIFEST)
    assert normal == {
        "config": {"replicas": 8, "modes": ["target"]},
        "input": {"sha256": "ab"},
        "outputs": ["a.csv"],
        "seeds": {"significance_target": 0},
    }
    assert MANIFEST["config"]["jobs"] == 2


def _write_bundle(path: Path, manifest: dict) -> None:
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps(manifest))
    (path / "ledger_totals.json").write_text(json.dumps(
        {"nodes": 3, "links": 2, "transactions": 4, "volume": "7.50"}))
    (path / "category_stats.json").write_text(json.dumps({
        "dag0": {"node_count": 3, "link_count": 1, "tx_count": 3, "volume": "5.25"},
        "edge_dag2scc": {"node_count": 0, "link_count": 1, "tx_count": 1, "volume": "2.25"},
    }))


def test_hashes_ignore_volatile_fields_and_see_the_rest(tmp_path):
    _write_bundle(tmp_path / "a", MANIFEST)
    moved = {**MANIFEST, "stages": [], "input": {"path": "/elsewhere", "sha256": "ab"},
             "versions": {}, "config": {**MANIFEST["config"], "jobs": 1}}
    _write_bundle(tmp_path / "b", moved)
    _write_bundle(tmp_path / "c", {**MANIFEST, "seeds": {"significance_target": 1}})
    a, b, c = (bundle.file_hashes(tmp_path / name) for name in "abc")
    assert a == b
    assert bundle.compare(c, a) == [
        f"manifest.json: sha256 {c['manifest.json'][:12]} != golden {a['manifest.json'][:12]}"
    ]
    del c["ledger_totals.json"]
    assert bundle.compare(c, a)[0] == "missing file ledger_totals.json"


def test_totals_identity_reports_readable_mismatch(tmp_path):
    _write_bundle(tmp_path / "a", MANIFEST)
    assert bundle.totals_problems(tmp_path / "a") == []
    (tmp_path / "a" / "ledger_totals.json").write_text(json.dumps(
        {"nodes": 3, "links": 2, "transactions": 5, "volume": "7.5"}))
    assert bundle.totals_problems(tmp_path / "a") == [
        "category_stats transactions add up to 4, ledger_totals says 5"
    ]


def test_speedometer_follows_a_process_without_pinning_the_caller():
    # Children inherit the caller's CPU mask, and with one CPU in it some
    # bundle files (degree_stats.json) no longer match their golden hashes.
    mask = os.sched_getaffinity(0)
    assert run._last_cpu(os.getpid()) in mask
    speed = run.Speedometer()
    time.sleep(4 * run.KERNEL_PERIOD_S)
    assert speed.mark() == 0
    speed.follow(os.getpid())
    time.sleep(10 * run.KERNEL_PERIOD_S)
    speed.follow(None)
    speed.close()
    assert os.sched_getaffinity(0) == mask
    assert speed.mark() > 0
    assert 0 < speed.scale_since(0) < 100
    assert speed.scale_since(speed.mark()) == 1.0
