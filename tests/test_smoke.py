"""Subprocess smoke tests: the demos, a traced benchmark child, and the
modules a run imports.

The demos call the library directly (``parse_ledger``, ``aggregate``, ...),
so they break when its API moves. The benchmark's tracer reads per-layer
counts off the results of functions it wraps in ``ledgerflow.pipeline``;
a refactor that changed those names or result shapes would silently zero
the benchmark's per-layer metrics, and one that renamed a function or an
argument the tracer reads would break every traced run. ``scipy.stats``
takes a large share of start-up time, and a run needs none of it. Every
name an export list gives must resolve, and none of the per-object forms
that moved to ``tests/oracles.py`` may be left in the package.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_LEDGER = ROOT / "demos" / "data" / "demo_ledger.csv"


def _env(tmp_path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("0*.py")))
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_traced_child_records_layer_counts(tmp_path):
    report, out = tmp_path / "report.json", tmp_path / "out"
    job = {
        "root": str(ROOT), "report": str(report), "kind": "pipeline", "trace": True,
        "ledger": str(DEMO_LEDGER), "output": str(out), "seed": 3,
        "stages": ["ingest", "topology", "recirculation", "report"],
    }
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr

    spans = {}
    for span in json.loads(report.read_text())["spans"]:
        spans.setdefault(span["name"], []).append(span)
    for layer in ("parse_ledger", "aggregate", "write_transactions", "extract_ops", "crosstab"):
        assert len(spans.get(f"pipeline.{layer}", [])) == 1, layer
    totals = json.loads((out / "ledger_totals.json").read_text())
    coverage = json.loads((out / "recirculation_coverage.json").read_text())
    diagnostics = json.loads((out / "ingest_diagnostics.json").read_text())
    (aggregate,) = spans["pipeline.aggregate"]
    assert aggregate["counts"] == {
        "nodes": totals["nodes"], "links": totals["links"], "tx": totals["transactions"],
    }
    assert spans["pipeline.extract_ops"][0]["counts"] == {"ops": coverage["op_count"]}
    assert coverage["op_count"] > 0
    assert spans["pipeline.parse_ledger"][0]["counts"]["rows_read"] == diagnostics["rows_read"]


def test_traced_ensemble_run_counts_census_nodes(tmp_path):
    # The tracer reads the partition's node_category mapping for its census
    # node count, and finds categorize and category_census by these names.
    report, out = tmp_path / "report.json", tmp_path / "out"
    job = {
        "root": str(ROOT), "report": str(report), "kind": "cli", "trace": True,
        "argv": ["run", str(DEMO_LEDGER), "--output", str(out), "--mode", "target",
                 "--replicas", "8"],
    }
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(job)],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr

    spans = {}
    for span in json.loads(report.read_text())["spans"]:
        spans.setdefault(span["name"], []).append(span)
    assert len(spans.get("pipeline.categorize", [])) == 1
    (census,) = spans["pipeline.category_census"]
    stats = json.loads((out / "category_stats.json").read_text())
    dag_nodes = sum(row["node_count"] for label, row in stats.items() if label.startswith("dag"))
    assert census["counts"] == {"nodes": dag_nodes}
    assert dag_nodes > 0


def test_run_never_imports_scipy_stats(tmp_path):
    script = (
        "import sys\n"
        "import ledgerflow.cli as cli\n"
        f"code = cli.main(['run', {str(DEMO_LEDGER)!r}, '--output', {str(tmp_path / 'out')!r},"
        " '--mode', 'all', '--replicas', '8'])\n"
        "assert code == 0, code\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_no_second_process_layer(tmp_path):
    # Children are forked by util.fork_call alone; a process pool would pull
    # in concurrent.futures.process and multiprocessing at import.
    script = (
        "import sys\n"
        "import ledgerflow.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'concurrent.futures.process' or m.split('.')[0] == 'multiprocessing'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, env=_env(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def _tracer_module():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # The tracer wraps these names and its counters read these arguments;
    # no traced job calls nullmodel.randomize, so only this would notice
    # it renamed or reshaped.
    tracer = _tracer_module()
    functions = {}
    for module_name, names in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
            functions[f"{module_name.rsplit('.', 1)[-1]}.{name}"] = getattr(module, name)
    read = {
        span: set(re.findall(r'arguments\["(\w+)"\]', inspect.getsource(counter)))
        for span, counter in tracer._COUNTERS.items()
    }
    assert read["nullmodel.randomize"] == {"g"}
    assert read["pipeline.category_census"] == read["triads.category_census"] == {
        "partition", "categories"
    }
    for span, arguments in read.items():
        assert arguments <= set(inspect.signature(functions[span]).parameters), span


# The row, link-mapping and op-record forms of the tables, the scalar
# z-scores and the checked single-graph census live in tests/oracles.py;
# the package holds its tables as columns only. The per-row lists, the kind
# flags and iso_utc, which no stage called, are gone.
MOVED_NAMES = {"Transaction", "as_ledger", "LinkRecord", "randomize_endpoints", "RecirculationOp",
               "z_score", "robust_z_score", "iso_utc", "census"}
MOVED_MEMBERS = {
    ("ingest", "Ledger"): ("from_transactions", "__getitem__", "tx_id", "subtype", "amount"),
    ("util", "TextTable"): ("take",),
    ("topology", "NodeCategory"): ("is_scc", "is_dag", "is_single"),
    ("graph", "LedgerGraph"): ("links", "from_edges", "_links"),
    ("recirculation", "Operations"): ("__getitem__",),
    ("recirculation", "ClassifiedOps"): ("categories",),
}


def test_export_lists_resolve_and_hold_no_moved_name():
    package = importlib.import_module("ledgerflow")
    modules = [package] + [importlib.import_module(f"ledgerflow.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), module.__name__
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        assert not MOVED_NAMES & set(exported), module.__name__
        assert not MOVED_NAMES & set(vars(module)), module.__name__
    for (module_name, class_name), members in MOVED_MEMBERS.items():
        cls = getattr(importlib.import_module(f"ledgerflow.{module_name}"), class_name)
        for member in members:
            assert not hasattr(cls, member), f"{class_name}.{member}"
    graph = importlib.import_module("ledgerflow.graph")
    assert graph.LedgerGraph.__init__ is object.__init__  # no mapping constructor
