"""Outside-in benchmark of ledgerflow on seeded economy ledgers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-golden

Run from the root of a checkout. Every measured job is a fresh child
process (``child.py``) timed from outside: ``wall_s`` from spawn to exit,
``setup_s`` from spawn to ``ledgerflow.cli`` imported, ``cpu_s`` and
``peak_rss_mb`` from ``os.wait4`` on that child (its waited-for workers
included). Each bundle is checked against golden hashes outside the timed
span. The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics of a separate traced run with
``--trace 1`` (whose span table also goes to a JSON artefact).

End-to-end times are reported at a reference machine speed: while a child
runs, a thread of this process times a fixed kernel that never touches
ledgerflow on the CPU the child last ran on, and the child's times are
scaled by ``REFERENCE_KERNEL_S`` over the kernel's mean time in that window
(see ``Speedometer``). The raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bundle  # noqa: E402
import economy  # noqa: E402
from tracer import layer_table  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
CHILD = HERE / "child.py"

# Each --seed picks one of POOL ledgers (seed mod POOL); golden.json holds
# the ledger and bundle hashes of every pool entry, recorded at the commit
# that added the benchmark.
POOL = 8
SETUP_PROBES = 3
# Workload jobs per run whatever --seconds says; more run while the next
# would end within --seconds. Two, not three, keep a run of the slowest
# phases of the shared box (when jobs take twice as long) within the time
# that the whole schedule of runs may take.
MIN_JOBS = 2
RUN_DEADLINE_S = 170.0
DESCRIPTIVE_STAGES = ("ingest", "topology", "recirculation", "report")
ENSEMBLE_REPLICAS = 8
ENSEMBLE_MODES = 3

# The benchmark box is two vCPUs of a shared host. Each vCPU slows down by
# up to 2x, for seconds to minutes at a time and independently of the
# other, in wall and CPU time alike, so raw times of the same code spread
# past any useful bound between runs. Speed is gauged with a kernel of dict
# updates and a numpy sort (the program's two kinds of work) that imports
# nothing from ledgerflow, so no change to the program can move it. It runs
# every KERNEL_PERIOD_S on the child's CPU, taking about 3% of the child's
# time. REFERENCE_KERNEL_S is about its mean on the 2-vCPU Xeon box the
# baselines were measured on.
REFERENCE_KERNEL_S = 0.0015
KERNEL_PERIOD_S = 0.05
_KERNEL_ARRAY_LEN = 20_000
_KERNEL_DICT_OPS = 8_000


# Accounts per generated ledger; transfers and links scale with them.
LEDGERS = {"full": 40_000, "ensemble": 4_000}


@dataclass(frozen=True)
class Workload:
    ledger: str
    kind: str          # "pipeline" (descriptive stages) or "cli" (ledgerflow run)
    jobs: int


WORKLOADS = {
    "ledger-full": Workload("full", "pipeline", jobs=1),
    "ensemble-serial": Workload("ensemble", "cli", jobs=1),
    "ensemble-jobs2": Workload("ensemble", "cli", jobs=2),
}


@dataclass
class Sample:
    ok: bool
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    problems: list[str]
    spans: list[dict]
    scale: float = 1.0   # REFERENCE_KERNEL_S over the mean kernel time on the child's CPU


def _last_cpu(pid: int) -> int | None:
    """The CPU process ``pid`` last ran on (Linux), or None."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            # Field 39, counted after the parenthesised command name (field 2).
            return int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Speedometer:
    """Speed of the CPU a child runs on, from a fixed kernel timed there.

    A thread moves itself to the followed child's last CPU before each
    kernel run; the mask of the main thread, which children inherit, is
    left alone.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(_KERNEL_ARRAY_LEN)
        self._pid: int | None = None
        self._times: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def follow(self, pid: int | None) -> None:
        self._pid = pid

    def _sample(self) -> None:
        while not self._stop.wait(KERNEL_PERIOD_S):
            pid = self._pid
            cpu = None if pid is None else _last_cpu(pid)
            if cpu is None:
                continue
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:   # the CPU left the process's set
                continue
            start = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(_KERNEL_DICT_OPS):
                counts[i % 1000] = counts.get(i % 1000, 0) + i
            np.sort(self._array)
            self._times.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self._times)

    def scale_since(self, mark: int) -> float:
        """``REFERENCE_KERNEL_S`` over the mean kernel time since ``mark``."""
        times = self._times[mark:]
        return REFERENCE_KERNEL_S / statistics.fmean(times) if times else 1.0

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def _become_subreaper() -> None:
    # Orphaned grandchildren (pool workers of a killed child) are re-parented
    # to this process, so they can be waited for. Linux only; harmless elsewhere.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_all(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def spawn(job: dict, workdir: Path, timeout: float, speed: Speedometer | None = None) -> Sample:
    """Run one child job; time it from outside and collect its report.

    With ``speed``, the sample's scale comes from the kernel timed on the
    child's CPU while it ran.
    """
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    job = {**job, "root": str(ROOT), "report": str(report)}
    with open(workdir / "child.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job)],
            stdout=log, stderr=log, start_new_session=True, cwd=ROOT,
        )
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        if speed:
            mark = speed.mark()
            speed.follow(proc.pid)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            if speed:
                speed.follow(None)
            timer.cancel()
            proc.returncode = -1   # reaped by wait4 above; Popen must not wait again
            _reap_all(proc.pid)
    code = os.waitstatus_to_exitcode(status)
    problems = [] if code == 0 else [f"{job['kind']} exited with code {code}"]
    setup_s, spans = None, []
    if report.exists():
        child_report = json.loads(report.read_text())
        setup_s = child_report["imported"] - start
        spans = child_report["spans"]
    elif not problems:
        problems.append("child wrote no report")
    return Sample(
        ok=not problems,
        wall_s=end - start,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        problems=problems,
        spans=spans,
        scale=speed.scale_since(mark) if speed else 1.0,
    )


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def ledger_path(name: str, index: int, expected_sha: str | None) -> Path:
    """The generated ledger, cached under the work directory by its hash."""
    path = WORK / "ledgers" / f"{name}-{index}.csv"
    if path.exists() and expected_sha and _sha256(path) == expected_sha:
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    economy.write_ledger(path, LEDGERS[name], index)
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_job(workload: Workload, ledger: Path, index: int, out: Path, jobs: int) -> dict:
    if workload.kind == "pipeline":
        return {"kind": "pipeline", "ledger": str(ledger), "output": str(out),
                "stages": list(DESCRIPTIVE_STAGES), "seed": index}
    return {"kind": "cli", "argv": [
        "run", str(ledger), "--output", str(out), "--mode", "all",
        "--replicas", str(ENSEMBLE_REPLICAS), "--jobs", str(jobs), "--seed", str(index),
    ]}


def check_bundle(out: Path, expected: dict[str, str]) -> list[str]:
    if not out.is_dir():
        return ["no bundle directory"]
    problems = bundle.compare(bundle.file_hashes(out), expected)
    if not problems:
        problems = bundle.totals_problems(out)
    return problems


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.index = seed % POOL
        self.seconds = seconds
        self.started = time.monotonic()
        entry = golden()["ledgers"][self.workload.ledger]["entries"].get(str(self.index))
        if entry is None:
            raise SystemExit(f"golden.json has no entry {self.index} for {self.workload.ledger}")
        self.entry = entry
        self.workdir = WORK / f"run-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ledger = ledger_path(self.workload.ledger, self.index, entry["sha256"])
        self.problems: list[str] = []
        self.bundle_size = (0, 0)   # (files, bytes) of the last job's bundle
        if _sha256(self.ledger) != entry["sha256"]:
            self.problems.append(f"generated ledger {self.ledger.name} differs from its golden sha256")
        self.speed = Speedometer()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def timeout(self) -> float:
        return max(1.0, RUN_DEADLINE_S - self.elapsed())

    def spawn(self, job: dict) -> Sample:
        return spawn(job, self.workdir, self.timeout(), self.speed)

    def job(self, jobs: int, trace: bool = False) -> Sample:
        out = self.workdir / "bundle"
        shutil.rmtree(out, ignore_errors=True)
        job = workload_job(self.workload, self.ledger, self.index, out, jobs)
        sample = self.spawn({**job, "trace": trace})
        if sample.ok:
            sample.problems = check_bundle(out, self.entry["bundle"])
            sample.ok = not sample.problems
        self.bundle_size = bundle.size(out) if out.is_dir() else (0, 0)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def repeat(self, jobs: int, least: int) -> list[Sample]:
        """``least`` jobs, then more until the next would end after ``seconds``."""
        samples: list[Sample] = []
        while len(samples) < least or self.elapsed() + samples[-1].wall_s <= self.seconds:
            samples.append(self.job(jobs))
        return samples

    def close(self) -> None:
        self.speed.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> tuple[dict, list[Sample], dict[str, int]]:
    probes = [run.spawn({"kind": "probe"}) for _ in range(SETUP_PROBES)]
    samples = run.repeat(run.workload.jobs, MIN_JOBS)
    good = [s for s in samples if s.ok]
    setups = [s for s in probes + samples if s.ok and s.setup_s is not None]
    metrics = {
        "wall_s": (_median([s.wall_s * s.scale for s in good]), "s"),
        "setup_s": (_median([s.setup_s * s.scale for s in setups]), "s"),
        "cpu_s": (_median([s.cpu_s * s.scale for s in good]), "s"),
        "peak_rss_mb": (_median([s.peak_rss_mb for s in good]), "MB"),
        "success_share": (len(good) / len(samples), "share"),
    }
    counts = {"wall_s": len(good), "setup_s": len(setups), "cpu_s": len(good),
              "peak_rss_mb": len(good), "success_share": len(samples)}
    return metrics, probes + samples, counts


def _total(table: dict, name: str, key: str = "total_s") -> float:
    return table.get(name, {}).get(key, 0)


def _count(table: dict, name: str, key: str) -> int:
    return table.get(name, {}).get("counts", {}).get(key, 0)


def per_layer(run: Run) -> tuple[dict, list[Sample], dict[str, int], dict]:
    """A traced job at --jobs 1, then untraced ones for the overhead base."""
    traced = run.job(jobs=1, trace=True)
    files, size_bytes = run.bundle_size
    plain = run.repeat(jobs=1, least=1)
    spans = traced.spans
    table = layer_table(spans)
    merged = [s["counts"]["links_merged"] for s in spans
              if s["name"] == "nullmodel.randomize" and "counts" in s]
    randomize_calls = _total(table, "nullmodel.randomize", "calls")
    replicas = ENSEMBLE_MODES * ENSEMBLE_REPLICAS if run.workload.kind == "cli" else 0
    census = ("pipeline.category_census", "triads.category_census")
    plain_walls = [s.wall_s for s in plain if s.ok]
    values = {
        "ingest.parse_ledger_s": _total(table, "pipeline.parse_ledger"),
        "ingest.write_transactions_s": _total(table, "pipeline.write_transactions"),
        "ingest.rows_read": _count(table, "pipeline.parse_ledger", "rows_read"),
        "ingest.rows_filtered": _count(table, "pipeline.parse_ledger", "rows_filtered"),
        "graph.aggregate_s": _total(table, "pipeline.aggregate"),
        "graph.nodes": _count(table, "pipeline.aggregate", "nodes"),
        "graph.links": _count(table, "pipeline.aggregate", "links"),
        "graph.tx": _count(table, "pipeline.aggregate", "tx"),
        "degrees.degree_stats_s": _total(table, "pipeline.degree_stats"),
        "topology.categorize_s": _total(table, "pipeline.categorize"),
        "topology.category_stats_s": _total(table, "pipeline.category_stats"),
        "topology.one_time_users_s": _total(table, "pipeline.one_time_users"),
        "recirculation.extract_ops_s": _total(table, "pipeline.extract_ops"),
        "recirculation.classify_ops_s": _total(table, "pipeline.classify_ops"),
        "recirculation.user_signatures_s": _total(table, "pipeline.user_signatures"),
        "recirculation.crosstab_s": _total(table, "pipeline.crosstab"),
        "recirculation.ops": _count(table, "pipeline.extract_ops", "ops"),
        "pipeline.self_s": _total(table, "pipeline.run_pipeline", "self_s"),
        "pipeline.bundle_bytes": size_bytes,
        "pipeline.files": files,
        "nullmodel.run_ensemble_s": _total(table, "pipeline.run_ensemble"),
        "nullmodel.randomize_s": _total(table, "nullmodel.randomize"),
        "nullmodel.replica_categorize_s": _total(table, "nullmodel.categorize"),
        "nullmodel.replica_category_stats_s": _total(table, "nullmodel.category_stats"),
        "nullmodel.significance_s": _total(table, "pipeline.significance"),
        "nullmodel.randomize_calls": randomize_calls,
        "nullmodel.randomize_failures": sum(
            1 for s in spans
            if s["name"] == "nullmodel.randomize" and s.get("error") == "RandomizationError"
        ),
        "nullmodel.links_merged_mean": statistics.fmean(merged) if merged else 0.0,
        "nullmodel.links_merged_max": max(merged, default=0),
        "nullmodel.builds_per_replica": randomize_calls / replicas if replicas else 0.0,
        "triads.triad_significance_s": _total(table, "pipeline.triad_significance"),
        "triads.replica_categorize_s": _total(table, "triads.categorize"),
        "triads.census_s": sum(_total(table, name) for name in census),
        "triads.census_calls": sum(_total(table, name, "calls") for name in census),
        "triads.census_nodes": sum(_count(table, name, "nodes") for name in census),
        "trace.overhead_s": traced.wall_s - _median(plain_walls) if plain_walls else 0.0,
    }
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    counts = {name: 1 for name in metrics}
    counts["trace.overhead_s"] = len(plain_walls)
    return metrics, [traced] + plain, counts, table


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("builds_per_replica"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; prints its table and returns the result object."""
    run = Run(name, seed, seconds)
    try:
        if trace:
            metrics, samples, counts, table = per_layer(run)
        else:
            metrics, samples, counts = end_to_end(run)
    finally:
        run.close()
    problems = run.problems + [p for s in samples for p in s.problems]
    failed = sum(not s.ok for s in samples)
    print(f"# {name}  seed {seed} (ledger {run.workload.ledger}-{run.index})  "
          f"{'traced' if trace else 'untraced'}  {run.elapsed():.1f} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<36} {value:>14.6f} {unit:<6} n={counts[metric]}")
    print("  child raw wall times x speed scales: "
          + ", ".join(f"{s.wall_s:.3f}x{s.scale:.3f}" for s in samples))
    for problem in problems:
        print(f"  FAILED: {problem}")
    if trace:
        artefact = WORK / f"trace-{name}-seed{seed}.json"
        artefact.parent.mkdir(parents=True, exist_ok=True)
        artefact.write_text(json.dumps(
            {"workload": name, "seed": seed, "layers": table, "metrics": {
                m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}},
            indent=2, sort_keys=True) + "\n")
        print(f"  span table written to {artefact.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def record_golden(names: list[str]) -> None:
    """Run every pool entry of the named ledgers once; store their hashes."""
    recorded = golden()["ledgers"] if GOLDEN.exists() else {}
    workdir = WORK / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "bundle"
    for name in names:
        workload = next(w for w in WORKLOADS.values() if w.ledger == name and w.jobs == 1)
        recorded[name] = {"accounts": LEDGERS[name], "entries": {}}
        for index in range(POOL):
            path = ledger_path(name, index, None)
            shutil.rmtree(out, ignore_errors=True)
            sample = spawn({**workload_job(workload, path, index, out, 1), "trace": False},
                           workdir, 600.0)
            problems = sample.problems or bundle.totals_problems(out)
            if problems:
                raise SystemExit(f"{name}-{index}: {problems}")
            recorded[name]["entries"][str(index)] = {
                "sha256": _sha256(path),
                "categories": bundle.category_sizes(out),
                "bundle": bundle.file_hashes(out),
            }
            print(f"recorded {name}-{index} in {sample.wall_s:.1f} s", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps({"pool": POOL, "ledgers": recorded}, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", nargs="*", choices=sorted(LEDGERS), metavar="LEDGER",
                        help="re-record golden.json entries of these ledgers (default all) "
                        "from the checkout's ledgerflow")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ledgerflow" / "__init__.py").is_file():
        print(f"no ledgerflow sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    _become_subreaper()
    # Unwind on SIGTERM so the running child's process group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.record_golden is not None:
        record_golden(args.record_golden or sorted(LEDGERS))
        return 0
    if not args.workload and not args.all:
        parser.error("give --workload NAME or --all")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {name: run_workload(name, args.seed, seconds, bool(args.trace)) for name in names}
    result = results[args.workload] if not args.all else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
