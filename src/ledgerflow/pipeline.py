"""Pipeline orchestration and report assembly.

``run_pipeline`` executes ingest, topology, significance, triads,
recirculation, and report stages against one ledger file, writing every
table as CSV and/or JSON plus a manifest describing inputs, seeds,
versions, and each stage's wall and CPU time and peak RSS. Outputs are
fully determined by the configuration (the manifest's stage timings are
the one exception).
"""

from __future__ import annotations

import hashlib
import math
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from decimal import Decimal
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import scipy

from . import __version__
from .degrees import degree_stats
from .errors import AnalysisError, ConfigError
from .graph import LedgerGraph, aggregate
from .ingest import ColumnMapping, FilterSpec, parse_ledger, write_transactions
from .nullmodel import EnsembleSpec, SwapMode, run_ensemble, significance
from .recirculation import (
    SIGNATURE_KEYS,
    ClassifiedOps,
    CrosstabResult,
    FrequencyCategory,
    Signatures,
    classify_ops,
    crosstab,
    extract_ops,
    user_categories,
    user_signatures,
)
from .stats import _MIN_ENSEMBLE, SignificanceCell
from .synthetic import ScenarioSpec, generate_synthetic
from .topology import (
    CATEGORY_ORDER,
    EDGE_CATEGORIES,
    CategoryRow,
    EdgeKind,
    OneTimeUserTable,
    TopologyPartition,
    category_stats,
    categorize,
    one_time_users,
)
from .triads import TRIAD_LABELS, category_census, triad_significance
from .util import (
    Coded, fork_call, format_duration, iso_rows, join_all, text_columns, write_csv, write_json,
)

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "StrategySignalReport",
    "run_pipeline",
    "strategy_report",
    "write_scenario",
]

_COLLECTOR_CATEGORIES = ("in-single-node", "dag0", "dagTin")


@dataclass(frozen=True)
class PipelineConfig:
    input_path: Path
    output_dir: Path
    column_mapping: ColumnMapping = field(default_factory=ColumnMapping)
    filter_spec: FilterSpec = field(default_factory=FilterSpec)
    modes: tuple[SwapMode, ...] = tuple(SwapMode)
    replicas: int = EnsembleSpec.replicas
    master_seed: int = 0
    max_repair_attempts: int = EnsembleSpec.max_repair_attempts
    jobs: int = 1
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        for name in ("replicas", "jobs", "max_repair_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for fmt in self.formats:
            if fmt not in ("csv", "json"):
                raise ConfigError(f"unknown format {fmt!r}")
        if not self.formats:
            raise ConfigError("at least one output format is required")
        if not self.modes:
            raise ConfigError("at least one swap mode is required")
        for i, mode in enumerate(self.modes):
            if mode in self.modes[:i]:
                raise ConfigError(f"swap mode {SwapMode(mode).value!r} given twice")


@dataclass(frozen=True)
class PipelineResult:
    manifest: dict
    output_files: tuple[Path, ...]


@dataclass(frozen=True)
class StrategySignalReport:
    """Usage-strategy signals assembled from the upstream tables.

    ``one_time_collector_share``: fraction of total volume sent by one-time
    users sitting in the collector-prone categories (in-single-node, dag0,
    dagTin). ``dag_collector_volume_share``: dagTin volume net of its
    one-time users, as a fraction of total volume.
    ``hfq1_only_user_share``: fraction of recirculating users whose whole
    signature is HFQ1, with their node-category breakdown.
    """

    one_time_collector_share: float
    dag_collector_volume_share: float
    hfq1_only_user_share: float
    hfq1_only_breakdown: dict[str, float]


def strategy_report(
    total_volume: Decimal,
    stats: Mapping[str, CategoryRow],
    one_time: OneTimeUserTable,
    mask: np.ndarray,
    user_category: np.ndarray,
) -> StrategySignalReport:
    """Compute the strategy shares from existing tables (no new graph work).

    ``mask`` and ``user_category`` hold each recirculating user's signature
    mask (``Signatures.mask``) and node-category code (``user_categories``),
    and are empty without operations. A ledger volume past float64 raises
    :class:`AnalysisError`: every share of it would be NaN or 0.
    """
    total = float(total_volume) if total_volume else 0.0
    if not math.isfinite(total):
        raise AnalysisError(f"cannot share out volume {total_volume}: not finite in float64")

    one_time_out = sum(
        float(one_time.rows[label].outgoing_volume)
        for label in _COLLECTOR_CATEGORIES
        if label in one_time.rows
    )
    one_time_share = one_time_out / total if total else 0.0

    dagtin_row = one_time.rows.get("dagTin")
    dagtin_one_time = (
        float(dagtin_row.outgoing_volume + dagtin_row.incoming_volume) if dagtin_row else 0.0
    )
    dag_collector = float(stats["dagTin"].volume) - dagtin_one_time
    dag_collector_share = max(0.0, dag_collector) / total if total else 0.0

    hfq1_only = user_category[mask == 1]  # mask 1: HFQ1 alone
    hfq1_share = hfq1_only.size / mask.size if mask.size else 0.0
    labels, counts = np.unique(_CATEGORY_NAMES[hfq1_only], return_counts=True)
    breakdown = dict(zip(labels.tolist(), (counts / hfq1_only.size).tolist()))

    return StrategySignalReport(
        one_time_collector_share=one_time_share,
        dag_collector_volume_share=dag_collector_share,
        hfq1_only_user_share=hfq1_share,
        hfq1_only_breakdown=breakdown,
    )


class _Writer:
    """Writes the bundle into ``out_dir`` and lists its files in ``written``.

    The bulk tables (``transactions_normalized``, ``node_assignment`` with
    ``edge_assignment``, ``operations``) are handed off where the serial run
    would write them, each to a forked child (``util.fork_call``) that
    writes its bytes beside the analysis; every column is codes into a
    table of distinct cells (``util.Coded``), so the parent builds no
    per-row text. ``join_all(pending)`` waits for them: before
    ``manifest.json``, and in ``run_pipeline``'s ``finally``.
    """

    def __init__(self, out_dir: Path, formats: tuple[str, ...]):
        self.out_dir = out_dir
        self.formats = formats
        self.written: list[Path] = []
        self.pending: list = []

    def fork(self, paths: Sequence[Path], fn, *args) -> None:
        """``fn(*args)``, which writes ``paths``, in a forked child."""
        self.pending.append(fork_call(fn, *args))
        self.written.extend(paths)

    def csv(self, name: str, header, rows=(), columns=None) -> None:
        """A small table given as rows of cells, or as ``write_csv`` columns."""
        if "csv" in self.formats:
            path = self.out_dir / f"{name}.csv"
            write_csv(path, header, columns or text_columns(rows, len(header)))
            self.written.append(path)

    def json(self, name: str, obj, always: bool = False) -> None:
        if always or "json" in self.formats:
            path = self.out_dir / f"{name}.json"
            write_json(path, obj)
            self.written.append(path)


def _category_stats_rows(stats: Mapping[str, CategoryRow]):
    for label in CATEGORY_ORDER:
        row = stats[label]
        is_edge = label.startswith("edge_")
        yield (
            "-" if is_edge else label,
            label if is_edge else "=",
            row.scc_count if label.startswith("scc") else None,
            row.wcc_count,
            row.node_count,
            row.link_count,
            row.tx_count,
            row.volume,
        )


_SIGNIFICANCE_HEADER = ("mode", *(f.name for f in fields(SignificanceCell)))


def _write_cells(writer: _Writer, name: str, cells: Sequence[SignificanceCell], mode: str) -> None:
    writer.csv(name, _SIGNIFICANCE_HEADER, ((mode, *cell.__dict__.values()) for cell in cells))
    writer.json(name, [{"mode": mode, **cell.__dict__} for cell in cells])


@contextmanager
def _timed(stages: dict[str, dict[str, float]], name: str):
    """Add the wall and CPU time of the ``with`` block, and the CPU time of
    the children reaped in it, to ``stages[name]``, and set there the peak
    RSS so far of this process and of its reaped children, in MB."""
    wall, cpu = time.perf_counter(), time.process_time()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    yield
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    stage = stages.setdefault(name, {"seconds": 0.0, "cpu_seconds": 0.0,
                                     "children_cpu_seconds": 0.0})
    stage["seconds"] += time.perf_counter() - wall
    stage["cpu_seconds"] += time.process_time() - cpu
    # Field by field: (u + s) - u0 - s0 can round to -0.0 when none ran.
    stage["children_cpu_seconds"] += ((children.ru_utime - before.ru_utime)
                                      + (children.ru_stime - before.ru_stime))
    stage["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
    stage["children_peak_rss_mb"] = children.ru_maxrss / 1024


ALL_STAGES: tuple[str, ...] = (
    "ingest", "topology", "significance", "triads", "recirculation", "report",
)

def run_pipeline(
    config: PipelineConfig,
    stages: frozenset[str] = frozenset(ALL_STAGES),
) -> PipelineResult:
    """Execute the selected stages and write the report bundle.

    Stages that are not selected write nothing; the upstream results they
    need are computed in memory. An ensemble too small to score fails
    before any work is done, and so does a stage name outside
    ``ALL_STAGES``.
    """
    unknown = sorted(stages.difference(ALL_STAGES))
    if unknown:
        raise ConfigError(f"unknown stage {unknown[0]!r} (one of {', '.join(ALL_STAGES)})")
    if stages & {"significance", "triads"} and config.replicas < _MIN_ENSEMBLE:
        raise AnalysisError(
            f"ensemble of {config.replicas} is below the minimum of {_MIN_ENSEMBLE}"
        )
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {out_dir}: {exc}") from None
    writer = _Writer(out_dir, tuple(config.formats))
    try:
        # A stage entered again adds to its time; the manifest lists stages in
        # ALL_STAGES order.
        stage_log: dict[str, dict[str, float]] = {}
        with _timed(stage_log, "ingest"):
            transactions, diagnostics = parse_ledger(
                config.input_path, config.column_mapping, config.filter_spec
            )
            # The one ledger from here on, self-transfers dropped once for the
            # graph and recirculation; the parsed one is released as soon as
            # the transactions writer has forked with it. The writer forks
            # once the graph is built: a ledger that cannot be summed leaves
            # no file behind.
            ledger = transactions.without_self_transfers()
            graph, _ = aggregate(ledger)
            diagnostics.self_transfers_dropped = len(transactions) - len(ledger)
            if "ingest" in stages:
                path = out_dir / "transactions_normalized.csv"
                write_transactions(path, transactions,
                                   write=lambda *table: writer.fork((path,), write_csv, *table))
            del transactions
            if "ingest" in stages:
                writer.json("ingest_diagnostics", diagnostics.__dict__, always=True)
                writer.json(
                    "ledger_totals",
                    {
                        "nodes": graph.node_count,
                        "links": graph.link_count,
                        "transactions": graph.tx_count,
                        "volume": graph.volume,
                    },
                    always=True,
                )
                if graph.node_count:
                    writer.json("degree_stats", degree_stats(graph).as_dict(), always=True)

        with _timed(stage_log, "topology"):
            partition = categorize(graph)
            stats = category_stats(graph, partition)
            one_time = one_time_users(graph, partition)
            if "topology" in stages:
                if "csv" in writer.formats:
                    paths = (out_dir / "node_assignment.csv", out_dir / "edge_assignment.csv")
                    writer.fork(paths, _write_assignments, *paths, graph, partition)
                writer.csv(
                    "category_stats",
                    ("node_label", "edge_label", "sccs", "wccs", "nodes", "links", "transactions",
                     "volume"),
                    _category_stats_rows(stats),
                )
                writer.json("category_stats",
                            {label: stats[label].__dict__ for label in CATEGORY_ORDER})
                writer.csv(
                    "one_time_users",
                    ("category", "one_outgoing", "one_incoming", "outgoing_volume",
                     "incoming_volume"),
                    ((label, *row.__dict__.values())
                     for label, row in [*one_time.rows.items(), ("total", one_time.total)]),
                )
                writer.json("one_time_users", asdict(one_time))

        # significance and triads: one ensemble per mode feeds both; the
        # replica builds are timed under the first selected of the two stages
        seeds: dict[str, int] = {}
        ensemble_stages = [name for name in ("significance", "triads") if name in stages]
        if "triads" in stages:
            with _timed(stage_log, "triads"):
                census_tables = category_census(graph, partition)
                writer.csv(
                    "triad_census",
                    ("category",) + TRIAD_LABELS,
                    ((label, *census.values()) for label, census in census_tables.items()),
                )
                writer.json("triad_census", census_tables)
        events = []
        for mode in config.modes if ensemble_stages else ():
            with _timed(stage_log, ensemble_stages[0]):
                spec = EnsembleSpec(
                    mode=mode,
                    replicas=config.replicas,
                    master_seed=config.master_seed,
                    max_repair_attempts=config.max_repair_attempts,
                )
                stats_ensemble, census_ensemble, replica_events = run_ensemble(
                    graph, spec, jobs=config.jobs)
                events.append(replica_events)
            if "significance" in stages:
                with _timed(stage_log, "significance"):
                    seeds[f"significance_{mode.value}"] = config.master_seed
                    cells = significance(stats, stats_ensemble)
                    _write_cells(writer, f"significance_{mode.value}", cells, mode.value)
            if "triads" in stages:
                with _timed(stage_log, "triads"):
                    seeds[f"triads_{mode.value}"] = config.master_seed
                    cells = triad_significance(census_tables, census_ensemble)
                    _write_cells(writer, f"triad_significance_{mode.value}", cells, mode.value)

        if events:
            repairs, reseeded, merged = np.concatenate(events).T
            stage_log[ensemble_stages[0]].update(
                replicas=merged.size, self_loop_repairs=int(repairs.sum()),
                reseeded_replicas=int(reseeded.sum()), links_merged_mean=float(merged.mean()),
                links_merged_max=int(merged.max()))

        # Each recirculating user's signature mask and node-category code.
        mask = user_category = np.zeros(0, dtype=np.int64)
        if "recirculation" in stages or "report" in stages:
            with _timed(stage_log, "recirculation"):
                ops = extract_ops(ledger)
                if ops:
                    classified = classify_ops(ops)
                    if "recirculation" in stages and "csv" in writer.formats:
                        path = out_dir / "operations.csv"
                        writer.fork((path,), _write_operations, path, classified)
                    signatures = user_signatures(classified)
                    mask = signatures.mask
                    user_category = user_categories(graph, partition, signatures)
                    if "recirculation" in stages:
                        tables = crosstab(graph, partition, classified, signatures)
                        _write_recirculation(writer, classified, signatures, user_category,
                                             tables)
                elif "recirculation" in stages:
                    writer.json("recirculation_coverage", {"op_count": 0}, always=True)

        if "report" in stages:
            with _timed(stage_log, "report"):
                strategy = strategy_report(graph.volume, stats, one_time, mask, user_category)
                writer.json("strategy_report", strategy.__dict__, always=True)

        with _timed(stage_log, "ingest"):  # the wait for the forked writers
            join_all(writer.pending)
    finally:  # no child outlives the run, and the earliest child's failure wins
        join_all(writer.pending)

    manifest = {
        "input": {
            "path": str(config.input_path),
            "sha256": _sha256(config.input_path),
        },
        "config": {
            "modes": [m.value for m in config.modes],
            "replicas": config.replicas,
            "master_seed": config.master_seed,
            "max_repair_attempts": config.max_repair_attempts,
            "jobs": config.jobs,
            "formats": list(config.formats),
            "keep_subtypes": list(config.filter_spec.keep_subtypes),
            "exclude_accounts": sorted(config.filter_spec.exclude_accounts),
        },
        "seeds": seeds,
        "versions": {
            "ledgerflow": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "stages": [
            {"name": name, **{key: round(value, 6) for key, value in stage_log[name].items()}}
            for name in ALL_STAGES
            if name in stage_log
        ],
        "outputs": sorted(str(p.name) for p in writer.written),
    }
    write_json(out_dir / "manifest.json", manifest)
    writer.written.append(out_dir / "manifest.json")
    return PipelineResult(manifest=manifest, output_files=tuple(writer.written))


_CATEGORY_NAMES = np.array(CATEGORY_ORDER, dtype=object)
# Component id prefix per node category code.
_COMPONENT_KINDS = np.array(
    ["scc:" if c.startswith("scc") else "dag:" if c.startswith("dag") else "node:"
     for c in CATEGORY_ORDER],
    dtype=object,
)
# Edge kind by category code for boundary links, then internal and attachment.
_EDGE_KINDS = CATEGORY_ORDER + (EdgeKind.INTERNAL.value, EdgeKind.ATTACHMENT.value)
_BOUNDARY_CODES = [CATEGORY_ORDER.index(c) for c in EDGE_CATEGORIES]


def _write_assignments(
    node_path: Path, edge_path: Path, g: LedgerGraph, partition: TopologyPartition
) -> None:
    """``node_assignment`` and ``edge_assignment``, as codes into tables.

    A component is named by its kind and its first member. A boundary link
    has no owner (the empty name after the components'); any other link
    belongs to the larger component index of its ends: its own component
    when internal, the single-node (whose index is offset past every
    SCC's) when an attachment.
    """
    labels, component = partition.labels, partition.component
    nodes = np.array(g.nodes, dtype=object)
    index, first, of_node = np.unique(component, return_index=True, return_inverse=True)
    names = (_COMPONENT_KINDS[labels.node[first]] + nodes[first]).tolist()
    write_csv(
        node_path,
        ("node_id", "category", "component_id"),
        (g.nodes, Coded(labels.node, CATEGORY_ORDER), Coded(of_node, names)),
    )
    cs, ct = component[g.sources], component[g.targets]
    boundary = np.isin(labels.link, _BOUNDARY_CODES)
    owner = np.where(boundary, index.size, np.searchsorted(index, np.maximum(cs, ct)))
    write_csv(
        edge_path,
        ("source", "target", "kind", "component_id", "category_label"),
        (
            Coded(g.sources, g.nodes),
            Coded(g.targets, g.nodes),
            Coded(np.where(boundary, labels.link, len(CATEGORY_ORDER) + (cs != ct)), _EDGE_KINDS),
            Coded(owner, names + [""]),
            Coded(labels.link, CATEGORY_ORDER),
        ),
    )


def _int_cells(values: np.ndarray) -> Coded:
    """Integers as codes into the table of their distinct texts."""
    table, codes = np.unique(values, return_inverse=True)
    return Coded(codes, list(map(str, table.tolist())))


def _write_operations(path: Path, classified: ClassifiedOps) -> None:
    """``operations``, as codes into tables."""
    ops = classified.ops
    write_csv(
        path,
        ("user", "first_in", "last_out", "duration_seconds", "n_in", "n_out", "category"),
        (Coded(ops.user, ops.ledger.accounts), Coded(ops.first_in, iso_rows),
         Coded(ops.last_out, iso_rows), *map(_int_cells, (ops.duration, ops.n_in, ops.n_out)),
         Coded(classified.codes, [c.value for c in FrequencyCategory])),
    )


def _write_recirculation(
    writer: _Writer,
    classified: ClassifiedOps,
    signatures: Signatures,
    user_category: np.ndarray,
    tables: CrosstabResult,
) -> None:
    freq_labels = tuple(c.value for c in FrequencyCategory)
    boundaries = classified.boundaries
    writer.json(
        "recirculation_boundaries",
        {
            "q1_seconds": boundaries.q1,
            "q2_seconds": boundaries.q2,
            "q3_seconds": boundaries.q3,
            "q1": format_duration(boundaries.q1),
            "q2": format_duration(boundaries.q2),
            "q3": format_duration(boundaries.q3),
            "modes": {
                category.value: (None if mode is None else {"seconds": mode.value, "count": mode.count})
                for category, mode in classified.modes.items()
            },
            "global_mode": {
                "seconds": classified.global_mode.value,
                "count": classified.global_mode.count,
            },
        },
        always=True,
    )
    writer.csv(
        "user_signatures",
        ("user", "signature", "node_category"),
        columns=(
            Coded(signatures.user, signatures.ledger.accounts),
            Coded(signatures.mask, SIGNATURE_KEYS),
            Coded(user_category, CATEGORY_ORDER),
        ),
    )
    writer.csv(
        "recirculation_tx_crosstab",
        ("category",) + freq_labels + ("total",),
        (
            (label,)
            + tuple(tables.tx_table[label][f] for f in freq_labels)
            + (sum(tables.tx_table[label].values()),)
            for label in sorted(tables.tx_table)
        ),
    )
    writer.csv(
        "recirculation_user_crosstab",
        ("node_category", "signature", "users"),
        (
            (label, signature, count)
            for label in sorted(tables.user_table)
            for signature, count in sorted(tables.user_table[label].items())
        ),
    )
    writer.json("recirculation_coverage", tables.coverage.__dict__, always=True)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # Not the whole ledger at once, and in blocks small enough that the
        # read buffer never sets a small run's peak RSS.
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def write_scenario(out_dir: Path, spec: ScenarioSpec, seed: int) -> tuple[Path, Path]:
    """Write a synthetic ledger plus its ground-truth categories."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = generate_synthetic(spec, seed)
    ledger_path = out_dir / "ledger.csv"
    truth_path = out_dir / "ground_truth.csv"
    write_transactions(ledger_path, ledger.transactions)
    write_csv(
        truth_path,
        ("node_id", "category"),
        text_columns(sorted(ledger.node_category.items()), 2),
    )
    return ledger_path, truth_path
