"""In-memory span tracer that wraps ledgerflow's layer entry points.

The benchmark records spans from its own code: ``install`` replaces the
public functions named in ``WRAPPED`` in the namespace of the module that
imported them, so each call through that name opens a span. A span holds
its name, start, end, the index of the span that was open when it began,
and a few counts taken from the call's arguments and result after the span
closed. Spans stay in a list until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from typing import Callable

# (module, name) pairs wrapped in a traced run; the span is named
# "<module>.<name>" with the module's last dotted part.
WRAPPED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ledgerflow.pipeline", (
        "parse_ledger", "aggregate", "write_transactions", "degree_stats",
        "categorize", "category_stats", "one_time_users", "run_ensemble",
        "significance", "category_census", "triad_significance",
        "extract_ops", "classify_ops", "user_signatures", "crosstab",
        "run_pipeline",
    )),
    ("ledgerflow.nullmodel", ("randomize", "categorize", "category_stats")),
    ("ledgerflow.triads", ("categorize", "category_census")),
)


class Tracer:
    """Collects spans; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``counter(bound_arguments, result)`` returns a dict of counts; it
        runs after the span has closed, so its cost is not in the span.
        """
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": self.clock(),
                "end": None,
                "parent": self._open[-1] if self._open else None,
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                self._open.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced


def _parse_counts(arguments, result) -> dict:
    diagnostics = result[1]
    return {"rows_read": diagnostics.rows_read, "rows_filtered": diagnostics.rows_filtered}


def _aggregate_counts(arguments, result) -> dict:
    graph = result[0]
    return {"nodes": graph.node_count, "links": graph.link_count, "tx": graph.tx_count}


def _ops_counts(arguments, result) -> dict:
    return {"ops": len(result)}


def _randomize_counts(arguments, result) -> dict:
    return {"links_merged": arguments["g"].link_count - result.link_count}


def _census_counts(arguments, result) -> dict:
    wanted = set(arguments["categories"])
    per_category = Counter(arguments["partition"].node_category.values())
    return {"nodes": sum(n for category, n in per_category.items() if category in wanted)}


_COUNTERS = {
    "pipeline.parse_ledger": _parse_counts,
    "pipeline.aggregate": _aggregate_counts,
    "pipeline.extract_ops": _ops_counts,
    "nullmodel.randomize": _randomize_counts,
    "pipeline.category_census": _census_counts,
    "triads.category_census": _census_counts,
}


def install(tracer: Tracer) -> None:
    """Wrap every function in ``WRAPPED`` where its module looks it up."""
    for module_name, names in WRAPPED:
        module = importlib.import_module(module_name)
        layer = module_name.rsplit(".", 1)[-1]
        for name in names:
            span_name = f"{layer}.{name}"
            setattr(module, name, tracer.wrap(span_name, getattr(module, name),
                                              _COUNTERS.get(span_name)))


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread nest, so direct children never overlap and the
    covered time is the sum of their durations.
    """
    own = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, failed calls, total and self seconds, summed counts."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span["name"], {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        row["calls"] += 1
        row["errors"] += "error" in span
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
        for key, value in span.get("counts", {}).items():
            row["counts"][key] = row["counts"].get(key, 0) + value
    return dict(sorted(table.items()))
