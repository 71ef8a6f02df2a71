"""Command-line front door.

Subcommands: ingest, topology, significance, triads, recirculation,
report, generate, run. Global flags pick the config file, seed, worker
count, output directory, and table format. Exit codes: 0 success,
2 configuration error, 3 data error, 4 analysis error or any other
failure; every failure writes ``error_report.json`` once the output
directory is known.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AnalysisError, ConfigError, DataError, LedgerflowError
from .ingest import ColumnMapping, FilterSpec
from .nullmodel import SwapMode
from .pipeline import ALL_STAGES, PipelineConfig, run_pipeline, write_scenario
from .synthetic import ScenarioSpec
from .util import write_json

__all__ = ["main", "build_parser", "load_config_file"]

_CONFIG_KEYS = {
    "input", "output", "format", "seed", "jobs", "replicas", "modes",
    "keep_subtypes", "exclude_accounts", "max_repair_attempts",
    "col_tx_id", "col_timestamp", "col_source", "col_target", "col_amount",
    "col_subtype", "timestamp_format",
}


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a plain-text ``key = value`` config file ('#' starts a comment)."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value
    return values


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_modes(value: str) -> tuple[SwapMode, ...]:
    if value == "all":
        return (SwapMode.TARGET, SwapMode.SOURCE, SwapMode.BOTH)
    modes = []
    for name in _split_csv(value):
        try:
            modes.append(SwapMode(name))
        except ValueError:
            raise ConfigError(f"unknown swap mode {name!r}") from None
    return tuple(modes)


def _build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    file_values = load_config_file(args.config) if args.config else {}

    def pick(key: str, flag_value, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    input_path = pick("input", getattr(args, "input", None), None)
    if input_path is None:
        raise ConfigError("no input ledger given (positional INPUT or 'input' in config)")
    output = Path(pick("output", args.output, "ledgerflow-out"))
    fmt = pick("format", args.format, "both")
    formats = ("csv", "json") if fmt == "both" else (fmt,)
    modes = pick("modes", getattr(args, "mode", None), "all")
    if isinstance(modes, str):
        modes = _parse_modes(modes)

    mapping = ColumnMapping(
        tx_id=file_values.get("col_tx_id", "id"),
        timestamp=file_values.get("col_timestamp", "timeset"),
        source=file_values.get("col_source", "source"),
        target=file_values.get("col_target", "target"),
        amount=file_values.get("col_amount", "weight"),
        subtype=file_values.get("col_subtype", "transfer_subtype"),
        timestamp_format=file_values.get("timestamp_format", "auto"),
    )
    filter_spec = FilterSpec(
        keep_subtypes=_split_csv(file_values["keep_subtypes"])
        if "keep_subtypes" in file_values
        else ("STANDARD",),
        exclude_accounts=frozenset(_split_csv(file_values.get("exclude_accounts", ""))),
    )

    try:
        return PipelineConfig(
            input_path=Path(input_path),
            output_dir=output,
            column_mapping=mapping,
            filter_spec=filter_spec,
            modes=modes,
            replicas=int(pick("replicas", getattr(args, "replicas", None), 1000)),
            master_seed=int(pick("seed", args.seed, 0)),
            max_repair_attempts=int(pick("max_repair_attempts", None, 100)),
            jobs=int(pick("jobs", args.jobs, 1)),
            formats=formats,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="FILE", default=default,
                        help="plain-text key=value config file")
    parser.add_argument("--seed", type=int, default=default, help="master seed (default 0)")
    parser.add_argument("--jobs", type=int, default=default, help="worker processes (default 1)")
    parser.add_argument("--output", metavar="DIR", default=default, help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default=default,
                        help="table format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ledgerflow",
        description="Topology, null-model significance, and recirculation analytics "
        "for transaction ledgers.",
    )
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, with_input: bool = True,
                with_ensemble: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _global_flags(p, suppress=True)
        if with_input:
            p.add_argument("input", nargs="?", default=None, metavar="INPUT", help="ledger CSV")
        if with_ensemble:
            p.add_argument("--mode", default=None, help="target, source, both, or all")
            p.add_argument("--replicas", type=int, default=None,
                           help="ensemble size (default 1000)")
        return p

    command("ingest", "parse, aggregate, descriptive stats")
    command("topology", "categorise nodes and links")
    command("significance", "null-model ensembles over category sizes", with_ensemble=True)
    command("triads", "triadic census and its significance", with_ensemble=True)
    command("recirculation", "recirculation operations and cross-tabs")
    command("report", "strategy-signal report (no ensembles)")
    command("run", "full pipeline", with_ensemble=True)

    p_gen = command("generate", "synthetic ledger with planted structures", with_input=False)
    p_gen.add_argument("--cycles", type=int, default=0)
    p_gen.add_argument("--cycle-length", type=int, default=3)
    p_gen.add_argument("--cliques", type=int, default=0)
    p_gen.add_argument("--clique-size", type=int, default=4)
    p_gen.add_argument("--stars", type=int, default=0)
    p_gen.add_argument("--star-arms", type=int, default=2)
    p_gen.add_argument("--dyads", type=int, default=0)
    p_gen.add_argument("--horizon-days", type=int, default=30)
    return parser


def _write_error_report(output: Path | None, exc: Exception, code: int) -> None:
    # Structured error report lands next to the outputs when a directory is
    # known; config errors before that point only reach stderr.
    if output is None:
        return
    try:
        output.mkdir(parents=True, exist_ok=True)
        write_json(
            output / "error_report.json",
            {"error_type": type(exc).__name__, "message": str(exc), "exit_code": code},
        )
    except OSError:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The flag until the configuration resolves the run's output directory.
    output = Path(args.output) if args.output else None
    try:
        if args.command == "generate":
            output = Path(args.output or "ledgerflow-out")
            try:
                spec = ScenarioSpec(
                    cycles=args.cycles,
                    cycle_length=args.cycle_length,
                    cliques=args.cliques,
                    clique_size=args.clique_size,
                    stars=args.stars,
                    star_arms=args.star_arms,
                    dyads=args.dyads,
                    horizon=args.horizon_days * 86_400,
                )
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            ledger_path, truth_path = write_scenario(output, spec, args.seed or 0)
            print(f"wrote {ledger_path} and {truth_path}")
            return 0
        config = _build_pipeline_config(args)
        output = config.output_dir
        # A single-stage command runs the pipeline with only that stage
        # selected, so its files are byte-identical to those of a full run.
        stages = ALL_STAGES if args.command == "run" else (args.command,)
        run_pipeline(config, stages=frozenset(stages))
        print(f"wrote outputs to {config.output_dir}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _write_error_report(output, exc, 2)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        _write_error_report(output, exc, 3)
        return 3
    except (AnalysisError, LedgerflowError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        _write_error_report(output, exc, 4)
        return 4
    except Exception as exc:  # a defect, but still an exit code and a report
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _write_error_report(output, exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
