"""Command-line front door.

Subcommands: ingest, topology, significance, triads, recirculation,
report, generate, run. Global flags pick the config file, seed, worker
count, output directory, and table format. A flag overrides the config
file, and a setting given by neither keeps the default of the dataclass
that owns it (``PipelineConfig``, ``ColumnMapping``, ``FilterSpec``).
Exit codes: 0 success, 2 configuration error (a command line that does not
parse too), 3 data error, 4 analysis error or any other failure; every
failure writes ``error_report.json`` once the output directory is known.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError, LedgerflowError
from .ingest import ColumnMapping, FilterSpec
from .nullmodel import SwapMode
from .pipeline import ALL_STAGES, PipelineConfig, run_pipeline, write_scenario
from .synthetic import ScenarioSpec
from .util import write_json

__all__ = ["main", "build_parser", "load_config_file"]

_OUTPUT_DIR = "ledgerflow-out"


def _split_csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_modes(value: str) -> tuple[SwapMode, ...]:
    if value == "all":
        return tuple(SwapMode)
    modes = []
    for name in _split_csv(value):
        try:
            modes.append(SwapMode(name))
        except ValueError:
            raise ConfigError(f"unknown swap mode {name!r}") from None
    return tuple(modes)


# Config key (and flag) -> (field, parser of its value), for the fields of
# PipelineConfig, FilterSpec and ColumnMapping. A key not given leaves the
# field at its default.
_PIPELINE_KEYS = {
    "input": ("input_path", Path), "output": ("output_dir", Path),
    "format": ("formats", lambda v: ("csv", "json") if v == "both" else (v,)),
    "modes": ("modes", _parse_modes), "seed": ("master_seed", int), "jobs": ("jobs", int),
    "replicas": ("replicas", int), "max_repair_attempts": ("max_repair_attempts", int),
}
_FILTER_KEYS = {
    "keep_subtypes": ("keep_subtypes", _split_csv),
    "exclude_accounts": ("exclude_accounts", lambda v: frozenset(_split_csv(v))),
}
_COLUMN_KEYS = {
    "col_tx_id": ("tx_id", str), "col_timestamp": ("timestamp", str),
    "col_source": ("source", str), "col_target": ("target", str),
    "col_amount": ("amount", str), "col_subtype": ("subtype", str),
    "timestamp_format": ("timestamp_format", str),
}
_CONFIG_KEYS = {*_PIPELINE_KEYS, *_FILTER_KEYS, *_COLUMN_KEYS}
# ScenarioSpec fields that `generate` takes as flags, besides --horizon-days.
_SCENARIO_FLAGS = ("cycles", "cycle_length", "cliques", "clique_size", "stars", "star_arms",
                   "dyads")
_DAY = 86_400


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a plain-text ``key = value`` config file ('#' starts a comment).

    A file that cannot be read, or is not UTF-8 text, raises
    :class:`ConfigError`.
    """
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
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


def _config_values(args: argparse.Namespace) -> dict:
    """The config file's values overridden by the flags given, with the
    output directory defaulting to ``ledgerflow-out``."""
    values: dict = {"output": _OUTPUT_DIR}
    if args.config:
        values.update(load_config_file(args.config))
    values.update((key, value) for key, value in vars(args).items()
                  if key in _CONFIG_KEYS and value is not None)
    return values


def _fields(values: dict, keys: dict) -> dict:
    return {name: parse(values[key]) for key, (name, parse) in keys.items() if key in values}


def _build_pipeline_config(values: dict) -> PipelineConfig:
    if "input" not in values:
        raise ConfigError("no input ledger given (positional INPUT or 'input' in config)")
    try:
        return PipelineConfig(
            column_mapping=ColumnMapping(**_fields(values, _COLUMN_KEYS)),
            filter_spec=FilterSpec(**_fields(values, _FILTER_KEYS)),
            **_fields(values, _PIPELINE_KEYS),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_scenario(args: argparse.Namespace) -> ScenarioSpec:
    try:
        return ScenarioSpec(horizon=args.horizon_days * _DAY,
                            **{name: getattr(args, name) for name in _SCENARIO_FLAGS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a bad or unknown flag, or no subcommand
        raise ConfigError(message)


def _argv_output(argv: list[str] | None) -> Path | None:
    """The ``--output`` that a command line gives, read even where it does not parse."""
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--output", nargs="?", type=Path)
    return scan.parse_known_args(argv)[0].output


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", metavar="FILE", default=default,
                        help="plain-text key=value config file")
    parser.add_argument("--seed", type=int, default=default,
                        help=f"master seed (default {PipelineConfig.master_seed})")
    parser.add_argument("--jobs", type=int, default=default,
                        help=f"replica child processes (default {PipelineConfig.jobs})")
    parser.add_argument("--output", metavar="DIR", default=default,
                        help=f"output directory (default {_OUTPUT_DIR})")
    parser.add_argument("--format", choices=("csv", "json", "both"), default=default,
                        help="table format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            p.add_argument("--mode", dest="modes", default=None,
                           help="target, source, both, or all")
            p.add_argument("--replicas", type=int, default=None,
                           help=f"ensemble size (default {PipelineConfig.replicas})")
        return p

    command("ingest", "parse, aggregate, descriptive stats")
    command("topology", "categorise nodes and links")
    command("significance", "null-model ensembles over category sizes", with_ensemble=True)
    command("triads", "triadic census and its significance", with_ensemble=True)
    command("recirculation", "recirculation operations and cross-tabs")
    command("report", "strategy-signal report (no ensembles)")
    command("run", "full pipeline", with_ensemble=True)

    p_gen = command("generate", "synthetic ledger with planted structures", with_input=False)
    for name in _SCENARIO_FLAGS:
        p_gen.add_argument(f"--{name.replace('_', '-')}", type=int,
                           default=getattr(ScenarioSpec, name))
    p_gen.add_argument("--horizon-days", type=int, default=ScenarioSpec.horizon // _DAY)
    return parser


def _write_error_report(output: Path | None, exc: BaseException, code: int) -> None:
    # Structured error report lands next to the outputs when a directory is
    # known; an unreadable config file without --output only reaches stderr.
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


# Exit code and stderr label per error type; the first match applies.
_FAILURES = (
    (ConfigError, 2, "configuration error"),
    (DataError, 3, "data error"),
    (LedgerflowError, 4, "analysis error"),
    (Exception, 4, "internal error"),  # a defect, but still an exit code and a report
)


def main(argv: list[str] | None = None) -> int:
    # The flag until the configuration resolves the run's output directory.
    output = _argv_output(argv)
    try:
        try:
            args = build_parser().parse_args(argv)
        except ConfigError:  # a command line that does not parse
            output = output or Path(_OUTPUT_DIR)
            raise
        if args.command == "generate":
            output = output or Path(_OUTPUT_DIR)
            spec = _build_scenario(args)
            seed = PipelineConfig.master_seed if args.seed is None else args.seed
            ledger_path, truth_path = write_scenario(output, spec, seed)
            print(f"wrote {ledger_path} and {truth_path}")
            return 0
        values = _config_values(args)
        output = Path(values["output"])
        config = _build_pipeline_config(values)
        # A single-stage command runs the pipeline with only that stage
        # selected, so its files are byte-identical to those of a full run.
        stages = ALL_STAGES if args.command == "run" else (args.command,)
        run_pipeline(config, stages=frozenset(stages))
        print(f"wrote outputs to {config.output_dir}")
        return 0
    except Exception as exc:
        code, label = next((code, label) for kind, code, label in _FAILURES
                           if isinstance(exc, kind))
        detail = exc if isinstance(exc, LedgerflowError) else f"{type(exc).__name__}: {exc}"
        print(f"{label}: {detail}", file=sys.stderr)
        _write_error_report(output, exc, code)
        return code
    except KeyboardInterrupt as exc:  # Ctrl-C: the shell's code for SIGINT
        print("interrupted", file=sys.stderr)
        _write_error_report(output, exc, 130)
        return 130


if __name__ == "__main__":
    sys.exit(main())
