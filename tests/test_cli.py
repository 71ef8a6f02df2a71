import json
import os
from pathlib import Path

import pytest

from ledgerflow import cli
from ledgerflow.cli import (
    _build_pipeline_config, _config_values, build_parser, load_config_file, main,
)
from ledgerflow.errors import ConfigError
from ledgerflow.ingest import ColumnMapping, FilterSpec
from ledgerflow.nullmodel import SwapMode
from ledgerflow.pipeline import PipelineConfig

DEMO_LEDGER = Path(__file__).resolve().parent.parent / "demos" / "data" / "demo_ledger.csv"


def test_generate_then_run(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    code = main(
        ["generate", "--cliques", "4", "--clique-size", "4", "--stars", "6",
         "--dyads", "4", "--output", str(gen_dir), "--seed", "3"]
    )
    assert code == 0
    assert (gen_dir / "ledger.csv").exists()
    assert (gen_dir / "ground_truth.csv").exists()

    out_dir = tmp_path / "out"
    code = main(
        ["run", str(gen_dir / "ledger.csv"), "--output", str(out_dir),
         "--seed", "5", "--replicas", "10", "--mode", "target", "--jobs", "2"]
    )
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["stages"]) == 6
    assert manifest["config"]["replicas"] == 10
    assert manifest["config"]["jobs"] == 2


def test_generate_invalid_scenario_is_config_error(tmp_path):
    code = main(["generate", "--stars", "3", "--star-arms", "1",
                 "--output", str(tmp_path / "g")])
    assert code == 2


@pytest.mark.parametrize("days", ["4000000", "100000000000000"])
def test_generate_horizon_past_year_9999_is_config_error(tmp_path, days):
    # Past datetime's range, and (for the second) past int64 seconds.
    out = tmp_path / "g"
    code = main(["generate", "--output", str(out), "--seed", "1", "--cycles", "3",
                 "--horizon-days", days])
    assert code == 2
    assert [p.name for p in out.iterdir()] == ["error_report.json"]
    report = json.loads((out / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert report["exit_code"] == 2


def test_single_stage_commands(tmp_path):
    out_dir = tmp_path / "topo"
    code = main(["topology", str(DEMO_LEDGER), "--output", str(out_dir)])
    assert code == 0
    assert (out_dir / "node_assignment.csv").exists()
    assert not (out_dir / "significance_target.csv").exists()

    out_dir2 = tmp_path / "recirc"
    code = main(["recirculation", str(DEMO_LEDGER), "--output", str(out_dir2)])
    assert code == 0
    assert (out_dir2 / "operations.csv").exists()

    out_dir3 = tmp_path / "report"
    code = main(["report", str(DEMO_LEDGER), "--output", str(out_dir3)])
    assert code == 0
    assert (out_dir3 / "strategy_report.json").exists()
    assert not (out_dir3 / "operations.csv").exists()  # computed, not written


def test_significance_mode_flag(tmp_path):
    out_dir = tmp_path / "sig"
    code = main(
        ["significance", str(DEMO_LEDGER), "--output", str(out_dir),
         "--mode", "source", "--replicas", "9", "--seed", "2"]
    )
    assert code == 0
    assert (out_dir / "significance_source.csv").exists()
    assert not (out_dir / "significance_target.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "x.csv", "--replicas", "abc"],  # a flag's value
    ["run", "x.csv", "--bogus"],  # an unknown flag
    ["--seed", "1"],  # no subcommand
    ["run", "--mode"],  # a flag without its value
])
@pytest.mark.parametrize("flags", [[], ["--output", "{}"], ["--output={}"]])
def test_a_command_line_that_does_not_parse_is_config_error(tmp_path, monkeypatch, capsys,
                                                            argv, flags):
    # The report goes to the --output the command line names, else to the default.
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / ("OUT" if flags else "ledgerflow-out")
    assert main([flag.format(out_dir) for flag in flags] + argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == [out_dir.name]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert report["exit_code"] == 2
    assert capsys.readouterr().err == f"configuration error: {report['message']}\n"


def test_help_exits_0_and_writes_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help", "--output", str(tmp_path / "OUT")])
    assert exit_info.value.code == 0
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out.startswith("usage: ledgerflow run")


@pytest.mark.parametrize("command", [["generate"], ["ingest", str(DEMO_LEDGER)]])
def test_an_output_path_that_is_a_file_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "F"
    out.write_text("a file\n")
    assert main(command + ["--output", str(out)]) == 2
    assert out.read_text() == "a file\n"
    assert "configuration error: output directory not writable" in capsys.readouterr().err


def test_missing_input_is_config_error(tmp_path):
    assert main(["run", "--output", str(tmp_path / "x")]) == 2


def test_nonexistent_ledger_is_data_error(tmp_path):
    assert main(["run", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o")]) == 3
    report = json.loads((tmp_path / "o" / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert report["exit_code"] == 3


def test_infinite_amount_is_data_error(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n"
        "t1,2020-01-01T00:00:00Z,a,b,5,STANDARD\n"
        "t2,2020-01-01T00:00:01Z,b,a,Infinity,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "o"
    assert main(["run", str(ledger), "--output", str(out_dir), "--replicas", "8"]) == 3
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert report["exit_code"] == 3


def test_out_of_range_timestamp_is_data_error(tmp_path):
    # A stamp past datetime's range used to pass ingest and crash the
    # normalised-ledger writer with a half-written file.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n"
        "t1,1600000000,a,b,5,STANDARD\n"
        "t2,99999999999999,b,a,5,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "o"
    assert main(["run", str(ledger), "--output", str(out_dir), "--replicas", "8"]) == 3
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert report["message"].startswith("row 3: bad timestamp")


def test_cell_past_the_field_limit_is_data_error(tmp_path):
    # csv.reader refuses a cell longer than csv.field_size_limit() (131,072
    # characters by default); the column path declines such a file. After
    # several plain blocks, the row loop takes over at the declined block and
    # numbers its rows on; a byte that is not UTF-8 and a short row there are
    # data errors too.
    header = "id,timeset,source,target,weight,transfer_subtype\n"
    plain = "".join(f"t{i},2020-01-01T00:00:00,a,b,5,STANDARD\n" for i in range(5000))
    late = "t9,2020-01-01T00:00:00Z,a,b,5,STANDARD\n"
    cases = [
        (f"t1,2020-01-01T00:00:00Z,{'a' * 140_000},b,5,STANDARD\n".encode(),
         "row 2: field larger than field limit"),
        ((plain + late.replace(",a,", f",{'a' * 140_000},")).encode(),
         "row 5002: field larger than field limit"),
        (plain.encode() + late.encode().replace(b",a,", b",a\xff,"),
         "ledger {ledger} is not UTF-8 text (invalid start byte)"),
        ((plain + late.replace(",STANDARD", "")).encode(), "row 5002: expected 6 columns, got 5"),
    ]
    for k, (body, message) in enumerate(cases):
        ledger = tmp_path / f"ledger{k}.csv"
        ledger.write_bytes(header.encode() + body)
        out_dir = tmp_path / f"o{k}"
        assert main(["ingest", str(ledger), "--output", str(out_dir)]) == 3
        report = json.loads((out_dir / "error_report.json").read_text())
        assert report["error_type"] == "DataError"
        assert report["message"].startswith(message.format(ledger=ledger))


def _unreadable(tmp_path: Path, kind: str, text: str) -> Path:
    """A path that cannot be read as UTF-8 text: missing, a directory, a
    FIFO without a writer, or ``text`` with a byte that is not UTF-8 in its
    last line."""
    path = tmp_path / f"{kind}.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    elif kind == "not-utf8":
        path.write_bytes(text.encode() + b"a\xff")
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_config_file_is_config_error(tmp_path, kind):
    config = _unreadable(tmp_path, kind, "replicas = 8\n# ")
    out_dir = tmp_path / "o"
    assert main(["--config", str(config), "run", str(DEMO_LEDGER), "--output", str(out_dir)]) == 2
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert str(config) in report["message"]


@pytest.mark.parametrize("kind", ["directory", "fifo", "not-utf8"])
def test_unreadable_ledger_is_data_error(tmp_path, kind):
    # The bad byte sits in an account cell past the first read buffer.
    rows = "".join(f"t{i},2020-01-01T00:00:00Z,a,b,5,STANDARD\n" for i in range(4000))
    ledger = _unreadable(tmp_path, kind,
                         "id,timeset,source,target,weight,transfer_subtype\n" + rows + "t,1,")
    out_dir = tmp_path / "o"
    assert main(["run", str(ledger), "--output", str(out_dir), "--replicas", "8"]) == 3
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert str(ledger) in report["message"]


def test_error_report_goes_to_config_file_output(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n"
        "t1,2020-01-01T00:00:00Z,a,b,NaN,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "from-config"
    config = tmp_path / "run.cfg"
    config.write_text(f"output = {out_dir}\nreplicas = 8\n", encoding="utf-8")
    assert main(["--config", str(config), "run", str(ledger)]) == 3
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert report["exit_code"] == 3


def test_ensemble_commands_match_run(tmp_path):
    # significance and triads write exactly the files a full run writes
    # for them, byte for byte.
    flags = ["--mode", "all", "--replicas", "8", "--seed", "3"]
    assert main(["run", str(DEMO_LEDGER), "--output", str(tmp_path / "run")] + flags) == 0
    for command, prefixes in (
        ("significance", ("significance_",)),
        ("triads", ("triad_census", "triad_significance_")),
    ):
        out_dir = tmp_path / command
        assert main([command, str(DEMO_LEDGER), "--output", str(out_dir)] + flags) == 0
        written = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
        assert written and all(name.startswith(prefixes) for name in written)
        for name in written:
            assert (out_dir / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name


def test_bad_mode_is_config_error(tmp_path):
    code = main(
        ["significance", str(DEMO_LEDGER), "--output", str(tmp_path / "o"), "--mode", "spiral"]
    )
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_config_error(tmp_path, jobs):
    out_dir = tmp_path / "out"
    code = main(
        ["run", str(DEMO_LEDGER), "--output", str(out_dir), "--jobs", jobs, "--replicas", "8"]
    )
    assert code == 2
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert "jobs" in report["message"]


@pytest.mark.parametrize("attempts", ["0", "-1"])
def test_repair_budget_below_one_is_config_error(tmp_path, attempts):
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"max_repair_attempts = {attempts}\n", encoding="utf-8")
    code = main(
        ["--config", str(config), "run", str(DEMO_LEDGER), "--output", str(out_dir),
         "--replicas", "8"]
    )
    assert code == 2
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert "max_repair_attempts" in report["message"]


@pytest.mark.parametrize("where", ["flag", "config file"])
def test_repeated_swap_mode_is_config_error(tmp_path, where):
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text("modes = target, both, target\n" if where == "config file" else "",
                      encoding="utf-8")
    flags = ["--mode", "target,both,target"] if where == "flag" else []
    code = main(["--config", str(config), "significance", str(DEMO_LEDGER), "--output",
                 str(out_dir), "--replicas", "8", *flags])
    assert code == 2
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert report["message"] == "swap mode 'target' given twice"


def test_randomization_error_report_is_the_same_at_any_job_count(tmp_path, monkeypatch):
    import ledgerflow.nullmodel as nullmodel

    # Three accounts, every ordered pair linked: with one repair attempt a
    # target swap runs out of repairs on some replica, in a forked child
    # at --jobs 2.
    ledger = tmp_path / "triangle.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n" + "".join(
            f"{i},2020-01-01T00:00:0{i}+00:00,{a},{b},1,STANDARD\n"
            for i, (a, b) in enumerate(["AB", "BA", "BC", "CB", "AC", "CA"])
        ),
        encoding="utf-8",
    )
    config = tmp_path / "run.cfg"
    config.write_text("max_repair_attempts = 1\n", encoding="utf-8")
    monkeypatch.setattr(nullmodel, "usable_cpus", lambda: 2)
    reports = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        code = main(["--config", str(config), "significance", str(ledger), "--output",
                     str(out_dir), "--mode", "target", "--replicas", "40", "--seed", "1",
                     "--jobs", jobs])
        assert code == 4
        reports.append((out_dir / "error_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["error_type"] == "RandomizationError"


def test_too_small_ensemble_is_analysis_error(tmp_path):
    # significance needs at least 8 replicas for the normality test; the
    # check comes before ingest, so nothing but the report is written
    for command in ("significance", "run"):
        out_dir = tmp_path / command
        code = main(
            [command, str(DEMO_LEDGER), "--output", str(out_dir),
             "--mode", "target", "--replicas", "7"]
        )
        assert code == 4
        assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_volumes_past_float64_are_analysis_error(tmp_path):
    # 1E+400 is a finite Decimal, so ingest and the exact tables accept it;
    # as a float it is infinite, and the scores would be NaN.
    ledger = tmp_path / "ledger.csv"
    lines = DEMO_LEDGER.read_text().splitlines()[:11]
    ledger.write_text("\n".join([lines[0]] + [
        ",".join(line.split(",")[:4] + ["1E+400"] + line.split(",")[5:])
        for line in lines[1:]
    ]) + "\n")
    out_dir = tmp_path / "out"
    code = main(["run", str(ledger), "--output", str(out_dir), "--replicas", "8"])
    assert code == 4
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "AnalysisError"
    assert "volume" in report["message"]
    assert not list(out_dir.glob("significance_*"))
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_report_on_volume_past_float64_is_analysis_error(tmp_path):
    # Every share of a volume that is infinite as a float is NaN or 0/inf,
    # so the report refuses it rather than write either.
    edges = [("x1", "h"), ("x2", "h"), ("x3", "h"), ("h", "y"), ("y", "z"), ("z", "y"),
             ("a", "b"), ("b", "a"), ("c", "a"), ("d", "c")]
    ledger = tmp_path / "ledger.csv"
    ledger.write_text("id,timeset,source,target,weight,transfer_subtype\n" + "".join(
        f"t{i},2020-01-01T00:00:{i:02d}Z,{s},{t},1E+400,STANDARD\n"
        for i, (s, t) in enumerate(edges)))
    out_dir = tmp_path / "out"
    assert main(["report", str(ledger), "--output", str(out_dir)]) == 4
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "AnalysisError"
    assert report["message"].endswith("not finite in float64")
    assert not (out_dir / "strategy_report.json").exists()
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_unexpected_exception_is_reported(tmp_path, monkeypatch, capsys):
    import ledgerflow.cli as cli

    def broken(config, stages):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_pipeline", broken)
    out_dir = tmp_path / "o"
    assert main(["topology", str(DEMO_LEDGER), "--output", str(out_dir)]) == 4
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report == {"error_type": "RuntimeError", "message": "boom", "exit_code": 4}
    assert "RuntimeError" in capsys.readouterr().err


def test_ctrl_c_exits_130_with_an_error_report(tmp_path, monkeypatch, capsys):
    import ledgerflow.cli as cli

    def interrupted(config, stages):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_pipeline", interrupted)
    out_dir = tmp_path / "o"
    assert main(["run", str(DEMO_LEDGER), "--output", str(out_dir)]) == 130
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report == {"error_type": "KeyboardInterrupt", "message": "", "exit_code": 130}
    assert capsys.readouterr().err == "interrupted\n"


def test_config_file_round_trip(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# pipeline settings\n"
        f"input = {DEMO_LEDGER}\n"
        "replicas = 8\n"
        "modes = target\n"
        "seed = 4\n"
        f"output = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    values = load_config_file(config)
    assert values["replicas"] == "8"
    code = main(["--config", str(config), "run"])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["replicas"] == 8
    assert manifest["seeds"]["significance_target"] == 4


def test_unknown_config_key_rejected(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 12\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(config)
    assert main(["--config", str(config), "run"]) == 2


def test_cli_flag_overrides_config(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {DEMO_LEDGER}\nreplicas = 8\nmodes = target\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["--config", str(config), "run", "--replicas", "9", "--output", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["replicas"] == 9


def _config_from(argv: list[str]) -> PipelineConfig:
    return _build_pipeline_config(_config_values(build_parser().parse_args(argv)))


def test_defaults_come_from_the_dataclasses():
    assert _config_from(["run", "ledger.csv"]) == PipelineConfig(
        input_path=Path("ledger.csv"), output_dir=Path("ledgerflow-out")
    )


def test_config_file_sets_every_field(tmp_path):
    settings = {
        "input": "in.csv", "output": "out", "format": "json", "seed": "9", "jobs": "3",
        "replicas": "12", "modes": "source,both", "keep_subtypes": "A, B",
        "exclude_accounts": "sys1,sys2", "max_repair_attempts": "7", "col_tx_id": "tid",
        "col_timestamp": "when", "col_source": "from", "col_target": "to",
        "col_amount": "value", "col_subtype": "kind", "timestamp_format": "epoch",
    }
    assert set(settings) == cli._CONFIG_KEYS
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    assert _config_from(["--config", str(config), "run"]) == PipelineConfig(
        input_path=Path("in.csv"),
        output_dir=Path("out"),
        column_mapping=ColumnMapping(tx_id="tid", timestamp="when", source="from", target="to",
                                     amount="value", subtype="kind", timestamp_format="epoch"),
        filter_spec=FilterSpec(keep_subtypes=("A", "B"),
                               exclude_accounts=frozenset({"sys1", "sys2"})),
        modes=(SwapMode.SOURCE, SwapMode.BOTH),
        replicas=12,
        master_seed=9,
        max_repair_attempts=7,
        jobs=3,
        formats=("json",),
    )


@pytest.mark.parametrize("output_flag", [True, False])
def test_misspelt_timestamp_format_is_config_error(tmp_path, output_flag):
    # An unknown format used to be read as ISO-8601: an epoch ledger then
    # failed on its first stamp, and an ISO ledger passed.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n"
        "t1,2020-01-01T00:00:00Z,a,b,5,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        "timestamp_format = epohc\n" + ("" if output_flag else f"output = {out_dir}\n"),
        encoding="utf-8",
    )
    argv = ["--config", str(config), "ingest", str(ledger)]
    assert main(argv + (["--output", str(out_dir)] if output_flag else [])) == 2
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert "epohc" in report["message"]


def test_repeated_mapped_column_is_config_error(tmp_path):
    # The last of two 'weight' columns used to be read without notice.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,weight,transfer_subtype\n"
        "t1,2020-01-01T00:00:00Z,a,b,1,2,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["ingest", str(ledger), "--output", str(out_dir)]) == 2
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "ConfigError"
    assert "'weight'" in report["message"]


def test_repeated_unmapped_column_is_allowed(tmp_path):
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "note,id,timeset,source,target,weight,note,transfer_subtype\n"
        "x,t1,2020-01-01T00:00:00Z,a,b,1,y,STANDARD\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["ingest", str(ledger), "--output", str(out_dir)]) == 0
    assert json.loads((out_dir / "ledger_totals.json").read_text())["volume"] == "1"


@pytest.mark.parametrize("amounts", [("1E+50", "0.00000000000000000001"), ("1" * 70,)])
def test_sum_past_60_digits_is_data_error(tmp_path, amounts):
    # These sums used to be rounded to 60 digits without notice.
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "id,timeset,source,target,weight,transfer_subtype\n"
        + "".join(f"t{i},2020-01-01T00:00:0{i}Z,a,b,{amount},STANDARD\n"
                  for i, amount in enumerate(amounts)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    assert main(["run", str(ledger), "--output", str(out_dir), "--replicas", "8"]) == 3
    assert [p.name for p in out_dir.iterdir()] == ["error_report.json"]
    report = json.loads((out_dir / "error_report.json").read_text())
    assert report["error_type"] == "DataError"
    assert "60 significant digits" in report["message"]
