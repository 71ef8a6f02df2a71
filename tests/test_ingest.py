import codecs
import csv
import gc
import io
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow import ingest, util
from ledgerflow.errors import ConfigError, DataError
from ledgerflow.ingest import (
    ColumnMapping,
    FilterSpec,
    IngestDiagnostics,
    parse_ledger,
    parse_timestamp,
    write_transactions,
)
from ledgerflow.util import TextTable, Units

from conftest import economy_ledger
from oracles import (
    Transaction,
    amounts_of,
    ids_of,
    keep_everything,
    ledger_of,
    reference_csv_text,
    reference_sort,
    rows_of,
    subtypes_of,
)

HEADER = "id,timeset,source,target,weight,transfer_subtype\n"


def write(tmp_path, body, name="ledger.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_parse_three_rows_in_time_order(tmp_path):
    path = write(
        tmp_path,
        "t3,2020-01-01T00:00:02Z,a,b,5,STANDARD\n"
        "t1,2020-01-01T00:00:00Z,b,c,7.25,STANDARD\n"
        "t2,2020-01-01T00:00:01Z,c,a,1,STANDARD\n",
    )
    ledger, diag = parse_ledger(path)
    txs = rows_of(ledger)
    assert [t.tx_id for t in txs] == ["t1", "t2", "t3"]
    assert txs[0].amount == Decimal("7.25")
    assert diag.rows_read == 3
    assert diag.rows_filtered == 0


def test_default_filter_excludes_disbursement(tmp_path):
    path = write(
        tmp_path,
        "t1,2020-01-01T00:00:00Z,sys,a,400,DISBURSEMENT\n"
        "t2,2020-01-01T00:00:01Z,a,b,5,STANDARD\n",
    )
    ledger, diag = parse_ledger(path)
    txs = rows_of(ledger)
    assert [t.tx_id for t in txs] == ["t2"]
    assert diag.rows_filtered == 1


def test_exclude_accounts_filters_both_sides(tmp_path):
    path = write(
        tmp_path,
        "t1,2020-01-01T00:00:00Z,sys,a,1,STANDARD\n"
        "t2,2020-01-01T00:00:01Z,a,sys,1,STANDARD\n"
        "t3,2020-01-01T00:00:02Z,a,b,1,STANDARD\n",
    )
    ledger, diag = parse_ledger(
        path, filter_spec=FilterSpec(exclude_accounts=frozenset({"sys"}))
    )
    txs = rows_of(ledger)
    assert [t.tx_id for t in txs] == ["t3"]
    assert diag.rows_filtered == 2


def test_epoch_timestamps_autodetected(tmp_path):
    path = write(tmp_path, "t1,1600000000,a,b,1,STANDARD\n")
    ledger, _ = parse_ledger(path)
    txs = rows_of(ledger)
    assert txs[0].timestamp == 1_600_000_000


def test_fractional_epoch_is_truncated(tmp_path):
    path = write(tmp_path, "t1,100.5,a,b,1,STANDARD\nt2,-7.9,b,a,1,STANDARD\n")
    ledger, _ = parse_ledger(path)
    txs = rows_of(ledger)
    assert [(t.tx_id, t.timestamp) for t in txs] == [("t2", -7), ("t1", 100)]
    assert parse_timestamp("1600000000.999", "epoch") == 1_600_000_000
    for bad in ("1.2.3", "12.", "1e5", ""):
        with pytest.raises(ValueError):
            parse_timestamp(bad, "epoch")


def test_byte_order_mark_keeps_id_column(tmp_path):
    # A BOM must not hide the id column: ids stay the file's, and a
    # duplicate id is still caught.
    path = tmp_path / "bom.csv"
    path.write_text(
        "\ufeff" + HEADER
        + "t1,2020-01-01T00:00:00Z,a,b,1,STANDARD\n"
        + "t1,2020-01-01T00:00:05Z,b,c,2,STANDARD\n",
        encoding="utf-8",
    )
    ledger, diag = parse_ledger(path)
    txs = rows_of(ledger)
    assert [t.tx_id for t in txs] == ["t1"]
    assert diag.duplicate_tx_ids == 1


def test_equal_timestamps_sorted_by_tx_id(tmp_path):
    path = write(
        tmp_path,
        "tB,1600000000,a,b,1,STANDARD\n"
        "tA,1600000000,b,c,1,STANDARD\n",
    )
    ledger, _ = parse_ledger(path)
    txs = rows_of(ledger)
    assert [t.tx_id for t in txs] == ["tA", "tB"]


def test_missing_required_column_is_config_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,when,source,target,weight\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="timestamp"):
        parse_ledger(path)


@pytest.mark.parametrize("fields, message", [
    (dict(source="acct", target="acct"), "column 'acct' is mapped to 'source' and 'target'"),
    (dict(source="weight"), "column 'weight' is mapped to 'source' and 'amount'"),
    (dict(subtype="id"), "column 'id' is mapped to 'tx_id' and 'subtype'"),
], ids=["source-target", "source-amount", "tx_id-subtype"])
def test_a_column_mapped_to_two_fields_is_config_error(fields, message):
    # Such a mapping used to parse: one column read as two fields.
    with pytest.raises(ConfigError) as refused:
        ColumnMapping(**fields)
    assert str(refused.value) == message


def test_bad_timestamp_reports_row_number(tmp_path):
    path = write(
        tmp_path,
        "t1,2020-01-01T00:00:00Z,a,b,1,STANDARD\n"
        "t2,not-a-time,b,c,1,STANDARD\n",
    )
    with pytest.raises(DataError, match="row 3"):
        parse_ledger(path)


def test_bad_amount_reports_row_number(tmp_path):
    for amount in ("abc", "NaN", "sNaN", "Infinity", "-Infinity"):
        path = write(tmp_path, f"t1,2020-01-01T00:00:00Z,a,b,{amount},STANDARD\n")
        with pytest.raises(DataError, match="row 2: bad amount"):
            parse_ledger(path)


def test_negative_amount_rejected(tmp_path):
    path = write(tmp_path, "t1,2020-01-01T00:00:00Z,a,b,-3,STANDARD\n")
    with pytest.raises(DataError, match="negative"):
        parse_ledger(path)


def test_duplicate_ids_keep_first_and_count(tmp_path):
    path = write(
        tmp_path,
        "t1,2020-01-01T00:00:00Z,a,b,1,STANDARD\n"
        "t1,2020-01-01T00:00:05Z,b,c,2,STANDARD\n",
    )
    ledger, diag = parse_ledger(path)
    txs = rows_of(ledger)
    assert len(txs) == 1
    assert txs[0].source == "a"
    assert diag.duplicate_tx_ids == 1


def test_missing_optional_columns(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text(
        "timeset,source,target,weight\n2020-01-01T00:00:00Z,a,b,4\n",
        encoding="utf-8",
    )
    ledger, _ = parse_ledger(path)
    txs = rows_of(ledger)
    assert len(txs) == 1
    assert txs[0].tx_id.startswith("r")
    assert txs[0].subtype == ""


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        parse_ledger(tmp_path / "nope.csv")


def test_a_fifo_or_a_pipe_is_data_error(tmp_path):
    # A FIFO without a writer blocks open() until one comes, and a pipe has
    # no offsets to read by: each must raise before the file is opened. The
    # parses run in a subprocess, so that a hang fails instead of waiting.
    fifo = tmp_path / "ledger.fifo"
    os.mkfifo(fifo)
    script = (
        "import os, sys\n"
        "from ledgerflow.ingest import parse_ledger\n"
        "read, _ = os.pipe()\n"
        "for path in (sys.argv[1], f'/dev/fd/{read}'):\n"
        "    try:\n"
        "        parse_ledger(path)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    paths = [str(Path(ingest.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", script, str(fifo)], capture_output=True,
                            text=True, env=env, timeout=60, check=True)
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    for line, path in zip(lines, (fifo, "/dev/fd/")):
        assert line.startswith(f"DataError ledger {path}")
        assert "not a regular file" in line


def test_header_only_file_is_empty(tmp_path):
    path = write(tmp_path, "")
    ledger, diag = parse_ledger(path)
    txs = rows_of(ledger)
    assert len(txs) == 0
    assert diag.rows_read == 0


def test_parse_timestamp_formats():
    assert parse_timestamp("1600000000", "epoch") == 1_600_000_000
    assert parse_timestamp("2020-09-13T12:26:40+00:00", "iso8601") == 1_600_000_000
    assert parse_timestamp("2020-09-13T12:26:40Z", "iso8601") == 1_600_000_000
    assert parse_timestamp("2020-09-13 12:26:40", "iso8601") == 1_600_000_000


def test_timestamps_outside_datetime_range_rejected(tmp_path):
    assert parse_timestamp("-62135596800", "epoch") == -62_135_596_800
    assert parse_timestamp("253402300799", "epoch") == 253_402_300_799
    assert parse_timestamp("9999-12-31T23:59:59Z", "iso8601") == 253_402_300_799
    for raw, fmt in (
        ("-62135596801", "epoch"),
        ("253402300800", "epoch"),
        ("99999999999999", "epoch"),
        ("0001-01-01T00:00:00+01:00", "iso8601"),
        ("9999-12-31T23:59:59-01:00", "iso8601"),
    ):
        with pytest.raises(ValueError):
            parse_timestamp(raw, fmt)
    path = write(tmp_path, "t1,1600000000,a,b,1,STANDARD\nt2,253402300800,b,a,1,STANDARD\n")
    with pytest.raises(DataError, match="row 3: bad timestamp"):
        parse_ledger(path)


accounts = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def transaction_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    txs = []
    for i in range(n):
        source = draw(accounts)
        target = draw(accounts.filter(lambda a: a != source))
        txs.append(
            Transaction(
                timestamp=draw(st.integers(min_value=0, max_value=10_000_000)),
                tx_id=f"t{i:04d}",
                source=source,
                target=target,
                amount=Decimal(draw(st.integers(min_value=0, max_value=10**7))) / 100,
                subtype=draw(st.sampled_from(["STANDARD", "AGENT_OUT", ""])),
            )
        )
    return sorted(txs, key=lambda t: (t.timestamp, t.tx_id))


@settings(max_examples=50, deadline=None)
@given(transaction_lists())
def test_write_parse_round_trip(tmp_path_factory, txs):
    path = tmp_path_factory.mktemp("roundtrip") / "ledger.csv"
    write_transactions(path, ledger_of(txs))
    parsed, _ = parse_ledger(path, filter_spec=keep_everything())
    assert rows_of(parsed) == txs


def test_write_transactions_renders_a_chunk_at_a_time(tmp_path, monkeypatch):
    # Chunks of 4 rows, so 11 rows take three; only the third holds cells
    # that need quotes (a quote in an id, a comma in an account).
    monkeypatch.setattr(util, "_CHUNK_ROWS", 4)
    rendered = []

    def spy(seconds):
        rendered.append(len(seconds))
        return util.iso_rows(seconds)

    monkeypatch.setattr(ingest, "iso_rows", spy)
    txs = [
        Transaction(1_600_000_000 + 3_600 * i, 't"9' if i == 9 else f"t{i:02d}", f"a{i % 3}",
                    "b,c" if i == 10 else f"b{i % 4}", Decimal(i) / 4, "STANDARD")
        for i in range(11)
    ]
    path = tmp_path / "ledger.csv"
    write_transactions(path, ledger_of(txs))
    assert rendered == [4, 4, 3]
    eager = io.StringIO(newline="")
    writer = csv.writer(eager, lineterminator="\n")
    writer.writerow(ColumnMapping().names)
    writer.writerows(
        (t.tx_id, datetime.fromtimestamp(t.timestamp, timezone.utc).isoformat(), t.source,
         t.target, str(t.amount), t.subtype)
        for t in txs
    )
    assert path.read_text(encoding="utf-8") == eager.getvalue()


def test_ids_that_need_quotes_write_the_row_writers_bytes(tmp_path):
    # Quoted ids send the parse through the row loop, which keeps an empty
    # id too; the ledger written from the id table is the one a row-at-a-time
    # writer writes, ties in code-point order.
    ids = ["a,b", 'q"t', "l\nf", "c\rr", "é字", "", "plain", "z", "\x00", "é"]
    txs = [Transaction(1_600_000_000 + i // 3, tx_id, f"a{i % 3}", f"b{i % 2}",
                       Decimal(i) / 4, "STANDARD") for i, tx_id in enumerate(ids)]

    def text(rows):
        columns = [[t.tx_id for t in rows],
                   [datetime.fromtimestamp(t.timestamp, timezone.utc).isoformat() for t in rows],
                   [t.source for t in rows], [t.target for t in rows],
                   [str(t.amount) for t in rows], [t.subtype for t in rows]]
        return reference_csv_text(ColumnMapping().names, columns).encode("utf-8")

    source, written = tmp_path / "in.csv", tmp_path / "out.csv"
    source.write_bytes(text(txs))
    ledger, _ = parse_ledger(source)
    assert isinstance(ledger.ids, TextTable)
    write_transactions(written, ledger)
    assert written.read_bytes() == text(reference_sort(txs))


def test_a_parsed_ledger_holds_no_str_per_id(tmp_path):
    # A str per id would take about 57 bytes of each row (its object and
    # a list slot); the table takes its UTF-8 bytes, a line end and an
    # int32 offset. The whole ledger holds about 92 bytes a row, against 144
    # with a str per id.
    path = tmp_path / "economy.csv"
    path.write_text(economy_ledger(2500, 7), encoding="utf-8")
    parse_ledger(path)  # imports and caches filled
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ledger, diagnostics = parse_ledger(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = diagnostics.rows_read
    assert rows > 20_000 and len(ledger.ids) == rows
    assert len(ledger.ids.data) + ledger.ids.start.nbytes <= 16 * rows
    assert held <= 110 * rows


@pytest.mark.parametrize("stamp", [util.MIN_EPOCH - 1, util.MAX_EPOCH + 1])
def test_out_of_range_stamp_raises_before_the_file_exists(tmp_path, stamp):
    txs = [Transaction(0, "t1", "a", "b", Decimal(1)),
           Transaction(stamp, "t2", "b", "a", Decimal(2))]
    path = tmp_path / "ledger.csv"
    with pytest.raises(ValueError, match="timestamp outside"):
        write_transactions(path, ledger_of(txs))
    assert not path.exists()


def test_carriage_return_inside_a_cell_round_trips(tmp_path):
    # csv.writer with a "\n" terminator leaves a "\r" unquoted, and the
    # reader then splits the row there.
    txs = [
        Transaction(0, "t\r1", "a\rb", "c,d", Decimal("1.50"), "STAN\rDARD"),
        Transaction(1, "t2", "c,d", 'e"f', Decimal("2"), ""),
    ]
    path = tmp_path / "ledger.csv"
    write_transactions(path, ledger_of(txs))
    parsed, diagnostics = parse_ledger(path, filter_spec=keep_everything())
    assert rows_of(parsed) == txs
    assert diagnostics.rows_read == 2


# --------------------------------------------------------------------------
# the column path against the row loop
# --------------------------------------------------------------------------


def _units(units: Units):
    """A ``Units``' columns as lists (decimals as text), comparable with ==."""
    if units.values is None:
        return list(map(str, units.decimals))
    return units.values.tolist(), units.exponent.tolist(), units.scale


def outcome(path, schema=None, filter_spec=None):
    """What parse_ledger gives: every column (amounts as text) and the
    diagnostics, or the exception's type and message. The ledger's units
    must be those that ``Units.of`` derives from its amounts, and its id
    table must hold the list of ids that the parse read."""
    read, table_of = [], TextTable.of

    def spied(texts):
        read.append(list(texts))
        return table_of(texts)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TextTable, "of", spied)
            ledger, diagnostics = parse_ledger(path, schema, filter_spec)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc), str(exc)
    assert _units(ledger.units) == _units(Units.of(amounts_of(ledger)))
    assert read == [list(ledger.ids)] == [[ledger.ids[k] for k in range(len(ledger.ids))]]
    return (
        ledger.accounts,
        ledger.timestamp.tolist(),
        ledger.source.tolist(),
        ledger.target.tolist(),
        ids_of(ledger),
        list(map(str, amounts_of(ledger))),
        subtypes_of(ledger),
        _units(ledger.units),
        diagnostics,
    )


def row_loop_outcome(path, schema=None, filter_spec=None):
    """The row loop's outcome from the header: the column path declines the
    header, so the row loop reads the whole file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_plain_cells", lambda *args: None)
        return outcome(path, schema, filter_spec)


NAMES = ("id", "timeset", "source", "target", "weight", "transfer_subtype")
PLAIN_STAMPS = st.one_of(
    st.sampled_from(["2020-01-01T00:00:00", "2020-01-01T00:00:00+00:00", "2020-01-01T00:00:01"]),
    st.builds(
        lambda moment, zone: moment.isoformat(timespec="seconds") + zone,
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.sampled_from(["", "+00:00"]),
    ),
)
PLAIN = {
    "source": st.sampled_from(["a", "b", "c", "d", "sys"]),
    "target": st.sampled_from(["a", "b", "c", "d", "sys"]),
    "weight": st.sampled_from(
        ["1", "2.50", "0", "1E+2", "-0", "1_000", "007.5", "0E-5", "12345678901234567890.123"]),
    "transfer_subtype": st.sampled_from(["STANDARD", "STANDARD", "DISBURSEMENT", "AGENT_OUT", ""]),
}
ODD = {
    "id": ["", "t0", "t1", "t0\x00", " t1", '"t1"', "é"],
    "timeset": [
        "2020-01-01T00:00:00Z", "2020-01-01T00:00:00+01:00", "2020-01-01T00:00:00-05:00",
        "1600000000", "-7.9", "0000-01-01T00:00:00", "2020-02-30T00:00:00",
        "2020-01-01T24:00:00", "2020-01-01T23:59:60", "2020-01-01 00:00:00",
        "+020-01-01T00:00:00", "2020-01-01T00:00", "2020-01-01T00:00:00.5",
        "2020-01-01T00:00:00+00:00+00:00", "2020-01-01T00:00:00+0000", "NaT", "",
        " 2020-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59+00:00",
        "２020-01-01T00:00:00",
    ],
    "source": ["", " a", "a ", "a\t", "é", "a\x00", '"a"', "a\u2028", "\x1ca", '"a,b"'],
    "target": ["", "b\xa0", "sys", "a\r", '"x""y"'],
    "weight": ["-1", "NaN", "Infinity", "-Infinity", "sNaN", "", "abc", " 1", "1e5"],
    "transfer_subtype": [" STANDARD", "STANDARD ", '"STANDARD"', "standard"],
}
BREAKS = (
    "blank", "all blank", "spaces", "short", "long", "one crlf", "all crlf",
    "no final newline", "bom", "padded header", "not utf-8",
)


def ledger_bytes(names, rows, brk="", at=1) -> bytes:
    """The file of ``rows`` under the header ``names``, broken by ``brk``
    (one of ``BREAKS``) at line ``at``."""
    lines = [",".join(names)] + [",".join(row[name] for name in names) for row in rows]
    last = min(at, len(lines) - 1)
    if brk in ("blank", "all blank", "spaces"):
        lines.insert(at, {"blank": "", "all blank": ",,,,,", "spaces": " , ,,\t,, "}[brk])
    elif brk == "short":
        lines[last] = lines[last].rpartition(",")[0]
    elif brk == "long":
        lines[last] += ",x"
    elif brk == "one crlf":
        lines[last] += "\r"
    elif brk == "padded header":
        lines[0] = lines[0].replace(",", " , ")
    text = "\n".join(lines) + ("" if brk == "no final newline" else "\n")
    if brk == "all crlf":
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if brk == "bom":
        data = codecs.BOM_UTF8 + data
    elif brk == "not utf-8":
        data = data.replace(b"\n", b"\xff\n", 1)
    return data


@st.composite
def ledger_files(draw):
    """Ledger bytes: plain rows, then at most two odd cells and one break.

    Files of up to 40 rows put several plain blocks before the first odd
    line at small block sizes. Some files put their odd cells and break in
    their last rows; some filter every row before them (so that ``auto``
    stamps are first read after the row loop takes over) and give every
    later row epoch stamps; some repeat a kept id of their first rows in
    their last ones, on both sides of the row loop's first row.
    """
    dropped = draw(st.sampled_from([(), (), (), ("id",), ("transfer_subtype",)]))
    names = [name for name in NAMES if name not in dropped]
    rows = [
        {"id": f"t{i}", "timeset": draw(PLAIN_STAMPS),
         **{name: draw(strategy) for name, strategy in PLAIN.items()}}
        for i in range(draw(st.integers(0, 40)))
    ]
    late = draw(st.integers(0, len(rows))) if draw(st.booleans()) else 0
    if late and draw(st.booleans()):
        for row in rows[:late]:
            row.update(source="sys", transfer_subtype="DISBURSEMENT")
        for i, row in enumerate(rows[late:]):
            row["timeset"] = str(1600000000 + i)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        name = draw(st.sampled_from(NAMES))
        draw(st.sampled_from(rows[late:] or rows))[name] = draw(st.sampled_from(ODD[name]))
    if len(rows) > 3 and draw(st.booleans()):
        half = len(rows) // 2
        for i in draw(st.lists(st.integers(half, len(rows) - 1), min_size=1, max_size=3)):
            first = rows[draw(st.integers(0, half - 1))]
            first["transfer_subtype"] = rows[i]["transfer_subtype"] = "STANDARD"
            rows[i]["id"] = first["id"]
    brk = draw(st.sampled_from(BREAKS + ("",) * 2 * len(BREAKS)))
    return ledger_bytes(names, rows, brk, draw(st.integers(late + 1, len(rows) + 1)))


SCHEMAS = st.sampled_from(
    [ColumnMapping(), ColumnMapping(), ColumnMapping(timestamp_format="iso8601"),
     ColumnMapping(timestamp_format="epoch")])
FILTERS = st.sampled_from(
    [FilterSpec(), keep_everything(), FilterSpec(exclude_accounts=frozenset({"sys"}))])


def refuse_the_row_loop(*args):
    raise AssertionError("the row loop was called")


def both_outcomes(path, schema=None, filter_spec=None, block=ingest._BLOCK_BYTES):
    """parse_ledger's outcome with blocks of ``block`` bytes, and the row
    loop's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_BYTES", block)
        mine = outcome(path, schema, filter_spec)
    return mine, row_loop_outcome(path, schema, filter_spec)


@settings(max_examples=400, deadline=None)
@given(ledger_files(), SCHEMAS, FILTERS, st.sampled_from([1, 20, 64, ingest._BLOCK_BYTES]))
def test_column_path_matches_the_row_loop(tmp_path_factory, data, schema, filter_spec, block):
    # Small blocks split a file's lines over several blocks.
    path = tmp_path_factory.mktemp("fuzz") / "ledger.csv"
    path.write_bytes(data)
    mine, rows = both_outcomes(path, schema, filter_spec, block)
    assert mine == rows
    assert_only_data_or_config_errors(mine)


def assert_only_data_or_config_errors(mine):
    """An ``outcome`` that is an exception is a DataError or a ConfigError."""
    if isinstance(mine[0], type):
        assert mine[0] in (DataError, ConfigError), mine


PLAIN_ROWS = (
    {"id": "t2", "timeset": "2020-01-01T00:00:01", "source": "a", "target": "b",
     "weight": "2.50", "transfer_subtype": "STANDARD"},
    {"id": "t1", "timeset": "2020-01-01T00:00:00+00:00", "source": "b", "target": "c",
     "weight": "1E+2", "transfer_subtype": "STANDARD"},
    {"id": "t0", "timeset": "2020-01-01T00:00:01", "source": "c", "target": "d",
     "weight": "7", "transfer_subtype": "DISBURSEMENT"},
    {"id": "t3", "timeset": "2020-01-01T00:00:01", "source": "d", "target": "a",
     "weight": "-0", "transfer_subtype": "STANDARD"},
)


def test_each_odd_cell_and_break_parses_as_the_row_loop(tmp_path):
    # Each odd cell in a kept row and in a filtered one, and each break, on
    # its own in a file that is otherwise plain, in one block and in many.
    path = tmp_path / "ledger.csv"
    cases = [(name, value, row, "", NAMES)
             for name, values in ODD.items() for value in values for row in (0, 2)]
    # A cell past csv.field_size_limit(), too long for the fuzzed files.
    cases += [("source", "a" * 140_000, row, "", NAMES) for row in (0, 2)]
    cases += [(None, None, None, brk, names) for brk in BREAKS + ("",)
              for names in (NAMES, NAMES[1:], NAMES[:-1])]
    for name, value, row, brk, names in cases:
        rows = [dict(plain) for plain in PLAIN_ROWS]
        if name:
            rows[row][name] = value
        path.write_bytes(ledger_bytes(names, rows, brk, at=2))
        for block in (20, ingest._BLOCK_BYTES):
            mine, rows_only = both_outcomes(path, block=block)
            assert mine == rows_only, (name, value, row, brk, names, block)
        if name is None and brk == "":  # the plain file takes the column path
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_parse_rows", refuse_the_row_loop)
                parse_ledger(path)


def test_plain_ledgers_take_the_column_path(tmp_path, monkeypatch):
    # An economy ledger (naive stamps, several blocks, a few filtered
    # subtypes and self-transfers) and the normalized ledger that
    # write_transactions makes of it (+00:00 stamps) must not need the
    # row loop, and must parse as it would.
    economy = tmp_path / "economy.csv"
    economy.write_text(economy_ledger(600, 3), encoding="utf-8")
    assert economy.stat().st_size > 2 * ingest._BLOCK_BYTES
    normalized = tmp_path / "transactions_normalized.csv"
    write_transactions(normalized, parse_ledger(economy)[0])
    expected = {path: row_loop_outcome(path) for path in (economy, normalized)}
    monkeypatch.setattr(ingest, "_parse_rows", refuse_the_row_loop)
    for path, rows in expected.items():
        assert outcome(path) == rows
        assert rows[-1].rows_read > 5000


def plain_rows(n):
    """``n`` plain, kept rows with distinct ids and stamps."""
    return [{"id": f"t{i}", "timeset": f"2020-01-01T{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d}",
             "source": "ab"[i % 2], "target": "cd"[i % 2], "weight": str(i),
             "transfer_subtype": "STANDARD"} for i in range(n)]


def test_the_row_loop_takes_over_at_the_declined_block(tmp_path, monkeypatch):
    # A Z on the last stamp of a 200-row file of 64-byte blocks: only the
    # rows of the last block reach the row loop, which validates each kept
    # row's stamp; the blocks before it stay on the column path.
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    rows = plain_rows(200)
    rows[-1]["timeset"] += "Z"
    path = tmp_path / "ledger.csv"
    path.write_bytes(ledger_bytes(NAMES, rows))
    validated = []

    def counted(raw, fmt):
        validated.append(raw)
        return parse_timestamp(raw, fmt)

    monkeypatch.setattr(ingest, "parse_timestamp", counted)
    mine = outcome(path)
    assert 1 <= len(validated) <= 2 and validated[-1] == rows[-1]["timeset"]
    monkeypatch.undo()
    assert mine == row_loop_outcome(path)
    assert mine[-1] == IngestDiagnostics(rows_read=200)


def test_a_row_loop_parse_leaves_no_file_open(tmp_path):
    # A Z stamp sends the parse through the row loop, which reads the file
    # through a text wrapper; one left to the garbage collector warns.
    rows = [f"t{i},2020-01-01T00:00:0{i}{'Z' if i == 3 else ''},a,b,1,STANDARD\n"
            for i in range(5)]
    path = write(tmp_path, "".join(rows))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(parse_ledger(path)[0]) == 5
        rows[4] = rows[4].replace(",1,", ",x,")
        with pytest.raises(DataError, match="row 6: bad amount 'x'"):
            parse_ledger(write(tmp_path, "".join(rows)))
        gc.collect()
    assert [str(w.message) for w in caught] == []


def test_the_last_run_is_checked_without_growing_the_seen_set():
    def run(parsed, ids, last=False):
        kept = parsed.first_seen(ids, np.arange(len(ids)), last)
        n = len(ids)
        parsed.add([0] * n, ids, ["x"] * n, ["y"] * n, [0] * n, [""] * n, kept)
        return kept.tolist()

    parsed = ingest._Parsed()
    assert run(parsed, ["a", "b"]) == [0, 1]
    assert run(parsed, ["c", "d"], last=True) == [0, 1]
    assert parsed.seen_ids == {"a", "b"} and parsed.duplicates == 0
    parsed = ingest._Parsed()
    assert run(parsed, ["a", "b"]) == [0, 1]
    assert run(parsed, ["c", "b", "e"], last=True) == [0, 2]
    assert parsed.duplicates == 1


def test_repeated_ids_are_counted_on_either_path(tmp_path, monkeypatch):
    # Repeated kept ids alone do not decline the column path; before and
    # after the row loop takes over, the first occurrence is kept and the
    # rest counted, as the row loop from the header counts them.
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    path = tmp_path / "ledger.csv"
    rows = plain_rows(200)
    for i in (3, 4, 150):
        rows[i]["id"] = "t1"
    rows[160]["transfer_subtype"] = "DISBURSEMENT"
    rows[170]["id"] = "t160"  # a filtered row's id is not seen
    path.write_bytes(ledger_bytes(NAMES, rows))
    expected = row_loop_outcome(path)
    assert expected[-1] == IngestDiagnostics(rows_read=200, rows_filtered=1, duplicate_tx_ids=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_rows", refuse_the_row_loop)
        assert outcome(path) == expected
    rows[100]["timeset"] += "Z"  # the row loop takes over between the repeats
    path.write_bytes(ledger_bytes(NAMES, rows))
    assert outcome(path) == row_loop_outcome(path) == expected


# --------------------------------------------------------------------------
# the column path in parts on forked children
# --------------------------------------------------------------------------


def in_parts(patch, data: bytes, parts: int) -> None:
    """Make ``parse_ledger`` cut the bytes after the header line of ``data``
    into ``parts`` parts, or three where the sizes round so (three usable
    CPUs)."""
    patch.setattr(ingest, "usable_cpus", lambda: 3)
    patch.setattr(ingest, "_PART_BYTES", max(1, len(data.partition(b"\n")[2]) // parts))


@settings(max_examples=400, deadline=None)
@given(ledger_files(), SCHEMAS, FILTERS, st.sampled_from([1, 20, 64, ingest._BLOCK_BYTES]),
       st.sampled_from([2, 3]))
def test_split_parse_matches_the_row_loop(tmp_path_factory, data, schema, filter_spec, block,
                                          parts):
    # As test_column_path_matches_the_row_loop, with the bytes after the
    # header cut into parts that forked children parse: declines in any
    # part, ids repeated across a cut, parts of filtered rows only, files
    # without an id column, and auto stamps first read after the row loop
    # takes over.
    path = tmp_path_factory.mktemp("fuzz") / "ledger.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        in_parts(patch, data, parts)
        mine, rows = both_outcomes(path, schema, filter_spec, block)
    assert mine == rows
    assert_only_data_or_config_errors(mine)


def even_rows(n):
    """``n`` plain, kept rows of one length, with distinct ids and stamps."""
    return [{"id": f"t{i:04d}", "timeset": f"2020-01-01T00:{i // 60:02d}:{i % 60:02d}",
             "source": "ab"[i % 2], "target": "cd"[i % 2], "weight": f"{i:04d}",
             "transfer_subtype": "STANDARD"} for i in range(n)]


def spy_on_the_parts(monkeypatch) -> tuple[list[int], list[int]]:
    """The offsets at which forked parts start and the first row number of
    the row loop, of each parse from now on."""
    starts, first_rows, csv_rows = [], [], ingest._csv_rows

    def forking(fn, fd, start, stop, layout):
        starts.append(start)
        return util.fork_call(fn, fd, start, stop, layout)

    def spied(fh, path, first):
        first_rows.append(first)
        return csv_rows(fh, path, first)

    monkeypatch.setattr(ingest, "fork_call", forking)
    monkeypatch.setattr(ingest, "_csv_rows", spied)
    return starts, first_rows


def odd_stamp(row):
    row["timeset"] = row["timeset"].replace("T", " ")  # same length, not plain


def late_epochs(rows):
    # The first part is filtered, and the second starts with epoch stamps
    # (as long as an ISO stamp), which the row loop reads as ``auto``.
    for row in rows[:20]:
        row["transfer_subtype"] = "AGENT_IN"
    for i, row in enumerate(rows[20:]):
        row["timeset"] = f"{1600000000 + i}.00000000"


def repeated_ids(rows):
    # Across each cut, and inside the first part and each forked one.
    for i, j in ((3, 25), (25, 45), (19, 20), (39, 41), (4, 6), (22, 30), (41, 50)):
        rows[j]["id"] = rows[i]["id"]


def filtered_part(rows):
    for row in rows[20:40]:
        row["transfer_subtype"] = "AGENT_IN"


@pytest.mark.parametrize("edit, names, declined", [
    (lambda rows: odd_stamp(rows[5]), NAMES, 5),  # in the first part
    (lambda rows: odd_stamp(rows[20]), NAMES, 20),  # at a later part's first block
    (lambda rows: odd_stamp(rows[30]), NAMES, 30),  # in the middle of a later part
    (lambda rows: odd_stamp(rows[59]), NAMES, 59),  # on the last row
    (late_epochs, NAMES, 20),
    (repeated_ids, NAMES, None),
    (lambda rows: (repeated_ids(rows), odd_stamp(rows[30])), NAMES, 30),
    (filtered_part, NAMES, None),
    (lambda rows: None, NAMES[1:], None),  # no id column
    (lambda rows: odd_stamp(rows[40]), NAMES[1:], 40),
])
def test_each_part_parses_as_the_row_loop(tmp_path, monkeypatch, edit, names, declined):
    # Sixty rows of one length in three parts of twenty, read in blocks of
    # one or two rows: the row loop takes over at the block that declines,
    # and the parts after it are dropped.
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
    rows = even_rows(60)
    edit(rows)
    path = tmp_path / "ledger.csv"
    path.write_bytes(ledger_bytes(names, rows))
    expected = row_loop_outcome(path)
    in_parts(monkeypatch, path.read_bytes(), 3)
    starts, first_rows = spy_on_the_parts(monkeypatch)
    assert outcome(path) == expected
    data = path.read_bytes()
    assert [data.count(b"\n", 0, start) - 1 for start in starts] == [0, 20, 40]
    if declined is None:
        assert first_rows == []
    else:  # data row r is row r + 2 of the file
        assert first_rows[0] - 2 in ({declined} if declined in (20, 40) else
                                     {declined - 1, declined})


def test_rows_without_an_id_are_named_by_their_line(tmp_path, monkeypatch):
    # Data row r is line r + 2 of the file: on the column path, in forked
    # parts and in the row loop.
    path = tmp_path / "ledger.csv"
    path.write_bytes(ledger_bytes(NAMES[1:], even_rows(60)))
    ids = [f"r{line:08d}" for line in range(2, 62)]
    assert outcome(path)[4] == row_loop_outcome(path)[4] == ids
    in_parts(monkeypatch, path.read_bytes(), 3)
    starts, _ = spy_on_the_parts(monkeypatch)
    assert outcome(path)[4] == ids
    assert len(starts) == 3


def test_a_split_parse_runs_no_column_block_here(tmp_path, monkeypatch):
    # Each part is parsed in a child of its own, a one-part file's only part
    # too; this process only merges.
    path = tmp_path / "ledger.csv"
    path.write_bytes(ledger_bytes(NAMES, even_rows(60)))
    expected = row_loop_outcome(path)
    pids, parse_part = tmp_path / "pids", ingest._parse_part

    def spied(*args):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return parse_part(*args)

    monkeypatch.setattr(ingest, "_parse_part", spied)
    assert outcome(path) == expected  # 60 rows: one part
    assert len(pids.read_text().split()) == 1
    in_parts(monkeypatch, path.read_bytes(), 3)
    assert outcome(path) == expected
    parsed_by = pids.read_text().split()
    assert len(set(parsed_by)) == len(parsed_by) == 4
    assert str(os.getpid()) not in parsed_by


def test_one_usable_cpu_parses_one_part_in_one_child(tmp_path, monkeypatch):
    path = tmp_path / "ledger.csv"
    path.write_bytes(ledger_bytes(NAMES, even_rows(60)))
    expected = row_loop_outcome(path)
    monkeypatch.setattr(ingest, "_PART_BYTES", 1)
    monkeypatch.setattr(ingest, "usable_cpus", lambda: 1)
    starts, first_rows = spy_on_the_parts(monkeypatch)
    parent, parse_part = os.getpid(), ingest._parse_part

    def in_a_child(*args):
        assert os.getpid() != parent, "a part was parsed here"
        return parse_part(*args)

    monkeypatch.setattr(ingest, "_parse_part", in_a_child)
    assert outcome(path) == expected
    assert starts == [len(path.read_bytes().partition(b"\n")[0]) + 1]
    assert first_rows == []


class _Unloadable:
    """A value that pickles, and raises when it is loaded."""

    def __reduce__(self):
        return _refuse_to_load, ()


def _refuse_to_load():
    raise ValueError("not loaded")


@pytest.mark.parametrize("how", ["raise", "kill", "unloadable"])
def test_a_part_whose_child_fails_is_parsed_here(tmp_path, monkeypatch, how):
    # The second part's child fails: this process merges the first part and
    # runs no column block itself; the row loop reads on from the failed
    # part's first line, so the part is parsed here, row by row.
    path = tmp_path / "ledger.csv"
    rows = even_rows(60)
    repeated_ids(rows)
    path.write_bytes(ledger_bytes(NAMES, rows))
    expected = row_loop_outcome(path)
    data = path.read_bytes()
    in_parts(monkeypatch, data, 3)
    starts, first_rows = spy_on_the_parts(monkeypatch)
    second = len(b"".join(data.splitlines(keepends=True)[:21]))  # data row 20's line
    parent, parse_part, here = os.getpid(), ingest._parse_part, []

    def failing(*args):
        if os.getpid() == parent:
            here.append(args[1])
        elif args[1] == second:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "unloadable":  # loaded in the parent alone
                return _Unloadable()
            raise ValueError("the part failed")
        return parse_part(*args)

    monkeypatch.setattr(ingest, "_parse_part", failing)
    assert outcome(path) == expected
    assert starts[1] == second and here == []
    assert first_rows == [22]  # data row 20 is line 22 of the file


def test_no_child_outlives_an_interrupt_or_an_error(tmp_path, monkeypatch):
    path = tmp_path / "ledger.csv"
    rows = even_rows(60)
    path.write_bytes(ledger_bytes(NAMES, rows))
    in_parts(monkeypatch, path.read_bytes(), 3)
    starts, _ = spy_on_the_parts(monkeypatch)

    def interrupted(parsed, part, last):  # as the parent merges the first part
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest._Parsed, "merge", interrupted)
        with pytest.raises(KeyboardInterrupt):
            parse_ledger(path)
    assert len(starts) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # The row loop's error after a hand-off in the first part.
    rows[5]["weight"] = "abcd"
    path.write_bytes(ledger_bytes(NAMES, rows))
    with pytest.raises(DataError, match="row 7: bad amount 'abcd'"):
        parse_ledger(path)
    assert len(starts) == 6
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # A one-part file, interrupted as this process waits for its child.
    path.write_bytes(ledger_bytes(NAMES, even_rows(60)))
    monkeypatch.setattr(ingest, "_PART_BYTES", len(path.read_bytes()))

    def waited(handle):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(util.Forked, "result", waited)
        with pytest.raises(KeyboardInterrupt):
            parse_ledger(path)
    assert len(starts) == 7
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
