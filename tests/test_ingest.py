from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgerflow.errors import ConfigError, DataError
from ledgerflow.ingest import (
    FilterSpec,
    Transaction,
    keep_everything,
    parse_ledger,
    parse_timestamp,
    write_transactions,
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
    txs, diag = parse_ledger(path)
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
    txs, diag = parse_ledger(path)
    assert [t.tx_id for t in txs] == ["t2"]
    assert diag.rows_filtered == 1


def test_exclude_accounts_filters_both_sides(tmp_path):
    path = write(
        tmp_path,
        "t1,2020-01-01T00:00:00Z,sys,a,1,STANDARD\n"
        "t2,2020-01-01T00:00:01Z,a,sys,1,STANDARD\n"
        "t3,2020-01-01T00:00:02Z,a,b,1,STANDARD\n",
    )
    txs, diag = parse_ledger(
        path, filter_spec=FilterSpec(exclude_accounts=frozenset({"sys"}))
    )
    assert [t.tx_id for t in txs] == ["t3"]
    assert diag.rows_filtered == 2


def test_epoch_timestamps_autodetected(tmp_path):
    path = write(tmp_path, "t1,1600000000,a,b,1,STANDARD\n")
    txs, _ = parse_ledger(path)
    assert txs[0].timestamp == 1_600_000_000


def test_fractional_epoch_is_truncated(tmp_path):
    path = write(tmp_path, "t1,100.5,a,b,1,STANDARD\nt2,-7.9,b,a,1,STANDARD\n")
    txs, _ = parse_ledger(path)
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
    txs, diag = parse_ledger(path)
    assert [t.tx_id for t in txs] == ["t1"]
    assert diag.duplicate_tx_ids == 1


def test_equal_timestamps_sorted_by_tx_id(tmp_path):
    path = write(
        tmp_path,
        "tB,1600000000,a,b,1,STANDARD\n"
        "tA,1600000000,b,c,1,STANDARD\n",
    )
    txs, _ = parse_ledger(path)
    assert [t.tx_id for t in txs] == ["tA", "tB"]


def test_missing_required_column_is_config_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,when,source,target,weight\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="timestamp"):
        parse_ledger(path)


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
    txs, diag = parse_ledger(path)
    assert len(txs) == 1
    assert txs[0].source == "a"
    assert diag.duplicate_tx_ids == 1


def test_missing_optional_columns(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text(
        "timeset,source,target,weight\n2020-01-01T00:00:00Z,a,b,4\n",
        encoding="utf-8",
    )
    txs, _ = parse_ledger(path)
    assert len(txs) == 1
    assert txs[0].tx_id.startswith("r")
    assert txs[0].subtype == ""


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="not found"):
        parse_ledger(tmp_path / "nope.csv")


def test_header_only_file_is_empty(tmp_path):
    path = write(tmp_path, "")
    txs, diag = parse_ledger(path)
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
    write_transactions(path, txs)
    parsed, _ = parse_ledger(path, filter_spec=keep_everything())
    assert list(parsed) == txs


def test_carriage_return_inside_a_cell_round_trips(tmp_path):
    # csv.writer with a "\n" terminator leaves a "\r" unquoted, and the
    # reader then splits the row there.
    txs = [
        Transaction(0, "t\r1", "a\rb", "c,d", Decimal("1.50"), "STAN\rDARD"),
        Transaction(1, "t2", "c,d", 'e"f', Decimal("2"), ""),
    ]
    path = tmp_path / "ledger.csv"
    write_transactions(path, txs)
    parsed, diagnostics = parse_ledger(path, filter_spec=keep_everything())
    assert list(parsed) == txs
    assert diagnostics.rows_read == 2
