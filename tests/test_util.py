import calendar
import errno
import csv
import io
import itertools
import os
import select
import signal
import tracemalloc
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledgerflow import util
from ledgerflow.errors import DataError
from ledgerflow.topology import categorize, category_stats
from ledgerflow.util import (
    MAX_EPOCH, MIN_EPOCH, Coded, TextTable, Units, dsum, format_duration, group_sums, iso_rows,
    mix64, text_columns, to_json, write_csv,
)

from oracles import LinkRecord, graph_from_links, reference_csv_text


def iso_texts(seconds: np.ndarray) -> list[str]:
    """The stamps of ``iso_rows`` as text."""
    return [row.tobytes().decode("ascii") for row in iso_rows(seconds)]


def test_dsum_exact_on_many_small_amounts():
    values = [Decimal("0.01")] * 100_000
    assert dsum(values) == Decimal("1000.00")


def test_dsum_empty():
    assert dsum([]) == Decimal(0)


def test_inexact_sum_is_data_error():
    with pytest.raises(DataError, match="60 significant digits"):
        dsum([Decimal("1E+50"), Decimal("1E-20")])
    # Zeros past the 60th digit may go: the sum is still exact.
    assert dsum([Decimal("1E+50"), Decimal("0E-20")]) == Decimal("1E+50")


def test_sums_hold_only_the_total_to_60_digits():
    # 7E+60 + 123 needs 61 significant digits, 7E+60 + 130 only 60 (its last
    # is a 0): the sum is exact before the check, so no order is refused.
    expected = "7." + "0" * 57 + "13E+60"
    for terms in itertools.permutations([Decimal("7E+60"), Decimal("123"), Decimal("7")]):
        assert str(dsum(terms)) == expected
        sums = group_sums(np.zeros(3, dtype=np.int64), np.array(terms, dtype=object), 1)
        assert str(sums[0]) == expected


def test_category_sum_past_60_digits_is_data_error():
    # The graph total adds the two halves first and stays exact (10**60),
    # but dag0 adds one half to sixty nines: 61 digits. The trap therefore
    # covers every exact sum, not only the graph's own.
    g = graph_from_links({
        ("a", "b"): LinkRecord(1, Decimal("0.5")),
        ("c", "d"): LinkRecord(1, Decimal("0.5")),
        ("d", "c"): LinkRecord(1, Decimal(0)),
        ("x", "y"): LinkRecord(1, Decimal("9" * 60)),
    })
    assert g.volume == Decimal(10) ** 60
    with pytest.raises(DataError):
        category_stats(g, categorize(g))


decimal_values = st.one_of(
    st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("1E+2"), Decimal("0E-5")]),
    st.integers(-(10**40) + 1, 10**40 - 1).map(lambda i: Decimal(i).scaleb(-20)),  # 40 digits
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.tuples(st.integers(0, size - 1), decimal_values), max_size=30),
        )
    )
)
def test_group_sums_match_per_group_dsum(case):
    size, rows = case
    groups = np.array([group for group, _ in rows], dtype=np.int64)
    values = np.array([value for _, value in rows], dtype=object)
    sums = group_sums(groups, values, size)
    assert sums.shape == (size,)
    for code in range(size):
        expected = dsum(value for group, value in rows if group == code)
        assert sums[code] == expected
        assert str(sums[code]) == str(expected)


unit_amounts = st.one_of(
    st.sampled_from(["1", "1.0", "1E+2", "0E-5", "-0", "0.000", "7.25"]).map(Decimal),
    st.integers(0, 10**8).map(lambda i: Decimal(i).scaleb(-2)),
    # Units past 2**53 (floats by int division); 2**62 twice is past int64.
    st.integers(2**53, 2**62).map(Decimal),
    # A unit past int64, and scales past 1E-18: the Decimal fallback.
    st.sampled_from(["9" * 19, "1E+10", "1E-30", "1E-19"]).map(Decimal),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda size: st.tuples(
            st.just(size),
            st.lists(st.tuples(st.integers(0, size - 1), unit_amounts), max_size=30),
        )
    )
)
def test_units_sums_match_group_sums(case):
    # The integer sums give str-equal Decimals and bit-equal floats, and the
    # Decimal fallback is taken exactly where a unit or the total is past int64.
    size, rows = case
    groups = np.array([group for group, _ in rows], dtype=np.int64)
    amounts = [amount for _, amount in rows]
    scale = min([0, *(amount.as_tuple().exponent for amount in amounts)])
    exact = [int(amount.scaleb(-scale, Context(prec=200))) for amount in amounts]
    units = Units.of(amounts)
    assert (units.values is not None) == (scale >= -18 and sum(exact) < 2**63)
    # The same amounts taken by index from a table with one item left out:
    # only the items taken set the scale.
    taken = Units.of([Decimal("1E-30"), *reversed(amounts)], np.arange(len(amounts), 0, -1))
    assert taken.scale == units.scale
    assert ([list(map(str, column.tolist())) for column in taken.arrays]
            == [list(map(str, column.tolist())) for column in units.arrays])

    expected = group_sums(groups, np.array(amounts, dtype=object), size)
    sums = units.sums(groups, size)
    assert list(map(str, sums.to_decimals())) == list(map(str, expected))
    assert sums.floats().tobytes() == expected.astype(float).tobytes()
    assert str(units.total()) == str(sums.total()) == str(dsum(amounts))


def test_mix64_range_and_spread():
    seen = {mix64(0, i) for i in range(1000)}
    assert len(seen) == 1000
    assert all(0 <= v < 2**64 for v in seen)


def test_format_duration():
    assert format_duration(0) == "0s"
    assert format_duration(104) == "1m 44s"
    assert format_duration(1179) == "19m 39s"
    assert format_duration(86_400 + 21 * 3600) == "1d 21h 0m 0s"


def test_to_json_renders_decimal_as_string():
    assert to_json({"volume": Decimal("12.30")}) == '{\n  "volume": "12.30"\n}\n'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_to_json_refuses_values_json_cannot_hold(value):
    with pytest.raises(ValueError):
        to_json({"share": value})


def _csv_writer_text(header, rows) -> str:
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# Every character csv.writer treats specially, NUL, non-ASCII and anything
# else but a carriage return (which it leaves unquoted).
cells = st.text(
    st.sampled_from([",", '"', "\n", "\x00", " ", "a", "é", "字"])
    | st.characters(blacklist_characters="\r", blacklist_categories=("Cs",)),
    max_size=5,
)
tables = st.integers(1, 4).flatmap(
    lambda width: st.tuples(
        st.lists(cells, min_size=width, max_size=width),
        st.lists(st.lists(cells, min_size=width, max_size=width), max_size=8),
    )
)


@settings(max_examples=300, deadline=None)
@given(tables)
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, header, text_columns(rows, len(header)))
    assert path.read_bytes() == _csv_writer_text(header, rows).encode("utf-8")


def test_write_csv_quotes_each_chunk_on_its_own(tmp_path, monkeypatch):
    # Chunks of 3 rows: quoting is decided per column and chunk, so a
    # chunk without a comma stays bare while its neighbours are quoted.
    monkeypatch.setattr(util, "_CHUNK_ROWS", 3)
    rows = [[f"a{i}", "x,y" if i in (1, 7) else "", 'q"' if i == 9 else str(i)] for i in range(11)]
    path = tmp_path / "table.csv"
    write_csv(path, ("one", "two", "three"), text_columns(rows, 3))
    assert path.read_bytes() == _csv_writer_text(("one", "two", "three"), rows).encode("utf-8")


def test_write_csv_quotes_carriage_returns(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("id", "name"), [["1", "2"], ["a\rb", "c"]])
    assert path.read_bytes() == b'id,name\n1,"a\rb"\n2,c\n'
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["id", "name"], ["1", "a\rb"], ["2", "c"]]


# Cells that need quotes, "\r" among them, and cells that need none, so
# that a table is encoded both ways; with empty, NUL and non-ASCII cells.
quoted_cells = st.text(st.sampled_from([",", '"', "\n", "\r", "\x00", "a", "é", "字"]),
                       max_size=4)
plain_cells = st.text(st.sampled_from(["a", "7", " ", "\x00", "é", "字"]), max_size=4)


@st.composite
def coded_tables(draw):
    """A header, ``write_csv`` columns and the same columns as cell texts.

    A column is codes into a table, codes into the first column's table
    (one table for two columns), epoch seconds through ``iso_rows``, or a
    list of texts; codes repeat at random."""
    rows = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(quoted_cells | plain_cells, min_size=width, max_size=width))
    columns, texts = [], []
    for _ in range(width):
        kind = draw(st.sampled_from(("table", "shared", "stamps", "texts")))
        first = columns[0] if columns else None
        if kind == "shared" and isinstance(first, Coded) and not callable(first.table):
            table = first.table
        elif kind in ("table", "shared"):
            table = draw(st.lists(draw(st.sampled_from((quoted_cells, plain_cells))), min_size=1,
                                  max_size=6))
            if draw(st.booleans()):
                table = TextTable.of(table)
        if kind == "stamps":
            seconds = np.array(draw(st.lists(st.integers(MIN_EPOCH, MAX_EPOCH), min_size=rows,
                                             max_size=rows)), dtype=np.int64)
            columns.append(Coded(seconds, iso_rows))
            texts.append(iso_texts(seconds))
        elif kind == "texts":
            cells = draw(st.lists(quoted_cells | plain_cells, min_size=rows, max_size=rows))
            columns.append(cells)
            texts.append(cells)
        else:
            codes = draw(st.lists(st.integers(0, len(table) - 1), min_size=rows, max_size=rows))
            columns.append(Coded(np.array(codes, dtype=np.int64), table))
            texts.append([table[c] for c in codes])
    return header, columns, texts


@settings(max_examples=400, deadline=None)
@given(coded_tables(), st.integers(1, 5), st.integers(1, 80))
def test_write_csv_of_coded_columns_matches_the_row_writer(tmp_path_factory, table, chunk_rows,
                                                           chunk_bytes):
    # Chunks of a few rows, which a small byte budget splits again.
    header, columns, texts = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with (mock.patch.object(util, "_CHUNK_ROWS", chunk_rows),
          mock.patch.object(util, "_CHUNK_BYTES", chunk_bytes)):
        write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv_text(header, texts).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(st.lists(quoted_cells | plain_cells | cells, max_size=8))
def test_text_table_holds_its_texts(texts):
    table = TextTable.of(texts)
    assert len(table) == len(texts)
    assert list(table) == [table[k] for k in range(len(texts))] == texts
    assert [table[k - len(texts)] for k in range(len(texts))] == texts
    index = np.array([k for k in range(len(texts)) for _ in range(k % 3)], dtype=np.int64)
    assert table.cells(index) == [texts[k].encode("utf-8") for k in index.tolist()]
    # UTF-8 byte order is code-point order.
    assert sorted(range(len(texts)), key=table.cells(np.arange(len(texts))).__getitem__) == \
        sorted(range(len(texts)), key=texts.__getitem__)
    with pytest.raises(IndexError):
        table[len(texts)]


def test_write_csv_pads_no_chunk_past_its_byte_budget(tmp_path):
    # One 1 MiB id among 10k rows: rows padded to that width would take
    # 10 GiB at once, so its chunk is split to the byte budget.
    ids = [f"t{i}" for i in range(10_000)]
    ids[5_000] = "x" * (1 << 20)
    kinds = np.arange(10_000) % 3
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        write_csv(path, ("id", "kind"),
                  [Coded(np.arange(10_000), ids), Coded(kinds, ["a", "b", "c"])])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    expected = reference_csv_text(("id", "kind"), [ids, ["abc"[k] for k in kinds.tolist()]])
    assert path.read_bytes() == expected.encode("utf-8")


def test_text_columns_renders_none_as_empty():
    assert text_columns([(1, None, Decimal("2.50")), ("x", "", 0)], 3) == [
        ["1", "x"], ["", ""], ["2.50", "0"],
    ]
    assert text_columns([], 2) == [[], []]


_UNIX_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _epoch(moment: datetime) -> int:
    return (moment.replace(tzinfo=timezone.utc) - _UNIX_EPOCH) // timedelta(seconds=1)


_leap_days = st.integers(1, 9999).filter(calendar.isleap).map(lambda y: _epoch(datetime(y, 2, 29)))
epochs = st.one_of(
    st.integers(MIN_EPOCH, MAX_EPOCH),
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(_epoch),
    st.integers(-400 * 86_400, 0),  # just before the Unix epoch
    # the day before a leap day, the leap day itself, and the day after
    st.tuples(_leap_days, st.integers(-86_400, 2 * 86_400 - 1)).map(sum),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(epochs, max_size=12))
@example([MIN_EPOCH, MAX_EPOCH, 0, -1])
@example([MIN_EPOCH, MIN_EPOCH + 86_399, MIN_EPOCH + 86_400, MAX_EPOCH - 86_400, MAX_EPOCH])
# 28 February and 1 March of century years, leap (400, 2000, 2400) or not
@example([_epoch(datetime(y, m, d)) - s for y in (100, 400, 1900, 2000, 2100, 2400)
          for m, d in ((2, 28), (3, 1)) for s in (0, 1)])
# leap days, their first and last second, before the Unix epoch and after
@example([_epoch(datetime(y, 2, 29)) + s for y in (4, 1896, 1904, 1968, 2000, 2400, 9996)
          for s in (0, 86_399)])
# one day's stamps out of order, with repeats, beside another day's
@example([86_399, 0, 3_600, 86_399, -86_400, 45_296, 0, -1])
def test_iso_utc_matches_datetime_isoformat(seconds):
    expected = [(_UNIX_EPOCH + timedelta(seconds=s)).isoformat() for s in seconds]
    assert iso_texts(np.array(seconds, dtype=np.int64)) == expected


@pytest.mark.parametrize("seconds", [MIN_EPOCH - 1, MAX_EPOCH + 1])
def test_iso_utc_refuses_stamps_outside_datetime(seconds):
    with pytest.raises(ValueError, match="timestamp outside"):
        iso_texts(np.array([0, seconds]))


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _raise(exc: BaseException):
    raise exc


def test_fork_call_returns_the_childs_value():
    handle = util.fork_call(os.getpid)
    assert handle.result() not in (os.getpid(), None)


def test_fork_call_raises_the_childs_exception():
    handle = util.fork_call(_raise, OSError(errno.ENOSPC, "No space left on device", "t.csv"))
    with pytest.raises(OSError) as caught:
        handle.result()
    assert caught.value.errno == errno.ENOSPC
    assert str(caught.value) == "[Errno 28] No space left on device: 't.csv'"


def test_unpicklable_exception_arrives_as_runtime_error():
    class Unpicklable(Exception):  # a local class: pickle cannot find it by name
        pass

    handle = util.fork_call(_raise, Unpicklable("disk gone"))
    with pytest.raises(RuntimeError, match="^Unpicklable: disk gone$"):
        handle.result()


class _Unloadable:
    """A value that pickles, and raises when it is loaded."""

    def __reduce__(self):
        return _raise, (ValueError("not loaded"),)


def test_a_value_that_does_not_load_is_a_runtime_error_here():
    # The child sends a value without loading it first: the load fails here.
    handle = util.fork_call(_Unloadable)
    with pytest.raises(RuntimeError, match="^forked child's result does not load: "
                                           "ValueError\\('not loaded'\\)$"):
        handle.result()


def test_a_result_keeps_no_bytes():
    handle = util.fork_call(bytes, 1 << 20)
    assert handle.result() == bytes(1 << 20)
    assert handle._data == b""


def test_a_child_killed_in_the_middle_of_its_result_is_a_runtime_error():
    # The result is larger than a pipe holds, so the child is still writing.
    handle = util.fork_call(bytes, 16 << 20)
    select.select([handle._fd], [], [])
    os.kill(handle._pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match="^forked child's result does not load: "):
        handle.result()
    assert handle._pid is None  # reaped; the autouse fixture checks it too


def test_a_result_is_loaded_from_the_pipe_as_it_comes():
    # Reading the whole pickle first would trace about twice the value.
    size = 8 << 20
    handle = util.fork_call(bytes, size)
    tracemalloc.start()
    try:
        value = handle.result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == bytes(size)
    assert peak < 1.5 * size


def test_fork_call_runs_in_process_when_fork_fails(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: _raise(OSError(errno.EAGAIN, "no more processes")))
    before = _open_fds()
    assert util.fork_call(os.getpid).result() == os.getpid()
    with pytest.raises(ValueError, match="at once"):
        util.fork_call(_raise, ValueError("at once"))
    assert _open_fds() == before


def test_join_all_reaps_every_child_before_the_earliest_failure():
    handles = [util.fork_call(os.getpid), util.fork_call(_raise, ValueError("first")),
               util.fork_call(_raise, OSError(errno.ENOSPC, "second")), util.fork_call(os.getpid)]
    with pytest.raises(ValueError, match="^first$"):
        util.join_all(handles)
    assert handles == []
    # The autouse fixture checks that every child was reaped.
    assert util.join_all([util.fork_call(abs, -3), util.fork_call(abs, 4)]) == [3, 4]


def _interrupt_self() -> str:
    os.kill(os.getpid(), signal.SIGINT)
    return "finished"


def test_forked_child_ignores_ctrl_c_and_exits_on_base_exceptions():
    assert util.fork_call(_interrupt_self).result() == "finished"
    handle = util.fork_call(_raise, SystemExit(3))
    with pytest.raises(RuntimeError, match="ended without a result"):
        handle.result()
