import gzip
import io
import math
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import XES_LAYOUTS, cell_text, csv_log, xes_log
from oracles import reference_fold, reference_parse_timestamp
from upliftmine.errors import LogParseError, SchemaError
from upliftmine.logparse import (
    CaseLog,
    CsvColumns,
    _csv_timestamp,
    parse_csv,
    parse_timestamp,
    parse_xes,
)

XES_TWO_EVENTS = b"""<?xml version="1.0" encoding="UTF-8"?>
<log>
  <trace>
    <string key="concept:name" value="case_1"/>
    <string key="LoanGoal" value="Car"/>
    <event>
      <string key="concept:name" value="B_second"/>
      <date key="time:timestamp" value="2016-01-02T09:00:00.000+00:00"/>
      <int key="NoOfTerms" value="48"/>
      <string key="Stage" value="second"/>
    </event>
    <event>
      <string key="concept:name" value="A_first"/>
      <date key="time:timestamp" value="2016-01-01T09:00:00.000+00:00"/>
      <boolean key="Selected" value="true"/>
      <string key="Stage" value="first"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_sorts_events_by_timestamp():
    # B_second comes first in the file but is stamped later: its value wins.
    log = parse_xes(XES_TWO_EVENTS)
    assert len(log) == 1
    assert log.case_ids == ["case_1"]
    assert log.counts == {"A_first": [1], "B_second": [1]}
    assert log.last["Stage"] == ["second"]
    assert log.n_events == 2


def test_parse_xes_types_and_trace_attrs():
    log = parse_xes(XES_TWO_EVENTS)
    assert log.last["LoanGoal"] == ["Car"]
    assert log.last["Selected"][0] is True
    assert log.last["NoOfTerms"] == [48]
    assert type(log.last["NoOfTerms"][0]) is int
    assert set(log.last) == {"LoanGoal", "Selected", "NoOfTerms", "Stage"}


def test_parse_xes_trace_attributes_rank_below_event_values():
    doc = b"""<log>
      <trace>
        <string key="concept:name" value="c1"/>
        <string key="Goal" value="trace"/>
        <string key="Only" value="trace"/>
        <event>
          <string key="concept:name" value="A"/>
          <date key="time:timestamp" value="2016-01-02T00:00:00Z"/>
        </event>
        <event>
          <string key="concept:name" value="B"/>
          <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
          <string key="Goal" value="earliest event"/>
        </event>
      </trace>
      <trace>
        <string key="concept:name" value="c2"/>
        <string key="Goal" value="no events"/>
      </trace>
    </log>"""
    log = parse_xes(doc)
    assert log.case_ids == ["c1", "c2"]
    assert log.last == {"Goal": ["earliest event", None], "Only": ["trace", None]}
    assert log.counts == {"A": [1, 0], "B": [1, 0]}


def test_parse_xes_empty_log():
    log = parse_xes(b'<?xml version="1.0"?><log/>')
    assert len(log) == 0
    assert log.n_events == 0


def test_parse_xes_gzip_input():
    log = parse_xes(gzip.compress(XES_TWO_EVENTS))
    assert len(log) == 1
    assert log.n_events == 2


def test_parse_xes_malformed_xml_reports_byte_offset():
    data = b"<log><trace><event></log>"
    with pytest.raises(LogParseError) as err:
        parse_xes(data)
    assert err.value.byte_offset is not None
    assert err.value.byte_offset <= len(data)


def test_parse_xes_event_missing_activity_names_trace():
    doc = b"""<log><trace>
      <string key="concept:name" value="broken_case"/>
      <event><date key="time:timestamp" value="2016-01-01T00:00:00Z"/></event>
    </trace></log>"""
    with pytest.raises(LogParseError, match="broken_case"):
        parse_xes(doc)


def test_parse_xes_event_missing_timestamp_names_trace():
    doc = b"""<log><trace>
      <string key="concept:name" value="c9"/>
      <event><string key="concept:name" value="A"/></event>
    </trace></log>"""
    with pytest.raises(LogParseError, match="c9"):
        parse_xes(doc)


def test_parse_xes_bad_timestamp_reports_literal_text():
    doc = b"""<log><trace>
      <string key="concept:name" value="c1"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="not-a-time"/>
      </event>
    </trace></log>"""
    with pytest.raises(LogParseError, match="not-a-time"):
        parse_xes(doc)


@pytest.mark.parametrize(
    "tag, value",
    [
        ("int", "abc"), ("float", "abc"), ("boolean", "abc"), ("boolean", "yes"), ("boolean", "10"),
        # Python's int() and float() take digit separators, non-ASCII digits
        # and other spellings of infinity and NaN; XML Schema does not.
        ("int", "1_000"), ("float", "1_0.5"), ("int", "１２"), ("float", "１.５"),
        ("boolean", "\u00a0true"), ("float", "infinity"), ("float", "inf"),
        ("float", " nan "), ("float", "-NaN"), ("float", "1e400"),
    ],
    ids=["int", "float", "boolean", "boolean-yes", "boolean-10", "int-underscore",
         "float-underscore", "int-fullwidth", "float-fullwidth", "boolean-nbsp",
         "float-infinity", "float-inf", "float-padded-nan", "float-signed-nan",
         "float-overflow"],
)
def test_parse_xes_wrongly_typed_value_names_trace_and_key(tag, value):
    doc = f"""<log><trace>
      <string key="concept:name" value="c5"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        <{tag} key="Amount" value="{value}"/>
      </event>
    </trace></log>""".encode()
    with pytest.raises(LogParseError, match=f"'c5'.*<{tag}>.*'Amount'.*{re.escape(repr(value))}"):
        parse_xes(doc)


@pytest.mark.parametrize(
    "text, expected",
    [("INF", math.inf), (" +INF ", math.inf), ("-INF", -math.inf), ("NaN", math.nan),
     ("1e308", 1e308), (" -0.5 ", -0.5)],
)
def test_parse_xes_reads_xs_double_forms(text, expected):
    doc = f"""<log><trace>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        <float key="Rate" value="{text}"/>
      </event>
    </trace></log>""".encode()
    value = parse_xes(doc).last["Rate"][0]
    assert value == expected or (math.isnan(value) and math.isnan(expected))


def test_parse_xes_bad_value_before_the_case_id_names_trace_and_key():
    # The trace's concept:name comes after the event that holds the bad value.
    doc = b"""<log><trace>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        <int key="Amount" value="12.5"/>
      </event>
      <string key="concept:name" value="late_name"/>
    </trace></log>"""
    with pytest.raises(LogParseError, match="'late_name'.*<int>.*'Amount'.*'12.5'"):
        parse_xes(doc)


@pytest.mark.parametrize(
    "text, expected",
    [("true", True), ("false", False), ("1", True), ("0", False), (" TRUE ", True), ("False", False)],
)
def test_parse_xes_reads_xs_boolean_forms(text, expected):
    doc = f"""<log><trace>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        <boolean key="Selected" value="{text}"/>
      </event>
    </trace></log>""".encode()
    assert parse_xes(doc).last["Selected"][0] is expected


def test_parse_xes_empty_activity_names_trace():
    doc = b"""<log><trace>
      <string key="concept:name" value="c7"/>
      <event>
        <string key="concept:name" value=""/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
      </event>
    </trace></log>"""
    with pytest.raises(LogParseError, match="c7"):
        parse_xes(doc)


def test_parse_xes_duplicate_case_id_names_trace():
    trace = b"""<trace>
      <string key="concept:name" value="c3"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
      </event>
    </trace>"""
    with pytest.raises(LogParseError, match="trace #2.*'c3'"):
        parse_xes(b"<log>" + trace + trace + b"</log>")


@pytest.mark.parametrize(
    "doc",
    [
        b"<log><trace><trace></trace></trace></log>",
        b"<log><trace><event><event></event></event></trace></log>",
    ],
    ids=["trace", "event"],
)
def test_parse_xes_nested_trace_or_event_is_an_error(doc):
    with pytest.raises(LogParseError, match="inside"):
        parse_xes(doc)


def test_parse_xes_skips_attributes_without_a_value():
    doc = b"""<log><trace>
      <string key="concept:name" value="c1"/>
      <string key="note"/>
      <event>
        <string key="concept:name" value="A"/>
        <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        <int value="3"/>
      </event>
    </trace></log>"""
    log = parse_xes(doc)
    assert log.case_ids == ["c1"]
    assert (log.counts, log.last) == ({"A": [1]}, {})


def _one_object_per_value(column: list) -> bool:
    return len({id(value) for value in column}) == len(set(column))


def test_parse_xes_keeps_one_object_per_distinct_label_and_int():
    labels, numbers = ["red", "green", "blue"], [1000, 70000, -123456]
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    traces = [
        (
            f"c{i}",
            {"goal": labels[i % 2], "score": numbers[i % 3]},
            [
                ("A", t0 + timedelta(minutes=j), {"color": labels[(i + j) % 3], "n": numbers[j]})
                for j in range(3)
            ],
            False,
        )
        for i in range(30)
    ]
    log = parse_xes(xes_log(traces))
    assert log.last["color"] == [labels[(i + 2) % 3] for i in range(30)]
    for key in ("goal", "score", "color", "n"):
        assert _one_object_per_value(log.last[key]), key


def test_parse_xes_keeps_each_typed_value_as_read():
    # Equal as dict keys (True == 1 == 1.0, -0.0 == 0.0), yet each labels and
    # serializes differently, so no case may be given another case's value.
    values = [True, 1, 1.0, -0.0, 0.0, math.nan]
    elements = ['boolean value="true"', 'int value="1"', 'float value="1.0"',
                'float value="-0.0"', 'float value="0.0"', 'float value="NaN"']
    traces = "".join(
        f'<trace><string key="concept:name" value="c{i}"/><event>'
        '<string key="concept:name" value="A"/>'
        '<date key="time:timestamp" value="2020-01-01T00:00:00Z"/>'
        f'<{element} key="x"/></event></trace>'
        for i, element in enumerate(elements)
    )
    log = parse_xes(f"<log>{traces}</log>".encode())
    assert [(type(v), repr(v)) for v in log.last["x"]] == [(type(v), repr(v)) for v in values]


def test_parse_timestamp_accepts_z_suffix_and_offsets():
    z = parse_timestamp("2016-01-01T09:51:15.304Z")
    off = parse_timestamp("2016-01-01T10:51:15.304+01:00")
    assert z == off
    naive = parse_timestamp("2016-01-01 09:51:15")
    assert naive.tzinfo == timezone.utc


CSV_THREE_ROWS = (
    b"case_id,activity,timestamp,CreditScore\n"
    b"c1,apply,2020-05-01T10:00:00Z,700\n"
    b"c2,apply,2020-05-01T11:00:00Z,\n"
    b"c1,offer,2020-05-02T10:00:00Z,710\n"
)


def test_parse_csv_groups_rows_into_traces():
    log = parse_csv(CSV_THREE_ROWS)
    assert len(log) == 2
    assert log.case_ids == ["c1", "c2"]
    assert log.counts == {"apply": [1, 1], "offer": [1, 0]}
    # an empty cell means the attribute is absent, not empty-string
    assert log.last == {"CreditScore": ["710", None]}
    assert log.n_events == 3


def test_parse_csv_sorts_out_of_order_rows():
    # The later-stamped value wins whatever the row order.
    data = (
        b"case_id,activity,timestamp,stage\n"
        b"c1,late,2020-05-03T00:00:00Z,late\n"
        b"c1,early,2020-05-01T00:00:00Z,early\n"
    )
    log = parse_csv(data)
    assert log.last["stage"] == ["late"]
    assert log.counts == {"late": [1], "early": [1]}


def test_parse_csv_duplicate_timestamps_keep_file_order():
    # On tied stamps, the row later in the file wins.
    data = (
        b"case_id,activity,timestamp,stage\n"
        b"c1,first,2020-05-01T00:00:00Z,first\n"
        b"c1,second,2020-05-01T00:00:00Z,second\n"
        b"c1,third,2020-05-01T01:00:00+01:00,third\n"
    )
    log = parse_csv(data)
    assert log.last["stage"] == ["third"]


def test_parse_csv_missing_mapped_column_is_named():
    with pytest.raises(SchemaError, match="case_key"):
        parse_csv(CSV_THREE_ROWS, CsvColumns(case_id="case_key"))


def test_parse_csv_empty_case_id_reports_row_number():
    data = (
        b"case_id,activity,timestamp\n"
        b"c1,apply,2020-05-01T00:00:00Z\n"
        b",apply,2020-05-01T00:00:00Z\n"
    )
    with pytest.raises(LogParseError) as err:
        parse_csv(data)
    assert err.value.row == 2


def test_parse_csv_short_row_reports_row_and_cell_count():
    data = (
        b"case_id,activity,timestamp\n"
        b"c1,apply,2020-05-01T00:00:00Z\n"
        b"c2,apply\n"
    )
    with pytest.raises(LogParseError, match="expected at least 3") as err:
        parse_csv(data)
    assert err.value.row == 2


def test_parse_csv_invalid_utf8_reports_byte_offset():
    data = (
        b"case_id,activity,timestamp,v\n"
        b"c1,apply,2020-05-01T00:00:00Z,ok\n"
        b"c2,apply,2020-05-01T00:00:00Z,\xff\n"
    )
    with pytest.raises(LogParseError, match="UTF-8") as err:
        parse_csv(data)
    assert err.value.byte_offset == data.index(b"\xff")


def test_parse_csv_custom_timestamp_format():
    fmt = "%d/%m/%Y %H:%M"
    ts = _csv_timestamp("01/05/2020 13:45", fmt, 1)
    assert ts == datetime(2020, 5, 1, 13, 45, tzinfo=timezone.utc)
    # Read day first and to the minute, 1 May 13:45 is the latest row.
    data = (
        b"case_id,activity,timestamp,v\n"
        b"c1,A,01/05/2020 13:45,right\n"
        b"c1,B,02/04/2020 13:44,month first\n"
        b"c1,C,01/05/2020 13:44,minutes dropped\n"
    )
    assert parse_csv(data, CsvColumns(timestamp_format=fmt)).last["v"] == ["right"]


def _long_row(row: int) -> list[str]:
    """The cells of a row of _long_csv: 40 interleaved cases, stamps that
    wrap every 1440 rows, each row carrying a value."""
    hour, minute = divmod(row % 1440, 60)
    return [f"c{row % 40}", f"A{row % 3}", f"2020-01-01T{hour:02d}:{minute:02d}:00Z", f"v{row}"]


def _long_csv(n_rows: int, lines: dict | None = None) -> bytes:
    """A valid CSV log of n_rows rows, several reading chunks long. lines
    replaces the line of the given row numbers (1-based, header excluded);
    None drops it."""
    out = [b"case_id,activity,timestamp,v"]
    for row in range(1, n_rows + 1):
        line = ",".join(_long_row(row)).encode()
        out.append((lines or {}).get(row, line))
    return b"\n".join(line for line in out if line is not None) + b"\n"


def test_parse_csv_matches_the_reference_fold_across_chunks():
    # Rows r and r + 1440 share a case and a stamp, so their tie falls across
    # chunks, and the wrapping minutes put a case's stamps out of order across
    # chunks. Every seventh row leaves v empty; w is first set late in the log.
    rows = []
    for row in range(1, 3001):
        cells = _long_row(row)
        if row % 7 == 0:
            cells[3] = ""
        rows.append(cells + [f"w{row}" if row > 2000 and row % 11 == 0 else ""])
    data = "\n".join(["case_id,activity,timestamp,v,w"] + [",".join(r) for r in rows]).encode()
    events: dict[str, list] = {}
    for case_id, activity, stamp, *cells in rows:
        attrs = {key: cell for key, cell in zip("vw", cells) if cell}
        events.setdefault(case_id, []).append(
            (activity, reference_parse_timestamp(stamp), attrs)
        )
    expected = reference_fold([(cid, {}, evs) for cid, evs in events.items()])
    assert parse_csv(data) == expected


class _Unseekable(io.RawIOBase):
    """A binary stream that reads forward only, as a pipe does."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(buffer)


@pytest.mark.parametrize(
    "parse, data",
    [
        (parse_csv, _long_csv(3000)),
        (parse_csv, gzip.compress(_long_csv(3000))),
        (parse_xes, XES_TWO_EVENTS),
        (parse_xes, gzip.compress(XES_TWO_EVENTS)),
    ],
    ids=["csv", "csv-gzip", "xes", "xes-gzip"],
)
def test_parsers_read_an_open_file_and_an_unseekable_stream_as_the_path(tmp_path, parse, data):
    path = tmp_path / "log"
    path.write_bytes(data)
    expected = parse(path)
    with open(path, "rb") as stream:
        assert parse(stream) == expected
    unseekable = _Unseekable(data)
    assert not unseekable.seekable()
    assert parse(unseekable) == expected


@pytest.mark.parametrize(
    "lines, row, message",
    [
        ({1500: b"c1,,2020-01-01", 1510: b"c1,A,never"}, 1500, "empty activity"),
        ({1500: b"c1,A,never", 1510: b"c1,,2020-01-01"}, 1500, "unparseable timestamp"),
        ({700: b",A,2020-01-01", 705: b"c1,A"}, 700, "empty case id"),
        ({700: b"c1,A", 705: b",A,2020-01-01"}, 700, "2 cells, expected at least 3"),
        ({2000: b"c1,A,2020-01-01,\xff", 1990: b",A,2020-01-01"}, 1990, "empty case id"),
    ],
    ids=["activity-then-stamp", "stamp-then-activity", "case-then-short", "short-then-case",
         "case-then-utf8"],
)
def test_parse_csv_reports_the_first_faulty_row_of_a_long_log(lines, row, message):
    with pytest.raises(LogParseError, match=message) as err:
        parse_csv(_long_csv(3000, lines))
    assert err.value.row == row
    assert str(err.value).startswith(f"row {row}: ")


@pytest.mark.parametrize("row", [300, 1025, 2999])
def test_parse_csv_invalid_utf8_in_a_long_log_reports_byte_offset(row):
    data = _long_csv(3000, {row: b"c1,A,2020-01-01,caf\xc3"})
    with pytest.raises(LogParseError, match="invalid UTF-8") as err:
        parse_csv(data)
    assert err.value.byte_offset == data.index(b"caf\xc3") + 3


def test_parse_csv_blank_rows_keep_later_row_numbers():
    # Blank rows around every multiple of 64 rows straddle any chunk
    # boundary a reader of 64, 128, 256, ... rows would meet.
    blank = {row: b"" for m in range(64, 3000, 64) for row in (m - 1, m, m + 1)}
    blank.update({row: b",,," for row in range(2000, 2010)})
    parsed = parse_csv(_long_csv(3000, blank))
    assert parsed == parse_csv(_long_csv(3000, dict.fromkeys(blank)))
    assert parsed.n_events == 3000 - len(blank)
    with pytest.raises(LogParseError) as err:
        parse_csv(_long_csv(3000, {**blank, 2999: b"c1,A,never"}))
    assert err.value.row == 2999


def test_parse_csv_keeps_one_object_per_distinct_value():
    # 400 cases over 3,000 rows, several reading chunks, with 7 labels.
    lines = ["case_id,activity,timestamp,v,w"]
    for row in range(1, 3001):
        _, activity, stamp, _ = _long_row(row)
        lines.append(f"c{row % 400},{activity},{stamp},label{row % 7},{row % 3 * 1000}")
    log = parse_csv("\n".join(lines).encode())
    assert len(log) == 400
    for key in ("v", "w"):
        assert len(set(log.last[key])) > 1
        assert _one_object_per_value(log.last[key]), key


_identifier = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6
)
_T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
# Few distinct instants, some written with another offset, so ties are common.
_stamps = st.builds(
    lambda minutes, hours: (_T0 + timedelta(minutes=minutes)).astimezone(
        timezone(timedelta(hours=hours))
    ),
    st.integers(0, 3),
    st.sampled_from([0, 1]),
)
_values = st.one_of(
    _identifier,
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
)


@st.composite
def _events(draw, values=_values):
    attrs = draw(st.dictionaries(st.sampled_from(["color", "amount", "stage"]), values))
    return draw(st.sampled_from(["apply", "offer", "close"])), draw(_stamps), attrs


@st.composite
def csv_rows(draw):
    """(case_id, activity, timestamp, attrs) rows, cases interleaved."""
    n_cases = draw(st.integers(min_value=1, max_value=5))
    rows = [
        (f"case_{i}", *draw(_events()))
        for i in range(n_cases)
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    return draw(st.permutations(rows))


def _fold_rows(rows) -> CaseLog:
    """reference_fold of CSV rows, their attributes read back as text."""
    events: dict[str, list] = {}
    for case_id, activity, ts, attrs in rows:
        text = {k: cell_text(v) for k, v in attrs.items()}
        events.setdefault(case_id, []).append((activity, ts, text))
    return reference_fold([(cid, {}, evs) for cid, evs in events.items()])


@settings(max_examples=60, deadline=None)
@given(csv_rows())
def test_csv_round_trip_preserves_traces(rows):
    assert parse_csv(csv_log(rows)) == _fold_rows(rows)


@settings(max_examples=50, deadline=None)
@given(csv_rows())
def test_parsed_traces_are_time_sorted(rows):
    # Stable-sorting the rows by time changes no case's counts or values.
    shuffled = parse_csv(csv_log(rows))
    in_time = parse_csv(csv_log(sorted(rows, key=lambda row: row[2])))
    order = [in_time.case_ids.index(cid) for cid in shuffled.case_ids]
    for columns, again in ((shuffled.counts, in_time.counts), (shuffled.last, in_time.last)):
        assert set(columns) == set(again)
        for key, values in columns.items():
            assert values == [again[key][i] for i in order]


@st.composite
def xes_traces(draw):
    """(case_id | None, trace_attrs, events, attrs_last) traces, some empty,
    and the xes_log options that write them: a namespace prefix or none,
    the order of a value element's attributes, and orphan value elements."""
    n_traces = draw(st.integers(min_value=0, max_value=4))
    names = draw(st.lists(_identifier, min_size=n_traces, max_size=n_traces, unique=True))
    traces = [
        (
            draw(st.one_of(st.none(), st.just(name))),
            draw(st.dictionaries(st.sampled_from(["color", "goal"]), _values)),
            draw(st.lists(_events(), max_size=4)),
            draw(st.booleans()),
        )
        for name in names
    ]
    shape = {
        "prefix": draw(st.sampled_from(["", "xes:"])),
        "layout": draw(st.sampled_from(XES_LAYOUTS)),
        "orphans": draw(st.booleans()),
    }
    return traces, shape


@settings(max_examples=100, deadline=None)
@given(xes_traces())
def test_parse_xes_matches_the_reference_fold(drawn):
    traces, shape = drawn
    expected = reference_fold(
        [
            (name if name is not None else f"trace_{k}", attrs, events)
            for k, (name, attrs, events, _) in enumerate(traces, start=1)
        ]
    )
    assert parse_xes(xes_log(traces, **shape)) == expected


_padding = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def timestamp_texts(draw):
    """Timestamp text: ISO-8601 dates and times with a T, a space or a "."
    between them, 1-9 fraction digits, a Z, z or +-hh:mm ending or none,
    date-only, padded with whitespace, or arbitrary text."""
    day = draw(st.dates()).isoformat()
    clock = "{:02d}:{:02d}:{:02d}".format(*draw(st.tuples(*[st.integers(0, 59)] * 3)))
    fraction = draw(st.one_of(st.just(""), st.text("0123456789", min_size=1, max_size=9)))
    ending = draw(
        st.one_of(
            st.sampled_from(["", "Z", "z"]),
            st.builds(
                "{}{:02d}:{:02d}".format,
                st.sampled_from("+-"),
                st.integers(0, 23),
                st.integers(0, 59),
            ),
        )
    )
    stamp = day + draw(st.sampled_from("T .")) + clock + (fraction and "." + fraction) + ending
    text = draw(
        st.one_of(
            st.just(stamp),
            st.just(day),
            st.text(alphabet="0123456789-:.TZz+ ", max_size=32),
            st.text(max_size=12),
        )
    )
    return draw(_padding) + text + draw(_padding)


@settings(max_examples=400, deadline=None)
@given(timestamp_texts())
@example("2016-01-01.09:00:00")  # a separator to fromisoformat, a fraction to the reference
def test_parse_timestamp_matches_the_reference(text):
    try:
        expected = reference_parse_timestamp(text)
    except LogParseError:
        with pytest.raises(LogParseError, match="unparseable timestamp"):
            parse_timestamp(text)
        return
    got = parse_timestamp(text)
    assert (got, got.utcoffset()) == (expected, expected.utcoffset())
