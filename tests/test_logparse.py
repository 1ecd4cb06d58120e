import gc
import gzip
import io
import math
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import XES_LAYOUTS, cell_text, csv_log, xes_log
from oracles import reference_fold, reference_parse_timestamp
from upliftmine import logparse
from upliftmine.errors import LogParseError, SchemaError
from upliftmine.logparse import (
    _CSV_CHUNK,
    CaseLog,
    CsvColumns,
    _csv_stamps,
    _csv_timestamp,
    _CsvFold,
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


def test_parse_xes_finds_a_duplicate_case_id_in_an_earlier_index_dict():
    # One id a dict: c3 comes back once c4 has started a dict of its own.
    traces = [
        f"""<trace><string key="concept:name" value="{name}"/><event>
          <string key="concept:name" value="A"/>
          <date key="time:timestamp" value="2016-01-01T00:00:00Z"/>
        </event></trace>"""
        for name in ("c3", "c4", "c3")
    ]
    doc = ("<log>" + "".join(traces) + "</log>").encode()
    with mock.patch.object(logparse, "_CASE_INDEX_CAP", 1):
        with pytest.raises(LogParseError, match="trace #3.*'c3'"):
            parse_xes(doc)
        assert parse_xes(doc.replace(b'"c3"/><event>', b'"c5"/><event>', 1)).case_ids == [
            "c5", "c4", "c3"
        ]


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


def test_parse_xes_event_outside_a_trace_is_an_error():
    with pytest.raises(LogParseError, match="XES <event> outside of a <trace>"):
        parse_xes(b'<log><event><string key="concept:name" value="a"/></event></log>')


_XES_EVENT = (
    '<event><string key="concept:name" value="A"/>'
    '<date key="time:timestamp" value="2016-01-01T00:00:00Z"/></event>'
)


def _xes_trace(case_id: str, body: str = _XES_EVENT) -> str:
    return f'<trace><string key="concept:name" value="{case_id}"/>{body}</trace>'


@pytest.mark.parametrize(
    "first, later, first_message, later_message",
    [
        (
            _xes_trace("c1", '<event><string key="concept:name" value="A"/></event>'),
            _xes_trace("c0"),
            "trace 'c1': event without 'time:timestamp'",
            "trace #3: empty or duplicate case id 'c0'",
        ),
        (
            _xes_trace("c1", '<int key="n" value="x"/>' + _XES_EVENT),
            "<trace><event></trace>",
            "trace 'c1': <int> attribute 'n' has the value 'x'",
            "malformed XES XML",
        ),
    ],
    ids=["stamp-before-duplicate", "int-before-malformed-xml"],
)
def test_parse_xes_reports_the_first_fault_in_file_order(
    first, later, first_message, later_message
):
    # Trace 2 holds the first fault, a later trace or the XML after it another.
    ok = _xes_trace("c0")
    with pytest.raises(LogParseError, match=re.escape(first_message)):
        parse_xes(f"<log>{ok}{first}{later}</log>".encode())
    with pytest.raises(LogParseError, match=re.escape(later_message)):
        parse_xes(f"<log>{ok}{_xes_trace('c1')}{later}</log>".encode())


def test_both_readers_give_each_attribute_its_own_value_table():
    # "1.0" is a label of goal, and a float (XES) or a text (CSV) of amount.
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    columns = {
        "flag": [True, False, True, True],
        "amount": [0.5, 1.0, 0.5, -0.0],
        "goal": ["car", "home", "car", "1.0"],
        "terms": [6, 1, 6, 12],
    }
    rows = [
        (f"c{i}", "A", t0 + timedelta(minutes=i), {key: c[i] for key, c in columns.items()})
        for i in range(4)
    ]
    xes = parse_xes(xes_log([(case, {}, [(a, ts, attrs)], False) for case, a, ts, attrs in rows]))
    csv = parse_csv(csv_log(rows))
    for key, column in columns.items():
        typed = [(type(v), repr(v)) for v in column]
        assert [(type(v), repr(v)) for v in xes.last[key]] == typed
        assert {(type(v), repr(v)) for v in xes.last[key].values} == set(typed), key
        texts = list(map(cell_text, column))
        assert csv.last[key] == texts
        assert set(csv.last[key].values) == set(texts), key


def test_parse_xes_leaves_no_reference_cycle():
    # A cycle through the handlers would keep each parse, its fold included,
    # alive until the collector runs.
    gc.collect()
    gc.disable()
    try:
        log = parse_xes(XES_TWO_EVENTS)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert log.case_ids == ["case_1"]


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


def _one_value_per_trace(elements: list[str]) -> bytes:
    """An XES log whose i-th trace has one event carrying elements[i] as x."""
    traces = "".join(
        f'<trace><string key="concept:name" value="c{i}"/><event>'
        '<string key="concept:name" value="A"/>'
        '<date key="time:timestamp" value="2020-01-01T00:00:00Z"/>'
        f'<{element} key="x"/></event></trace>'
        for i, element in enumerate(elements)
    )
    return f"<log>{traces}</log>".encode()


def test_parse_xes_keeps_each_typed_value_as_read():
    # Equal as dict keys (True == 1 == 1.0, -0.0 == 0.0), yet each labels and
    # serializes differently, so no case may be given another case's value.
    values = [True, 1, 1.0, -0.0, 0.0, math.nan]
    elements = ['boolean value="true"', 'int value="1"', 'float value="1.0"',
                'float value="-0.0"', 'float value="0.0"', 'float value="NaN"']
    log = parse_xes(_one_value_per_trace(elements))
    assert [(type(v), repr(v)) for v in log.last["x"]] == [(type(v), repr(v)) for v in values]


def test_parse_xes_codes_each_distinct_bool_once():
    flags = ["true", "false", "true", "true"]
    log = parse_xes(_one_value_per_trace([f'boolean value="{f}"' for f in flags]))
    assert log.last["x"] == [True, False, True, True]
    assert len(log.last["x"].values) == 2
    # A bool never shares an entry with an equal int or float.
    elements = ['boolean value="true"', 'int value="1"', 'boolean value="1"',
                'float value="1.0"', 'int value="1"']
    column = parse_xes(_one_value_per_trace(elements)).last["x"]
    assert [type(v) for v in column] == [bool, int, bool, float, int]
    codes = column.codes.tolist()
    assert codes[0] == codes[2] and len({codes[0], codes[1], codes[3]}) == 3


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


@pytest.mark.parametrize(
    "header, columns, message",
    [
        ("case_id,activity,timestamp,x,x", None, "'x' twice, at columns 4 and 5"),
        ("case_id,activity,timestamp,x,x", CsvColumns(attributes=["x"]), "columns 4 and 5"),
        ("case_id,timestamp,activity,timestamp,x", None, "'timestamp' twice, at columns 2 and 4"),
        ("case_id,case_id,activity,timestamp", None, "'case_id' twice, at columns 1 and 2"),
    ],
)
def test_parse_csv_column_named_twice_is_a_schema_error(header, columns, message):
    data = f"{header}\nc1,a,2020-01-01T00:00:00,1,2\n".encode()
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_csv(data, columns)


def test_parse_csv_allows_a_repeated_column_that_nothing_reads():
    data = b"case_id,activity,timestamp,x,note,note\nc1,a,2020-01-01T00:00:00,1,p,q\n"
    assert parse_csv(data, CsvColumns(attributes=["x"])).last == {"x": ["1"]}


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


def test_parse_csv_field_over_the_csv_limit_is_malformed_csv():
    data = (
        b"case_id,activity,timestamp,v\n"
        b"c1,apply,2020-05-01T00:00:00Z,ok\n"
        b"c2,apply,2020-05-01T00:00:00Z," + b"x" * 200_000 + b"\n"
    )
    with pytest.raises(LogParseError, match="malformed CSV at line 3: field larger"):
        parse_csv(data)


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


def _leaving_csv(boundary: int, u_every: int, v_every: int):
    """CSV text of rows whose u, v and w are set in every row before row
    boundary; from there on u is empty in every u_every-th row, the first
    of them boundary itself, and v in every v_every-th row, the first of
    them at least one row later; w stays set. Case "tie" has a row before
    the boundary and one at it with the log's latest stamp, the later one
    lacking u; case "old" has a row just after the boundary that sets u
    with an older stamp than its first row. Returns the text and the rows."""
    late, early = "2020-01-02T00:00:00Z", "2019-06-01T00:00:00Z"
    rows = []
    for row in range(1, boundary + 2 * _CSV_CHUNK):
        hour, minute = divmod(row % 1440, 60)
        cells = [f"c{row % 40}", f"A{row % 3}", f"2020-01-01T{hour:02d}:{minute:02d}:00Z"]
        cells += [f"u{row}", f"v{row}", f"w{row}"]
        if row >= boundary and (row - boundary) % u_every == 0:
            cells[3] = ""
        if row > boundary and (row - boundary) % v_every == 0:
            cells[4] = ""
        rows.append(cells)
    rows[1] = ["tie", "A0", late, "u_kept", "v_old", "w_old"]
    rows[2] = ["old", "A1", "2020-01-01T23:00:00Z", "u_first", "v_first", "w_first"]
    rows[boundary - 1] = ["tie", "A2", late, "", "v_new", "w_new"]
    rows[boundary] = ["old", "A1", early, "u_stale", "v_stale", "w_stale"]
    lines = ["case_id,activity,timestamp,u,v,w"] + [",".join(r) for r in rows]
    return "\n".join(lines).encode(), rows


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 3 * _CSV_CHUNK),
    st.integers(1, 9),
    st.integers(1, 9),
)
@example(2 * _CSV_CHUNK + 5, 2, 3)
def test_parse_csv_shared_stamps_leaving_a_full_column_match_the_reference(
    boundary, u_every, v_every
):
    # u and v share w's stamp column until a row lacks them, in some later
    # chunk than the first; the rows of "tie" and "old" fall on both sides.
    data, rows = _leaving_csv(boundary, u_every, v_every)
    events: dict[str, list] = {}
    for case_id, activity, stamp, *cells in rows:
        attrs = {key: cell for key, cell in zip("uvw", cells) if cell}
        events.setdefault(case_id, []).append((activity, reference_parse_timestamp(stamp), attrs))
    log = parse_csv(data)
    assert log == reference_fold([(cid, {}, evs) for cid, evs in events.items()])
    tie, old = log.case_ids.index("tie"), log.case_ids.index("old")
    assert [log.last[key][tie] for key in "uvw"] == ["u_kept", "v_new", "w_new"]
    assert [log.last[key][old] for key in "uvw"] == ["u_first", "v_first", "w_first"]


def test_csv_fold_keeps_one_stamp_column_until_a_cell_is_missing():
    header = ["case_id", "activity", "timestamp", "u", "v", "w"]
    fold = _CsvFold(header, CsvColumns())
    for start in range(0, 3 * _CSV_CHUNK, _CSV_CHUNK):
        fold.add([[f"c{row % 40}", "A", "2020-01-01T00:00:00Z", "1", "2", "3"]
                  for row in range(start, start + _CSV_CHUNK)])
    assert len({id(stamps) for stamps in fold.stamps.values()}) == 1
    fold.add([["c1", "A", "2020-01-01T00:00:01Z", "", "2", "3"]])
    assert fold.stamps["v"] is fold.stamps["w"] is not fold.stamps["u"]
    fold.add([["c1", "A", "2020-01-01T00:00:02Z", "1", "", "3"]])
    assert len({id(stamps) for stamps in fold.stamps.values()}) == 3
    log = fold.log()
    assert [log.last[key][1] for key in "uvw"] == ["1", "2", "3"]


def test_csv_case_index_shares_one_int_per_chunk_and_holds_the_code_of_a_case_met_again():
    header = ["case_id", "activity", "timestamp"]
    fold = _CsvFold(header, CsvColumns())
    for start in range(0, 3 * _CSV_CHUNK, _CSV_CHUNK):
        fold.add([[f"c{row}", "A", "2020-01-01T00:00:00Z"] for row in range(start, start + _CSV_CHUNK)])
    values = [value for index in fold.cases for value in index.values()]
    assert len(values) == 3 * _CSV_CHUNK
    assert len({id(value) for value in values}) <= 3
    met = _CSV_CHUNK + 5
    fold.add([["c5", "A", "2020-01-02T00:00:00Z"], [f"c{met}", "A", "2020-01-02T00:00:00Z"]])
    assert [fold.cases[0]["c5"], fold.cases[0][f"c{met}"]] == [~5, ~met]
    fold.add([["c5", "A", "2020-01-03T00:00:00Z"], ["new", "A", "2020-01-03T00:00:00Z"]])
    log = fold.log()
    assert log.case_ids[met] == f"c{met}" and log.case_ids[-1] == "new"
    assert [log.counts["A"][i] for i in (5, met, 6, 3 * _CSV_CHUNK)] == [3, 2, 1, 1]


_ISO_UTC_DATETIMES = st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31))


def _iso_utc(moment: datetime, digits: int) -> str:
    """moment as YYYY-MM-DDTHH:MM:SS, the first digits digits of its
    fraction (with the point, if any) and +00:00."""
    fraction = f".{moment.microsecond:06d}"[: digits + 1] if digits else ""
    return f"{moment.year:04d}{moment:-%m-%dT%H:%M:%S}{fraction}+00:00"


def _micros_one_by_one(texts, first_row: int):
    """The stamps as int64 microseconds through _csv_timestamp one by one,
    or the LogParseError it raises for the first faulty one."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    try:
        stamps = [_csv_timestamp(text, None, first_row + i) for i, text in enumerate(texts)]
    except LogParseError as exc:
        return str(exc), exc.row
    return [(stamp - epoch) // timedelta(microseconds=1) for stamp in stamps]


def _micros_per_chunk(texts, first_row: int):
    try:
        stamps = _csv_stamps(texts, None, range(first_row, first_row + len(texts)))
    except LogParseError as exc:
        return str(exc), exc.row
    assert stamps.dtype == np.int64
    return stamps.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_ISO_UTC_DATETIMES, st.integers(0, 6)), min_size=1, max_size=40),
    st.one_of(
        st.none(),
        st.sampled_from(
            [
                "0000-01-01T00:00:00+00:00",
                "2021-02-29T12:00:00+00:00",
                "2021-01-01T00:00:00.1234567+00:00",
                "2021-01-01T24:00:00+00:00",
                "2021-01-01T00:00:00+00:00 ",
            ]
        ),
    ),
    st.data(),
)
@example([(datetime(1, 1, 1), 0), (datetime(9999, 12, 31, 23, 59, 59, 999999), 6)], None, None)
def test_iso_utc_fast_path_matches_parse_timestamp_stamp_by_stamp(moments, odd, data):
    texts = [_iso_utc(moment, digits) for moment, digits in moments]
    if odd is not None:
        texts.insert(data.draw(st.integers(0, len(texts))), odd)
    else:
        # Every stamp of an ISO-UTC chunk is read in the one numpy call.
        with mock.patch("upliftmine.logparse._csv_timestamp", side_effect=AssertionError):
            assert _micros_per_chunk(texts, 7) == _micros_one_by_one(texts, 7)
    assert _micros_per_chunk(texts, 7) == _micros_one_by_one(texts, 7)


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
def recurring_rows(draw):
    """Up to 42 (case_id, activity, timestamp, attrs) rows, grouped by case,
    sorted by time or shuffled."""
    n_cases = draw(st.integers(min_value=1, max_value=14))
    rows = [
        (f"case_{i}", *draw(_events()))
        for i in range(n_cases)
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    order = draw(st.sampled_from(["grouped", "time", "shuffled"]))
    if order == "time":
        return sorted(rows, key=lambda row: row[2])
    return draw(st.permutations(rows)) if order == "shuffled" else rows


# Read 3 rows a chunk into dicts of 3 ids, case a is met in dict 0, again
# after dict 2 has started (rows 10 and 12) and once more (row 13).
_A_RETURNS = [
    (case_id, "apply", _T0 + timedelta(minutes=row % 4), {"color": f"v{row}"})
    for row, case_id in enumerate("abcdefghiajaabk")
]


@settings(max_examples=100, deadline=None)
@given(recurring_rows(), st.integers(1, 5), st.integers(1, 6))
@example(_A_RETURNS, 3, 3)
def test_parse_csv_recurring_cases_across_chunks_and_index_dicts_give_the_reference_log(
    rows, chunk, cap
):
    # Small chunks and index dicts, so that a case comes back in later chunks
    # and after later dicts have started.
    with mock.patch.object(logparse, "_CSV_CHUNK", chunk), mock.patch.object(
        logparse, "_CASE_INDEX_CAP", cap
    ):
        assert parse_csv(csv_log(rows)) == _fold_rows(rows)


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
