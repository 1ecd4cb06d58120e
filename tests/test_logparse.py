import gzip
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upliftmine.errors import LogParseError, SchemaError
from upliftmine.logparse import (
    CsvColumns,
    Event,
    EventLog,
    Trace,
    parse_csv,
    parse_timestamp,
    parse_xes,
    write_csv,
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
    </event>
    <event>
      <string key="concept:name" value="A_first"/>
      <date key="time:timestamp" value="2016-01-01T09:00:00.000+00:00"/>
      <boolean key="Selected" value="true"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_sorts_events_by_timestamp():
    log = parse_xes(XES_TWO_EVENTS)
    assert len(log) == 1
    trace = log.traces[0]
    assert trace.case_id == "case_1"
    assert [e.activity for e in trace.events] == ["A_first", "B_second"]
    assert trace.events[0].timestamp < trace.events[1].timestamp


def test_parse_xes_types_and_trace_attrs():
    log = parse_xes(XES_TWO_EVENTS)
    first, second = log.traces[0].events
    # trace-level attribute lands on the first (earliest) event
    assert first.attributes["LoanGoal"] == "Car"
    assert first.attributes["Selected"] is True
    assert second.attributes["NoOfTerms"] == 48
    assert "LoanGoal" not in second.attributes


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
    (trace,) = parse_xes(doc).traces
    assert trace.case_id == "c1"
    assert [(e.activity, e.attributes) for e in trace.events] == [("A", {})]


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
    by_id = {t.case_id: t for t in log.traces}
    assert [e.activity for e in by_id["c1"].events] == ["apply", "offer"]
    assert len(by_id["c2"].events) == 1
    # empty cell means the attribute is absent, not empty-string
    assert "CreditScore" not in by_id["c2"].events[0].attributes
    assert by_id["c1"].events[0].attributes["CreditScore"] == "700"


def test_parse_csv_sorts_out_of_order_rows():
    data = (
        b"case_id,activity,timestamp\n"
        b"c1,late,2020-05-03T00:00:00Z\n"
        b"c1,early,2020-05-01T00:00:00Z\n"
    )
    log = parse_csv(data)
    assert [e.activity for e in log.traces[0].events] == ["early", "late"]


def test_parse_csv_duplicate_timestamps_keep_file_order():
    data = (
        b"case_id,activity,timestamp\n"
        b"c1,first,2020-05-01T00:00:00Z\n"
        b"c1,second,2020-05-01T00:00:00Z\n"
        b"c1,third,2020-05-01T00:00:00Z\n"
    )
    log = parse_csv(data)
    assert [e.activity for e in log.traces[0].events] == ["first", "second", "third"]


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


def test_parse_csv_custom_timestamp_format():
    data = b"case_id,activity,timestamp\nc1,apply,01/05/2020 13:45\n"
    log = parse_csv(data, CsvColumns(timestamp_format="%d/%m/%Y %H:%M"))
    ev = log.traces[0].events[0]
    assert ev.timestamp == datetime(2020, 5, 1, 13, 45, tzinfo=timezone.utc)


def test_duplicate_case_ids_rejected():
    ts = datetime(2020, 1, 1, tzinfo=timezone.utc)
    mk = lambda cid: Trace(cid, [Event("a", cid, ts)])
    with pytest.raises(ValueError, match="duplicate"):
        EventLog(traces=[mk("c1"), mk("c1")])


_identifier = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=6
)


@st.composite
def small_logs(draw):
    n_cases = draw(st.integers(min_value=1, max_value=5))
    traces = []
    for i in range(n_cases):
        cid = f"case_{i}"
        n_events = draw(st.integers(min_value=1, max_value=4))
        events = []
        for j in range(n_events):
            ts = datetime(2020, 1, 1 + draw(st.integers(0, 20)), tzinfo=timezone.utc)
            attrs = {}
            if draw(st.booleans()):
                attrs["color"] = draw(_identifier)
            if draw(st.booleans()):
                attrs["amount"] = draw(
                    st.floats(allow_nan=False, allow_infinity=False, width=32)
                )
            events.append(Event(draw(_identifier), cid, ts, attrs))
        events.sort(key=lambda e: e.timestamp)
        traces.append(Trace(cid, events))
    return EventLog(traces=traces)


@settings(max_examples=50, deadline=None)
@given(small_logs())
def test_csv_round_trip_preserves_traces(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("rt") / "log.csv"
    write_csv(log, path)
    back = parse_csv(path.read_bytes())
    assert len(back) == len(log)
    for orig, again in zip(log.traces, back.traces):
        assert again.case_id == orig.case_id
        assert [e.activity for e in again.events] == [e.activity for e in orig.events]
        assert [e.timestamp for e in again.events] == [e.timestamp for e in orig.events]
        for o_ev, a_ev in zip(orig.events, again.events):
            for name, value in o_ev.attributes.items():
                got = a_ev.attributes[name]
                if isinstance(value, float):
                    assert float(got) == pytest.approx(value)
                else:
                    assert got == str(value)


@settings(max_examples=50, deadline=None)
@given(small_logs())
def test_parsed_traces_are_time_sorted(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("sorted") / "log.csv"
    write_csv(log, path)
    back = parse_csv(path.read_bytes())
    for trace in back.traces:
        stamps = [e.timestamp for e in trace.events]
        assert stamps == sorted(stamps)
