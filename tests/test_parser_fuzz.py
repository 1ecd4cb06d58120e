"""Fuzzing the log parsers: mutated valid logs raise UpliftMineError or parse.

Each example takes a valid CSV or XES log, damages it (truncation, byte
flips, inserted bytes, wrongly typed values, deleted keys or cells), and may
gzip it, before or after the damage. Whatever the parser makes of it, the
only exceptions allowed out are UpliftMineError subclasses, which the CLI
maps to its documented exit codes.
"""

import gzip
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from upliftmine.errors import UpliftMineError
from upliftmine.logparse import parse_csv, parse_xes

CSV_LOG = (
    "case_id,activity,timestamp,Amount,City,Selected\n"
    "c1,apply,2020-05-01T10:00:00Z,700,Zürich,false\n"
    'c2,apply,2020-05-01T11:00:00.5+02:00,12.5,"Lyon, FR",\n'
    "c1,offer,2020-05-02 10:00:00,710,,true\n"
).encode("utf-8")

XES_LOG = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="c1"/>
    <string key="City" value="Zürich"/>
    <event>
      <string key="concept:name" value="apply"/>
      <date key="time:timestamp" value="2016-01-01T09:00:00.123+01:00"/>
      <int key="Amount" value="700"/>
      <float key="Rate" value="0.25"/>
      <boolean key="Selected" value="false"/>
    </event>
    <event>
      <string key="concept:name" value="offer"/>
      <date key="time:timestamp" value="2016-01-02T09:00:00Z"/>
      <id key="Offer" value="o-1"/>
    </event>
  </trace>
  <trace>
    <event>
      <string key="concept:name" value="apply"/>
      <date key="time:timestamp" value="2016-01-01T09:00:00"/>
      <int key="Amount" value="-3"/>
    </event>
  </trace>
</log>
""".encode("utf-8")


def _truncate(data, draw):
    return data[: draw(st.integers(0, len(data)))]


def _flip(data, draw):
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        if out:
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
    return bytes(out)


def _insert(data, draw):
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]


_TYPED_VALUE = re.compile(rb'(<(?:int|float|date|boolean)[^>]*value=")([^"]*)(")')
_KEY_OR_VALUE = re.compile(rb'\s(?:key|value)="[^"]*"')
_CELL = re.compile(rb"[^,\n]+")


def _retype(data, draw):
    """A typed XES value, or a CSV cell, replaced by arbitrary text."""
    pattern = _TYPED_VALUE if data.lstrip().startswith(b"<") else _CELL
    spans = list(pattern.finditer(data))
    text = draw(st.text(max_size=6)).replace('"', "").encode("utf-8")
    if not spans:
        return data
    m = draw(st.sampled_from(spans))
    if pattern is _CELL:
        return data[: m.start()] + text + data[m.end():]
    return data[: m.start(2)] + text + data[m.end(2):]


def _drop(data, draw):
    """An XES key= or value=, or a CSV cell with its comma, deleted."""
    pattern = _KEY_OR_VALUE if data.lstrip().startswith(b"<") else re.compile(rb"[^,\n]*,")
    spans = list(pattern.finditer(data))
    if not spans:
        return data
    m = draw(st.sampled_from(spans))
    return data[: m.start()] + data[m.end():]


_MUTATIONS = (_truncate, _flip, _insert, _retype, _drop)


@st.composite
def damaged(draw, base: bytes) -> bytes:
    data = base
    gzip_first = draw(st.booleans())
    if gzip_first:
        data = gzip.compress(data, mtime=0)
    for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        data = mutate(data, draw)
    if not gzip_first and draw(st.booleans()):
        data = gzip.compress(data, mtime=0)
    return data


def _parses_or_raises_upliftmine_error(parse, data: bytes) -> None:
    try:
        parse(data)
    except UpliftMineError:
        pass


@settings(max_examples=300, deadline=None)
@given(damaged(CSV_LOG))
@example(CSV_LOG.replace(b"700", b"\xff"))
@example(gzip.compress(CSV_LOG)[:-9])
def test_damaged_csv_raises_only_upliftmine_errors(data):
    _parses_or_raises_upliftmine_error(parse_csv, data)


@settings(max_examples=300, deadline=None)
@given(damaged(XES_LOG))
@example(XES_LOG.replace(b'value="700"', b'value="abc"'))
@example(XES_LOG.replace(b'value="0.25"', b'value="abc"'))
@example(gzip.compress(XES_LOG)[:-9])
@example(XES_LOG.replace(b"UTF-8", b"TTF-8"))
@example(XES_LOG.replace(b"UTF-8", b"UTF-7"))
def test_damaged_xes_raises_only_upliftmine_errors(data):
    _parses_or_raises_upliftmine_error(parse_xes, data)
