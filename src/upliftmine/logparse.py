"""Event-log ingestion: XES and CSV readers plus the core log model.

An event log is a set of traces; a trace is the timestamp-ordered sequence
of events recorded for one case. Both readers normalize into the same
in-memory model, so everything downstream (encoding, mining, trees) is
format-agnostic.
"""

from __future__ import annotations

import csv
import gzip
import io
import re
import xml.parsers.expat
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Union

from .errors import LogParseError, SchemaError

AttrValue = Union[str, int, float, bool]

# XES keys with a reserved meaning; everything else is a plain attribute.
XES_ACTIVITY_KEY = "concept:name"
XES_TIMESTAMP_KEY = "time:timestamp"

_XES_VALUE_TAGS = frozenset({"string", "int", "float", "boolean", "date", "id"})

_FRACTION_RE = re.compile(r"(\.\d+)")


@dataclass(frozen=True)
class Event:
    """One recorded activity execution within a case."""

    activity: str
    case_id: str
    timestamp: datetime
    attributes: dict[str, AttrValue] = field(default_factory=dict)

    def __post_init__(self):
        if not self.activity:
            raise ValueError("event activity must be non-empty")
        if not self.case_id:
            raise ValueError("event case_id must be non-empty")


@dataclass
class Trace:
    """All events of one case, sorted by timestamp (stable on ties)."""

    case_id: str
    events: list[Event]

    def __post_init__(self):
        for ev in self.events:
            if ev.case_id != self.case_id:
                raise ValueError(
                    f"trace {self.case_id!r} contains event of case {ev.case_id!r}"
                )


@dataclass
class EventLog:
    """A set of traces keyed by case id (order = first appearance)."""

    traces: list[Trace]

    def __post_init__(self):
        seen: set[str] = set()
        for trace in self.traces:
            if trace.case_id in seen:
                raise ValueError(f"duplicate case_id in event log: {trace.case_id!r}")
            seen.add(trace.case_id)

    def __len__(self) -> int:
        return len(self.traces)

    @property
    def n_events(self) -> int:
        return sum(len(t.events) for t in self.traces)


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    Raises LogParseError carrying the literal text on failure.
    """
    raw = text
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    # fromisoformat (3.10) only accepts 3- or 6-digit fractions.
    m = _FRACTION_RE.search(text)
    if m:
        frac = m.group(1)
        digits = frac[1:]
        if len(digits) not in (3, 6):
            digits = (digits + "000000")[:6] if len(digits) < 6 else digits[:6]
            text = text[: m.start(1)] + "." + digits + text[m.end(1):]
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        ts = None
        for fmt in ("%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
            try:
                ts = datetime.strptime(text, fmt)
                break
            except ValueError:
                continue
        if ts is None:
            raise LogParseError(f"unparseable timestamp: {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def _sorted_events(events: list[Event]) -> list[Event]:
    # sorted() is stable: ties keep original file order.
    return sorted(events, key=lambda e: e.timestamp)


# ---------------------------------------------------------------------------
# XES
# ---------------------------------------------------------------------------

def _coerce_xes_value(tag: str, raw: str) -> AttrValue:
    if tag == "int":
        return int(raw)
    if tag == "float":
        return float(raw)
    if tag == "boolean":
        return raw.strip().lower() == "true"
    # date attributes other than time:timestamp stay textual
    return raw


class _XesBuilder:
    """expat handler assembling traces; streams, never holds the whole file."""

    def __init__(self):
        self.traces: list[Trace] = []
        self._trace_attrs: dict[str, AttrValue] | None = None
        # (activity, timestamp, attrs) tuples; Events are built at trace end
        # because the trace's concept:name may come after its events.
        self._trace_events: list[tuple[str, datetime, dict[str, AttrValue]]] | None = None
        self._trace_index = 0
        self._case_ids: set[str] = set()
        self._event_attrs: dict[str, AttrValue] | None = None
        self._event_activity: str | None = None
        self._event_timestamp: datetime | None = None

    def start(self, name: str, attrs: dict[str, str]):
        local = name.rsplit(":", 1)[-1]
        in_event = self._event_attrs is not None
        in_trace = self._trace_attrs is not None
        if local == "trace":
            self._trace_index += 1
            self._trace_attrs = {}
            self._trace_events = []
        elif local == "event":
            if not in_trace:
                raise LogParseError("XES <event> outside of a <trace>")
            self._event_attrs = {}
            self._event_activity = None
            self._event_timestamp = None
        elif local in _XES_VALUE_TAGS and (in_trace or in_event):
            key = attrs.get("key")
            value = attrs.get("value")
            if key is None or value is None:
                return
            if in_event:
                if key == XES_ACTIVITY_KEY:
                    self._event_activity = value
                elif key == XES_TIMESTAMP_KEY:
                    self._event_timestamp = parse_timestamp(value)
                else:
                    self._event_attrs[key] = _coerce_xes_value(local, value)
            else:
                self._trace_attrs[key] = _coerce_xes_value(local, value)

    def end(self, name: str):
        local = name.rsplit(":", 1)[-1]
        if local == "event":
            trace_name = self._trace_attrs.get(XES_ACTIVITY_KEY, f"#{self._trace_index}")
            if not self._event_activity:
                raise LogParseError(
                    f"event without {XES_ACTIVITY_KEY!r} or with an empty one "
                    f"in trace {trace_name!r}"
                )
            if self._event_timestamp is None:
                raise LogParseError(
                    f"event without {XES_TIMESTAMP_KEY!r} in trace {trace_name!r}"
                )
            self._trace_events.append(
                (self._event_activity, self._event_timestamp, self._event_attrs)
            )
            self._event_attrs = None
        elif local == "trace":
            case_id = str(self._trace_attrs.get(XES_ACTIVITY_KEY, f"trace_{self._trace_index}"))
            if not case_id or case_id in self._case_ids:
                raise LogParseError(
                    f"trace #{self._trace_index}: empty or duplicate case id {case_id!r}"
                )
            self._case_ids.add(case_id)
            pending = sorted(self._trace_events, key=lambda item: item[1])
            events = [
                Event(activity=act, case_id=case_id, timestamp=ts, attributes=attrs)
                for act, ts, attrs in pending
            ]
            if events and self._trace_attrs:
                # Trace-level attributes ride on the first event so that
                # last-observed-value encoding sees them; event-level values
                # of the same name observed later take precedence.
                extras = {
                    k: v for k, v in self._trace_attrs.items() if k != XES_ACTIVITY_KEY
                }
                first = events[0]
                merged = dict(extras)
                merged.update(first.attributes)
                events[0] = Event(first.activity, first.case_id, first.timestamp, merged)
            self.traces.append(Trace(case_id=case_id, events=events))
            self._trace_attrs = None
            self._trace_events = None


def _open_binary(source) -> IO[bytes]:
    if isinstance(source, (str, Path)):
        stream: IO[bytes] = open(source, "rb")
    elif isinstance(source, (bytes, bytearray)):
        stream = io.BytesIO(source)
    else:
        stream = source
    head = stream.read(2)
    if head == b"\x1f\x8b":
        if stream.seekable():
            stream.seek(0)
            return gzip.GzipFile(fileobj=stream)  # type: ignore[return-value]
        raise LogParseError("gzip input requires a seekable stream")
    if stream.seekable():
        stream.seek(0)
        return stream
    rest = stream.read()
    return io.BytesIO(head + rest)


def parse_xes(source) -> EventLog:
    """Parse an XES stream (path, bytes, or binary file; gzip detected).

    Trace and event classifiers follow the usual convention: ``concept:name``
    is the case id at trace level and the activity at event level,
    ``time:timestamp`` the event timestamp. Every other key becomes an
    attribute. Malformed XML raises LogParseError with the byte offset.
    """
    stream = _open_binary(source)
    builder = _XesBuilder()
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.buffer_text = True
    try:
        while True:
            chunk = stream.read(1 << 16)
            if not chunk:
                parser.Parse(b"", True)
                break
            parser.Parse(chunk, False)
    except xml.parsers.expat.ExpatError as exc:
        offset = parser.ErrorByteIndex
        raise LogParseError(
            f"malformed XES XML at byte {offset}: {exc}", byte_offset=offset
        ) from exc
    return EventLog(traces=builder.traces)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

@dataclass
class CsvColumns:
    """Maps CSV columns onto the event model.

    ``timestamp_format`` is a strptime pattern, or None for ISO-8601.
    ``attributes`` limits which extra columns become event attributes;
    None means every unmapped column. Empty cells are missing values.
    """

    case_id: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    timestamp_format: str | None = None
    attributes: list[str] | None = None


def parse_csv(source, columns: CsvColumns | None = None) -> EventLog:
    """Parse a UTF-8 CSV event stream with a header row into an EventLog."""
    columns = columns or CsvColumns()
    stream = _open_binary(source)
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise LogParseError("CSV input has no header row") from None
    index = {name: i for i, name in enumerate(header)}
    for mapped in (columns.case_id, columns.activity, columns.timestamp):
        if mapped not in index:
            raise SchemaError(f"mapped CSV column not found: {mapped!r}")
    attr_names = columns.attributes
    if attr_names is None:
        mapped = {columns.case_id, columns.activity, columns.timestamp}
        attr_names = [name for name in header if name not in mapped]
    else:
        for name in attr_names:
            if name not in index:
                raise SchemaError(f"mapped CSV column not found: {name!r}")

    n_cells = 1 + max(index[c] for c in (columns.case_id, columns.activity, columns.timestamp))
    by_case: dict[str, list[Event]] = {}
    for row_no, row in enumerate(reader, start=1):
        if not row or all(cell == "" for cell in row):
            continue
        if len(row) < n_cells:
            raise LogParseError(
                f"row {row_no}: {len(row)} cells, expected at least {n_cells}", row=row_no
            )
        case_id = row[index[columns.case_id]].strip()
        if not case_id:
            raise LogParseError(f"row {row_no}: empty case id", row=row_no)
        activity = row[index[columns.activity]].strip()
        if not activity:
            raise LogParseError(f"row {row_no}: empty activity", row=row_no)
        ts_text = row[index[columns.timestamp]]
        if columns.timestamp_format:
            try:
                ts = datetime.strptime(ts_text, columns.timestamp_format)
            except ValueError:
                raise LogParseError(
                    f"row {row_no}: unparseable timestamp: {ts_text!r}", row=row_no
                ) from None
            if ts.tzinfo is None:
                ts = ts.replace(tzinfo=timezone.utc)
        else:
            try:
                ts = parse_timestamp(ts_text)
            except LogParseError as exc:
                raise LogParseError(f"row {row_no}: {exc}", row=row_no) from None
        attrs = {
            name: row[index[name]]
            for name in attr_names
            if index[name] < len(row) and row[index[name]] != ""
        }
        by_case.setdefault(case_id, []).append(
            Event(activity=activity, case_id=case_id, timestamp=ts, attributes=attrs)
        )

    traces = [
        Trace(case_id=cid, events=_sorted_events(events))
        for cid, events in by_case.items()
    ]
    return EventLog(traces=traces)


def format_attr_value(value: AttrValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(log: EventLog, path, columns: CsvColumns | None = None) -> None:
    """Serialize a log to CSV, round-trippable through parse_csv."""
    columns = columns or CsvColumns()
    names: set[str] = set()
    for trace in log.traces:
        for ev in trace.events:
            names.update(ev.attributes)
    attr_cols = sorted(names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([columns.case_id, columns.activity, columns.timestamp, *attr_cols])
        for trace in log.traces:
            for ev in trace.events:
                row = [ev.case_id, ev.activity, ev.timestamp.isoformat()]
                row.extend(
                    format_attr_value(ev.attributes[a]) if a in ev.attributes else ""
                    for a in attr_cols
                )
                writer.writerow(row)
