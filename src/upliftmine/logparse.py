"""Event-log ingestion: XES and CSV readers that fold events into cases.

Both readers stream their input and fold each event into its case as it
arrives, so no event outlives the parse. A case keeps its id (cases are
numbered in order of first appearance), how often each activity occurred,
and the last observed value of each attribute: the value carried by the
latest-stamped event that carries the attribute, the later event in the
file winning a tie. XES trace-level attributes rank below every event
value of their trace, and vanish when the trace has no events. Both readers
return the same CaseLog, stored column by column, so everything downstream
(encoding, mining, trees) is format-agnostic.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import re
import xml.parsers.expat
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Union

from .errors import ConfigError, LogParseError, SchemaError, require

AttrValue = Union[str, int, float, bool]

# XES keys with a reserved meaning; everything else is a plain attribute.
XES_ACTIVITY_KEY = "concept:name"
XES_TIMESTAMP_KEY = "time:timestamp"

_XES_VALUE_TAGS = frozenset({"string", "int", "float", "boolean", "date", "id"})

_FRACTION_RE = re.compile(r"(\.\d+)")


@dataclass
class CaseLog:
    """The cases of an event log, one entry per case in every column.

    counts maps each activity to its per-case event counts; last maps each
    attribute to its per-case last observed value, None where no event of
    the case carries it. len() is the number of cases (traces).
    """

    case_ids: list[str] = field(default_factory=list)
    counts: dict[str, list[int]] = field(default_factory=dict)
    last: dict[str, list[AttrValue | None]] = field(default_factory=dict)
    n_events: int = 0

    def __len__(self) -> int:
        return len(self.case_ids)


class _Fold:
    """Builds a CaseLog as events stream in, in any order. stamps[key][case]
    is the timestamp of the event that set last[key][case]."""

    def __init__(self):
        self.log = CaseLog()
        self.index: dict[str, int] = {}
        self.stamps: dict[str, list[datetime | None]] = {}

    def new_case(self, case_id: str) -> int:
        """Open a case: one more entry in every column."""
        for columns, fill in (
            (self.log.counts, 0), (self.log.last, None), (self.stamps, None)
        ):
            for column in columns.values():
                column.append(fill)
        self.log.case_ids.append(case_id)
        return len(self.log.case_ids) - 1

    def case(self, case_id: str) -> int:
        """The index of case_id, opening a case when it is new."""
        case = self.index.get(case_id)
        if case is None:
            case = self.index[case_id] = self.new_case(case_id)
        return case

    def event(self, case: int, activity: str, ts: datetime, attrs) -> None:
        self.log.n_events += 1
        counts = self.log.counts.get(activity)
        if counts is None:
            counts = self.log.counts[activity] = [0] * len(self.log)
        counts[case] += 1
        for key, value in attrs:
            self.put(case, key, value, ts)

    def put(self, case: int, key: str, value: AttrValue, ts: datetime | None) -> None:
        """Set the case's value of key unless an event stamped after ts set
        it; ts None ranks below every event."""
        stamps = self.stamps.get(key)
        if stamps is None:
            stamps = self.stamps[key] = [None] * len(self.log)
            self.log.last[key] = [None] * len(self.log)
        if stamps[case] is None or (ts is not None and ts >= stamps[case]):
            stamps[case] = ts
            self.log.last[key][case] = value


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    Raises LogParseError carrying the literal text on failure.
    """
    raw = text
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    # fromisoformat (3.10) only accepts 3- or 6-digit fractions.
    text = _FRACTION_RE.sub(lambda m: (m[1] + "000000")[:7], text, count=1)
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


@contextlib.contextmanager
def _binary_input(source):
    """source (a path, bytes or a binary stream) as a binary stream,
    gunzipped when it starts with the gzip magic bytes. A failed read,
    damaged gzip included, raises LogParseError."""
    try:
        with contextlib.ExitStack() as stack:
            if isinstance(source, (str, Path)):
                stream = stack.enter_context(open(source, "rb"))
            elif isinstance(source, (bytes, bytearray)):
                stream = io.BytesIO(source)
            else:
                stream = source
            if not stream.seekable():
                stream = io.BytesIO(stream.read())
            head = stream.read(2)
            stream.seek(0)
            if head == b"\x1f\x8b":
                stream = stack.enter_context(gzip.GzipFile(fileobj=stream))
            yield stream
    except (OSError, EOFError, zlib.error) as exc:
        where = f" {source}" if isinstance(source, (str, Path)) else ""
        raise LogParseError(f"cannot read input{where}: {exc}") from None


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
    """expat handlers folding each trace into the case log as it streams."""

    def __init__(self):
        self.fold = _Fold()
        self._trace_attrs: dict[str, AttrValue] | None = None
        self._trace_index = 0
        self._trace_has_events = False
        self._case = 0
        # Until the event ends, its activity and timestamp sit among its
        # attributes under their XES keys.
        self._event_attrs: dict | None = None

    def _trace_name(self):
        return self._trace_attrs.get(XES_ACTIVITY_KEY, f"#{self._trace_index}")

    def start(self, name: str, attrs: dict[str, str]):
        local = name.rsplit(":", 1)[-1]
        if local == "trace":
            if self._trace_attrs is not None:
                raise LogParseError(f"XES <trace> inside trace {self._trace_name()!r}")
            self._trace_index += 1
            self._trace_attrs = {}
            self._trace_has_events = False
            # The case id may come after the events; it is filled in at the end.
            self._case = self.fold.new_case("")
        elif local == "event":
            if self._trace_attrs is None:
                raise LogParseError("XES <event> outside of a <trace>")
            if self._event_attrs is not None:
                raise LogParseError(f"XES <event> inside an event of trace {self._trace_name()!r}")
            self._event_attrs = {}
        elif local in _XES_VALUE_TAGS and self._trace_attrs is not None:
            key = attrs.get("key")
            value = attrs.get("value")
            if key is None or value is None:
                return
            if self._event_attrs is None:
                self._trace_attrs[key] = self._coerce(local, key, value)
            elif key == XES_TIMESTAMP_KEY:
                self._event_attrs[key] = parse_timestamp(value)
            else:
                coerce = key != XES_ACTIVITY_KEY
                self._event_attrs[key] = self._coerce(local, key, value) if coerce else value

    def _coerce(self, tag: str, key: str, value: str) -> AttrValue:
        try:
            return _coerce_xes_value(tag, value)
        except ValueError:
            raise LogParseError(
                f"trace {self._trace_name()!r}: <{tag}> attribute {key!r} has the value {value!r}"
            ) from None

    def end(self, name: str):
        local = name.rsplit(":", 1)[-1]
        if local == "event":
            activity = self._event_attrs.pop(XES_ACTIVITY_KEY, None)
            ts = self._event_attrs.pop(XES_TIMESTAMP_KEY, None)
            if not activity:
                raise LogParseError(
                    f"event without {XES_ACTIVITY_KEY!r} or with an empty one "
                    f"in trace {self._trace_name()!r}"
                )
            if ts is None:
                raise LogParseError(
                    f"event without {XES_TIMESTAMP_KEY!r} in trace {self._trace_name()!r}"
                )
            self.fold.event(self._case, activity, ts, self._event_attrs.items())
            self._trace_has_events = True
            self._event_attrs = None
        elif local == "trace":
            case_id = str(self._trace_attrs.get(XES_ACTIVITY_KEY, f"trace_{self._trace_index}"))
            if not case_id or case_id in self.fold.index:
                raise LogParseError(
                    f"trace #{self._trace_index}: empty or duplicate case id {case_id!r}"
                )
            self.fold.index[case_id] = self._case
            self.fold.log.case_ids[self._case] = case_id
            if self._trace_has_events:
                for key, value in self._trace_attrs.items():
                    if key != XES_ACTIVITY_KEY:
                        self.fold.put(self._case, key, value, None)
            self._trace_attrs = None


def parse_xes(source) -> CaseLog:
    """Parse an XES stream (path, bytes, or binary file; gzip detected).

    Trace and event classifiers follow the usual convention: ``concept:name``
    is the case id at trace level and the activity at event level,
    ``time:timestamp`` the event timestamp. Every other key becomes an
    attribute. Malformed XML raises LogParseError with the byte offset.
    """
    builder = _XesBuilder()
    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.buffer_text = True
    with _binary_input(source) as stream:
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
        except (LookupError, ValueError) as exc:
            # expat hands encodings it lacks to Python's codecs, which may
            # not know the XML declaration's encoding or be multi-byte.
            raise LogParseError(f"XES input in an unsupported encoding: {exc}") from None
    return builder.fold.log


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

@dataclass
class CsvColumns:
    """Maps CSV columns onto events.

    ``timestamp_format`` is a strptime pattern, or None for ISO-8601.
    ``attributes`` limits which extra columns become event attributes;
    None means every unmapped column. Empty cells are missing values.
    """

    case_id: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"
    timestamp_format: str | None = None
    attributes: list[str] | None = None

    def __post_init__(self):
        for name in ("case_id", "activity", "timestamp"):
            require(getattr(self, name), str, name)
        if self.timestamp_format is not None:
            require(self.timestamp_format, str, "timestamp_format")
        if self.attributes is not None:
            if not isinstance(self.attributes, list):
                raise ConfigError("attributes must be a list of column names")
            for i, name in enumerate(self.attributes):
                require(name, str, f"attributes[{i}]")


def _utf8_lines(stream):
    """The stream's lines, decoded; invalid UTF-8 raises LogParseError with
    the offending byte's offset."""
    offset = 0
    for line in stream:
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LogParseError(
                f"invalid UTF-8 at byte {offset + exc.start}", byte_offset=offset + exc.start
            ) from None
        offset += len(line)


def parse_csv(source, columns: CsvColumns | None = None) -> CaseLog:
    """Parse a UTF-8 CSV event stream with a header row, one event a row."""
    columns = columns or CsvColumns()
    fold = _Fold()
    with _binary_input(source) as stream:
        reader = csv.reader(_utf8_lines(stream))
        try:
            header = next(reader, None)
            if header is None:
                raise LogParseError("CSV input has no header row")
            index = {name: i for i, name in enumerate(header)}
            mapped = (columns.case_id, columns.activity, columns.timestamp)
            for name in mapped + tuple(columns.attributes or ()):
                if name not in index:
                    raise SchemaError(f"mapped CSV column not found: {name!r}")
            attr_names = columns.attributes
            if attr_names is None:
                attr_names = [name for name in header if name not in mapped]
            attr_cells = [(name, index[name]) for name in attr_names]
            i_case, i_activity, i_ts = (index[name] for name in mapped)
            n_cells = 1 + max(i_case, i_activity, i_ts)
            for row_no, row in enumerate(reader, start=1):
                if not any(row):
                    continue
                if len(row) < n_cells:
                    raise LogParseError(
                        f"row {row_no}: {len(row)} cells, expected at least {n_cells}",
                        row=row_no,
                    )
                case_id = row[i_case].strip()
                if not case_id:
                    raise LogParseError(f"row {row_no}: empty case id", row=row_no)
                activity = row[i_activity].strip()
                if not activity:
                    raise LogParseError(f"row {row_no}: empty activity", row=row_no)
                ts = _csv_timestamp(row[i_ts], columns.timestamp_format, row_no)
                cells = [(name, row[i]) for name, i in attr_cells if i < len(row) and row[i]]
                fold.event(fold.case(case_id), activity, ts, cells)
        except csv.Error as exc:
            raise LogParseError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    return fold.log


def _csv_timestamp(text: str, fmt: str | None, row_no: int) -> datetime:
    if fmt is None:
        try:
            return parse_timestamp(text)
        except LogParseError as exc:
            raise LogParseError(f"row {row_no}: {exc}", row=row_no) from None
    try:
        ts = datetime.strptime(text, fmt)
    except ValueError:
        raise LogParseError(f"row {row_no}: unparseable timestamp: {text!r}", row=row_no) from None
    return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)
