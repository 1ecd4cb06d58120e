"""Event-log ingestion: XES and CSV readers that fold events into cases.

Both readers stream their input into one fold: a CSV row is folded into its
case as it arrives, an XES trace's events wait for its </trace>. A case
keeps its id (cases are numbered in order of first appearance), how often
each activity occurred, and the last observed value of each attribute: the
value carried by the latest-stamped event that carries it, the later event
in the file winning a tie. XES trace-level attributes rank below every event
value of their trace, and vanish when the trace has no events. Both readers
return the same CaseLog, stored column by column, so everything downstream
(encoding, mining, trees) is format-agnostic.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import math
import re
import weakref
import xml.parsers.expat
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Union

from .errors import ConfigError, LogParseError, SchemaError, require

AttrValue = Union[str, int, float, bool]

# XES keys with a reserved meaning; everything else is a plain attribute.
XES_ACTIVITY_KEY = "concept:name"
XES_TIMESTAMP_KEY = "time:timestamp"

_XES_VALUE_TAGS = frozenset({"string", "int", "float", "boolean", "date", "id"})
_XES_TAGS = _XES_VALUE_TAGS | {"trace", "event"}

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
    """Builds a CaseLog by the last-value rule: the latest-stamped event that
    carries an attribute sets it, the later one in the file on a tie; trace
    attributes rank below every event value and vanish when the trace has no
    events. CSV rows come through event(), in any order, stamps[key][case]
    holding the stamp that set last[key][case]; XES traces through trace()."""

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
        self.index[case_id] = len(self.log)
        self.log.case_ids.append(case_id)
        return self.index[case_id]

    def count(self, case: int, activity: str) -> None:
        self.log.n_events += 1
        counts = self.log.counts.get(activity)
        if counts is None:
            counts = self.log.counts[activity] = [0] * len(self.log)
        counts[case] += 1

    def event(self, case_id: str, activity: str, ts: datetime, attrs) -> None:
        case = self.index.get(case_id)
        if case is None:
            case = self.new_case(case_id)
        self.count(case, activity)
        for key, value in attrs:
            stamps = self.stamps.get(key)
            if stamps is None:
                stamps = self.stamps[key] = [None] * len(self.log)
                self.log.last[key] = [None] * len(self.log)
            if stamps[case] is None or ts >= stamps[case]:
                stamps[case] = ts
                self.log.last[key][case] = value

    def trace(self, number: int, attrs: dict, events: list) -> None:
        """Add the number-th trace as a case, named by its concept:name or
        trace_<number>: attrs are its trace attributes, events its
        (timestamp, activity, attrs) in file order."""
        case_id = str(attrs.pop(XES_ACTIVITY_KEY, f"trace_{number}"))
        if not case_id or case_id in self.index:
            raise LogParseError(f"trace #{number}: empty or duplicate case id {case_id!r}")
        case = self.new_case(case_id)
        for _, activity, values in sorted(events, key=itemgetter(0)):
            self.count(case, activity)
            attrs |= values
        for key, value in attrs.items() if events else ():
            column = self.log.last.get(key)
            if column is None:
                column = self.log.last[key] = [None] * len(self.log)
            column[case] = value


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC.

    fromisoformat reads most stamps as they are. The rest, and a "." after the
    date (a separator to fromisoformat, a fraction here), lose surrounding
    whitespace, read a Z or z suffix as UTC, pad the first fraction to 6 digits
    (Python 3.10 reads 3 or 6) and try the strptime layouts below. Raises
    LogParseError with the text.
    """
    try:
        if "." in text[:11]:
            raise ValueError(text)
        ts = datetime.fromisoformat(text)
    except ValueError:
        odd = text.strip()
        if odd.endswith(("Z", "z")):
            odd = odd[:-1] + "+00:00"
        odd = _FRACTION_RE.sub(lambda m: (m[1] + "000000")[:7], odd, count=1)
        for fmt in (None, "%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d"):
            with contextlib.suppress(ValueError):
                ts = datetime.strptime(odd, fmt) if fmt else datetime.fromisoformat(odd)
                break
        else:
            raise LogParseError(f"unparseable timestamp: {text!r}") from None
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

def _xes_boolean(raw: str) -> bool:
    """An xs:boolean (true, false, 1 or 0, any case and padding), else KeyError."""
    return {"true": True, "1": True, "false": False, "0": False}[raw.strip().lower()]


def _xes_double(raw: str) -> float:
    """An xs:double, else ValueError. float() reads "infinity" or " nan " in
    any case, and an overflowing exponent as inf; a non-finite value reads
    only from xs:double's own INF, +INF, -INF and NaN."""
    value = float(raw)
    if not math.isfinite(value) and raw.strip() not in ("INF", "+INF", "-INF", "NaN"):
        raise ValueError(raw)
    return value


# How typed values are read; other values stay text (dates too, timestamps aside).
_XES_TYPES = {"int": int, "float": _xes_double, "boolean": _xes_boolean}
_XES_RESERVED = (XES_ACTIVITY_KEY, XES_TIMESTAMP_KEY)


class _Ends(dict):
    """expat's end handler, as its __getitem__: start maps each element name
    whose end does nothing to None, so such an end is one lookup in C; only
    </trace> and </event> miss and reach end(), through a weak proxy, as a
    cycle would keep the parse alive until a collection."""

    def __missing__(self, name: str):
        self.builder.end(name)


class _XesBuilder:
    """expat handlers. A trace's values and each event's values wait in a dict
    each until </trace>, where the events are checked and folded; a typed
    value that does not read raises there, once the trace's name is known."""

    def __init__(self):
        self.fold = _Fold()
        self.ends = _Ends()
        self.ends.builder = weakref.proxy(self)
        self._tags: dict[str, str | None] = {}  # name -> XES local name or None
        self._n_traces = 0
        self._trace: dict | None = None  # the open trace's own values
        self._events: list[dict] = []  # the open trace's events' values
        self._unread: str | None = None  # the trace's first unreadable value
        self._values: dict | None = None  # the open event's dict, else _trace

    def _error(self, message: str) -> LogParseError:
        name = self._trace.get(XES_ACTIVITY_KEY, f"#{self._n_traces}")
        return LogParseError(f"trace {name!r}: {message}")

    def start(self, name: str, attrs: list[str]):
        try:
            tag = self._tags[name]
        except KeyError:
            local = name.rpartition(":")[2]
            tag = self._tags[name] = local if local in _XES_TAGS else None
            if tag != "trace" and tag != "event":
                self.ends[name] = None
        values = self._values
        if values is not None and tag in _XES_VALUE_TAGS:
            if len(attrs) == 4 and attrs[0] == "key" and attrs[2] == "value":
                key, value = attrs[1], attrs[3]
            else:
                named = dict(zip(attrs[::2], attrs[1::2]))
                if "key" not in named or "value" not in named:
                    return
                key, value = named["key"], named["value"]
            # An event's activity and timestamp stay text whatever the tag.
            if tag in _XES_TYPES and (values is self._trace or key not in _XES_RESERVED):
                try:
                    # int() and float() read "1_000" and non-ASCII digits;
                    # xs:int and xs:double do not.
                    if "_" in value or not value.isascii():
                        raise ValueError(value)
                    value = _XES_TYPES[tag](value)
                except (KeyError, ValueError):
                    if self._unread is None:
                        self._unread = f"<{tag}> attribute {key!r} has the value {value!r}"
            values[key] = value
        elif tag == "event":
            if values is None:
                raise LogParseError("XES <event> outside of a <trace>")
            if values is not self._trace:
                raise self._error("XES <event> inside an event")
            self._values = {}
            self._events.append(self._values)
        elif tag == "trace":
            if values is not None:
                raise self._error("XES <trace> inside a trace")
            self._n_traces += 1
            self._trace = self._values = {}
            self._events = []

    def end(self, name: str):
        if self._tags[name] == "event":
            self._values = self._trace
            return
        if self._unread:
            raise self._error(self._unread)
        events = []
        for attrs in self._events:
            activity = attrs.pop(XES_ACTIVITY_KEY, None)
            stamp = attrs.pop(XES_TIMESTAMP_KEY, None)
            if not activity:
                raise self._error(f"event without {XES_ACTIVITY_KEY!r} or with an empty one")
            if stamp is None:
                raise self._error(f"event without {XES_TIMESTAMP_KEY!r}")
            try:
                events.append((parse_timestamp(stamp), activity, attrs))
            except LogParseError as exc:
                raise self._error(str(exc)) from None
        self.fold.trace(self._n_traces, self._trace, events)
        self._trace = self._values = None


def parse_xes(source) -> CaseLog:
    """Parse an XES stream (path, bytes, or binary file; gzip detected).

    Trace and event classifiers follow the usual convention: ``concept:name``
    is the case id at trace level and the activity at event level,
    ``time:timestamp`` the event timestamp. Every other key becomes an
    attribute. Malformed XML raises LogParseError with the byte offset.
    """
    builder = _XesBuilder()
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.ends.__getitem__
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
                fold.event(case_id, activity, ts, cells)
        except csv.Error as exc:
            raise LogParseError(f"malformed CSV at line {reader.line_num}: {exc}") from None
    return fold.log


def _csv_timestamp(text: str, fmt: str | None, row_no: int) -> datetime:
    try:
        if fmt is None:
            return parse_timestamp(text)
        ts = datetime.strptime(text, fmt)
        return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)
    except (LogParseError, ValueError):
        raise LogParseError(f"row {row_no}: unparseable timestamp: {text!r}", row=row_no) from None
