"""Event-log ingestion: XES and CSV readers that fold events into cases.

Both readers stream their input: CSV rows are folded into their cases a
chunk at a time, an XES trace's events wait for its </trace>. A case
keeps its id (cases are numbered in order of first appearance), how often
each activity occurred, and the last observed value of each attribute: the
value carried by the latest-stamped event that carries it, the later event
in the file winning a tie. XES trace-level attributes rank below every event
value of their trace, and vanish when the trace has no events. Both readers
write into one _Fold, which returns the CaseLog, stored column by column, so
everything downstream (encoding, mining, trees) is format-agnostic.
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
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import compress, count, filterfalse, islice, repeat
from operator import attrgetter, itemgetter, sub
from pathlib import Path
from typing import Union

import numpy as np

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


class _Shared(dict):
    """Each value it is indexed by maps to the first equal value it was
    indexed by, so that a fold keeps one object per distinct value. Only
    exact str and int values go through it: True == 1 == 1.0 and -0.0 == 0.0
    are equal keys, yet they label and serialize differently."""

    def __missing__(self, value):
        self[value] = value
        return value


class _Fold:
    """Where a reader's cases become a CaseLog. Cases are numbered in order
    of first appearance; each event adds the int32 codes of its case and its
    activity, from which log() counts the activities; each attribute keeps
    its per-case last value in a list made the first time some case gets a
    value. Kept str and int values are shared per distinct value."""

    def __init__(self):
        self.cases: dict[str, int] = {}  # case id -> code
        self.activities: dict[str, int] = {}  # activity -> code
        self.event_cases = array("i")
        self.event_activities = array("i")
        self.last: dict[str, list] = {}
        self.shared = _Shared()

    def column(self, name: str) -> list:
        """The attribute's per-case last values, made on first use."""
        values = self.last.get(name)
        if values is None:
            values = self.last[name] = [None] * len(self.cases)
        return values

    def log(self) -> CaseLog:
        """The folded CaseLog. The case codes are freed before the counts
        are built, and the event codes once one mask per activity has picked
        out its events' cases, so the fold is spent."""
        case_ids = list(self.cases)
        self.cases.clear()
        n = len(case_ids)
        cases = np.frombuffer(self.event_cases, np.int32)
        activities = np.frombuffer(self.event_activities, np.int32)
        n_events = len(cases)
        by_activity = {a: cases[activities == code] for a, code in self.activities.items()}
        del cases, activities, self.event_cases, self.event_activities
        counts = {a: np.bincount(rows, minlength=n).tolist() for a, rows in by_activity.items()}
        return CaseLog(case_ids, counts, self.last, n_events)


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
    value that does not read raises there, once the trace's name is known.
    The events' values are laid over the trace's own in a stable order by
    stamp, so the latest-stamped event that carries an attribute sets it,
    the later one in the file on a tie."""

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
        fold, attrs = self.fold, self._trace
        case_id = str(attrs.pop(XES_ACTIVITY_KEY, f"trace_{self._n_traces}"))
        if not case_id or case_id in fold.cases:
            raise LogParseError(
                f"trace #{self._n_traces}: empty or duplicate case id {case_id!r}"
            )
        case = fold.cases[case_id] = len(fold.cases)
        for column in fold.last.values():
            column.append(None)
        # Trace attributes rank below every event value, and vanish when the
        # trace has no events.
        events.sort(key=itemgetter(0))
        fold.event_cases.extend(repeat(case, len(events)))
        activities, codes = fold.activities, fold.event_activities
        for _, activity, values in events:
            codes.append(activities.setdefault(activity, len(activities)))
            attrs |= values
        last, shared = fold.last, fold.shared
        for key, value in attrs.items() if events else ():
            column = last.get(key) or fold.column(key)  # never empty: it holds this case
            column[case] = shared[value] if type(value) in (str, int) else value
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
    return builder.fold.log()


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


# Rows a CSV is read and folded in at a time.
_CSV_CHUNK = 256
# Below every stamp: the stamp of an attribute no row of the case has set.
_NO_STAMP = np.iinfo(np.int64).min
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DELTA_PARTS = (attrgetter("days"), attrgetter("seconds"), attrgetter("microseconds"))
# What reading a row can raise besides a fault of the row itself.
_CSV_READ_ERRORS = (UnicodeDecodeError, csv.Error, OSError, EOFError, zlib.error)


def _csv_chunks(stream):
    """The stream's CSV rows, header included, in lists of up to _CSV_CHUNK
    rows. Lines split as bytes and decode as UTF-8 one by one. A row that
    cannot be read ends the rows: those read before it come first, so that
    their own faults are found first, and then its error is raised."""
    reader = csv.reader(map(bytes.decode, stream))
    while True:
        rows = []
        try:
            # extend keeps what it took before the iterator raised.
            rows.extend(islice(reader, _CSV_CHUNK))
        except _CSV_READ_ERRORS as exc:
            if rows:
                yield rows
            if isinstance(exc, UnicodeDecodeError):
                offset = _invalid_utf8_offset(stream)
                raise LogParseError(
                    f"invalid UTF-8 at byte {offset}", byte_offset=offset
                ) from None
            if isinstance(exc, csv.Error):
                raise LogParseError(f"malformed CSV at line {reader.line_num}: {exc}") from None
            raise
        if len(rows) < _CSV_CHUNK:
            if rows:
                yield rows
            return
        yield rows


def _invalid_utf8_offset(stream) -> int:
    """The offset of the stream's first byte that is not UTF-8, read again
    from the start."""
    stream.seek(0)
    offset = 0
    for line in stream:
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return offset + exc.start
        offset += len(line)
    return offset


def _epoch_micros(stamps: list[datetime]) -> np.ndarray:
    """Each aware datetime as int64 microseconds since the epoch."""
    deltas = list(map(sub, stamps, repeat(_EPOCH)))
    days, seconds, micros = (
        np.fromiter(map(part, deltas), np.int64, len(deltas)) for part in _DELTA_PARTS
    )
    return (days * 86400 + seconds) * 1_000_000 + micros


def _codes(index: dict, keys) -> np.ndarray:
    """Each key's int32 code in index; a key new to index gets the next
    free code, in order of first appearance."""
    new = dict.fromkeys(filterfalse(index.__contains__, keys))
    index.update(zip(new, count(len(index))))
    return np.fromiter(map(index.__getitem__, keys), np.int32, len(keys))


class _CsvFold(_Fold):
    """The last-value rule over CSV rows, folded a chunk at a time.

    Besides each attribute's last values, it keeps per case the int64 stamp
    that set each one (_NO_STAMP if none), in an array that grows in place.
    In a chunk, one stable lexsort by (case, stamp) puts each case's winning
    row for an attribute last among the rows that carry it; a winner
    replaces the kept value when its stamp is >= the kept one."""

    def __init__(self, header: list[str], columns: CsvColumns):
        super().__init__()
        index = {name: i for i, name in enumerate(header)}
        mapped = (columns.case_id, columns.activity, columns.timestamp)
        for name in mapped + tuple(columns.attributes or ()):
            if name not in index:
                raise SchemaError(f"mapped CSV column not found: {name!r}")
        names = columns.attributes
        if names is None:
            names = [name for name in header if name not in mapped]
        self.names = list(dict.fromkeys(names))
        self.cells = [index[name] for name in self.names]
        self.i_case, self.i_activity, self.i_ts = (index[name] for name in mapped)
        self.n_cells = 1 + max(self.i_case, self.i_activity, self.i_ts)
        self.width = max([self.n_cells] + [i + 1 for i in self.cells])
        self.fmt = columns.timestamp_format
        self.next_row = 1
        self.stamps = {name: array("q") for name in self.names}

    def add(self, rows: list[list[str]]) -> None:
        """Fold the next rows of the file. Blank rows are skipped; the first
        faulty row raises LogParseError."""
        numbers = range(self.next_row, self.next_row + len(rows))
        self.next_row += len(rows)
        columns = list(zip(*rows))
        short = len(rows)
        if len(columns) < self.width or not all(columns[self.i_case]):
            keep = list(map(any, rows))
            numbers, rows = list(compress(numbers, keep)), list(compress(rows, keep))
            lengths = [len(row) for row in rows]
            short = next((i for i, n in enumerate(lengths) if n < self.n_cells), len(rows))
            # A row that ends early lacks the attributes past its end.
            rows = [row + [""] * (self.width - n) for row, n in zip(rows, lengths)]
            columns = list(zip(*rows)) or [()] * self.width
        case_ids = list(map(str.strip, columns[self.i_case]))
        activities = list(map(str.strip, columns[self.i_activity]))
        faulty = min(
            short,
            len(rows) if all(case_ids) else case_ids.index(""),
            len(rows) if all(activities) else activities.index(""),
        )
        texts = columns[self.i_ts][:faulty]
        stamps = _epoch_micros(list(map(_csv_timestamp, texts, repeat(self.fmt), numbers)))
        if faulty < len(rows):
            row_no = numbers[faulty]
            if faulty == short:
                message = f"{lengths[short]} cells, expected at least {self.n_cells}"
            else:
                message = "empty case id" if not case_ids[faulty] else "empty activity"
            raise LogParseError(f"row {row_no}: {message}", row=row_no)
        if not rows:
            return
        n_old = len(self.cases)
        cases = _codes(self.cases, case_ids)
        self.event_cases.frombytes(cases.tobytes())
        self.event_activities.frombytes(_codes(self.activities, activities).tobytes())
        n_new = len(self.cases) - n_old
        for values in self.last.values():
            values.extend([None] * n_new)
        order = np.lexsort((stamps, cases))
        shared = self.shared
        for name, cell in zip(self.names, self.cells):
            self.stamps[name].frombytes(np.full(n_new, _NO_STAMP).tobytes())
            column = columns[cell]
            carrying = order
            if not all(column):
                carrying = order[np.fromiter(map(bool, column), bool, len(column))[order]]
            if not carrying.size:
                continue
            # The last row of each case among those carrying the attribute,
            # if it is no older than the value kept.
            of_case = cases[carrying]
            winners = carrying[np.append(of_case[1:] != of_case[:-1], True)]
            kept = np.frombuffer(self.stamps[name], np.int64)
            winners = winners[stamps[winners] >= kept[cases[winners]]]
            kept[cases[winners]] = stamps[winners]
            values = self.column(name)
            for case, row in zip(cases[winners].tolist(), winners.tolist()):
                values[case] = shared[column[row]]


def parse_csv(source, columns: CsvColumns | None = None) -> CaseLog:
    """Parse a UTF-8 CSV event stream with a header row, one event a row."""
    fold = None
    with _binary_input(source) as stream:
        for rows in _csv_chunks(stream):
            if fold is None:
                fold = _CsvFold(rows.pop(0), columns or CsvColumns())
            fold.add(rows)
            rows.clear()  # before the next chunk is read
    if fold is None:
        raise LogParseError("CSV input has no header row")
    fold.stamps.clear()  # before log() builds the counts
    return fold.log()


def _csv_timestamp(text: str, fmt: str | None, row_no: int) -> datetime:
    try:
        if fmt is None:
            return parse_timestamp(text)
        ts = datetime.strptime(text, fmt)
        return ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)
    except (LogParseError, ValueError):
        raise LogParseError(f"row {row_no}: unparseable timestamp: {text!r}", row=row_no) from None
