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
import xml.parsers.expat
import zlib
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, LogParseError, SchemaError, require

# XES keys with a reserved meaning; everything else is a plain attribute.
XES_ACTIVITY_KEY = "concept:name"
XES_TIMESTAMP_KEY = "time:timestamp"

_XES_VALUE_TAGS = frozenset({"string", "int", "float", "boolean", "date", "id"})
_XES_TAGS = _XES_VALUE_TAGS | {"trace", "event"}

_FRACTION_RE = re.compile(r"(\.\d+)")


class Coded(Sequence):
    """A read-only column of case values: int32 codes, -1 where a value is
    missing, into a tuple of values. It decodes on indexing and iteration,
    None where missing, and equals a list of the same values."""

    def __init__(self, codes: np.ndarray, values):
        codes.setflags(write=False)
        self.codes = codes
        self.values = tuple(values)

    @classmethod
    def of(cls, values) -> Coded:
        """A list of values (None: missing) coded by _Fold.code, or into its
        sorted labels in C-level passes when it holds only str and None; a
        Coded as is."""
        if isinstance(values, Coded):
            return values
        with contextlib.suppress(TypeError):  # an unhashable value is no label
            labels = set(values) - {None}
            if set(map(type, labels)) <= {str}:
                labels = sorted(labels)
                index = {**dict(zip(labels, range(len(labels)))), None: -1}
                codes = map(index.__getitem__, values)
                return cls(np.fromiter(codes, np.int32, len(values)), labels)
        fold = _Fold()
        codes = [-1 if value is None else fold.code("", value) for value in values]
        return cls(np.array(codes, np.int32), fold.values[""])

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        code = self.codes[i]
        return None if code < 0 else self.values[code]

    def __iter__(self):
        decode = self.values + (None,)  # code -1 picks the None
        return map(decode.__getitem__, self.codes.tolist())

    def __eq__(self, other) -> bool:
        # list == Coded falls back on this method, so two columns compare too.
        return list(self) == other

    def __repr__(self) -> str:
        return f"Coded({list(self)!r})"


@dataclass
class CaseLog:
    """The cases of an event log, one entry per case in every column.

    counts maps each activity to its per-case event counts; last maps each
    attribute to its per-case last observed value, None where no event of
    the case carries it. Both hold Coded columns; a list handed in is coded.
    len() is the number of cases (traces).
    """

    case_ids: list[str] = field(default_factory=list)
    counts: dict[str, Coded] = field(default_factory=dict)
    last: dict[str, Coded] = field(default_factory=dict)
    n_events: int = 0

    def __post_init__(self):
        self.counts = {name: Coded.of(column) for name, column in self.counts.items()}
        self.last = {name: Coded.of(column) for name, column in self.last.items()}

    def __len__(self) -> int:
        return len(self.case_ids)


# Ids a dict of the case index holds at most: the usable size of a 2**17-slot
# table, about 1.9 MB of str-keyed entries and slots.
_CASE_INDEX_CAP = 87_381


class _Fold:
    """Where a reader's cases become a CaseLog. Cases are numbered in order
    of first appearance; each event adds the int32 codes of its case and its
    activity, from which log() counts the activities. Each attribute keeps
    an int32 code per case (-1 where unset), made when some case first gets
    a value, into the attribute's own table of values, which code() fills.

    The case ids are listed once, in code order. The case index that finds
    them is a list of dicts of at most _CASE_INDEX_CAP ids each, so that no
    large dict regrows, each id under the first code of the batch that added
    it: one int shared by the batch. A case met again is looked up once in
    case_ids from there, and then holds ~code, which is negative."""

    def __init__(self):
        self.case_ids: list[str] = []  # code -> case id
        self.cases: list[dict[str, int]] = []  # case id -> batch base or ~code
        self.activities: dict[str, int] = {}  # activity -> code
        self.event_cases = array("i")
        self.event_activities = array("i")
        self.codes: dict[str, array] = {}  # attribute -> per-case codes, once set
        self.values: dict[str, list] = defaultdict(list)  # attribute -> code -> value
        # attribute -> value coded twice, or (bool, value), -> code
        self.index: dict[str, dict] = defaultdict(dict)
        # str or int value -> the first equal one coded; bools are seen from the start.
        self.seen: dict = {(bool, False): False, (bool, True): True}

    def column(self, name: str) -> array:
        """The attribute's per-case codes, made on first use."""
        codes = self.codes.get(name)
        if codes is None:
            codes = self.codes[name] = array("i", [-1]) * len(self.case_ids)
        return codes

    def new_cases(self, ids: list[str]) -> int:
        """Number ids, distinct and none of them known, from the next free
        code, which it returns; each attribute's codes grow by -1 for them."""
        base = len(self.case_ids)
        if not self.cases or len(self.cases[-1]) + len(ids) > _CASE_INDEX_CAP:
            self.cases.append({})
        self.cases[-1].update(zip(ids, repeat(base)))
        self.case_ids += ids
        unset = array("i", [-1]) * len(ids)
        for codes in self.codes.values():
            codes.extend(unset)
        return base

    def case_codes(self, ids: list[str]) -> np.ndarray:
        """Each id's int32 case code; ids new to the fold are numbered in
        order of first appearance."""
        codes = dict.fromkeys(ids)  # id -> code, None while unknown
        met = [index for index in self.cases if not index.keys().isdisjoint(codes)]
        for index in met:
            for key in filter(index.__contains__, codes):
                value = index[key]
                if value >= 0:  # met again for the first time
                    value = index[key] = ~self.case_ids.index(key, value)
                codes[key] = ~value
        new = [key for key, code in codes.items() if code is None] if met else list(codes)
        base = self.new_cases(new)
        if len(new) == len(ids):  # every id a distinct new case
            return np.arange(base, base + len(new), dtype=np.int32)
        codes.update(zip(new, range(base, base + len(new))))
        return np.fromiter(map(codes.__getitem__, ids), np.int32, len(ids))

    def code(self, name: str, value) -> int:
        """The value's code in the attribute's table. An exact str or int value
        keeps the first equal object coded, and is indexed once it is coded a
        second time, taking a new code each of those two times: a value coded
        once, as most numbers are, then holds no int object, whose freed pools
        would stay resident. A bool is indexed at once, under (bool, value).
        Any other value gets its own code: True == 1 == 1.0 and -0.0 == 0.0
        are equal keys, yet label and serialize apart."""
        values = self.values[name]
        key = value
        if type(value) not in (str, int):
            if type(value) is not bool:
                values.append(value)
                return len(values) - 1
            key = (bool, value)
        index = self.index[name]
        code = index.get(key)
        if code is None:
            code = len(values)
            if key in self.seen:
                index[key] = code
            values.append(self.seen.setdefault(key, value))
        return code

    def log(self) -> CaseLog:
        """The folded CaseLog. The case index is freed before the counts
        are built, and the event codes once one mask per activity has picked
        out its events' cases, so the fold is spent. Counts are coded into
        range(max + 1); each attribute's codes index its own tuple of values."""
        case_ids = self.case_ids
        self.cases.clear()
        n = len(case_ids)
        cases = np.frombuffer(self.event_cases, np.int32)
        activities = np.frombuffer(self.event_activities, np.int32)
        n_events = len(cases)
        by_activity = {a: cases[activities == code] for a, code in self.activities.items()}
        del cases, activities, self.event_cases, self.event_activities
        counts = {}
        for activity, rows in by_activity.items():
            count = np.bincount(rows, minlength=n).astype(np.int32)
            counts[activity] = Coded(count, range(count.max() + 1))
        last = {k: Coded(np.frombuffer(c, np.int32), self.values[k]) for k, c in self.codes.items()}
        return CaseLog(case_ids, counts, last, n_events)


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
    </trace> and </event> miss and reach the end closure of parse_xes."""

    def __missing__(self, name: str):
        self.end(name)


def parse_xes(source) -> CaseLog:
    """Parse an XES stream (path, bytes, or binary file; gzip detected).

    Trace and event classifiers follow the usual convention: ``concept:name``
    is the case id at trace level and the activity at event level,
    ``time:timestamp`` the event timestamp. Every other key becomes an
    attribute. Malformed XML raises LogParseError with the byte offset.

    expat's handlers are closures over one _Fold and the open trace, and
    hold nothing that refers back to the parser, so a parse leaves no
    reference cycle. A trace's values and each event's values wait in a dict
    each until </trace>, where the events are checked and folded; a typed
    value that does not read raises there, once the trace's name is known.
    The events' values are laid over the trace's own in a stable order by
    stamp, so the latest-stamped event that carries an attribute sets it,
    the later one in the file on a tie.
    """
    fold, ends, n_traces = _Fold(), _Ends(), 0
    tags: dict[str, str | None] = {}  # name -> XES local name or None
    trace: dict | None = None  # the open trace's own values
    events: list[dict] = []  # the open trace's events' values
    unread: str | None = None  # the trace's first unreadable value
    values: dict | None = None  # the open event's dict, else trace

    def error(message: str) -> LogParseError:
        name = trace.get(XES_ACTIVITY_KEY, f"#{n_traces}")
        return LogParseError(f"trace {name!r}: {message}")

    def start(name: str, attrs: list[str]):
        nonlocal n_traces, trace, events, unread, values
        try:
            tag = tags[name]
        except KeyError:
            local = name.rpartition(":")[2]
            tag = tags[name] = local if local in _XES_TAGS else None
            if tag != "trace" and tag != "event":
                ends[name] = None
        if values is not None and tag in _XES_VALUE_TAGS:
            if len(attrs) == 4 and attrs[0] == "key" and attrs[2] == "value":
                key, value = attrs[1], attrs[3]
            else:
                named = dict(zip(attrs[::2], attrs[1::2]))
                if "key" not in named or "value" not in named:
                    return
                key, value = named["key"], named["value"]
            # An event's activity and timestamp stay text whatever the tag.
            if tag in _XES_TYPES and (values is trace or key not in _XES_RESERVED):
                try:
                    # int() and float() read "1_000" and non-ASCII digits;
                    # xs:int and xs:double do not.
                    if "_" in value or not value.isascii():
                        raise ValueError(value)
                    value = _XES_TYPES[tag](value)
                except (KeyError, ValueError):
                    if unread is None:
                        unread = f"<{tag}> attribute {key!r} has the value {value!r}"
            values[key] = value
        elif tag == "event":
            if values is None:
                raise LogParseError("XES <event> outside of a <trace>")
            if values is not trace:
                raise error("XES <event> inside an event")
            values = {}
            events.append(values)
        elif tag == "trace":
            if values is not None:
                raise error("XES <trace> inside a trace")
            n_traces += 1
            trace = values = {}
            events = []

    def end(name: str):
        nonlocal trace, values
        if tags[name] == "event":
            values = trace
            return
        if unread:
            raise error(unread)
        stamped = []
        for attrs in events:
            activity = attrs.pop(XES_ACTIVITY_KEY, None)
            stamp = attrs.pop(XES_TIMESTAMP_KEY, None)
            if not activity:
                raise error(f"event without {XES_ACTIVITY_KEY!r} or with an empty one")
            if stamp is None:
                raise error(f"event without {XES_TIMESTAMP_KEY!r}")
            try:
                stamped.append((parse_timestamp(stamp), activity, attrs))
            except LogParseError as exc:
                raise error(str(exc)) from None
        case_id = str(trace.pop(XES_ACTIVITY_KEY, f"trace_{n_traces}"))
        if not case_id or any(case_id in index for index in fold.cases):
            raise LogParseError(f"trace #{n_traces}: empty or duplicate case id {case_id!r}")
        case = fold.new_cases([case_id])
        # Trace attributes rank below every event value, and vanish when the
        # trace has no events.
        stamped.sort(key=itemgetter(0))
        fold.event_cases.extend(repeat(case, len(stamped)))
        activities, codes = fold.activities, fold.event_activities
        for _, activity, event in stamped:
            codes.append(activities.setdefault(activity, len(activities)))
            trace |= event
        for key, value in trace.items() if stamped else ():
            (fold.codes.get(key) or fold.column(key))[case] = fold.code(key, value)
        trace = values = None

    ends.end = end
    parser = xml.parsers.expat.ParserCreate()
    parser.ordered_attributes = True
    parser.StartElementHandler = start
    parser.EndElementHandler = ends.__getitem__
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
    return fold.log()


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
_MICROSECOND = timedelta(microseconds=1)
# ISO stamps in UTC that numpy reads as fromisoformat does, one per line;
# fromisoformat reads no year 0.
_ISO_UTC_RE = re.compile(r"(?:\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(?:\.\d{1,6})?\+00:00\n)*", re.ASCII)
_YEAR_1 = np.datetime64("0001-01-01", "us").view(np.int64)
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


def _csv_stamps(texts, fmt: str | None, numbers) -> np.ndarray:
    """The rows' stamps as int64 microseconds since the epoch. ISO stamps
    that all read YYYY-MM-DDTHH:MM:SS[.ffffff]+00:00 go through numpy in one
    call; any other stamps, a date numpy rejects or year 0, which numpy reads
    and fromisoformat does not, go stamp by stamp through _csv_timestamp,
    which names the first faulty row."""
    if fmt is None and _ISO_UTC_RE.fullmatch("\n".join(texts) + "\n"):
        with contextlib.suppress(ValueError):
            stamps = np.array([text[:-6] for text in texts], "datetime64[us]").view(np.int64)
            if not stamps.size or stamps.min() >= _YEAR_1:
                return stamps
    stamps = map(_csv_timestamp, texts, repeat(fmt), numbers)
    return np.fromiter([(stamp - _EPOCH) // _MICROSECOND for stamp in stamps], np.int64, len(texts))


def _codes(index: dict, keys) -> np.ndarray:
    """Each key's int32 code in index; a key new to index gets the next
    free code, in order of first appearance."""
    setdefault = index.setdefault
    return np.fromiter([setdefault(key, len(index)) for key in keys], np.int32, len(keys))


class _CsvFold(_Fold):
    """The last-value rule over CSV rows, folded a chunk at a time.

    Each attribute's codes are one array that grows in place, as is the
    int64 stamp that set each (_NO_STAMP if none). Attributes that the same
    rows have carried so far, such as all those that no row has lacked,
    share one stamp column and one winners computation per chunk; a set of
    them gets a copy of the column the first time the rows carry them
    differently. In a chunk, one stable lexsort by (case, stamp) puts each
    case's winning row for an attribute last among the rows that carry it;
    a winner replaces the kept value when its stamp is >= the kept one, and
    each attribute's winners are written with one numpy assignment."""

    def __init__(self, header: list[str], columns: CsvColumns):
        super().__init__()
        index = {name: i for i, name in enumerate(header)}
        mapped = (columns.case_id, columns.activity, columns.timestamp)
        names = columns.attributes
        if names is None:
            names = [name for name in header if name not in mapped]
        for name in mapped + tuple(names):
            if name not in index:
                raise SchemaError(f"mapped CSV column not found: {name!r}")
            first = header.index(name)
            if first != index[name]:
                second = header.index(name, first + 1)
                raise SchemaError(
                    f"CSV header names column {name!r} twice, "
                    f"at columns {first + 1} and {second + 1}"
                )
        self.cells = {name: index[name] for name in names}
        self.i_case, self.i_activity, self.i_ts = (index[name] for name in mapped)
        self.n_cells = 1 + max(self.i_case, self.i_activity, self.i_ts)
        self.width = max([self.n_cells] + [i + 1 for i in self.cells.values()])
        self.fmt = columns.timestamp_format
        self.next_row = 1
        # attribute -> per-case stamps; attributes carried by the same rows
        # so far share one array.
        self.stamps: dict[str, array] = dict.fromkeys(self.cells, array("q"))

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
        stamps = _csv_stamps(columns[self.i_ts][:faulty], self.fmt, numbers)
        if faulty < len(rows):
            row_no = numbers[faulty]
            if faulty == short:
                message = f"{lengths[short]} cells, expected at least {self.n_cells}"
            else:
                message = "empty case id" if not case_ids[faulty] else "empty activity"
            raise LogParseError(f"row {row_no}: {message}", row=row_no)
        if not rows:
            return
        n_old = len(self.case_ids)
        cases = self.case_codes(case_ids)
        self.event_cases.frombytes(cases.tobytes())
        self.event_activities.frombytes(_codes(self.activities, activities).tobytes())
        unstamped = np.full(len(self.case_ids) - n_old, _NO_STAMP).tobytes()
        for kept in {id(kept): kept for kept in self.stamps.values()}.values():
            kept.frombytes(unstamped)
        # Attributes of one stamp column that this chunk's rows carry alike
        # keep sharing it; each other set of them moves to a copy, made
        # before the chunk updates the column.
        groups: dict[tuple[int, bytes], list[str]] = {}
        for name, cell in self.cells.items():
            column = columns[cell]
            carried = b"" if all(column) else bytes(map(bool, column))
            groups.setdefault((id(self.stamps[name]), carried), []).append(name)
        seen = set()
        for (kept, _), names in groups.items():
            if kept in seen:
                self.stamps.update(dict.fromkeys(names, array("q", self.stamps[names[0]])))
            seen.add(kept)
        order = np.lexsort((stamps, cases))
        won = {}
        for (_, carried), names in groups.items():
            carrying = order[np.frombuffer(carried, bool)[order]] if carried else order
            if not carrying.size:
                continue
            # The last row of each case among those carrying the attributes,
            # if it is no older than the value kept.
            of_case = cases[carrying]
            winners = carrying[np.append(of_case[1:] != of_case[:-1], True)]
            kept = np.frombuffer(self.stamps[names[0]], np.int64)
            winners = winners[stamps[winners] >= kept[cases[winners]]]
            kept[cases[winners]] = stamps[winners]
            won.update(dict.fromkeys(names, (cases[winners], winners.tolist())))
        # An attribute's winning cells take codes into the chunk's distinct
        # values of it, and each of those one code for the fold.
        for name, cell in self.cells.items():
            if name not in won:
                continue
            of_case, rows = won[name]
            distinct: dict[str, int] = {}
            local = _codes(distinct, list(map(columns[cell].__getitem__, rows)))
            coded = np.fromiter(map(self.code, repeat(name), distinct), np.int32, len(distinct))
            np.frombuffer(self.column(name), np.int32)[of_case] = coded[local]


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
