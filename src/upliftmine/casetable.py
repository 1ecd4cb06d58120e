"""Case-level encoding: one fixed-width feature record per case.

Each case of a CaseLog becomes one row: raw attributes take their last
observed value, derived features count activity occurrences or pull the
last value of a named event attribute, and the outcome becomes {0,1}. The
cases are stored column by column. Numeric features can then be discretized
into interval labels, which is what the rule miner works on; a binned
attribute keeps its numbers, from which the labels are derived, so the tree
can still split at raw thresholds.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from itertools import repeat
from math import floor, nan

import numpy as np

from .errors import ConfigError, SchemaError
from .logparse import CaseLog, Coded

log = logging.getLogger(__name__)

MISSING_LABEL = "missing"

DEFAULT_POSITIVE_LABELS = frozenset({"1", "true"})

CATEGORICAL = "categorical"
NUMERIC = "numeric"

SOURCE_RAW = "raw"
SOURCE_COUNT = "count"
SOURCE_LAST = "last"


@dataclass(frozen=True)
class AttributeSchema:
    """Declares one case-level feature and where it comes from.

    source "raw" takes the last observed value of the event attribute with
    the same name; "count" counts events whose activity equals source_arg;
    "last" takes the final value of the event attribute named source_arg.
    """

    name: str
    kind: str
    controllable: bool = False
    source: str = SOURCE_RAW
    source_arg: str | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise SchemaError("attribute name must be a non-empty string")
        if not isinstance(self.controllable, bool):
            raise SchemaError(f"attribute {self.name!r}: controllable must be true or false")
        if self.source_arg is not None and not isinstance(self.source_arg, str):
            raise SchemaError(f"attribute {self.name!r}: source_arg must be a string")
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.source not in (SOURCE_RAW, SOURCE_COUNT, SOURCE_LAST):
            raise SchemaError(f"attribute {self.name!r}: unknown source {self.source!r}")
        if self.source != SOURCE_RAW and not self.source_arg:
            raise SchemaError(
                f"attribute {self.name!r}: source {self.source!r} needs source_arg"
            )


class CaseTable:
    """Column store of encoded cases, immutable: every array it holds or
    hands out (outcome, each column's codes or floats, each ranked() pair)
    is read-only, so one table can serve every stage of a run.

    Each attribute is stored once: a categorical one as a Coded column whose
    values are its sorted labels, a numeric one, binned or not, as float64
    with NaN for missing. bins maps a binned attribute to its interior
    interval boundaries (numbers, strictly increasing; with the open ends
    they partition the real line), and its Coded interval labels are derived
    from its numbers and those bounds: each value takes the label of its
    right-closed interval, a missing one the real label "missing".

    The constructor is the one place values are encoded and checked, once
    per value that some case holds: columns maps each attribute to a Coded
    column or a list of values (labels, numbers, None), or to another
    table's float array, which is kept, not copied, as a uint8 outcome, a list
    of case ids (so its owner must not change it) and the codes of a Coded
    column that already follow its sorted labels are.
    """

    def __init__(
        self,
        schema: list[AttributeSchema],
        outcome_name: str,
        case_ids: list[str],
        outcomes,
        columns: dict,
        bins: dict[str, list[float]] | None = None,
    ):
        names = [a.name for a in schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in schema")
        if set(columns) != set(names):
            raise SchemaError("columns do not match the schema's attributes")
        self.schema = list(schema)
        self.outcome_name = outcome_name
        self.case_ids = case_ids
        numeric = {a.name for a in self.schema if a.kind == NUMERIC}
        if not set(bins or {}) <= numeric:
            raise SchemaError("bins may only name numeric attributes")
        self.bins = {name: _checked_bounds(name, b) for name, b in (bins or {}).items()}
        n = len(self.case_ids)
        outcome = np.asarray(outcomes)
        if outcome.shape != (n,):
            raise SchemaError("the table needs exactly one outcome per case")
        bad = np.flatnonzero((outcome != 0) & (outcome != 1))
        if bad.size:
            raise SchemaError(f"case {self.case_ids[bad[0]]!r}: outcome must be 0 or 1")
        self.outcome = _read_only(outcome.astype(np.uint8, copy=False))
        self._columns: dict[str, Coded | np.ndarray] = {}
        self._ranked: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in names:
            if len(columns[name]) != n:
                raise SchemaError(f"attribute {name!r}: column length differs from cases")
            encode = _encode_floats if name in numeric else _encode_labels
            self._columns[name] = encode(name, columns[name], self.case_ids)
        self._intervals = {
            name: _interval_codes(name, b, self._columns[name]) for name, b in self.bins.items()
        }

    def __len__(self) -> int:
        return len(self.case_ids)

    def attribute(self, name: str) -> AttributeSchema:
        for a in self.schema:
            if a.name == name:
                return a
        raise SchemaError(f"unknown attribute: {name!r}")

    @property
    def attribute_names(self) -> list[str]:
        return [a.name for a in self.schema]

    def coded(self, name: str) -> Coded:
        """Codes and labels of a categorical attribute, or the interval labels
        of a binned one."""
        column = self._intervals.get(name, self._columns[self.attribute(name).name])
        if not isinstance(column, Coded):
            raise SchemaError(f"numeric attribute {name!r} is not discretized")
        return column

    def numeric(self, name: str) -> np.ndarray:
        """Values of a numeric attribute, binned or not, NaN if missing."""
        if self.attribute(name).kind != NUMERIC:
            raise SchemaError(f"attribute {name!r} is not numeric")
        return self._columns[name]

    def ranked(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Ascending distinct values (numbers but NaN, or labels) and each
        row's int32 index into them, missing rows all last; cached. A
        categorical attribute that no case misses ranks by its own codes."""
        if name not in self._ranked:
            if self.attribute(name).kind == NUMERIC:
                values = self.numeric(name)
                distinct = _distinct(values)
                ranks = np.searchsorted(distinct, values).astype(np.int32)  # NaN sorts last
            else:
                column = self.coded(name)
                distinct = np.array(column.values, dtype=object)
                ranks = column.codes
                if ranks.min(initial=0) < 0:
                    ranks = np.where(ranks < 0, np.int32(len(distinct)), ranks)
            self._ranked[name] = (_read_only(distinct), _read_only(ranks))
        return self._ranked[name]

    def equals(self, name: str, label: str) -> np.ndarray:
        """Row mask of the cases whose label for name equals label."""
        column = self.coded(name)
        labels = column.values
        # len(labels) is no row's code, so an unobserved label matches nothing.
        return column.codes == (labels.index(label) if label in labels else len(labels))

    def column(self, name: str) -> list:
        """Decoded stored values: labels, or floats for a numeric attribute
        (binned or not), None where missing."""
        column = self._columns[self.attribute(name).name]
        if isinstance(column, Coded):
            return list(column)
        return [None if v != v else v for v in column.tolist()]

    def outcomes(self) -> list[int]:
        return self.outcome.tolist()


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of the values but NaN, read off a sort, which puts NaN last:
    a process's first np.unique faults in about 1 MB (see _held)."""
    ordered = np.sort(values)
    ordered = ordered[: np.searchsorted(ordered, nan)]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _held(column: Coded) -> tuple[np.ndarray, list]:
    """The codes that some case holds, ascending, and their values."""
    # bincount, not np.unique: a process's first np.unique faults in about
    # 1.5 MB (numpy 2.4), which would raise ingest's peak RSS.
    codes = column.codes
    held = np.flatnonzero(np.bincount(codes[codes >= 0], minlength=len(column.values)))
    return held, list(map(column.values.__getitem__, held.tolist()))


def _recoded(column: Coded, held: np.ndarray, codes, values) -> Coded:
    """The column with each held code replaced by its new code into values."""
    if np.array_equal(held, codes):
        return Coded(column.codes, values)
    new = np.full(len(column.values) + 1, -1, np.int32)  # code -1 picks the last -1
    new[held] = codes
    return Coded(new[column.codes], values)


def _converted(column: Coded, convert) -> Coded:
    """The column coded into its held values, each converted once."""
    held, values = _held(column)
    return _recoded(column, held, np.arange(len(held)), list(map(convert, values)))


def _encode_labels(name: str, column, case_ids: list[str]) -> Coded:
    """The column coded into the sorted labels that its cases hold."""
    column = Coded.of(column)
    held, values = _held(column)
    if not all(isinstance(label, str) for label in values):
        raise SchemaError(f"attribute {name!r}: labels must be strings")
    labels = tuple(sorted(set(values)))
    index = {label: code for code, label in enumerate(labels)}
    return _recoded(column, held, list(map(index.__getitem__, values)), labels)


def _encode_floats(name: str, column, case_ids: list[str]) -> np.ndarray:
    """The one place a case-table number becomes a float, as float() reads
    it, in one numpy pass: each value that some case of a Coded column
    holds converts once, a list converts row by row; a missing one reads as
    NaN. Another table's float array is kept."""
    if isinstance(column, np.ndarray):
        return _read_only(column)
    try:
        if not isinstance(column, Coded):
            return _read_only(np.fromiter(column, np.float64, len(column)))
        held, values = _held(column)
        floats = np.full(len(column.values) + 1, nan)  # code -1 picks the last NaN
        floats[held] = np.asarray(values, dtype=np.float64)
        return _read_only(floats[column.codes])
    except (TypeError, ValueError, OverflowError):
        # Case by case, so that the error names the first bad case.
        floats = map(_coerce_numeric, column, repeat(name), case_ids)
        return _read_only(np.fromiter(floats, np.float64, len(case_ids)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _checked_bounds(name: str, bounds) -> list[float]:
    try:
        if any(isinstance(b, bool) or not isinstance(b, (int, float)) for b in bounds):
            raise TypeError
        bounds = [float(b) for b in bounds]
        # NaN fails every comparison, even with itself.
        if all(b == b for b in bounds) and all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:])):
            return bounds
    except (TypeError, OverflowError):
        pass
    raise SchemaError(f"bins for {name!r} must be strictly increasing numbers")


def _coerce_outcome(value, positive_labels: frozenset[str]) -> int | None:
    """A bool or a number equal to 0 or 1 as that number (None for any other
    number); text, stripped and lowercased, is 1 if it is a positive label.
    Equal keys such as True, 1 and 1.0 code alike."""
    if isinstance(value, (int, float)):
        return int(value) if value in (0, 1) else None
    return int(str(value).strip().lower() in positive_labels)


def _coerce_numeric(value, attr: str, case_id: str) -> float:
    """float() of the value, NaN for None."""
    if value is None:
        return nan
    try:
        return float(value)
    except (TypeError, ValueError):
        raise SchemaError(
            f"attribute {attr!r}: non-numeric value {value!r} in case {case_id!r}"
        ) from None
    except OverflowError:
        raise SchemaError(
            f"attribute {attr!r}: value in case {case_id!r} is too large for a float"
        ) from None


def _label(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def check_schema(schema: list[AttributeSchema], outcome_name: str) -> AttributeSchema:
    """The outcome's declaration; SchemaError unless the attribute names are
    distinct and the outcome is among them and not controllable."""
    by_name = {a.name: a for a in schema}
    if len(by_name) != len(schema):
        raise SchemaError("duplicate attribute names in schema")
    if outcome_name not in by_name:
        raise SchemaError(f"outcome attribute {outcome_name!r} not in schema")
    if by_name[outcome_name].controllable:
        raise SchemaError(f"outcome attribute {outcome_name!r} must not be controllable")
    return by_name[outcome_name]


def encode_cases(
    case_log: CaseLog,
    schema: list[AttributeSchema],
    outcome_name: str,
    positive_labels: frozenset[str] | None = None,
) -> CaseTable:
    """One row per case of the log; cases without the outcome drop. Each
    value that a kept case holds converts once: an outcome to 0 or 1, a
    categorical value to its label; numbers go to the CaseTable as observed,
    which converts them. No column is decoded on the way."""
    positive_labels = positive_labels or DEFAULT_POSITIVE_LABELS
    positive_labels = frozenset(s.lower() for s in positive_labels)
    outcome_attr = check_schema(schema, outcome_name)
    feature_schema = [a for a in schema if a.name != outcome_name]

    n = len(case_log)

    def observe(attr: AttributeSchema) -> Coded:
        if attr.source == SOURCE_COUNT:
            return case_log.counts.get(attr.source_arg) or Coded(np.zeros(n, np.int32), (0,))
        key = attr.source_arg if attr.source == SOURCE_LAST else attr.name
        return case_log.last.get(key) or Coded(np.full(n, -1, np.int32), ())

    outcome = observe(outcome_attr)
    n_missing = int(np.count_nonzero(outcome.codes < 0))
    if n_missing == n:
        raise SchemaError(
            f"outcome attribute {outcome_name!r} never observed in any case"
        )
    case_ids = case_log.case_ids
    kept = slice(None)  # every case, unless some case drops
    if n_missing:
        log.info("dropped %d cases with missing outcome %r", n_missing, outcome_name)
        kept = np.flatnonzero(outcome.codes >= 0)
        case_ids = list(map(case_ids.__getitem__, kept.tolist()))

    def of_kept(column: Coded) -> Coded:
        return Coded(column.codes[kept], column.values)

    outcome = of_kept(outcome)
    coded = _converted(outcome, lambda value: _coerce_outcome(value, positive_labels))
    if None in coded.values:
        case, value = next((c, v) for c, v, o in zip(case_ids, outcome, coded) if o is None)
        raise SchemaError(
            f"attribute {outcome_name!r}: non-binary outcome {value!r} in case {case!r}"
        )
    outcomes = np.array(coded.values, np.uint8)[coded.codes]
    columns = {}
    for attr in feature_schema:
        column = of_kept(observe(attr))
        columns[attr.name] = column if attr.kind == NUMERIC else _converted(column, _label)
    return CaseTable(feature_schema, outcome_name, case_ids, outcomes, columns)


def _fmt(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _bin_labels(bounds: list[float], values: np.ndarray) -> list[str]:
    """Human-readable interval labels, one per bin (len(bounds) + 1), for the
    observed values (none NaN, at least one).

    Integer-valued data with finite bounds gets closed integer intervals like
    "[6-48]" with an open-ended ">120" tail; anything else gets half-open
    interval notation.
    """
    if not bounds:
        return [f"[{_fmt(values.min())}-{_fmt(values.max())}]"]
    finite = np.isfinite(values).all() and np.isfinite(bounds).all()
    if finite and (np.floor(values) == values).all():
        lows = [int(values.min())] + [floor(b) + 1 for b in bounds[:-1]]
        return [f"[{lo}-{floor(b)}]" for lo, b in zip(lows, bounds)] + [f">{floor(bounds[-1])}"]
    inner = [f"({_fmt(left)},{_fmt(right)}]" for left, right in zip(bounds, bounds[1:])]
    return [f"<={_fmt(bounds[0])}", *inner, f">{_fmt(bounds[-1])}"]


def _interval_codes(name: str, bounds: list[float], values: np.ndarray) -> Coded:
    """Each value's right-closed interval label, "missing" for NaN, coded
    into the sorted labels that occur. Codes go through the bin indices, so
    no per-row label is ever built."""
    missing = np.isnan(values)
    present = values[~missing]
    labels = _bin_labels(bounds, present) if present.size else []
    labels.append(MISSING_LABEL)
    bin_of = np.searchsorted(np.asarray(bounds, dtype=np.float64), values).astype(np.int32)
    bin_of[missing] = len(labels) - 1
    return _encode_labels(name, Coded(bin_of, labels), [])


def equal_frequency_bounds(values: list[float], k: int) -> list[float]:
    """Interior boundaries splitting the distinct values into k runs of
    near-equal size (each run holds floor(n/k) or ceil(n/k) distinct values).
    Boundaries sit at midpoints between adjacent runs; two adjacent floats
    with no float strictly between them get the lower one as boundary, which
    still separates them under right-closed bins.
    """
    if k < 2:
        raise ConfigError(f"equal-frequency binning needs k >= 2, got {k}")
    distinct = sorted(set(values))
    n = len(distinct)
    if n <= 1:
        return []
    k_eff = min(k, n)
    base, rem = divmod(n, k_eff)
    bounds = []
    idx = 0
    for run in range(k_eff - 1):
        idx += base + (1 if run < rem else 0)
        lower, upper = distinct[idx - 1], distinct[idx]
        mid = (lower + upper) / 2.0
        bounds.append(mid if lower <= mid < upper else lower)
    return bounds


def check_bins(name: str, how) -> int | list[float]:
    """A bins entry, in a config or given to discretize: an equal-frequency
    bin count (an int >= 2) as it is, or interior boundaries (finite numbers,
    strictly increasing as floats) as floats; ConfigError naming the
    attribute for anything else."""
    if isinstance(how, int) and not isinstance(how, bool) and how >= 2:
        return how
    # Compared, not converted: an int too large for a float is not finite.
    if isinstance(how, list) and all(
        isinstance(b, (int, float)) and not isinstance(b, bool) and abs(b) <= sys.float_info.max
        for b in how
    ):
        bounds = [float(b) for b in how]
        if all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:])):
            return bounds
    raise ConfigError(
        f"bins for {name!r} must be a bin count >= 2 or a list of strictly "
        f"increasing finite boundaries, got {how!r}"
    )


def discretize(table: CaseTable, spec: dict[str, int | list[float]]) -> CaseTable:
    """Bin numeric attributes; returns a new table with the same columns and
    the bounds added to its bins, from which it derives the interval labels.

    spec maps attribute name to an entry that check_bins accepts: an
    equal-frequency bin count or a list of interior boundaries. Bin i is the
    right-closed interval (b[i-1], b[i]]. Missing values map to the dedicated
    "missing" label.
    """
    bins = dict(table.bins)
    for attr_name, how in spec.items():
        attr = table.attribute(attr_name)
        if attr.kind != NUMERIC:
            raise ConfigError(f"attribute {attr_name!r} is not numeric")
        if attr_name in table.bins:
            raise ConfigError(f"attribute {attr_name!r} is already discretized")
        bounds = check_bins(attr_name, how)
        if isinstance(bounds, int):
            values = table.numeric(attr_name)
            present = values[~np.isnan(values)].tolist()
            if not present:
                log.warning("attribute %r: no observed values, single bin", attr_name)
                bounds = []
            else:
                bounds = equal_frequency_bounds(present, how)
                got = len(bounds) + 1
                if got < how:
                    log.warning(
                        "attribute %r: only %d bin(s) possible for %d requested "
                        "(too few distinct values)", attr_name, got, how
                    )
        bins[attr_name] = bounds

    columns = {name: table._columns[name] for name in table.attribute_names}
    return CaseTable(
        table.schema, table.outcome_name, table.case_ids, table.outcome, columns, bins
    )
