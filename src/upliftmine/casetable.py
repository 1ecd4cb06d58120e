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
import warnings
from dataclasses import dataclass
from itertools import compress, repeat
from math import floor, nan
from operator import is_not
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, SchemaError
from .logparse import CaseLog

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


class Coded(NamedTuple):
    """A label column: int32 codes into the sorted observed labels, with -1
    where the value is missing."""

    codes: np.ndarray
    labels: tuple[str, ...]


class CaseTable:
    """Column store of encoded cases, immutable: every array it holds or
    hands out (outcome, each column's codes or floats, each ranked() pair)
    is read-only, so one table can serve every stage of a run.

    Each attribute is stored once: a categorical one as a Coded column, a
    numeric one, binned or not, as float64 with NaN for missing. bins maps a
    binned attribute to its interior interval boundaries (numbers, strictly
    increasing; with the open ends they partition the real line), and its
    Coded interval labels are derived from its numbers and those bounds: each
    value takes the label of its right-closed interval, a missing one the
    real label "missing".

    The constructor is the one place values are encoded and checked: columns
    maps each attribute to its decoded values (labels, numbers, None), or to
    another table's Coded column or float array. An array handed in is kept,
    not copied, and so becomes read-only too; so does a uint8 outcome array.
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
        self.case_ids = list(case_ids)
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
            encode = _encode_floats if name in numeric else _encode_labels
            self._columns[name] = encode(name, columns[name], self.case_ids)
        self._intervals = {
            name: _interval_codes(bounds, self._columns[name]) for name, bounds in self.bins.items()
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
        row's int32 index into them, missing rows all last; cached."""
        if name not in self._ranked:
            if self.attribute(name).kind == NUMERIC:
                values = self.numeric(name)
                distinct = np.unique(values[~np.isnan(values)])
                ranks = np.searchsorted(distinct, values).astype(np.int32)  # NaN sorts last
            else:
                codes, labels = self.coded(name)
                distinct = np.array(labels, dtype=object)
                ranks = np.where(codes < 0, np.int32(len(labels)), codes)
            self._ranked[name] = (_read_only(distinct), _read_only(ranks))
        return self._ranked[name]

    def equals(self, name: str, label: str) -> np.ndarray:
        """Row mask of the cases whose label for name equals label."""
        codes, labels = self.coded(name)
        # len(labels) is no row's code, so an unobserved label matches nothing.
        return codes == (labels.index(label) if label in labels else len(labels))

    def column(self, name: str) -> list:
        """Decoded stored values: labels, or floats for a numeric attribute
        (binned or not), None where missing."""
        column = self._columns[self.attribute(name).name]
        if isinstance(column, Coded):
            decode = column.labels + (None,)  # code -1 picks the None
            return [decode[code] for code in column.codes.tolist()]
        return [None if v != v else v for v in column.tolist()]

    def outcomes(self) -> list[int]:
        return self.outcome.tolist()


def _encode_labels(name: str, values, case_ids: list[str]) -> Coded:
    if isinstance(values, Coded):
        column = values
    else:
        distinct = set(values) - {None}
        if not all(isinstance(label, str) for label in distinct):
            raise SchemaError(f"attribute {name!r}: labels must be strings")
        labels = tuple(sorted(distinct))
        index = {label: code for code, label in enumerate(labels)}
        index[None] = -1
        codes = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
        column = Coded(codes, labels)
    if len(column.codes) != len(case_ids):
        raise SchemaError(f"attribute {name!r}: column length differs from cases")
    _read_only(column.codes)
    return column


def _encode_floats(name: str, values, case_ids: list[str]) -> np.ndarray:
    """The one place a case-table number becomes a float: one numpy pass,
    which reads each value as float() does and None as NaN."""
    try:
        column = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        # Value by value, so that the error names the first bad case.
        numbers = map(_coerce_numeric, values, repeat(name), case_ids)
        column = np.fromiter(numbers, np.float64)
    # len(values) as well: the value by value pass stops at the last case,
    # so it would cut a longer column short.
    if column.shape != (len(case_ids),) or len(values) != len(case_ids):
        raise SchemaError(f"attribute {name!r}: column length differs from cases")
    return _read_only(column)


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


def _is_text(values: list) -> bool:
    """Whether every value of a label column is text or missing, as in every
    CSV column, so the values are the labels. Typed labels, as XES gives
    them, cannot be made once per distinct value: True == 1 == 1.0 and
    -0.0 == 0.0 are equal keys, yet they label differently."""
    return set(map(type, values)) <= {str, type(None)}


def encode_cases(
    case_log: CaseLog,
    schema: list[AttributeSchema],
    outcome_name: str,
    positive_labels: frozenset[str] | None = None,
) -> CaseTable:
    """One row per case of the log; cases without the outcome drop. Each
    distinct outcome value, of any type, converts once; a categorical label
    is text as it is, a typed value's label is made per case; numbers go to
    the CaseTable as observed, which converts them. Outcomes go straight
    into an array, with no per-case list in between."""
    positive_labels = positive_labels or DEFAULT_POSITIVE_LABELS
    positive_labels = frozenset(s.lower() for s in positive_labels)
    by_name = {a.name: a for a in schema}
    if len(by_name) != len(schema):
        raise SchemaError("duplicate attribute names in schema")
    if outcome_name not in by_name:
        raise SchemaError(f"outcome attribute {outcome_name!r} not in schema")
    outcome_attr = by_name[outcome_name]
    if outcome_attr.controllable:
        raise SchemaError(f"outcome attribute {outcome_name!r} must not be controllable")
    feature_schema = [a for a in schema if a.name != outcome_name]

    n = len(case_log)

    def observe(attr: AttributeSchema) -> list:
        if attr.source == SOURCE_COUNT:
            return case_log.counts.get(attr.source_arg, [0] * n)
        key = attr.source_arg if attr.source == SOURCE_LAST else attr.name
        return case_log.last.get(key, [None] * n)

    raw_outcomes = observe(outcome_attr)
    n_missing = raw_outcomes.count(None)
    if n_missing == n:
        raise SchemaError(
            f"outcome attribute {outcome_name!r} never observed in any case"
        )
    kept = None  # the index of every kept case, when some case drops
    if n_missing:
        log.info("dropped %d cases with missing outcome %r", n_missing, outcome_name)
        kept = list(compress(range(n), map(is_not, raw_outcomes, repeat(None))))

    def of_kept(values: list) -> list:
        return values if kept is None else list(map(values.__getitem__, kept))

    case_ids = of_kept(case_log.case_ids)
    raw_outcomes = of_kept(raw_outcomes)
    coded = {v: _coerce_outcome(v, positive_labels) for v in dict.fromkeys(raw_outcomes)}
    if None in coded.values():
        case, value = next((c, v) for c, v in zip(case_ids, raw_outcomes) if coded[v] is None)
        raise SchemaError(
            f"attribute {outcome_name!r}: non-binary outcome {value!r} in case {case!r}"
        )
    outcomes = np.fromiter(map(coded.__getitem__, raw_outcomes), np.uint8, len(case_ids))
    columns = {}
    for attr in feature_schema:
        values = of_kept(observe(attr))
        if attr.kind == NUMERIC or _is_text(values):
            columns[attr.name] = values
        else:
            columns[attr.name] = [None if value is None else _label(value) for value in values]
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


def _interval_codes(bounds: list[float], values: np.ndarray) -> Coded:
    """Each value's right-closed interval label, "missing" for NaN, coded
    into the sorted labels that occur. Codes go through the bin indices, so
    no per-row label is ever built."""
    missing = np.isnan(values)
    present = values[~missing]
    labels = _bin_labels(bounds, present) if present.size else []
    labels.append(MISSING_LABEL)
    bin_of = np.searchsorted(np.asarray(bounds, dtype=np.float64), values)
    bin_of[missing] = len(labels) - 1
    # bincount, not np.unique: a process's first np.unique faults in about
    # 1.5 MB (numpy 2.4), which would raise ingest's peak RSS.
    occurring = np.flatnonzero(np.bincount(bin_of, minlength=len(labels)))
    observed = tuple(sorted(labels[b] for b in occurring.tolist()))
    code_of_bin = np.searchsorted(observed, labels).astype(np.int32)
    return Coded(_read_only(code_of_bin[bin_of]), observed)


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


def discretize(table: CaseTable, spec: dict[str, int | list[float]]) -> CaseTable:
    """Bin numeric attributes; returns a new table with the same columns and
    the bounds added to its bins, from which it derives the interval labels.

    spec maps attribute name to either an equal-frequency bin count or an
    explicit strictly increasing list of interior boundaries. Bin i is the
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
        values = table.numeric(attr_name)
        present = values[~np.isnan(values)].tolist()
        if isinstance(how, int):
            if not present:
                warnings.warn(
                    f"attribute {attr_name!r}: no observed values, single bin"
                )
                bounds = []
            else:
                bounds = equal_frequency_bounds(present, how)
                got = len(bounds) + 1
                if got < how:
                    warnings.warn(
                        f"attribute {attr_name!r}: only {got} bin(s) possible "
                        f"for {how} requested (too few distinct values)"
                    )
        else:
            bounds = [float(b) for b in how]
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ConfigError(
                    f"boundaries for {attr_name!r} are not strictly increasing"
                )
        bins[attr_name] = bounds

    columns = {name: table._columns[name] for name in table.attribute_names}
    return CaseTable(
        table.schema, table.outcome_name, table.case_ids, table.outcome, columns, bins
    )
