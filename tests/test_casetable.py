import copy
import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from upliftmine.casetable import (
    AttributeSchema,
    CaseTable,
    MISSING_LABEL,
    discretize,
    encode_cases,
    equal_frequency_bounds,
)
from helpers import csv_log, decoded
from oracles import reference_bin_labels, reference_encode, reference_fold
from upliftmine.errors import ConfigError, SchemaError
from upliftmine.logparse import CaseLog, Coded, parse_csv

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)


def make_trace(case_id, activities, attrs_per_event):
    """One case whose events are an hour apart, in the order given."""
    events = [
        (act, T0 + timedelta(hours=i), attrs)
        for i, (act, attrs) in enumerate(zip(activities, attrs_per_event))
    ]
    return (case_id, {}, events)


BASE_SCHEMA = [
    AttributeSchema("LoanGoal", "categorical"),
    AttributeSchema("RequestedAmount", "numeric"),
    AttributeSchema("NumberOfOffers", "numeric", source="count", source_arg="O_Create Offer"),
    AttributeSchema("Selected", "categorical"),
]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"source": "last", "source_arg": 5}, "source_arg must be a string"),
        ({"source": "sum"}, "unknown source 'sum'"),
        ({"source": "count"}, "source 'count' needs source_arg"),
        ({"source": "last", "source_arg": ""}, "source 'last' needs source_arg"),
    ],
)
def test_attribute_schema_rejects_a_bad_source(fields, message):
    with pytest.raises(SchemaError, match=f"attribute 'n': {message}"):
        AttributeSchema("n", "numeric", **fields)


def test_encode_last_observed_value_and_count():
    trace = make_trace(
        "c1",
        ["A_Create", "O_Create Offer", "O_Create Offer", "O_Create Offer"],
        [
            {"LoanGoal": "Car", "RequestedAmount": 10000, "Selected": False},
            {"RequestedAmount": 12000},
            {},
            {"Selected": True},
        ],
    )
    table = encode_cases(reference_fold([trace]), BASE_SCHEMA, "Selected")
    assert len(table) == 1
    assert table.column("LoanGoal") == ["Car"]
    assert table.column("RequestedAmount") == [12000.0]
    assert table.column("NumberOfOffers") == [3]
    assert table.outcomes() == [1]
    assert "Selected" not in table.attribute_names


def test_encode_drops_cases_with_missing_outcome():
    with_outcome = make_trace("c1", ["A"], [{"Selected": "true"}])
    without = make_trace("c2", ["A"], [{"LoanGoal": "Car"}])
    table = encode_cases(reference_fold([with_outcome, without]), BASE_SCHEMA, "Selected")
    assert table.case_ids == ["c1"]


def test_encode_all_outcomes_present_keeps_all_rows():
    traces = [
        make_trace(f"c{i}", ["A"], [{"Selected": i % 2 == 0}]) for i in range(7)
    ]
    table = encode_cases(reference_fold(traces), BASE_SCHEMA, "Selected")
    assert len(table) == 7
    assert table.outcomes() == [1, 0, 1, 0, 1, 0, 1]


def test_encode_outcome_never_observed_is_an_error():
    traces = [make_trace("c1", ["A"], [{"LoanGoal": "Car"}])]
    with pytest.raises(SchemaError, match="Selected"):
        encode_cases(reference_fold(traces), BASE_SCHEMA, "Selected")


def test_encode_type_conflict_names_attribute_and_case():
    trace = make_trace(
        "c42", ["A"], [{"RequestedAmount": "not a number", "Selected": True}]
    )
    with pytest.raises(SchemaError) as err:
        encode_cases(reference_fold([trace]), BASE_SCHEMA, "Selected")
    assert "RequestedAmount" in str(err.value)
    assert "c42" in str(err.value)


def test_encode_positive_label_is_configurable():
    traces = [
        make_trace("c1", ["A"], [{"Selected": "accepted"}]),
        make_trace("c2", ["A"], [{"Selected": "declined"}]),
    ]
    table = encode_cases(
        reference_fold(traces), BASE_SCHEMA, "Selected", positive_labels=frozenset({"accepted"})
    )
    assert table.outcomes() == [1, 0]


def test_encode_derived_last_value():
    schema = [
        AttributeSchema("FinalCost", "numeric", source="last", source_arg="MonthlyCost"),
        AttributeSchema("Selected", "categorical"),
    ]
    trace = make_trace(
        "c1",
        ["O_Create Offer", "O_Create Offer"],
        [{"MonthlyCost": 250, "Selected": False}, {"MonthlyCost": 199}],
    )
    table = encode_cases(reference_fold([trace]), schema, "Selected")
    assert table.column("FinalCost") == [199.0]


def test_literal_nan_cell_is_missing():
    traces = [
        make_trace("c1", ["A"], [{"RequestedAmount": "nan", "Selected": True}]),
        make_trace("c2", ["A"], [{"RequestedAmount": 5, "Selected": False}]),
    ]
    table = encode_cases(reference_fold(traces), BASE_SCHEMA, "Selected")
    assert table.column("RequestedAmount") == [None, 5.0]
    out = discretize(table, {"RequestedAmount": [3.0]})
    assert decoded(out.coded("RequestedAmount")) == [MISSING_LABEL, ">3"]
    assert out.column("RequestedAmount") == [None, 5.0]


# Values that are equal as dict keys yet convert differently (True, 1, 1.0;
# -0.0, 0.0), NaN, and texts that float() reads but XES typing does not,
# which a numeric column's one numpy pass must read as float() does.
_TEXTS = [
    "1", "0", "true", " TRUE ", "1.0", "-0.0", "0.0", "nan", " 2 ", "1_000", "x", "",
    "１２", "infinity", "1e400", " -0 ",
]
_TYPED = [True, False, 1, 0, 1.0, 0.0, -0.0, math.nan, 2, 2.5]
ENCODE_SCHEMA = [
    AttributeSchema("cat", "categorical"),
    AttributeSchema("num", "numeric"),
    AttributeSchema("last_num", "numeric", source="last", source_arg="cat"),
    AttributeSchema("n_A", "numeric", source="count", source_arg="A"),
    AttributeSchema("n_A_label", "categorical", source="count", source_arg="A"),
    AttributeSchema("Y", "categorical"),
]


@st.composite
def value_logs(draw):
    """A case log whose columns hold only text and None, as from a CSV, or
    typed values mixed with text, as from an XES log."""
    n = draw(st.integers(min_value=1, max_value=8))

    def column():
        pool = _TEXTS if draw(st.booleans()) else _TEXTS + _TYPED
        return draw(st.lists(st.sampled_from(pool + [None]), min_size=n, max_size=n))

    last = {name: column() for name in ("cat", "num", "Y")}
    counts = {"A": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))}
    return CaseLog([f"c{i}" for i in range(n)], counts, last, n)


def _log(**last) -> CaseLog:
    n = len(last["Y"])
    return CaseLog([f"c{i}" for i in range(n)], {"A": [i % 2 for i in range(n)]}, last, n)


def _converted(case_log):
    try:
        return encode_cases(case_log, ENCODE_SCHEMA, "Y")
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(value_logs())
@example(_log(cat=["1", "1"], num=[" 2 ", "1_000"], Y=["1", "true"]))
@example(_log(cat=[True, 1], num=[-0.0, 0.0], Y=[1.0, True]))
@example(_log(cat=[None, "a", "b"], num=["1", "x", "y"], Y=["0", "1", "0"]))
# Every case has its outcome; then some cases lack it, before and after kept ones.
@example(_log(cat=["a", 2, True], num=[3, "4", None], Y=[True, "0", 1]))
@example(_log(cat=["a", 2, True, "b"], num=[None, 3, "x", 2.5], Y=[None, 0, None, "1"]))
# Outcomes that merge as dict keys: the first bad case is c6 (2.0), then c1.
@example(_log(cat=["a"] * 8, num=[1] * 8, Y=[1, True, 1.0, 0, -0.0, False, 2.0, 2]))
@example(_log(cat=["a"] * 3, num=[1] * 3, Y=[1, math.nan, math.nan]))
@example(_log(cat=["a"] * 5, num=[1] * 5, Y=["1", 1, True, " TRUE ", "yes"]))
def test_encode_cases_matches_the_per_value_reference(case_log):
    got = _converted(case_log)
    try:
        want = reference_encode(case_log, ENCODE_SCHEMA, "Y")
    except SchemaError as exc:
        assert got == str(exc)
        return
    assert not isinstance(got, str), got
    assert got.case_ids == want.case_ids
    assert got.outcome.tolist() == want.outcome.tolist()
    for attr in want.schema:
        if attr.kind == "numeric":
            # Compared bit for bit, so that -0.0 and 0.0 differ.
            bits = [t.numeric(attr.name).view(np.int64).tolist() for t in (got, want)]
            assert bits[0] == bits[1]
        else:
            assert decoded(got.coded(attr.name)) == decoded(want.coded(attr.name))
            assert got.coded(attr.name).values == want.coded(attr.name).values


@settings(max_examples=100, deadline=None)
@given(value_logs())
@example(_log(cat=["a", 2, True], num=[3, "4", None], Y=[None, "1", 0]))
def test_encode_cases_leaves_its_case_log_unchanged(case_log):
    before = copy.deepcopy(case_log)
    _converted(case_log)
    assert case_log == before


def test_encode_cases_never_converts_a_value_that_a_later_chunk_replaced():
    # c0's first row, in the first chunk of rows, has x = n/a; a row of a
    # later chunk, with a later stamp, replaces it by 5. The CSV fold's table
    # of values keeps n/a, yet no case holds it, so it is never converted.
    lines = ["case_id,activity,timestamp,x,Y", "c0,A,2020-01-01T00:00:00+00:00,n/a,1"]
    lines += [f"c{i},A,2020-01-01T00:00:00+00:00,{i},0" for i in range(1, 300)]
    lines.append("c0,B,2020-01-02T00:00:00+00:00,5,")
    schema = [AttributeSchema("x", "numeric"), AttributeSchema("Y", "categorical")]
    table = encode_cases(parse_csv("\n".join(lines).encode()), schema, "Y")
    assert table.numeric("x").tolist() == [5.0] + [float(i) for i in range(1, 300)]


@pytest.mark.parametrize("number", [10**400, -(10**400)], ids=["positive", "negative"])
def test_encode_int_too_large_for_a_float_names_attribute_and_case(number):
    case_log = _log(cat=["a", "b"], num=[1, number], Y=["1", "0"])
    with pytest.raises(SchemaError, match="attribute 'num': value in case 'c1' is too large"):
        encode_cases(case_log, ENCODE_SCHEMA, "Y")


def _numeric_table(values, extra_attr=False):
    schema = [AttributeSchema("x", "numeric")]
    if extra_attr:
        schema.append(AttributeSchema("color", "categorical"))
    columns = {"x": list(values)}
    if extra_attr:
        columns["color"] = ["red"] * len(values)
    case_ids = [f"c{i}" for i in range(len(values))]
    outcomes = [i % 2 for i in range(len(values))]
    return CaseTable(schema, "Selected", case_ids, outcomes, columns)


_ONE_CASE_LOG = reference_fold([make_trace("c1", ["A"], [{"Selected": True}])])


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: AttributeSchema("n", "numeric", controllable="yes"), SchemaError,
         "attribute 'n': controllable must be true or false"),
        (lambda: _numeric_table([1.0], extra_attr=True).numeric("color"), SchemaError,
         "attribute 'color' is not numeric"),
        (lambda: encode_cases(_ONE_CASE_LOG, BASE_SCHEMA + BASE_SCHEMA[:1], "Selected"),
         SchemaError, "duplicate attribute names in schema"),
        (lambda: encode_cases(_ONE_CASE_LOG, BASE_SCHEMA, "Nope"), SchemaError,
         "outcome attribute 'Nope' not in schema"),
        (lambda: encode_cases(
            _ONE_CASE_LOG, [AttributeSchema("Selected", "categorical", True)], "Selected"
        ), SchemaError, "outcome attribute 'Selected' must not be controllable"),
        (lambda: discretize(discretize(_numeric_table([1.0, 2.0]), {"x": 2}), {"x": 2}),
         ConfigError, "attribute 'x' is already discretized"),
    ],
    ids=["non-bool-controllable", "numeric-of-categorical", "duplicate-names",
         "outcome-not-in-schema", "controllable-outcome", "already-discretized"],
)
def test_case_table_input_checks(check, error, message):
    with pytest.raises(error, match=re.escape(message)):
        check()


def test_discretize_all_missing_column_warns_and_keeps_one_label():
    table = _numeric_table([None, None, None])
    with pytest.warns(UserWarning, match="attribute 'x': no observed values, single bin"):
        out = discretize(table, {"x": 3})
    assert decoded(out.coded("x")) == [MISSING_LABEL] * 3
    assert out.bins == {"x": []}


def test_equal_frequency_quartiles_split_evenly():
    table = _numeric_table([float(v) for v in range(1, 101)])
    out = discretize(table, {"x": 4})
    labels = decoded(out.coded("x"))
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    assert sorted(counts.values()) == [25, 25, 25, 25]
    assert set(counts) == {"[1-25]", "[26-50]", "[51-75]", ">75"}


def test_explicit_boundaries_reproduce_term_intervals():
    values = [6, 12, 48, 49, 60, 96, 97, 110, 120, 121, 180]
    table = _numeric_table([float(v) for v in values])
    out = discretize(table, {"x": [48.5, 96.5, 120.5]})
    got = decoded(out.coded("x"))
    assert got[:3] == ["[6-48]"] * 3
    assert got[3:6] == ["[49-96]"] * 3
    assert got[6:9] == ["[97-120]"] * 3
    assert got[9:] == [">120"] * 2
    assert out.bins["x"] == [48.5, 96.5, 120.5]


def test_all_identical_values_give_single_bin_with_warning():
    table = _numeric_table([7.0] * 12)
    with pytest.warns(UserWarning, match="bin"):
        out = discretize(table, {"x": 4})
    assert set(decoded(out.coded("x"))) == {"[7-7]"}
    assert out.bins["x"] == []


def test_missing_values_get_dedicated_label():
    table = _numeric_table([1.0, 2.0, None, 4.0])
    out = discretize(table, {"x": 2})
    assert decoded(out.coded("x"))[2] == MISSING_LABEL
    assert out.column("x") == [1.0, 2.0, None, 4.0]


def test_discretize_k_below_two_rejected():
    table = _numeric_table([1.0, 2.0])
    with pytest.raises(ConfigError):
        discretize(table, {"x": 1})


def test_discretize_non_increasing_boundaries_rejected():
    # Boundaries that are not strictly increasing numbers are a config fault,
    # not a bare ValueError or TypeError.
    table = _numeric_table([1.0, 2.0])
    for bounds in ([5.0, 5.0], ["a"], [None], [1.0, math.nan]):
        with pytest.raises(ConfigError, match="must be strictly increasing numbers"):
            discretize(table, {"x": bounds})


def test_discretize_non_numeric_attribute_rejected():
    table = _numeric_table([1.0], extra_attr=True)
    with pytest.raises(ConfigError):
        discretize(table, {"color": 2})


def test_every_array_of_a_table_is_read_only():
    schema = [
        AttributeSchema("x", "numeric"),
        AttributeSchema("y", "numeric"),
        AttributeSchema("color", "categorical"),
    ]
    columns = {
        "x": [3.0, 1.0, None, 9.5],
        "y": [1, 2, 3, None],
        "color": ["red", None, "blue", "red"],
    }
    table = CaseTable(schema, "Selected", ["a", "b", "c", "d"], [0, 1, 1, 0], columns)
    binned = discretize(table, {"x": 2})
    arrays = {
        "outcome": binned.outcome,
        "x floats": binned.numeric("x"),
        "y floats": binned.numeric("y"),
        "x interval codes": binned.coded("x").codes,
        "color codes": binned.coded("color").codes,
    }
    for name in ("x", "y", "color"):
        arrays[f"{name} ranked values"], arrays[f"{name} ranks"] = binned.ranked(name)
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    assert binned.column("x") == [3.0, 1.0, None, 9.5]
    assert binned.ranked("color")[1].tolist() == [1, 2, 0, 1]


def test_encode_cases_hands_the_log_its_own_ids_and_ordered_codes():
    # No case drops, so the table keeps the log's id list; a column whose
    # codes already follow its sorted labels keeps its codes, another one is
    # recoded.
    ordered = Coded(np.array([1, 0, -1, 1], np.int32), ("Car", "Home"))
    unordered = Coded(np.array([1, 0, -1, 1], np.int32), ("b", "a"))
    case_log = CaseLog(
        ["c0", "c1", "c2", "c3"],
        last={"goal": ordered, "kind": unordered, "Y": ["1", "0", "1", "0"]},
    )
    schema = [
        AttributeSchema("goal", "categorical"),
        AttributeSchema("kind", "categorical"),
        AttributeSchema("Y", "categorical"),
    ]
    table = encode_cases(case_log, schema, "Y")
    assert table.case_ids is case_log.case_ids
    assert np.shares_memory(table.coded("goal").codes, ordered.codes)
    assert decoded(table.coded("goal")) == ["Home", "Car", None, "Home"]
    assert not np.shares_memory(table.coded("kind").codes, unordered.codes)
    assert decoded(table.coded("kind")) == ["a", "b", None, "a"]
    assert discretize(table, {}).case_ids is case_log.case_ids

    last = {"goal": ["Car", "Home"], "kind": ["a", "b"], "Y": ["1", None]}
    assert encode_cases(CaseLog(["c0", "c1"], last=last), schema, "Y").case_ids == ["c0"]


def test_ranked_categorical_without_missing_cases_shares_its_codes():
    schema = [AttributeSchema("full", "categorical"), AttributeSchema("gaps", "categorical")]
    columns = {"full": ["b", "a", "b"], "gaps": ["b", None, "a"]}
    table = CaseTable(schema, "Y", ["c0", "c1", "c2"], [0, 1, 0], columns)
    values, ranks = table.ranked("full")
    assert values.tolist() == ["a", "b"] and ranks.tolist() == [1, 0, 1]
    assert np.shares_memory(ranks, table.coded("full").codes)
    values, ranks = table.ranked("gaps")
    assert values.tolist() == ["a", "b"] and ranks.tolist() == [1, 2, 0]
    assert ranks.dtype == np.int32


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 2.5]) | st.floats(), max_size=30
    )
)
@example([])
@example([math.nan, math.nan])
@example([0.0, -0.0, math.nan, -0.0, 0.0])
@example([math.inf, -math.inf, 1.0, math.inf, 1.0, -math.inf])
def test_ranked_distinct_values_match_np_unique(values):
    table = CaseTable(
        [AttributeSchema("x", "numeric")], "Y", [f"c{i}" for i in range(len(values))],
        [0] * len(values), {"x": values},
    )
    distinct, ranks = table.ranked("x")
    floats = np.array(values, dtype=np.float64)
    want = np.unique(floats[~np.isnan(floats)])
    np.testing.assert_array_equal(distinct, want)
    np.testing.assert_array_equal(ranks, np.searchsorted(want, floats))  # NaN ranks last
    assert ranks.dtype == np.int32


def test_discretize_preserves_rows_and_case_ids():
    table = _numeric_table([3.0, 1.0, None, 9.5, 2.25])
    out = discretize(table, {"x": 2})
    assert len(out) == len(table)
    assert out.case_ids == table.case_ids
    assert out.outcomes() == table.outcomes()


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=80
    ),
    k=st.integers(min_value=2, max_value=8),
)
@example(values=[0.0, -5e-324], k=2)
def test_equal_frequency_distinct_value_balance(values, k):
    distinct = sorted(set(values))
    bounds = equal_frequency_bounds(values, k)
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    if len(distinct) >= k:
        assert len(bounds) == k - 1
        edges = [-math.inf, *bounds, math.inf]
        lo, hi = math.floor(len(distinct) / k), math.ceil(len(distinct) / k)
        for left, right in zip(edges, edges[1:]):
            in_bin = [v for v in distinct if left < v <= right]
            assert lo <= len(in_bin) <= hi


@st.composite
def binned_columns(draw):
    """Values of one numeric attribute, all integral or not, with None and
    NaN for missing, and bounds that may start at -inf."""
    if draw(st.booleans()):
        number = st.one_of(st.integers(min_value=-20, max_value=20).map(float), st.just(-0.0))
    else:
        number = st.one_of(
            st.floats(min_value=-20, max_value=20),
            st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 2.5]),
        )
    values = draw(st.lists(st.one_of(st.none(), st.just(math.nan), number), max_size=30))
    bound = st.one_of(
        st.just(-math.inf),
        st.integers(min_value=-40, max_value=40).map(lambda i: i / 2),
        st.floats(min_value=-20, max_value=20),
    )
    return values, sorted(draw(st.sets(bound, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(binned_columns())
@example(([-math.inf, 1.0, 2.0, 3.0], [-math.inf, 1.5, 2.5]))
@example(([1.0, 2.0, 3.0, None], [1.1, 1.2, 1.3]))
def test_binned_codes_match_reference_labels(column):
    values, bounds = column
    table = CaseTable(
        [AttributeSchema("x", "numeric")],
        "Y",
        [f"c{i}" for i in range(len(values))],
        [0] * len(values),
        {"x": values},
        {"x": bounds},
    )
    want = reference_bin_labels(values, bounds)
    coded = table.coded("x")
    assert decoded(coded) == want
    assert coded.values == tuple(sorted(set(want)))
    assert table.column("x") == [None if v is None or v != v else v for v in values]


_attr_values = st.one_of(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.integers(min_value=-50, max_value=50),
)


@st.composite
def logs_with_outcome(draw):
    n_cases = draw(st.integers(min_value=1, max_value=6))
    traces = []
    for i in range(n_cases):
        cid = f"case_{i}"
        n_events = draw(st.integers(min_value=1, max_value=3))
        events = []
        for j in range(n_events):
            attrs = {}
            if draw(st.booleans()):
                attrs["Color"] = draw(st.sampled_from(["red", "green", "blue"]))
            if draw(st.booleans()):
                attrs["Amount"] = draw(st.integers(min_value=0, max_value=1000))
            if j == n_events - 1:
                attrs["Won"] = draw(st.booleans())
            events.append((cid, "step", T0 + timedelta(minutes=j), attrs))
        traces.append(events)
    return [event for events in traces for event in events]


RT_SCHEMA = [
    AttributeSchema("Color", "categorical"),
    AttributeSchema("Amount", "numeric"),
    AttributeSchema("Won", "categorical"),
]


@settings(max_examples=60, deadline=None)
@given(logs_with_outcome())
def test_encoding_survives_csv_round_trip(rows):
    traces = {}
    for case_id, activity, ts, attrs in rows:
        traces.setdefault(case_id, []).append((activity, ts, attrs))
    direct = encode_cases(
        reference_fold([(cid, {}, events) for cid, events in traces.items()]), RT_SCHEMA, "Won"
    )
    again = encode_cases(parse_csv(csv_log(rows)), RT_SCHEMA, "Won")
    assert len(again) == len(direct)
    assert again.case_ids == direct.case_ids
    assert again.outcomes() == direct.outcomes()
    for name in direct.attribute_names:
        assert again.column(name) == direct.column(name)
