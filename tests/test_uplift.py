import math
import re
import warnings

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EIGHT_ROW_TABLE, F_A_TO_B, make_table, random_split_table
from oracles import (
    boundary_divergence,
    oracle_best_split,
    oracle_normalization,
    oracle_root_prior,
    oracle_score,
    reference_numeric_candidates,
)
from upliftmine import uplift
from upliftmine.actionrules import AtomicActionTerm, Treatment
from upliftmine.casetable import discretize
from upliftmine.errors import ConfigError, PositivityError, SchemaError
from upliftmine.uplift import (
    DIVERGENCE_KINDS,
    MAX_NUMERIC_CANDIDATES,
    NodeStats,
    TreatmentAssignment,
    TreeParams,
    assign_groups,
    best_split,
    build_tree,
    divergence,
    extract_segments,
    gain,
    node_stats,
    normalization_from_counts,
    _candidates,
    _divergence_unchecked,
    to_dot,
)


def test_assign_groups_partitions_eight_row_table():
    assignment = assign_groups(EIGHT_ROW_TABLE, F_A_TO_B)
    assert sorted(assignment.treated) == [3, 4, 5, 7]
    assert sorted(assignment.control) == [0, 1, 2, 6]
    assert len(assignment.excluded) == 0


def test_assign_groups_excludes_other_values():
    table = make_table(
        [("F", "categorical", True)],
        [({"F": "a"}, 0), ({"F": "b"}, 1), ({"F": "c"}, 1), ({"F": "c"}, 0)],
    )
    assignment = assign_groups(table, F_A_TO_B)
    assert sorted(assignment.treated) == [1]
    assert sorted(assignment.control) == [0]
    assert sorted(assignment.excluded) == [2, 3]


def test_assign_groups_compound_treatment_is_conjunction():
    table = make_table(
        [("F", "categorical", True), ("G", "categorical", True)],
        [
            ({"F": "b", "G": "y"}, 1),
            ({"F": "b", "G": "x"}, 1),
            ({"F": "a", "G": "x"}, 0),
            ({"F": "a", "G": "y"}, 0),
        ],
    )
    compound = Treatment(
        (AtomicActionTerm("F", "a", "b"), AtomicActionTerm("G", "x", "y"))
    )
    assignment = assign_groups(table, compound)
    assert sorted(assignment.treated) == [0]
    assert sorted(assignment.control) == [2]
    assert sorted(assignment.excluded) == [1, 3]


def test_assign_groups_positivity_error_names_treatment():
    table = make_table(
        [("F", "categorical", True)], [({"F": "a"}, 0), ({"F": "a"}, 1)]
    )
    with pytest.raises(PositivityError, match="F:a->b"):
        assign_groups(table, F_A_TO_B)


@pytest.mark.parametrize("kind", ["KL", "Euclid", "ChiSq"])
def test_divergence_zero_on_identical_distributions(kind):
    assert divergence((0.5, 0.5), (0.5, 0.5), kind) == 0.0
    assert divergence((0.3, 0.7), (0.3, 0.7), kind) == pytest.approx(0.0, abs=1e-15)


def test_divergence_kl_hand_value():
    value = divergence((0.75, 0.25), (0.25, 0.75), "KL")
    assert value == pytest.approx(0.5 * math.log2(3), abs=1e-12)
    assert value == pytest.approx(0.79248, abs=1e-5)


def test_divergence_euclid_hand_value():
    assert divergence((0.75, 0.25), (0.25, 0.75), "Euclid") == 0.5


def test_divergence_chisq_hand_value():
    # (0.5^2)/0.25 + (0.5^2)/0.75 = 1 + 1/3
    value = divergence((0.75, 0.25), (0.25, 0.75), "ChiSq")
    assert value == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_divergence_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        divergence((0.0, 1.0), (0.5, 0.5), "KL")
    with pytest.raises(ConfigError):
        divergence((0.6, 0.6), (0.5, 0.5), "KL")
    with pytest.raises(ConfigError):
        divergence((0.5, 0.5), (0.5, 0.5), "Hellinger")
    with pytest.raises(ConfigError, match="p must be a probability pair"):
        divergence((0.5,), (0.5, 0.5), "KL")


def _stats(n_t, pos_t, n_c, pos_c, parent=None, n_reg=100.0):
    return node_stats(n_t, pos_t, n_c, pos_c, parent, n_reg)


@pytest.mark.parametrize(
    "check, error, message",
    [
        (lambda: assign_groups(make_table([("F", "categorical", True)], []), F_A_TO_B),
         SchemaError, "empty case table"),
        (lambda: normalization_from_counts(1, 1, 2, 2, "Hellinger"), ConfigError,
         "unknown divergence kind 'Hellinger'"),
    ],
    ids=["assign-empty-table", "normalization-unknown-kind"],
)
def test_uplift_input_checks(check, error, message):
    with pytest.raises(error, match=re.escape(message)):
        check()


def test_gain_zero_when_split_changes_nothing():
    # when every child reproduces the parent's rates exactly, smoothing is a
    # fixed point and the divergences cancel
    parent = _stats(100, 60, 100, 60)
    left = _stats(50, 30, 50, 30, parent)
    right = _stats(50, 30, 50, 30, parent)
    for kind in ("KL", "Euclid", "ChiSq"):
        assert gain(parent, left, right, kind) == 0.0

    # with distinct treated/control rates the identity holds in the limit of
    # vanishing regularization weight
    parent = _stats(100, 60, 100, 40, n_reg=1e-9)
    left = _stats(50, 30, 50, 20, parent, n_reg=1e-9)
    right = _stats(50, 30, 50, 20, parent, n_reg=1e-9)
    for kind in ("KL", "Euclid", "ChiSq"):
        assert gain(parent, left, right, kind) == pytest.approx(0.0, abs=1e-9)


def test_gain_positive_when_child_separates_groups():
    parent = _stats(100, 50, 100, 50)
    left = _stats(50, 40, 50, 10, parent)
    right = _stats(50, 10, 50, 40, parent)
    for kind in ("KL", "Euclid", "ChiSq"):
        assert gain(parent, left, right, kind) > 0.0


def test_gain_matches_oracle_on_hand_dataset():
    # 16 rows: left child raw rates p_t=1.0 / p_c=0.25, right child 0.5 / 0.5
    parent_counts = (8, 6, 8, 3)
    left_counts = (4, 4, 4, 1)
    n_reg = 100.0
    parent = _stats(*[parent_counts[i] for i in (0, 1, 2, 3)], None, n_reg)
    left = _stats(*[left_counts[i] for i in (0, 1, 2, 3)], parent, n_reg)
    right = _stats(4, 2, 4, 2, parent, n_reg)
    for kind in ("KL", "Euclid", "ChiSq"):
        got = gain(parent, left, right, kind) / normalization_from_counts(
            4, 4, 8, 8, kind
        )
        prior = oracle_root_prior(6, 3, 8, 8)
        want = oracle_score(kind, n_reg, parent_counts, left_counts, (prior, prior))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_normalization_balanced_identical_split_is_exactly_1_5():
    assert normalization_from_counts(50, 50, 100, 100, "KL") == 1.5


def test_normalization_degenerate_all_left_is_one_half():
    assert normalization_from_counts(100, 100, 100, 100, "KL") == 0.5


def test_normalization_penalizes_disparity():
    balanced = normalization_from_counts(50, 50, 100, 100, "KL")
    confounded = normalization_from_counts(90, 10, 100, 100, "KL")
    assert confounded > balanced


def test_normalization_monotone_in_disparity():
    # pooled-preserving spread: pt = s + t*w_c*sign, pc = s - t*w_t*sign
    rng = np.random.default_rng(7)
    for kind in ("KL", "Euclid", "ChiSq"):
        for _ in range(200):
            n_t = int(rng.integers(100, 100001))
            n_c = int(rng.integers(100, 100001))
            w_t = n_t / (n_t + n_c)
            w_c = 1.0 - w_t
            s = rng.uniform(0.05, 0.95)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            lo_t, hi_t = 50 / n_t, 1 - 50 / n_t
            lo_c, hi_c = 1 / n_c, 1 - 1 / n_c
            if sign > 0:
                t_max = min((hi_t - s) / w_c, (s - lo_c) / w_t)
            else:
                t_max = min((s - lo_t) / w_c, (hi_c - s) / w_t)
            if t_max <= 0:
                continue
            prev = None
            for t in np.linspace(0.0, t_max, 9):
                pt = s + t * w_c * sign
                pc = s - t * w_t * sign
                value = normalization_from_counts(pt * n_t, pc * n_c, n_t, n_c, kind)
                if prev is not None:
                    assert value >= prev - 1e-12
                prev = value


def _assert_matches_oracle(got, want):
    """Elementwise: inf exactly where the oracle gives inf, else within
    rel=1e-12."""
    assert got.shape == (len(want),)
    for g, w in zip(got.tolist(), want):
        if math.isinf(w):
            assert g == w
        else:
            assert g == pytest.approx(w, rel=1e-12)


FRACTIONS = st.builds(
    lambda den, num: Fraction(min(num, den), den), st.integers(1, 8), st.integers(0, 8)
)


@st.composite
def candidate_blocks(draw):
    """A node's counts, n_reg, and a block of left-child counts that
    includes sending no treated (or control) row left and sending all.

    n_reg stays at 1 or above: far below it, a node of one or two rows
    smooths its rates to within 1e-6 of 0 or 1, where float64 holds 1 - p
    only to about 1e-10 relative, whatever the formula."""
    nt, nc = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    post, posc = draw(st.integers(0, nt)), draw(st.integers(0, nc))
    left = []
    for _ in range(draw(st.integers(1, 12))):
        lt = draw(st.sampled_from([0, nt]) | st.integers(0, nt))
        lc = draw(st.sampled_from([0, nc]) | st.integers(0, nc))
        pos_lt = draw(st.integers(max(0, post - (nt - lt)), min(lt, post)))
        pos_lc = draw(st.integers(max(0, posc - (nc - lc)), min(lc, posc)))
        left.append((lt, pos_lt, lc, pos_lc))
    n_reg = draw(st.sampled_from([1.0, 3.5, 100.0]))
    return (nt, post, nc, posc), left, n_reg


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(DIVERGENCE_KINDS),
    pairs=st.lists(st.tuples(FRACTIONS, FRACTIONS), min_size=1, max_size=20),
    block=candidate_blocks(),
)
# A control rate of about 0.9992 in the left child: 1 - q would cancel three
# digits of the ChiSq gain's second term.
@example(
    kind="ChiSq",
    pairs=[(Fraction(1, 2), Fraction(1, 3))],
    block=((3, 2, 23, 23), [(0, 0, 1, 1)], 1.0),
)
def test_array_formulas_match_the_oracles_at_the_boundaries(kind, pairs, block):
    p, q = (np.array([float(pair[i]) for pair in pairs]) for i in (0, 1))
    want = [boundary_divergence(kind, a, b) for a, b in pairs]
    _assert_matches_oracle(_divergence_unchecked(p, q, kind), want)

    (nt, post, nc, posc), left, n_reg = block
    lt, pos_lt, lc, pos_lc = (np.array(column) for column in zip(*left))
    want = [oracle_normalization(kind, c[0], c[2], nt, nc) for c in left]
    normalization = normalization_from_counts(lt, lc, nt, nc, kind)
    _assert_matches_oracle(normalization, want)

    parent = node_stats(nt, post, nc, posc, None, n_reg)
    left_stats = node_stats(lt, pos_lt, lc, pos_lc, parent, n_reg)
    right_stats = node_stats(nt - lt, post - pos_lt, nc - lc, posc - pos_lc, parent, n_reg)
    prior = oracle_root_prior(post, posc, nt, nc)
    want = [oracle_score(kind, n_reg, (nt, post, nc, posc), c, (prior, prior)) for c in left]
    _assert_matches_oracle(gain(parent, left_stats, right_stats, kind) / normalization, want)


def test_divergence_returns_a_python_float():
    for kind in DIVERGENCE_KINDS:
        assert type(divergence((0.75, 0.25), (0.25, 0.75), kind)) is float


def _build_with(table, treatment, params):
    assignment = assign_groups(table, treatment)
    return build_tree(table, assignment, params), assignment


SMALL_PARAMS = TreeParams(
    max_depth=3, min_samples_split=2, min_samples_treatment=1, n_reg=1.0
)


def test_best_split_none_for_constant_features():
    table = make_table(
        [("T", "categorical", True), ("f", "categorical", False)],
        [({"T": str(i % 2), "f": "same"}, i % 3 == 0) for i in range(12)],
    )
    tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), SMALL_PARAMS)
    assert tree.root.is_leaf


def test_best_split_tie_prefers_lexicographically_first_attribute():
    # two identical columns produce identical scores; "a" must win over "b"
    rows = []
    for i in range(16):
        value = "u" if i % 4 < 2 else "v"
        rows.append(({"T": str(i % 2), "a": value, "b": value}, int(i % 4 in (1, 2))))
    table = make_table(
        [("T", "categorical", True), ("a", "categorical", False), ("b", "categorical", False)],
        rows,
    )
    tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), SMALL_PARAMS)
    if not tree.root.is_leaf:
        assert tree.root.split.attribute == "a"


def test_best_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(20260817)
    checked = 0
    for _ in range(40):
        table, params, treatment = random_split_table(rng)
        try:
            assignment = assign_groups(table, treatment)
        except PositivityError:
            continue
        tree = build_tree(table, assignment, params)
        feature_names = [a.name for a in table.schema if a.name != "T"]
        want = oracle_best_split(
            table, list(assignment.treated), list(assignment.control), params, feature_names
        )
        if tree.root.is_leaf:
            assert want is None or want[2] <= 1e-10
        else:
            assert want is not None
            assert tree.root.score == pytest.approx(want[2], rel=1e-9)
            checked += 1
    assert checked >= 5


def test_build_tree_single_leaf_when_outcome_independent():
    # outcome rate is exactly 40% in every (T, f) cell, so no split can
    # separate treated from control anywhere
    rows = []
    for group in ("0", "1"):
        for f_value in ("a", "b", "c"):
            for i in range(20):
                rows.append(({"T": group, "f": f_value}, int(i < 8)))
    table = make_table(
        [("T", "categorical", True), ("f", "categorical", False)], rows
    )
    params = TreeParams(max_depth=4, min_samples_split=10, min_samples_treatment=5, n_reg=100.0)
    tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), params)
    assert tree.root.is_leaf


def test_build_tree_partition_conservation():
    rng = np.random.default_rng(11)
    rows = []
    for i in range(300):
        x = float(rng.integers(0, 10))
        treated = i % 2
        p = 0.2 + 0.5 * (x > 5) * treated
        rows.append(({"T": str(treated), "x": x}, int(rng.random() < p)))
    table = make_table([("T", "categorical", True), ("x", "numeric", False)], rows)
    params = TreeParams(max_depth=3, min_samples_split=10, min_samples_treatment=2, n_reg=10.0)
    tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), params)

    def walk(node):
        if node.is_leaf:
            return
        for field in ("n_treat", "n_ctrl", "pos_treat", "pos_ctrl"):
            parent_value = getattr(node.stats, field)
            child_sum = getattr(node.left.stats, field) + getattr(node.right.stats, field)
            assert child_sum == parent_value
        walk(node.left)
        walk(node.right)

    assert not tree.root.is_leaf
    walk(tree.root)


def test_zero_min_samples_treatment_still_keeps_a_treated_row_on_each_side():
    # Treatment is confined to x < 0.3, so a split on x can leave a side with
    # no treated row; a node grown there has no treated rate to score, and its
    # scores would all be NaN, which passes the gain and tie tests.
    rng = np.random.default_rng(1)
    x, z = rng.random(600), rng.random(600)
    treated = (x < 0.3) & (rng.random(600) < 0.9)
    y = rng.random(600) < np.where(z < 0.5, 0.2, 0.7)
    rows = [
        ({"T": str(int(t)), "x": float(a), "z": float(b)}, int(o))
        for t, a, b, o in zip(treated, x, z, y)
    ]
    table = make_table(
        [("T", "categorical", True), ("x", "numeric", False), ("z", "numeric", False)], rows
    )
    params = TreeParams(min_samples_treatment=0, min_samples_split=20, max_depth=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), params)

    def walk(node):
        if not node.is_leaf:
            assert node.stats.n_treat >= 1 and node.stats.n_ctrl >= 1
            walk(node.left)
            walk(node.right)

    assert not tree.root.is_leaf
    walk(tree.root)
    for segment in extract_segments(tree, -math.inf):
        assert segment.n_treat >= 1 and segment.n_ctrl >= 1


def _random_routing_table(rng):
    """Treated, control and excluded rows with missing numeric and categorical
    values, a numeric column with more distinct values than
    MAX_NUMERIC_CANDIDATES, and a binned column split on its raw values."""
    n = int(rng.integers(300, 700))
    rows = []
    for _ in range(n):
        group = str(rng.integers(0, 3))
        x = None if rng.random() < 0.15 else float(rng.integers(0, 6))
        c = None if rng.random() < 0.15 else str(rng.choice(["p", "q", "r"]))
        wide = None if rng.random() < 0.1 else float(rng.normal())
        b = None if rng.random() < 0.1 else float(rng.integers(0, 50))
        p = 0.2 + 0.3 * (group == "1") * (x is not None and x > 2) + 0.2 * (c == "q")
        p += 0.2 * (group == "1") * (wide is not None and wide > 0.5)
        rows.append(({"T": group, "x": x, "c": c, "wide": wide, "b": b}, int(rng.random() < p)))
    table = make_table(
        [
            ("T", "categorical", True),
            ("x", "numeric", False),
            ("c", "categorical", False),
            ("wide", "numeric", False),
            ("b", "numeric", False),
        ],
        rows,
    )
    return discretize(table, {"b": 3})


def test_every_node_routes_its_rows_like_the_split_rule():
    # Below the root no oracle checks the tree, so route each node's rows in
    # plain Python from the decoded values and compare every child's counts.
    # Excluded rows ride along, so that each leaf's rows are its segment's
    # n_reachable.
    rng = np.random.default_rng(41)
    checked = {"numeric": 0, "categorical": 0}

    def walk(table, node, treat, ctrl, excluded, path, reach):
        if node.is_leaf:
            reach[" and ".join(path) or "all cases"] = len(treat) + len(ctrl) + len(excluded)
            return
        split = node.split
        values = table.column(split.attribute)
        if split.threshold is not None:
            goes_left = lambda v: v is not None and v <= split.threshold  # noqa: E731
            tests = (f"<= {split.threshold:g}", f"> {split.threshold:g}")
            checked["numeric"] += 1
        else:
            goes_left = lambda v: v == split.category  # noqa: E731
            tests = (f"== {split.category}", f"!= {split.category}")
            checked["categorical"] += 1
        left = {i for i in treat + ctrl + excluded if goes_left(values[i])}
        outcome = table.outcomes()
        sides = ((node.left, left.__contains__), (node.right, lambda i: i not in left))
        for (child, goes_here), test in zip(sides, tests):
            child_treat = [i for i in treat if goes_here(i)]
            child_ctrl = [i for i in ctrl if goes_here(i)]
            assert child.stats.n_treat == len(child_treat)
            assert child.stats.n_ctrl == len(child_ctrl)
            assert child.stats.pos_treat == sum(outcome[i] for i in child_treat)
            assert child.stats.pos_ctrl == sum(outcome[i] for i in child_ctrl)
            child_excluded = [i for i in excluded if goes_here(i)]
            child_path = path + [f"{split.attribute} {test}"]
            walk(table, child, child_treat, child_ctrl, child_excluded, child_path, reach)

    for kind in ("KL", "Euclid", "ChiSq"):
        for _ in range(3):
            table = _random_routing_table(rng)
            wide = {v for v in table.column("wide") if v is not None}
            assert len(wide) > MAX_NUMERIC_CANDIDATES + 1
            params = TreeParams(
                max_depth=4,
                min_samples_split=10,
                min_samples_treatment=2,
                n_reg=10.0,
                divergence=kind,
            )
            tree, assignment = _build_with(
                table, Treatment((AtomicActionTerm("T", "0", "1"),)), params
            )
            excluded = [i for i, t in enumerate(table.column("T")) if t == "2"]
            reach = {}
            walk(
                table, tree.root, assignment.treated.tolist(), assignment.control.tolist(),
                excluded, [], reach,
            )
            segments = extract_segments(tree, -1.0)
            assert {s.predicate_text: s.n_reachable for s in segments} == reach
            assert len(segments) == len(reach)
            assert sum(reach.values()) == len(table)
    assert checked["numeric"] >= 10 and checked["categorical"] >= 1


EDGE_VALUES = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0), 2.5, -3.0, 1e308, -1e308,
]


@st.composite
def numeric_nodes(draw):
    """A numeric column of edge values, floats and a run of evenly spaced or
    adjacent floats (at times more distinct values than
    MAX_NUMERIC_CANDIDATES), with outcomes and random treated, control and
    excluded rows."""
    values = draw(st.lists(st.sampled_from(EDGE_VALUES) | st.floats(), max_size=40))
    n_run = draw(st.integers(0, 3 * MAX_NUMERIC_CANDIDATES))
    start = np.float64(draw(st.sampled_from([-0.0, 0.0, 1.0, -7.25, 1e300])))
    if draw(st.booleans()):
        run = (start.view(np.int64) + np.arange(n_run)).view(np.float64)
    else:
        run = start + np.arange(n_run) * draw(st.sampled_from([0.5, 3.0, 1e-300]))
    values += np.repeat(run, draw(st.integers(1, 3))).tolist()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.permutation(np.array(values, dtype=np.float64))
    group = rng.integers(0, 3, values.size)
    outcome = rng.integers(0, 2, values.size)
    return values, outcome, np.flatnonzero(group == 0), np.flatnonzero(group == 1)


# Only -inf and +inf make a NaN midpoint, which takes the NaN rows left too.
INF_NODE = (
    np.array([-np.inf, np.inf, np.nan, np.inf, -np.inf, np.nan, 4.0]),
    np.array([1, 0, 1, 1, 0, 1, 0]),
    np.array([0, 1, 2]),
    np.array([3, 4, 5]),
)

# Two values whose midpoint overflows to -inf, below every value: no rows left.
OVERFLOW_NODE = (
    np.array([np.nan, -1e308, np.nan, np.nan, -7.97693135e307, np.nan]),
    np.array([1, 0, 0, 1, 1, 0]),
    np.array([1, 2, 5]),
    np.array([4]),
)


# Two -inf values ahead of 120 distinct negative subnormals: the first
# quantile interpolates between -inf and a finite value, is NaN and snaps to
# the last midpoint, so the snapped indices do not ascend.
_NEGATIVE_SUBNORMALS = np.concatenate(([-np.inf, -np.inf], -np.arange(1, 121) * 5e-324))
NAN_QUANTILE_NODE = (
    _NEGATIVE_SUBNORMALS,
    np.arange(_NEGATIVE_SUBNORMALS.size) % 2,
    np.arange(0, _NEGATIVE_SUBNORMALS.size, 2),
    np.arange(1, _NEGATIVE_SUBNORMALS.size, 2),
)

# 120 subnormals 1 ulp apart, each 1-3 times: consecutive midpoints round to
# the same even value, so distinct snapped indices hold equal thresholds.
_ULP_RUN = np.repeat(np.arange(120) * 5e-324, np.arange(120) % 3 + 1)
EQUAL_MIDPOINTS_NODE = (
    _ULP_RUN,
    (np.arange(_ULP_RUN.size) % 3 == 0).astype(int),
    np.arange(0, _ULP_RUN.size, 2),
    np.arange(1, _ULP_RUN.size, 2),
)


@settings(max_examples=150, deadline=None)
@example(INF_NODE)
@example(OVERFLOW_NODE)
@example(NAN_QUANTILE_NODE)
@example(EQUAL_MIDPOINTS_NODE)
@given(numeric_nodes())
def test_ranked_numeric_candidates_match_the_per_node_reference(node):
    values, outcome, treat, ctrl = node
    table = make_table(
        [("x", "numeric", False)],
        [({"x": v}, y) for v, y in zip(values.tolist(), outcome.tolist())],
    )
    want = reference_numeric_candidates(
        values, table.outcome, treat, ctrl, MAX_NUMERIC_CANDIDATES
    )
    blocks = list(_candidates(table, treat, ctrl, ["x"]))
    if not blocks:
        assert want[0].size == 0
        return
    [(attribute, numeric, thresholds, counts)] = blocks
    assert attribute == "x" and numeric
    np.testing.assert_array_equal(thresholds.view(np.int64), want[0].view(np.int64))
    for got, expected in zip(counts, want[1:]):
        np.testing.assert_array_equal(got, expected)


NO_ROWS = np.array([], dtype=int)
EMPTY_NODE = (np.array([]), NO_ROWS, NO_ROWS, NO_ROWS)


@settings(max_examples=100, deadline=None)
@example(EMPTY_NODE)
@example(INF_NODE)
@given(numeric_nodes())
def test_histogram_blocks_leave_every_candidate_as_one_bincount_gives_it(node):
    values, outcome, treat, ctrl = node
    labels = ["a", "b", None, "b"]
    rows = zip(values.tolist(), outcome.tolist())
    table = make_table(
        [("x", "numeric", False), ("c", "categorical", False)],
        [({"x": v, "c": labels[i % 4]}, y) for i, (v, y) in enumerate(rows)],
    )
    whole = list(_candidates(table, treat, ctrl, ["x", "c"]))
    with mock.patch.object(uplift, "HISTOGRAM_BLOCK", 3):
        blocked = list(_candidates(table, treat, ctrl, ["x", "c"]))
    assert len(blocked) == len(whole)
    for (attribute, numeric, tests, counts), want in zip(blocked, whole):
        assert (attribute, numeric) == want[:2]
        if numeric:
            np.testing.assert_array_equal(tests.view(np.int64), want[2].view(np.int64))
        else:
            assert tests.tolist() == want[2].tolist()
        np.testing.assert_array_equal(counts, want[3])


@pytest.mark.parametrize("node", [OVERFLOW_NODE, NAN_QUANTILE_NODE], ids=["overflow", "nan"])
def test_tree_on_infinite_or_near_overflow_values_warns_nothing(node):
    # Midpoints and quantiles of such values are -inf or NaN by design.
    values, outcome, treat, ctrl = node
    table = make_table(
        [("x", "numeric", False)],
        [({"x": v}, y) for v, y in zip(values.tolist(), outcome.tolist())],
    )
    excluded = np.setdiff1d(np.arange(len(values)), np.concatenate([treat, ctrl]))
    # The treatment's attribute is not in the table, so x stays a feature.
    treatment = Treatment((AtomicActionTerm("T", "0", "1"),))
    assignment = TreatmentAssignment(treatment, treat, ctrl, excluded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree = build_tree(table, assignment, SMALL_PARAMS)
    assert tree.leaves()


def test_build_tree_deterministic():
    rng = np.random.default_rng(5)
    rows = [
        (
            {"T": str(i % 2), "x": float(rng.integers(0, 8)), "c": str(rng.integers(0, 3))},
            int(rng.random() < 0.4),
        )
        for i in range(200)
    ]
    table = make_table(
        [("T", "categorical", True), ("x", "numeric", False), ("c", "categorical", False)],
        rows,
    )
    params = TreeParams(max_depth=4, min_samples_split=8, min_samples_treatment=2, n_reg=5.0)
    treatment = Treatment((AtomicActionTerm("T", "0", "1"),))
    tree1, _ = _build_with(table, treatment, params)
    tree2, _ = _build_with(table, treatment, params)
    assert to_dot(tree1) == to_dot(tree2)


def test_default_params_match_reference_settings():
    params = TreeParams()
    assert params.max_depth == 5
    assert params.min_samples_split == 200
    assert params.min_samples_treatment == 50
    assert params.n_reg == 100.0
    assert params.divergence == "KL"


def test_extract_segments_min_uplift_above_one_is_empty():
    tree, _ = _build_with(EIGHT_ROW_TABLE, F_A_TO_B, SMALL_PARAMS)
    assert extract_segments(tree, 1.1) == []


def test_extract_segments_single_leaf_uplift():
    # 400 treated (300 positive), 400 control (100 positive); with a tiny
    # regularization weight the smoothed rates are the raw frequencies.
    rows = []
    for i in range(400):
        rows.append(({"T": "1", "f": "z"}, int(i < 300)))
    for i in range(400):
        rows.append(({"T": "0", "f": "z"}, int(i < 100)))
    table = make_table(
        [("T", "categorical", True), ("f", "categorical", False)], rows
    )
    params = TreeParams(max_depth=2, min_samples_split=4, min_samples_treatment=1, n_reg=1e-6)
    tree, _ = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), params)
    assert tree.root.is_leaf
    segments = extract_segments(tree, 0.4)
    assert len(segments) == 1
    seg = segments[0]
    assert seg.uplift == pytest.approx(0.5, rel=1e-7)
    assert seg.n_treat == 400 and seg.n_ctrl == 400
    assert seg.n_reachable == 800
    assert seg.predicate_text == "all cases"


def test_segments_sorted_by_uplift_descending_and_count_excluded_rows():
    rng = np.random.default_rng(23)
    rows = []
    for i in range(600):
        group = ("1", "0", "other")[i % 3]
        x = float(i % 10)
        base = 0.1 if x < 5 else 0.4
        p = base + (0.4 if group == "1" and x >= 5 else 0.0)
        rows.append(({"T": group, "x": x}, int(rng.random() < p)))
    table = make_table([("T", "categorical", True), ("x", "numeric", False)], rows)
    params = TreeParams(max_depth=2, min_samples_split=10, min_samples_treatment=5, n_reg=1.0)
    tree, assignment = _build_with(table, Treatment((AtomicActionTerm("T", "0", "1"),)), params)
    segments = extract_segments(tree, -1.0)
    uplifts = [s.uplift for s in segments]
    assert uplifts == sorted(uplifts, reverse=True)
    # n_reachable is judged against all 600 rows, not only treated+control
    assert sum(s.n_reachable for s in segments) == 600
    assert all(s.n_reachable > s.n_treat + s.n_ctrl for s in segments)


def test_to_dot_contains_stats_and_split_labels():
    tree, _ = _build_with(EIGHT_ROW_TABLE, F_A_TO_B, SMALL_PARAMS)
    dot = to_dot(tree, "demo")
    assert dot.startswith('digraph "demo"')
    assert "n_treat=4, n_ctrl=4" in dot
    assert "uplift=" in dot
    if not tree.root.is_leaf:
        assert '[label="yes"]' in dot
        assert "S == " in dot
