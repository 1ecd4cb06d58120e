"""Uplift trees: estimate a treatment's heterogeneous effect by recursive
partitioning that maximizes the divergence between treated and control
outcome distributions, normalized to penalize splits that separate the two
groups unevenly (the confounding adjustment).

Group assignment is observational: rows whose controllable values already
match the treatment's target values act as treated, rows matching the
source values act as control, everything else is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .actionrules import Treatment
from .casetable import NUMERIC, CaseTable
from .errors import ConfigError, PositivityError, SchemaError, require

DIVERGENCE_KINDS = ("KL", "Euclid", "ChiSq")

# Smallest normalized gain that counts as an improvement; guards against
# float-noise splits on effectively gain-free nodes.
GAIN_EPS = 1e-12

# Relative tolerance under which two candidate scores count as tied (the
# earlier candidate in scan order wins).
TIE_REL_TOL = 1e-12

# Root priors are clamped into (PRIOR_EPS, 1 - PRIOR_EPS) so smoothing always
# yields probabilities strictly inside (0, 1).
PRIOR_EPS = 1e-9

MAX_NUMERIC_CANDIDATES = 100

# Evenly spaced fractions of the quantiles that thin a node's thresholds.
_QUANTILE_FRACTIONS = np.arange(1, MAX_NUMERIC_CANDIDATES + 1) / (MAX_NUMERIC_CANDIDATES + 1)


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 5
    min_samples_split: int = 200
    min_samples_treatment: int = 50
    n_reg: float = 100.0
    divergence: str = "KL"

    def __post_init__(self):
        for name in ("max_depth", "min_samples_split", "min_samples_treatment"):
            require(getattr(self, name), int, name)
        require(self.n_reg, float, "n_reg")
        if self.max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ConfigError("min_samples_split must be >= 2")
        if self.min_samples_treatment < 0:
            raise ConfigError("min_samples_treatment must be >= 0")
        if not self.n_reg > 0:
            raise ConfigError("n_reg must be > 0")
        if self.divergence not in DIVERGENCE_KINDS:
            raise ConfigError(
                f"divergence must be one of {DIVERGENCE_KINDS}, got {self.divergence!r}"
            )


@dataclass
class TreatmentAssignment:
    """One treatment's row indices; treated, control and excluded partition the table."""

    treatment: Optional[Treatment]
    treated: np.ndarray
    control: np.ndarray
    excluded: np.ndarray

    def __post_init__(self):
        if len(self.treated) == 0 or len(self.control) == 0:
            name = self.treatment.key if self.treatment else "<unnamed>"
            empty = "treated" if len(self.treated) == 0 else "control"
            raise PositivityError(
                f"treatment {name}: {empty} group is empty (positivity violated)"
            )


def assign_groups(table: CaseTable, treatment: Treatment) -> TreatmentAssignment:
    """Partition rows into treated (match all to_values), control (match all
    from_values), and excluded (the rest)."""
    n = len(table)
    if n == 0:
        raise SchemaError("empty case table")
    to_mask = np.ones(n, dtype=bool)
    from_mask = np.ones(n, dtype=bool)
    for term in treatment.changes:
        to_mask &= table.equals(term.attribute, term.to_value)
        from_mask &= table.equals(term.attribute, term.from_value)
    # from_mask and to_mask are disjoint: every change has from != to.
    treated = np.flatnonzero(to_mask)
    control = np.flatnonzero(from_mask)
    excluded = np.flatnonzero(~to_mask & ~from_mask)
    return TreatmentAssignment(treatment, treated, control, excluded)


# ---------------------------------------------------------------------------
# Divergences and normalization
# ---------------------------------------------------------------------------

def _check_distribution(dist, name: str) -> tuple[float, float]:
    try:
        a, b = float(dist[0]), float(dist[1])
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"{name} must be a probability pair") from None
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ConfigError(f"{name} components must lie strictly inside (0, 1)")
    if abs(a + b - 1.0) > 1e-9:
        raise ConfigError(f"{name} must sum to 1")
    return a, b


def divergence(p, q, kind: str) -> float:
    """Divergence between two binary distributions given as (y, 1-y) pairs.

    KL uses base-2 logarithms. Inputs must be strictly inside (0, 1); the
    smoothing upstream guarantees that for node statistics.
    """
    if kind not in DIVERGENCE_KINDS:
        raise ConfigError(f"unknown divergence kind {kind!r}")
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    return float(_divergence_unchecked(p[0], q[0], kind))


def _divergence_unchecked(p, q, kind: str):
    """Binary divergence on first components, elementwise over arrays,
    tolerating boundary values with the conventions 0*log(0/x) = 0 and
    (p-q)^2/0 -> inf for p != q.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if kind == "Euclid":
        d = p - q
        return 2.0 * d * d
    total = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for pi, qi in ((p, q), (1.0 - p, 1.0 - q)):
            if kind == "KL":
                term = np.where(pi == 0.0, 0.0, pi * np.log2(pi / qi))
            else:
                d = pi - qi
                term = np.where(d == 0.0, 0.0, np.where(qi == 0.0, np.inf, d * d / qi))
            total = total + term
    return total


def _entropy(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def _gini(p):
    return 2.0 * p * (1.0 - p)


@dataclass(frozen=True)
class NodeStats:
    """Counts and smoothed outcome rates of one node, or elementwise of a
    block of candidate children when the fields are equal-length arrays."""

    n_treat: int
    n_ctrl: int
    pos_treat: int
    pos_ctrl: int
    p_treat: float
    p_ctrl: float

    def __post_init__(self):
        if np.any(self.pos_treat > self.n_treat) or np.any(self.pos_ctrl > self.n_ctrl):
            raise ValueError("positive count exceeds group size")
        inside = (0.0 < self.p_treat) & (self.p_treat < 1.0)
        if not np.all(inside & (0.0 < self.p_ctrl) & (self.p_ctrl < 1.0)):
            raise ValueError("smoothed probabilities must lie strictly in (0, 1)")

    @property
    def uplift(self) -> float:
        return self.p_treat - self.p_ctrl

    @property
    def n(self) -> int:
        return self.n_treat + self.n_ctrl


def node_stats(
    n_treat, pos_treat, n_ctrl, pos_ctrl, parent: Optional[NodeStats], n_reg: float
) -> NodeStats:
    """Smoothed per-group outcome rates: p = (pos + n_reg*prior) / (n + n_reg),
    elementwise over count arrays.

    The root's prior (both groups) is the pooled positive rate over treated
    plus control, clamped into (0, 1) so degenerate outcomes stay usable.
    """
    if parent is None:
        pooled = (pos_treat + pos_ctrl) / (n_treat + n_ctrl)
        pooled = min(max(pooled, PRIOR_EPS), 1.0 - PRIOR_EPS)
        prior_t = prior_c = pooled
    else:
        prior_t, prior_c = parent.p_treat, parent.p_ctrl
    p_treat = (pos_treat + n_reg * prior_t) / (n_treat + n_reg)
    p_ctrl = (pos_ctrl + n_reg * prior_c) / (n_ctrl + n_reg)
    return NodeStats(n_treat, n_ctrl, pos_treat, pos_ctrl, p_treat, p_ctrl)


@dataclass(frozen=True)
class Split:
    """A binary test on one attribute, numeric (threshold) or categorical
    (category); goes_left is the one place rows are routed."""

    attribute: str
    threshold: Optional[float]
    category: Optional[str]

    def goes_left(self, table: CaseTable, rows: np.ndarray) -> np.ndarray:
        """Numeric rows go left iff value <= threshold, so missing values go
        right; categorical rows go left iff label == category, so missing
        labels go right."""
        if self.threshold is not None:
            with np.errstate(invalid="ignore"):
                return table.numeric(self.attribute)[rows] <= self.threshold
        return table.equals(self.attribute, self.category)[rows]

    def condition(self, left: bool) -> tuple[str, str, object]:
        """The (attribute, op, value) condition of one side of the test."""
        if self.threshold is not None:
            return (self.attribute, "<=" if left else ">", self.threshold)
        return (self.attribute, "==" if left else "!=", self.category)

    def describe(self) -> str:
        return _condition_text(*self.condition(left=True))


def _condition_text(attribute: str, op: str, value) -> str:
    """One (attribute, op, value) condition as printed in DOT and segments."""
    if op in ("<=", ">"):
        return f"{attribute} {op} {value:g}"
    return f"{attribute} {op} {value}"


def gain(parent: NodeStats, left: NodeStats, right: NodeStats, kind: str) -> float:
    """Divergence gained by the split: the size-weighted sum of the child
    divergences minus the parent's divergence; elementwise over a block of
    candidate children."""
    d_after = sum(
        (child.n / parent.n) * _divergence_unchecked(child.p_treat, child.p_ctrl, kind)
        for child in (left, right)
    )
    return d_after - _divergence_unchecked(parent.p_treat, parent.p_ctrl, kind)


def normalization_from_counts(
    left_treat: int, left_ctrl: int, n_treat: int, n_ctrl: int, kind: str
) -> float:
    """Split-quality penalty from the direction distributions.

    With w = treated share of the node, pt/pc = fraction of treated resp.
    control rows sent left: KL kind uses binary entropy H and the KL
    divergence; Euclid and ChiSq kinds replace H by the Gini index and use
    their own divergence. The +1/2 floor makes the value >= 1/2. Left
    counts may be arrays, one element per candidate split.
    """
    if kind not in DIVERGENCE_KINDS:
        raise ConfigError(f"unknown divergence kind {kind!r}")
    w = n_treat / (n_treat + n_ctrl)
    pt = left_treat / n_treat
    pc = left_ctrl / n_ctrl
    spread = _entropy if kind == "KL" else _gini
    return (
        spread(w) * _divergence_unchecked(pt, pc, kind)
        + w * spread(pt)
        + (1.0 - w) * spread(pc)
        + 0.5
    )


# ---------------------------------------------------------------------------
# Split search
# ---------------------------------------------------------------------------

def _numeric_thresholds(distinct: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Candidate thresholds of a node whose ascending distinct values have
    cumulative counts ends: midpoints of consecutive distinct values. Above
    MAX_NUMERIC_CANDIDATES the list is thinned to evenly spaced quantiles of
    the node's values, each snapped up to the next midpoint. The quantiles
    are np.quantile's (method "linear"), bit for bit, read off ends. A
    midpoint or quantile next to an infinite or near-overflow value is inf
    or NaN by design (see _candidates), so numpy is not asked to warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        if mids.size <= MAX_NUMERIC_CANDIDATES:
            return mids
        # numpy's order of operations: the virtual rank, its floor and, where
        # the fraction t >= 0.5, interpolation back from the upper value.
        virtual = (ends[-1] - 1) * _QUANTILE_FRACTIONS
        below = np.floor(virtual)
        t = virtual - below
        a, b = distinct[np.searchsorted(ends, (below, below + 1), side="right")]
        qs = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
        # Sort the snapped indices: a quantile between -inf and a finite value
        # is NaN, which snaps to the last midpoint. Mids hold no NaN here, but
        # subnormal ones can round to the same value, so keep each value once.
        tests = mids[np.sort(np.minimum(np.searchsorted(mids, qs), mids.size - 1))]
        return tests[np.concatenate(([True], tests[1:] != tests[:-1]))]


def _candidates(table: CaseTable, treat_idx, ctrl_idx, feature_names):
    """Per attribute, in scan order: whether it is numeric, the ascending
    thresholds or labels of its candidate tests, and a 4-row array of each
    test's left treated rows, their positives, left control rows and their
    positives, read off one histogram of the node over CaseTable.ranked."""
    groups = []
    for rows in (treat_idx, ctrl_idx):
        groups += [rows, rows[table.outcome[rows] == 1]]
    rows = np.concatenate(groups)
    group = np.repeat(np.arange(4), [len(g) for g in groups])
    for attribute in sorted(feature_names):
        values, ranks = table.ranked(attribute)
        size = len(values) + 1  # the last bucket holds missing rows
        hist = np.bincount(group * size + ranks[rows], minlength=4 * size).reshape(4, size)
        node = hist[0] + hist[2]
        present = np.flatnonzero(node[:-1])
        if present.size < 2:
            continue
        if table.attribute(attribute).kind != NUMERIC:
            yield attribute, False, values[present], hist[:, present]
            continue
        # Left counts at each cut: none, after each present value, and after
        # the missing rows too, which only a NaN threshold takes.
        cumulative = np.zeros((4, present.size + 2), dtype=np.int64)
        np.cumsum(hist[:, present], axis=1, out=cumulative[:, 1:-1])
        cumulative[:, -1] = cumulative[:, -2] + hist[:, -1]
        distinct = values[present]
        tests = _numeric_thresholds(distinct, cumulative[0, 1:-1] + cumulative[2, 1:-1])
        # Left rows hold value <= t, so a NaN t (from -inf and +inf) takes the
        # missing rows too, as a sorted search with NaN last does. A midpoint
        # that overflows to -inf lies below every value: at = 0, no rows.
        at = np.searchsorted(distinct, tests, side="right") + np.isnan(tests)
        yield attribute, True, tests, cumulative[:, at]


def best_split(
    table: CaseTable,
    treat_idx: np.ndarray,
    ctrl_idx: np.ndarray,
    parent: NodeStats,
    params: TreeParams,
    feature_names: list[str],
) -> Optional[tuple[Split, float]]:
    """Deterministic scan over candidates, maximizing normalized gain.

    Candidates are visited per feature in ascending attribute-name order,
    numeric thresholds ascending, category labels ascending; a challenger
    must beat the incumbent by more than TIE_REL_TOL relative to replace it.
    All of the node's admissible candidates are scored as one block.
    Returns None when no candidate clears the positivity and size
    constraints with a normalized gain above GAIN_EPS.
    """
    blocks = list(_candidates(table, treat_idx, ctrl_idx, feature_names))
    if not blocks:
        return None
    tests = [(a, numeric, t) for a, numeric, ts, _ in blocks for t in ts.tolist()]
    lt, pos_lt, lc, pos_lc = np.concatenate([counts for *_, counts in blocks], axis=1)
    rt, rc = len(treat_idx) - lt, len(ctrl_idx) - lc
    keep = np.minimum(lt, rt) >= params.min_samples_treatment
    keep &= np.minimum(lc, rc) >= 1
    lt, pos_lt, lc, pos_lc, rt, rc = (a[keep] for a in (lt, pos_lt, lc, pos_lc, rt, rc))
    left = node_stats(lt, pos_lt, lc, pos_lc, parent, params.n_reg)
    right = node_stats(
        rt, parent.pos_treat - pos_lt, rc, parent.pos_ctrl - pos_lc, parent, params.n_reg
    )
    scores = gain(parent, left, right, params.divergence) / normalization_from_counts(
        lt, lc, parent.n_treat, parent.n_ctrl, params.divergence
    )
    best: Optional[tuple[Split, float]] = None
    for i, score in zip(np.flatnonzero(keep).tolist(), scores.tolist()):
        if score <= GAIN_EPS:
            continue
        if best is not None and score <= best[1] * (1.0 + TIE_REL_TOL):
            continue
        attribute, numeric, test = tests[i]
        split = Split(attribute, test, None) if numeric else Split(attribute, None, test)
        best = (split, score)
    return best


# ---------------------------------------------------------------------------
# Tree
# ---------------------------------------------------------------------------

@dataclass
class Node:
    """n_reachable counts every row that reaches the node, excluded rows included."""

    stats: NodeStats
    n_reachable: int
    split: Optional[Split] = None
    left: Optional["Node"] = None
    right: Optional["Node"] = None
    score: Optional[float] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class UpliftTree:
    root: Node

    def leaves(self) -> list[tuple[Node, list[tuple[str, str, object]]]]:
        """Leaf nodes with their root-to-leaf condition paths; conditions are
        (attribute, op, value) with op one of <=, >, ==, !=."""
        out = []

        def walk(node: Node, path):
            if node.is_leaf:
                out.append((node, path))
                return
            walk(node.left, path + [node.split.condition(left=True)])
            walk(node.right, path + [node.split.condition(left=False)])

        walk(self.root, [])
        return out


def build_tree(
    table: CaseTable, assignment: TreatmentAssignment, params: TreeParams
) -> UpliftTree:
    """Greedy recursive growth; deterministic for identical inputs."""
    excluded_attrs = (
        {t.attribute for t in assignment.treatment.changes}
        if assignment.treatment
        else set()
    )
    feature_names = [a.name for a in table.schema if a.name not in excluded_attrs]
    outcome = table.outcome

    def grow(treat_idx, ctrl_idx, other_idx, parent: Optional[NodeStats], depth: int) -> Node:
        n_treat, n_ctrl = len(treat_idx), len(ctrl_idx)
        pos_treat, pos_ctrl = int(outcome[treat_idx].sum()), int(outcome[ctrl_idx].sum())
        stats = node_stats(n_treat, pos_treat, n_ctrl, pos_ctrl, parent, params.n_reg)
        node = Node(stats, n_treat + n_ctrl + len(other_idx))
        if depth >= params.max_depth or stats.n < params.min_samples_split:
            return node
        found = best_split(table, treat_idx, ctrl_idx, stats, params, feature_names)
        if found is None:
            return node
        node.split, node.score = found
        groups = (treat_idx, ctrl_idx, other_idx)
        left = [node.split.goes_left(table, rows) for rows in groups]
        node.left = grow(*(rows[go] for rows, go in zip(groups, left)), stats, depth + 1)
        node.right = grow(*(rows[~go] for rows, go in zip(groups, left)), stats, depth + 1)
        return node

    return UpliftTree(grow(assignment.treated, assignment.control, assignment.excluded, None, 0))


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """A leaf's path predicate plus its uplift estimate."""

    conditions: tuple[tuple[str, str, object], ...]
    uplift: float
    n_treat: int
    n_ctrl: int
    n_reachable: int

    @property
    def predicate_text(self) -> str:
        return " and ".join(_condition_text(*c) for c in self.conditions) or "all cases"


def extract_segments(tree: UpliftTree, min_uplift: float) -> list[Segment]:
    """Leaves with uplift >= min_uplift, as path predicates, each with the
    n_reachable that build_tree counted: every table row (treated, control,
    or excluded) that the tree's splits route to the leaf."""
    segments = [
        Segment(tuple(path), node.stats.uplift, node.stats.n_treat, node.stats.n_ctrl,
                node.n_reachable)
        for node, path in tree.leaves()
        if node.stats.uplift >= min_uplift
    ]
    segments.sort(key=lambda s: (-s.uplift, s.predicate_text))
    return segments


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(tree: UpliftTree, title: str = "uplift_tree") -> str:
    """Graphviz rendering with per-node group sizes, smoothed rates, and
    uplift; edge labels carry the split conditions."""
    lines = [f'digraph "{_dot_escape(title)}" {{', "  node [shape=box];"]
    counter = 0

    def emit(node: Node) -> int:
        nonlocal counter
        node_id = counter
        counter += 1
        s = node.stats
        label = (
            f"n_treat={s.n_treat}, n_ctrl={s.n_ctrl}\\n"
            f"p_treat={s.p_treat:.6f}, p_ctrl={s.p_ctrl:.6f}\\n"
            f"uplift={s.uplift:+.6f}"
        )
        if not node.is_leaf:
            label = f"{_dot_escape(node.split.describe())}\\n" + label
        lines.append(f'  n{node_id} [label="{label}"];')
        if not node.is_leaf:
            left_id = emit(node.left)
            right_id = emit(node.right)
            lines.append(f'  n{node_id} -> n{left_id} [label="yes"];')
            lines.append(f'  n{node_id} -> n{right_id} [label="no"];')
        return node_id

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
