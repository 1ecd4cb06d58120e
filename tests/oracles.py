"""Independent brute-force reference implementations used by the tests.

Everything here favors obviousness over speed: exhaustive enumeration and
exact rational arithmetic (floats only appear inside log2 calls). These
are the ground truth the fast implementations are checked against.
"""

import re
from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations, product
from math import log2

import numpy as np

from upliftmine.actionrules import AtomicActionTerm
from upliftmine.casetable import CaseTable
from upliftmine.errors import LogParseError
from upliftmine.logparse import CaseLog


def brute_force_classification_rules(
    table: CaseTable,
    target_class: int,
    min_support,
    min_confidence,
    max_len: int = 4,
):
    """All condition sets up to max_len meeting the minima, no pruning."""
    names = table.attribute_names
    columns = [table.column(name) for name in names]
    rows = [
        (dict(zip(names, values)), outcome)
        for outcome, *values in zip(table.outcomes(), *columns)
    ]
    n = len(rows)
    attrs = sorted(table.attribute_names)
    values = {
        a: sorted({f[a] for f, _ in rows if f[a] is not None}) for a in attrs
    }
    out = {}
    for k in range(0, max_len + 1):
        for subset in combinations(attrs, k):
            for combo in product(*(values[a] for a in subset)):
                cond = tuple(zip(subset, combo))
                matching = [
                    outcome
                    for features, outcome in rows
                    if all(features[a] == v for a, v in cond)
                ]
                joint = sum(1 for o in matching if o == target_class)
                support = Fraction(joint, n)
                confidence = Fraction(joint, len(matching)) if matching else Fraction(0)
                if support >= min_support and confidence >= min_confidence:
                    out[cond] = (support, confidence)
    return out


def brute_force_action_rules(
    table: CaseTable, min_support, min_confidence, max_len: int = 4
):
    """Naive pairing of class-0 and class-1 rules over identical attribute
    sets; returns {terms: (support, confidence)} with exact Fractions.
    """
    controllable = {a.name for a in table.schema if a.controllable}
    if not controllable:
        return {}
    rules0 = brute_force_classification_rules(
        table, 0, min_support, min_confidence, max_len
    )
    rules1 = brute_force_classification_rules(
        table, 1, min_support, min_confidence, max_len
    )
    out = {}
    for cond0, (sup0, conf0) in rules0.items():
        attrs0 = tuple(a for a, _ in cond0)
        for cond1, (sup1, conf1) in rules1.items():
            if tuple(a for a, _ in cond1) != attrs0:
                continue
            v0, v1 = dict(cond0), dict(cond1)
            if any(v0[a] != v1[a] for a in attrs0 if a not in controllable):
                continue
            changed = [a for a in attrs0 if a in controllable and v0[a] != v1[a]]
            if not changed:
                continue
            support = min(sup0, sup1)
            confidence = conf0 * conf1
            if support < min_support or confidence < min_confidence:
                continue
            terms = tuple(
                sorted(
                    AtomicActionTerm(a, v0[a], v1[a] if a in changed else v0[a])
                    for a in attrs0
                )
            )
            out[terms] = (support, confidence)
    return out


def binary_kl(p: Fraction, q: Fraction) -> float:
    return float(p) * log2(p / q) + float(1 - p) * log2((1 - p) / (1 - q))


def binary_euclid(p: Fraction, q: Fraction) -> Fraction:
    return 2 * (p - q) ** 2


def binary_chisq(p: Fraction, q: Fraction) -> Fraction:
    return (p - q) ** 2 / q + (p - q) ** 2 / (1 - q)


def binary_entropy(p: Fraction) -> float:
    if p in (0, 1):
        return 0.0
    return -float(p) * log2(p) - float(1 - p) * log2(1 - p)


def binary_gini(p: Fraction) -> Fraction:
    return 2 * p * (1 - p)


def smoothed(pos: int, n: int, parent_p: Fraction, n_reg) -> Fraction:
    return (pos + Fraction(n_reg) * parent_p) / (n + Fraction(n_reg))


def boundary_divergence(kind: str, p, q) -> float:
    """Binary divergence extended to [0, 1] boundaries with the conventions
    0*log(0/x) = 0 and a zero q component with nonzero p giving +inf."""
    p, q = Fraction(p), Fraction(q)
    if kind == "Euclid":
        return float(2 * (p - q) ** 2)
    total = 0.0
    for pi, qi in ((p, q), (1 - p, 1 - q)):
        if kind == "KL":
            if pi == 0:
                continue
            if qi == 0:
                return float("inf")
            total += float(pi) * log2(pi / qi)
        else:
            diff = (pi - qi) ** 2
            if diff == 0:
                continue
            if qi == 0:
                return float("inf")
            total += float(diff / qi)
    return total


def spread_value(kind: str, p) -> float:
    """Entropy (KL kind) or Gini (other kinds) of a binary distribution."""
    if kind == "KL":
        return binary_entropy(Fraction(p))
    return float(binary_gini(Fraction(p)))


def oracle_normalization(kind, left_treat, left_ctrl, n_treat, n_ctrl) -> float:
    w = Fraction(n_treat, n_treat + n_ctrl)
    pt = Fraction(left_treat, n_treat)
    pc = Fraction(left_ctrl, n_ctrl)
    return (
        spread_value(kind, w) * boundary_divergence(kind, pt, pc)
        + float(w) * spread_value(kind, pt)
        + float(1 - w) * spread_value(kind, pc)
        + 0.5
    )


PRIOR_EPS = Fraction(10**-9)


def oracle_root_prior(pos_treat, pos_ctrl, n_treat, n_ctrl) -> Fraction:
    pooled = Fraction(pos_treat + pos_ctrl, n_treat + n_ctrl)
    return min(max(pooled, PRIOR_EPS), 1 - PRIOR_EPS)


def oracle_score(kind, n_reg, parent_counts, left_counts, parent_priors):
    """Normalized gain of one candidate split, exact arithmetic throughout
    (floats only inside log2). Counts are (n_treat, pos_treat, n_ctrl,
    pos_ctrl); parent_priors the parent's smoothed (p_treat, p_ctrl)."""
    nt, post, nc, posc = parent_counts
    lt, pos_lt, lc, pos_lc = left_counts
    rt, pos_rt, rc, pos_rc = nt - lt, post - pos_lt, nc - lc, posc - pos_lc
    prior_t, prior_c = parent_priors
    p_parent_t = smoothed(post, nt, prior_t, n_reg)
    p_parent_c = smoothed(posc, nc, prior_c, n_reg)
    d_before = boundary_divergence(kind, p_parent_t, p_parent_c)
    d_after = 0.0
    for n_t, pos_t, n_c, pos_c in ((lt, pos_lt, lc, pos_lc), (rt, pos_rt, rc, pos_rc)):
        child_pt = smoothed(pos_t, n_t, p_parent_t, n_reg)
        child_pc = smoothed(pos_c, n_c, p_parent_c, n_reg)
        share = Fraction(n_t + n_c, nt + nc)
        d_after += float(share) * boundary_divergence(kind, child_pt, child_pc)
    gain = d_after - d_before
    return gain / oracle_normalization(kind, lt, lc, nt, nc)


GAIN_EPS = 1e-12
TIE_REL_TOL = 1e-12


def oracle_best_split(table, treat_rows, ctrl_rows, params, feature_names):
    """Exhaustive scan over every candidate split of a small table.

    treat_rows/ctrl_rows are row indices. Numeric features (binned or not)
    test value <= threshold at every midpoint of consecutive distinct
    observed values, with missing going right; categorical features test
    one label against the rest. Returns
    (attribute, threshold_or_label, score) of the winner or None.
    """
    from upliftmine.casetable import NUMERIC

    outcomes = table.outcomes()

    def group_counts(rows):
        return len(rows), sum(outcomes[i] for i in rows)

    nt, post = group_counts(treat_rows)
    nc, posc = group_counts(ctrl_rows)
    prior = oracle_root_prior(post, posc, nt, nc)
    priors = (prior, prior)
    n_reg = Fraction(params.n_reg)

    def column_values(name):
        kind = "numeric" if table.attribute(name).kind == NUMERIC else "categorical"
        return kind, table.column(name)

    best = None
    for name in sorted(feature_names):
        kind_of, values = column_values(name)
        node_rows = list(treat_rows) + list(ctrl_rows)
        if kind_of == "numeric":
            observed = sorted({values[i] for i in node_rows if values[i] is not None})
            candidates = [
                ("num", (a + b) / 2.0) for a, b in zip(observed, observed[1:])
            ]
        else:
            observed = sorted({values[i] for i in node_rows if values[i] is not None})
            candidates = [("cat", label) for label in observed] if len(observed) > 1 else []
        for test_kind, test_value in candidates:
            if test_kind == "num":
                goes_left = lambda i: values[i] is not None and values[i] <= test_value
            else:
                goes_left = lambda i: values[i] == test_value
            left_t = [i for i in treat_rows if goes_left(i)]
            left_c = [i for i in ctrl_rows if goes_left(i)]
            lt, lc = len(left_t), len(left_c)
            rt, rc = nt - lt, nc - lc
            if min(lt, rt) < max(params.min_samples_treatment, 1) or min(lc, rc) < 1:
                continue
            pos_lt = sum(outcomes[i] for i in left_t)
            pos_lc = sum(outcomes[i] for i in left_c)
            score = oracle_score(
                params.divergence,
                n_reg,
                (nt, post, nc, posc),
                (lt, pos_lt, lc, pos_lc),
                priors,
            )
            if score <= GAIN_EPS:
                continue
            if best is not None and score <= best[2] * (1.0 + TIE_REL_TOL):
                continue
            best = (name, test_value, score)
    return best


def reference_numeric_candidates(values, outcome, treat_rows, ctrl_rows, max_candidates):
    """A node's numeric split candidates as the split search first defined
    them, from the node's raw values alone: np.unique of its non-NaN values,
    midpoints of consecutive ones, thinned above max_candidates to
    np.quantile of those values snapped up to the next midpoint; then, per
    group, rows with value <= t and their positives by a sorted search (NaN
    sorts last). Returns (thresholds, left treated, their positives, left
    control, their positives)."""
    observed = values[np.concatenate([treat_rows, ctrl_rows])]
    observed = observed[~np.isnan(observed)]
    distinct = np.unique(observed)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are expected
        thresholds = (distinct[:-1] + distinct[1:]) / 2.0
        if thresholds.size > max_candidates:
            qs = np.quantile(observed, np.arange(1, max_candidates + 1) / (max_candidates + 1))
            snapped = np.minimum(np.searchsorted(thresholds, qs), thresholds.size - 1)
            thresholds = np.unique(thresholds[snapped])
    counts = []
    for rows in (treat_rows, ctrl_rows):
        order = np.argsort(values[rows])
        positives = np.concatenate(([0], np.cumsum(outcome[rows][order], dtype=np.int64)))
        n_left = np.searchsorted(values[rows][order], thresholds, side="right")
        counts += [n_left, positives[n_left]]
    return (thresholds, *counts)


def reference_bin_labels(values, bounds) -> list[str]:
    """Each value's label, one at a time: "missing" for None or NaN, else the
    _bin_labels label of the first interval (.., bounds[i]] that holds it,
    the open tail past the last bound otherwise."""
    from upliftmine.casetable import MISSING_LABEL, _bin_labels

    present = [v for v in values if v is not None and v == v]
    labels = _bin_labels(bounds, np.array(present)) if present else []
    out = []
    for v in values:
        if v is None or v != v:
            out.append(MISSING_LABEL)
        else:
            out.append(labels[next((i for i, b in enumerate(bounds) if v <= b), len(bounds))])
    return out


def reference_fold(traces) -> CaseLog:
    """The case log of an event log, computed the obvious way.

    traces: (case_id, trace_attrs, events) in order of first appearance,
    each event an (activity, timestamp, attrs) tuple in file order. Each
    trace's events are stable-sorted by timestamp; the trace attributes go
    under the first of them (so any event value of the same key overrides
    them, and they vanish when there is no event); then the events are
    counted and their attributes applied in that order.
    """
    n = len(traces)
    case_ids, counts, last = [], {}, {}
    for i, (case_id, trace_attrs, events) in enumerate(traces):
        case_ids.append(case_id)
        ordered = sorted(events, key=lambda event: event[1])
        values = dict(trace_attrs) if ordered else {}
        for activity, _, attrs in ordered:
            counts.setdefault(activity, [0] * n)[i] += 1
            values.update(attrs)
        for key, value in values.items():
            last.setdefault(key, [None] * n)[i] = value
    n_events = sum(len(events) for _, _, events in traces)
    return CaseLog(case_ids, counts, last, n_events)


def reference_encode(case_log, schema, outcome_name, positive_labels=frozenset({"1", "true"})):
    """The case table of a case log, each value converted where it stands.

    Cases without the outcome drop. An outcome is a bool, a number equal to
    0 or 1, or text whose stripped, lowercased form is positive or not. A
    numeric value is float() of it; a categorical label is "true"/"false"
    for a bool, repr() for a float, str() otherwise. The outcome column is
    converted first, then each feature column in schema order; the first
    value that does not convert raises a SchemaError naming it and its case.
    """
    from upliftmine.casetable import NUMERIC, SOURCE_COUNT, SOURCE_LAST, CaseTable
    from upliftmine.errors import SchemaError

    n = len(case_log)
    positive = {label.lower() for label in positive_labels}

    def observe(attr):
        if attr.source == SOURCE_COUNT:
            return case_log.counts.get(attr.source_arg, [0] * n)
        key = attr.source_arg if attr.source == SOURCE_LAST else attr.name
        return case_log.last.get(key, [None] * n)

    by_name = {attr.name: attr for attr in schema}
    raw = observe(by_name[outcome_name])
    kept = [i for i in range(n) if raw[i] is not None]
    if not kept:
        raise SchemaError(f"outcome attribute {outcome_name!r} never observed in any case")
    case_ids = [case_log.case_ids[i] for i in kept]
    outcomes = []
    for i, case_id in zip(kept, case_ids):
        value = raw[i]
        if isinstance(value, bool):
            outcomes.append(int(value))
        elif isinstance(value, (int, float)):
            if value not in (0, 1):
                raise SchemaError(
                    f"attribute {outcome_name!r}: non-binary outcome {value!r} in case {case_id!r}"
                )
            outcomes.append(int(value))
        else:
            outcomes.append(int(str(value).strip().lower() in positive))
    features = [attr for attr in schema if attr.name != outcome_name]
    columns = {}
    for attr in features:
        raw = observe(attr)
        column = []
        for i, case_id in zip(kept, case_ids):
            value = raw[i]
            if value is None:
                column.append(None)
            elif attr.kind == NUMERIC:
                try:
                    column.append(float(value))
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"attribute {attr.name!r}: non-numeric value {value!r} in case {case_id!r}"
                    ) from None
            elif isinstance(value, bool):
                column.append("true" if value else "false")
            elif isinstance(value, float):
                column.append(repr(value))
            else:
                column.append(str(value))
        columns[attr.name] = column
    return CaseTable(features, outcome_name, case_ids, outcomes, columns)


_FRACTION_RE = re.compile(r"(\.\d+)")


def reference_parse_timestamp(text: str) -> datetime:
    """ISO-8601 text as an aware datetime, naive values taken as UTC: strip
    whitespace, read a Z or z suffix as +00:00, pad or cut the first
    fraction to 6 digits, then fromisoformat or one of three strptime
    layouts. Raises LogParseError carrying the literal text on failure."""
    raw = text
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
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
