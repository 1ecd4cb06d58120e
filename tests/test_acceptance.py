"""Acceptance gate: eight end-to-end criteria with pinned tolerances.

Each test prints exactly one "[criterion N] PASS/FAIL" line (visible with
pytest -s, and always attached to the assertion message on failure).
"""

import functools
import math
import os
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from helpers import make_table, random_split_table
from oracles import brute_force_action_rules
from oracles import oracle_best_split
from upliftmine.actionrules import (
    ActionRule,
    AtomicActionTerm,
    Treatment,
    extract_treatments,
    format_rule,
    load_rules,
    measure,
    mine_action_rules,
    save_rules,
)
from upliftmine.casetable import (
    CATEGORICAL,
    NUMERIC,
    AttributeSchema,
    discretize,
    encode_cases,
)
from upliftmine.errors import PositivityError
from upliftmine.logparse import parse_xes
from upliftmine.ranking import CostModel, net_value, rank
from upliftmine.synthetic import (
    CONFOUNDER,
    OUTCOME,
    SUBGROUP,
    TREATMENT_ATTR,
    SyntheticScenario,
    generate,
    naive_pooled_uplift,
    true_cate,
    true_cell_effect,
)
from upliftmine.uplift import (
    TreeParams,
    assign_groups,
    build_tree,
    divergence,
    extract_segments,
    normalization_from_counts,
)


def check(criterion: int, failures: list, detail: str) -> None:
    ok = not failures
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    if failures:
        line += f" | {len(failures)} failure(s), first: {failures[0]}"
    print(line)
    assert ok, line


def test_criterion_1_divergence_axioms():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    failures = []
    cases = 0
    for kind in ("KL", "Euclid", "ChiSq"):
        for i in range(4000):
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            q = p if i % 3 == 0 else float(rng.uniform(1e-6, 1.0 - 1e-6))
            value = divergence((p, 1.0 - p), (q, 1.0 - q), kind)
            cases += 1
            if p == q:
                if value != 0.0:
                    failures.append(f"{kind}: divergence(p, p) = {value!r} at p = {p}")
            elif not value > 0.0:
                failures.append(f"{kind}: divergence = {value!r} at p = {p}, q = {q}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s, budget 5s")
    check(
        1,
        failures,
        f"nonnegativity and identity-of-indiscernibles over {cases} randomized "
        f"divergence evaluations in {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_2_hand_computed_values():
    failures = []
    kl = divergence((0.75, 0.25), (0.25, 0.75), "KL")
    if abs(kl - 0.79248) > 1e-5:
        failures.append(f"KL((0.75,0.25),(0.25,0.75)) = {kl!r}, expected 0.79248 +/- 1e-5")
    euclid = divergence((0.75, 0.25), (0.25, 0.75), "Euclid")
    if euclid != 0.5:
        failures.append(f"Euclid = {euclid!r}, expected exactly 0.5")
    norm = normalization_from_counts(50, 50, 100, 100, "KL")
    if norm != 1.5:
        failures.append(f"balanced/identical normalization = {norm!r}, expected exactly 1.5")
    check(
        2,
        failures,
        "KL = 0.79248 +/- 1e-5, Euclid = 0.5 exact, balanced normalization = 1.5 exact",
    )


def test_criterion_3_split_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20260303)
    failures = []
    n_tables = 0
    n_split = 0
    while n_tables < 200:
        table, params, treatment = random_split_table(rng)
        try:
            assignment = assign_groups(table, treatment)
        except PositivityError:
            continue
        n_tables += 1
        tree = build_tree(table, assignment, params)
        feature_names = [a.name for a in table.schema if a.name != "T"]
        want = oracle_best_split(
            table,
            list(assignment.treated),
            list(assignment.control),
            params,
            feature_names,
        )
        if tree.root.is_leaf:
            if want is not None and want[2] > 1e-10:
                failures.append(
                    f"table {n_tables}: root is a leaf but oracle scores {want[2]!r}"
                )
        elif want is None:
            failures.append(
                f"table {n_tables}: root split scored {tree.root.score!r}, oracle found none"
            )
        elif not math.isclose(tree.root.score, want[2], rel_tol=1e-9, abs_tol=0.0):
            failures.append(
                f"table {n_tables}: score {tree.root.score!r} vs oracle {want[2]!r}"
            )
        else:
            n_split += 1
    elapsed = time.monotonic() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s, budget 30s")
    if n_split < 20:
        failures.append(f"only {n_split} non-trivial root splits exercised")
    check(
        3,
        failures,
        f"200 random tables: root split equals exhaustive argmax within 1e-9 relative "
        f"({n_split} actual splits) in {elapsed:.1f}s (budget 30s)",
    )


PLANTED = SyntheticScenario(
    n_cases=20_000,
    seed=424242,
    p_confounder=0.5,
    p_subgroup=0.5,
    p_treat_given_confounder=(0.5, 0.5),
    p_outcome_treated=((0.3, 0.6), (0.3, 0.6)),
    p_outcome_control=((0.3, 0.3), (0.3, 0.3)),
)

TREAT_0_TO_1 = Treatment((AtomicActionTerm(TREATMENT_ATTR, "0", "1"),))


@functools.lru_cache(maxsize=1)
def _planted_tree():
    event_log, _ = generate(PLANTED)
    table = encode_cases(event_log, PLANTED.schema(), OUTCOME)
    assignment = assign_groups(table, TREAT_0_TO_1)
    tree = build_tree(table, assignment, TreeParams(max_depth=1))
    return table, tree


def test_criterion_4_planted_effect_recovery():
    start = time.monotonic()
    table, tree = _planted_tree()
    segments = extract_segments(tree, min_uplift=0.15)
    failures = []
    if len(segments) != 1:
        failures.append(f"{len(segments)} segments above uplift 0.15, expected exactly 1")
    else:
        segment = segments[0]
        attrs = {attr for attr, _, _ in segment.conditions}
        if attrs != {SUBGROUP}:
            failures.append(f"segment predicate uses {sorted(attrs)}, expected only {SUBGROUP!r}")
        if not 0.25 <= segment.uplift <= 0.35:
            failures.append(f"estimated uplift {segment.uplift!r} outside 0.3 +/- 0.05")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s, budget 60s")
    check(
        4,
        failures,
        f"planted subgroup recovered as the single segment, uplift within 0.3 +/- 0.05, "
        f"in {elapsed:.1f}s (budget 60s)",
    )


CONFOUNDED = SyntheticScenario(
    n_cases=40_000,
    seed=777,
    p_confounder=0.5,
    p_subgroup=0.5,
    p_treat_given_confounder=(0.8, 0.2),
    p_outcome_treated=((0.35, 0.35), (0.6, 0.6)),
    p_outcome_control=((0.2, 0.2), (0.45, 0.45)),
)


def test_criterion_5_confounding_adjustment():
    failures = []

    naive = naive_pooled_uplift(CONFOUNDED)
    true_effect = true_cate(CONFOUNDED, 0)
    if abs(naive - true_effect) < 0.1:
        failures.append(
            f"scenario not confounded enough: naive {naive!r} vs true {true_effect!r}"
        )

    event_log, _ = generate(CONFOUNDED)
    table = encode_cases(event_log, CONFOUNDED.schema(), OUTCOME)
    assignment = assign_groups(table, TREAT_0_TO_1)
    tree = build_tree(table, assignment, TreeParams(max_depth=1))
    if tree.root.is_leaf or tree.root.split.attribute != CONFOUNDER:
        failures.append("tree did not split on the confounder")
    else:
        for node, path in tree.leaves():
            attr, op, value = path[0]
            stratum = int(value) if op == "==" else 1 - int(value)
            truth = true_cell_effect(CONFOUNDED, stratum, 0)
            if abs(node.stats.uplift - truth) > 0.05:
                failures.append(
                    f"stratum {stratum}: leaf uplift {node.stats.uplift!r} "
                    f"vs true {truth!r} (tolerance 0.05)"
                )

    rng = np.random.default_rng(505)
    instances = 0
    while instances < 1000:
        kind = ("KL", "Euclid", "ChiSq")[int(rng.integers(0, 3))]
        n_t = int(rng.integers(100, 100_001))
        n_c = int(rng.integers(100, 100_001))
        w_t = n_t / (n_t + n_c)
        w_c = 1.0 - w_t
        s = float(rng.uniform(0.05, 0.95))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        lo_t, hi_t = 50 / n_t, 1 - 50 / n_t
        lo_c, hi_c = 1 / n_c, 1 - 1 / n_c
        if sign > 0:
            t_max = min((hi_t - s) / w_c, (s - lo_c) / w_t)
        else:
            t_max = min((s - lo_t) / w_c, (hi_c - s) / w_t)
        if t_max <= 0:
            continue
        instances += 1
        prev = None
        for t in np.linspace(0.0, t_max, 9):
            pt = s + t * w_c * sign
            pc = s - t * w_t * sign
            value = normalization_from_counts(pt * n_t, pc * n_c, n_t, n_c, kind)
            if prev is not None and value < prev - 1e-12:
                failures.append(
                    f"normalization not monotone: {kind}, n_t={n_t}, n_c={n_c}, "
                    f"s={s}, t={t}: {value!r} < {prev!r}"
                )
            prev = value

    check(
        5,
        failures,
        f"naive bias {abs(naive - true_effect):.2f} >= 0.1, leaf uplifts within "
        f"+/- 0.05 of stratum effects, normalization monotone over {instances} instances",
    )


FIG3_RULE = ActionRule(
    stable=(AtomicActionTerm("CreditScore", "low", "low"),),
    flexible=(AtomicActionTerm("NoOfTerms", "[6-48]", "[97-120]"),),
    outcome="Selected",
    support=0.057,
    confidence=0.764,
)

FIG3_LINE = (
    "[(CreditScore: low) ∧ (NoOfTerms: [6-48] → [97-120])] ⟹ [Selected: 0 → 1], "
    "with support 0.057 and confidence 0.764"
)


def test_criterion_6_action_rule_oracle(tmp_path):
    rng = np.random.default_rng(606)
    failures = []
    agreements = 0
    for table_no in range(200):
        n_attrs = int(rng.integers(2, 7))
        attrs = [
            (f"a{i}", "categorical", bool(rng.random() < 0.5)) for i in range(n_attrs)
        ]
        if not any(controllable for _, _, controllable in attrs):
            attrs[0] = (attrs[0][0], attrs[0][1], True)
        n_rows = int(rng.integers(4, 101))
        rows = []
        for _ in range(n_rows):
            features = {
                name: str(rng.choice(["p", "q", "r"][: int(rng.integers(2, 4))]))
                for name, _, _ in attrs
            }
            rows.append((features, int(rng.random() < 0.5)))
        table = make_table(attrs, rows)
        # dyadic thresholds keep float and Fraction boundary tests in agreement
        min_support = float(rng.choice([0.0625, 0.125, 0.25]))
        min_confidence = float(rng.choice([0.25, 0.375, 0.5]))
        max_len = int(rng.integers(2, 4))

        got = {
            rule.terms: (rule.support, rule.confidence)
            for rule in mine_action_rules(table, min_support, min_confidence, max_len)
        }
        want = brute_force_action_rules(table, min_support, min_confidence, max_len)
        if set(got) != set(want):
            failures.append(f"table {table_no}: rule sets differ")
            continue
        for terms, (support, confidence) in want.items():
            if abs(got[terms][0] - float(support)) > 1e-12:
                failures.append(f"table {table_no}: support mismatch on {terms}")
            if abs(got[terms][1] - float(confidence)) > 1e-12:
                failures.append(f"table {table_no}: confidence mismatch on {terms}")
        agreements += len(want)
    if agreements == 0:
        failures.append("no rules produced across 200 tables")

    line = format_rule(FIG3_RULE)
    if line != FIG3_LINE:
        failures.append(f"reference rule renders as {line!r}")
    path = tmp_path / "rules.txt"
    save_rules([FIG3_RULE], path)
    first = path.read_bytes()
    loaded = load_rules(path)
    save_rules(loaded, path)
    if loaded != [FIG3_RULE] or path.read_bytes() != first:
        failures.append("rules file round trip is not byte-exact")

    check(
        6,
        failures,
        f"miner equals brute-force pairing on 200 random tables ({agreements} rules "
        "compared); reference rule format round trips byte-exactly",
    )


def test_criterion_7_cost_model():
    rng = np.random.default_rng(707)
    failures = []
    for _ in range(1000):
        n = int(rng.integers(0, 1_000_001))
        u = float(rng.uniform(-1.0, 1.0))
        v = float(rng.uniform(0.0, 100.0))
        c = float(rng.uniform(0.0, 10.0))
        got = net_value(n, u, CostModel(outcome_value=v, impression_cost=c))
        if got != n * (u * v - c):
            failures.append(f"net_value({n}, {u}, v={v}, c={c}) = {got!r}")

    table, tree = _planted_tree()
    segments = extract_segments(tree, min_uplift=-1.0)
    if len(segments) != 2:
        failures.append(f"expected both planted leaves as segments, got {len(segments)}")
    else:
        recommendations = rank(
            [(TREAT_0_TO_1, segments)],
            default_model=CostModel(outcome_value=1.0, impression_cost=0.0),
        )

        def cell(segment) -> int:
            attr, op, value = segment.conditions[0]
            return int(value) if op == "==" else 1 - int(value)

        got_order = [cell(r.segment) for r in recommendations]
        want_order = sorted((0, 1), key=lambda x: -true_cate(PLANTED, x))
        if got_order != want_order:
            failures.append(f"ranking order {got_order} vs ground truth {want_order}")

    check(
        7,
        failures,
        "net value exact on 1000 random inputs; planted ranking follows "
        "ground-truth effect order at v=1, c=0",
    )


BPIC_SCHEMA = [
    AttributeSchema("LoanGoal", CATEGORICAL),
    AttributeSchema("ApplicationType", CATEGORICAL),
    AttributeSchema("RequestedAmount", NUMERIC),
    AttributeSchema("CreditScore", NUMERIC),
    AttributeSchema("FirstWithdrawalAmount", NUMERIC, controllable=True),
    AttributeSchema("MonthlyCost", NUMERIC, controllable=True),
    AttributeSchema("NumberOfTerms", NUMERIC, controllable=True),
    AttributeSchema("OfferedAmount", NUMERIC, controllable=True),
    AttributeSchema("Selected", CATEGORICAL),
]

BPIC_BINS = {
    "RequestedAmount": 4,
    "CreditScore": 4,
    "FirstWithdrawalAmount": 4,
    "MonthlyCost": 4,
    "NumberOfTerms": 4,
    "OfferedAmount": 4,
}


def test_criterion_8_bpic2017_smoke():
    path = os.environ.get("BPIC2017_PATH")
    url = os.environ.get("BPIC2017_URL")
    if not path and not url:
        print(
            "[criterion 8] SKIP: BPIC 2017 log not available "
            "(set BPIC2017_PATH or BPIC2017_URL)"
        )
        pytest.skip("BPIC 2017 log not available; set BPIC2017_PATH or BPIC2017_URL")

    start = time.monotonic()
    if not path:
        cache = Path("/tmp/bpic2017_event_log.xes.gz")
        if not cache.exists():
            urllib.request.urlretrieve(url, cache)
        path = str(cache)

    failures = []
    event_log = parse_xes(path)
    if len(event_log) != 31_509:
        failures.append(f"{len(event_log)} cases, expected 31509")
    if event_log.n_events != 1_202_267:
        failures.append(f"{event_log.n_events} events, expected 1202267")

    table = encode_cases(event_log, BPIC_SCHEMA, "Selected")
    table = discretize(table, BPIC_BINS)
    rules = mine_action_rules(table, 0.03, 0.55, 4)
    if len(rules) < 5:
        failures.append(f"only {len(rules)} rules, expected at least 5")
    for rule in rules:
        support, confidence = measure(rule, table)
        if support < 0.03 - 1e-12 or confidence < 0.55 - 1e-12:
            failures.append(
                f"rule re-measures below thresholds: {support!r}, {confidence!r}"
            )

    treatments = extract_treatments(rules)
    params = TreeParams()
    n_segments = 0
    n_skipped = 0
    for treatment in treatments:
        try:
            assignment = assign_groups(table, treatment)
        except PositivityError:
            n_skipped += 1
            continue
        tree = build_tree(table, assignment, params)
        for segment in extract_segments(tree, 0.0):
            n_segments += 1
            if segment.n_treat < 1 or segment.n_ctrl < 1:
                failures.append(f"segment without both groups: {segment.predicate_text}")

    elapsed = time.monotonic() - start
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s, budget 900s")
    check(
        8,
        failures,
        f"BPIC 2017: {len(rules)} rules, {len(treatments)} treatments "
        f"({n_skipped} skipped), {n_segments} segments in {elapsed:.0f}s (budget 900s)",
    )
