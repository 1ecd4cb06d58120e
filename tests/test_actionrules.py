from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EIGHT_ROW_TABLE, make_table, tricky_text
from oracles import brute_force_action_rules, brute_force_classification_rules
from upliftmine.actionrules import (
    ActionRule,
    AtomicActionTerm,
    Treatment,
    extract_treatments,
    format_rule,
    load_rules,
    measure,
    mine_action_rules,
    mine_classification_rules,
    parse_rule,
    save_rules,
)
from upliftmine.errors import ConfigError, SchemaError


def test_degenerate_class_yields_empty_condition_rule():
    table = make_table(
        [("F", "categorical", True)], [({"F": "a"}, 1), ({"F": "b"}, 1)]
    )
    rules = mine_classification_rules(table, 0.5, 0.5)[1]
    empty = [r for r in rules if r.condition == ()]
    assert len(empty) == 1
    assert empty[0].support == 1.0
    assert empty[0].confidence == 1.0


def test_eight_row_table_condition_support_and_confidence():
    rules = mine_classification_rules(EIGHT_ROW_TABLE, 0.1, 0.9)[1]
    by_condition = {r.condition: r for r in rules}
    key = (("F", "b"), ("S", "x"))
    assert key in by_condition
    assert by_condition[key].support == pytest.approx(3 / 8)
    assert by_condition[key].confidence == 1.0


def test_high_support_threshold_prunes_nonempty_conditions():
    rules = mine_classification_rules(EIGHT_ROW_TABLE, 0.5, 0.1)[1]
    assert all(r.condition == () for r in rules)


def test_mine_classification_rules_rejects_bad_inputs():
    empty = make_table([("F", "categorical", True)], [])
    with pytest.raises(SchemaError):
        mine_classification_rules(empty, 0.1, 0.1)
    table = make_table([("F", "categorical", True)], [({"F": "a"}, 1)])
    with pytest.raises(ConfigError):
        mine_classification_rules(table, 0.0, 0.5)
    undiscretized = make_table([("x", "numeric", False)], [({"x": 1.0}, 1)])
    with pytest.raises(SchemaError, match="x"):
        mine_classification_rules(undiscretized, 0.1, 0.5)


def test_eight_row_action_rule():
    rules = mine_action_rules(EIGHT_ROW_TABLE, 0.3, 0.9)
    assert len(rules) == 1
    rule = rules[0]
    assert rule.stable == (AtomicActionTerm("S", "x", "x"),)
    assert rule.flexible == (AtomicActionTerm("F", "a", "b"),)
    assert rule.support == pytest.approx(0.375)
    assert rule.confidence == pytest.approx(1.0)


def test_no_controllable_attributes_gives_empty_result():
    table = make_table(
        [("S", "categorical", False)], [({"S": "x"}, 0), ({"S": "y"}, 1)]
    )
    assert mine_action_rules(table, 0.1, 0.1) == []


def test_emitted_rules_remeasure_above_minima():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(8, 40))
        rows = []
        for _ in range(n):
            rows.append(
                (
                    {
                        "u": str(rng.choice(["x", "y"])),
                        "c": str(rng.choice(["a", "b", "c"])),
                    },
                    int(rng.random() < 0.5),
                )
            )
        table = make_table(
            [("u", "categorical", False), ("c", "categorical", True)], rows
        )
        min_support, min_confidence = 0.1, 0.3
        for rule in mine_action_rules(table, min_support, min_confidence):
            support, confidence = measure(rule, table)
            assert support == pytest.approx(rule.support, abs=1e-12)
            assert confidence == pytest.approx(rule.confidence, abs=1e-12)
            assert support >= min_support - 1e-12
            assert confidence >= min_confidence - 1e-12
            for term in rule.stable:
                assert term.from_value == term.to_value
            for term in rule.flexible:
                assert term.from_value != term.to_value
                assert table.attribute(term.attribute).controllable


def test_mine_action_rules_matches_brute_force():
    rng = np.random.default_rng(20260401)
    agreements = 0
    for _ in range(60):
        n_attrs = int(rng.integers(2, 5))
        attrs = []
        for i in range(n_attrs):
            attrs.append((f"a{i}", "categorical", bool(rng.random() < 0.5)))
        if not any(c for _, _, c in attrs):
            attrs[0] = (attrs[0][0], attrs[0][1], True)
        n = int(rng.integers(4, 30))
        rows = []
        for _ in range(n):
            features = {
                name: str(rng.choice(["p", "q", "r"][: int(rng.integers(2, 4))]))
                for name, _, _ in attrs
            }
            rows.append((features, int(rng.random() < 0.5)))
        table = make_table(attrs, rows)
        # dyadic thresholds so float and Fraction boundary comparisons agree
        min_support = float(rng.choice([0.0625, 0.125, 0.25]))
        min_confidence = float(rng.choice([0.25, 0.375, 0.5]))
        max_len = int(rng.integers(2, 4))

        mined = mine_action_rules(table, min_support, min_confidence, max_len)
        got = {rule.terms: (rule.support, rule.confidence) for rule in mined}
        assert len(got) == len(mined), "two mined rules share their terms"
        want = brute_force_action_rules(table, min_support, min_confidence, max_len)
        assert set(got) == set(want)
        for terms, (support, confidence) in want.items():
            assert got[terms][0] == pytest.approx(float(support), abs=1e-12)
            assert got[terms][1] == pytest.approx(float(confidence), abs=1e-12)
        agreements += len(want)
    assert agreements > 0


def test_classification_rules_match_brute_force_with_pruning():
    # Both classes come from one walk whose frontier keeps an itemset while it
    # is frequent for either class; each class must still get exactly its rules.
    rng = np.random.default_rng(7)
    longest = 0
    for _ in range(60):
        n_attrs = int(rng.integers(2, 6))
        labels = {f"a{i}": ["p", "q", "r"][: int(rng.integers(2, 4))] for i in range(n_attrs)}
        n = int(rng.integers(3, 25))
        p_positive = float(rng.choice([0.2, 0.4, 0.6]))
        rows = [
            (
                {name: str(rng.choice(values)) for name, values in labels.items()},
                int(rng.random() < p_positive),
            )
            for _ in range(n)
        ]
        table = make_table(
            [(name, "categorical", False) for name in labels], rows
        )
        # dyadic thresholds so float and Fraction boundary comparisons agree
        min_support = float(rng.choice([0.0625, 0.125, 0.25, 0.5]))
        min_confidence = float(rng.choice([0.125, 0.25, 0.5, 0.75]))
        max_len = int(rng.integers(1, 5))
        mined = mine_classification_rules(table, min_support, min_confidence, max_len)
        for target, rules in enumerate(mined):
            got = {r.condition: (r.support, r.confidence) for r in rules}
            assert len(got) == len(rules)
            assert all(r.target_class == target for r in rules)
            want = brute_force_classification_rules(
                table, target, min_support, min_confidence, max_len
            )
            assert set(got) == set(want)
            for cond, (support, confidence) in want.items():
                assert got[cond][0] == pytest.approx(float(support), abs=1e-12)
                assert got[cond][1] == pytest.approx(float(confidence), abs=1e-12)
            longest = max([longest, *map(len, want)])
    assert longest >= 3


def test_measure_fractional_exactness():
    rule = ActionRule(
        stable=(AtomicActionTerm("S", "x", "x"),),
        flexible=(AtomicActionTerm("F", "a", "b"),),
        outcome="Y",
        support=0.375,
        confidence=1.0,
    )
    support, confidence = measure(rule, EIGHT_ROW_TABLE)
    assert support == Fraction(3, 8)
    assert confidence == 1.0


def test_measure_unknown_attribute_and_empty_table_errors():
    rule = ActionRule(
        stable=(),
        flexible=(AtomicActionTerm("Nope", "a", "b"),),
        outcome="Y",
        support=0.1,
        confidence=0.1,
    )
    with pytest.raises(SchemaError, match="Nope"):
        measure(rule, EIGHT_ROW_TABLE)
    empty = make_table([("F", "categorical", True)], [])
    with pytest.raises(SchemaError):
        measure(rule, empty)


def test_extract_treatments_empty_and_dedup():
    assert extract_treatments([]) == []
    base = dict(outcome="Y", support=0.2, confidence=0.8)
    change = (AtomicActionTerm("F", "a", "b"),)
    rule1 = ActionRule(stable=(AtomicActionTerm("S", "x", "x"),), flexible=change, **base)
    rule2 = ActionRule(stable=(AtomicActionTerm("S", "y", "y"),), flexible=change, **base)
    treatments = extract_treatments([rule1, rule2])
    assert len(treatments) == 1
    assert treatments[0].changes == change


def test_extract_treatments_ordered_by_best_support():
    low = ActionRule(
        stable=(),
        flexible=(AtomicActionTerm("F", "a", "b"),),
        outcome="Y",
        support=0.1,
        confidence=0.9,
    )
    high = ActionRule(
        stable=(),
        flexible=(AtomicActionTerm("G", "u", "v"),),
        outcome="Y",
        support=0.4,
        confidence=0.6,
    )
    treatments = extract_treatments([low, high])
    assert [t.key for t in treatments] == ["G:u->v", "F:a->b"]
    # Equal supports fall back to the terms' own order, not the rules' order.
    terms = [("G", "v", "u"), ("F", "a", "b"), ("G", "a", "b")]
    tied = [ActionRule((), (AtomicActionTerm(*term),), "Y", 0.4, 0.6) for term in terms]
    assert [t.key for t in extract_treatments([low, *tied])] == ["F:a->b", "G:a->b", "G:v->u"]


def test_treatment_validation():
    with pytest.raises(ValueError):
        Treatment(())
    with pytest.raises(ValueError):
        Treatment((AtomicActionTerm("F", "a", "a"),))
    with pytest.raises(ValueError):
        Treatment(
            (AtomicActionTerm("F", "a", "b"), AtomicActionTerm("F", "b", "c"))
        )


def test_format_rule_reference_shape():
    rule = ActionRule(
        stable=(AtomicActionTerm("CreditScore", "low", "low"),),
        flexible=(AtomicActionTerm("NoOfTerms", "[6-48]", "[97-120]"),),
        outcome="Selected",
        support=0.057,
        confidence=0.764,
    )
    assert format_rule(rule) == (
        "[(CreditScore: low) ∧ (NoOfTerms: [6-48] → [97-120])] "
        "⟹ [Selected: 0 → 1], with support 0.057 and confidence 0.764"
    )


def test_rule_file_round_trip_is_byte_exact(tmp_path):
    rules = mine_action_rules(EIGHT_ROW_TABLE, 0.1, 0.3)
    assert rules
    path = tmp_path / "rules.txt"
    save_rules(rules, path)
    first = path.read_bytes()
    reloaded = load_rules(path)
    assert reloaded == rules
    save_rules(reloaded, path)
    assert path.read_bytes() == first


def test_parse_rule_rejects_garbage():
    with pytest.raises(SchemaError, match="unparseable rule line"):
        parse_rule("not a rule")
    line = "[(A: x → x)] ⟹ [Y: 0 → 1], with support 0.5 and confidence 0.5"
    with pytest.raises(SchemaError, match="flexible term does not change value"):
        parse_rule(line)


_F_TO = AtomicActionTerm("F", "a", "b")


def test_format_rule_prints_plain_colons_as_is():
    rule = ActionRule(
        stable=(AtomicActionTerm("org:resource", "12:30", "12:30"),),
        flexible=(_F_TO,),
        outcome="Y",
        support=0.5,
        confidence=0.25,
    )
    assert format_rule(rule) == (
        "[(org:resource: 12:30) ∧ (F: a → b)] ⟹ [Y: 0 → 1], "
        "with support 0.5 and confidence 0.25"
    )


def test_format_rule_escapes_delimiters():
    rule = ActionRule(
        stable=(AtomicActionTerm("S", "line one\nline two", "line one\nline two"),),
        flexible=(AtomicActionTerm("F: G", "a → b", "c\\"),),
        outcome="Y ∧ Z",
        support=0.5,
        confidence=0.25,
    )
    line = format_rule(rule)
    assert line == (
        r"[(S: line one\nline two) ∧ (F\: G: a \→ b → c\\)] ⟹ [Y \∧ Z: 0 → 1], "
        "with support 0.5 and confidence 0.25"
    )
    assert parse_rule(line) == rule


# Plain names and labels, then ones built from the format's own tokens.
_plain = st.text(st.sampled_from("abXY019[]-<>=.,:()_"), min_size=1, max_size=6)


@st.composite
def action_rules(draw, text):
    pairs = draw(st.lists(st.tuples(text, text), max_size=3))
    stable = [AtomicActionTerm(a, v, v) for a, v in pairs]
    flexible = []
    for attribute in draw(st.lists(text, min_size=1, max_size=3)):
        from_value = draw(text)
        to_value = draw(text.filter(from_value.__ne__))
        flexible.append(AtomicActionTerm(attribute, from_value, to_value))
    return ActionRule(
        stable=tuple(sorted(stable)),
        flexible=tuple(sorted(flexible)),
        outcome=draw(text),
        support=draw(st.floats(allow_nan=False)),
        confidence=draw(st.floats(allow_nan=False)),
    )


@settings(max_examples=150, deadline=None)
@given(action_rules(_plain))
def test_format_rule_round_trips_through_parse_rule(rule):
    assert parse_rule(format_rule(rule)) == rule


@settings(max_examples=150, deadline=None)
@example(ActionRule((AtomicActionTerm("org:resource", "12:30", "12:30"),), (_F_TO,), "Y", 0.5, 0.5))
@example(ActionRule((), (AtomicActionTerm("F:", " x", "y\\"),), "Y: Z", 0.5, 0.5))
@example(ActionRule((), (AtomicActionTerm("F", "p →", "q"),), "Y", 0.5, 0.5))
@example(ActionRule((), (AtomicActionTerm("F", "p", "→ q"),), "Y", 0.5, 0.5))
@example(ActionRule((AtomicActionTerm("S", "∧ x", "∧ x"),), (_F_TO,), "Y", 0.5, 0.5))
@example(ActionRule((AtomicActionTerm("S", "x\ny", "x\ny"),), (_F_TO,), "Y", 0.5, 0.5))
@example(ActionRule((AtomicActionTerm("S", "", ""),), (_F_TO,), "Y", 0.5, 0.5))
@given(action_rules(tricky_text))
def test_any_rule_parses_back(rule):
    assert parse_rule(format_rule(rule)) == rule


def test_mining_is_deterministic():
    first = mine_action_rules(EIGHT_ROW_TABLE, 0.05, 0.2)
    second = mine_action_rules(EIGHT_ROW_TABLE, 0.05, 0.2)
    assert first == second
