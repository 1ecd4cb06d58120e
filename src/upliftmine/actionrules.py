"""Action-rule mining over a discretized case table.

A classification rule is a conjunction of attribute=label conditions
predicting one outcome class. An action rule pairs a class-0 rule with a
class-1 rule that agree on every uncontrollable condition and differ on at
least one controllable one: the shared/unchanged conditions become stable
terms, the differing controllable conditions become flexible terms
(attr: from -> to), and the pair's measures combine as
support = min(sup0, sup1), confidence = conf0 * conf1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .casetable import CaseTable
from .errors import ConfigError, SchemaError, read_text


@dataclass(frozen=True, order=True)
class AtomicActionTerm:
    """One attribute condition: stable when from_value == to_value."""

    attribute: str
    from_value: str
    to_value: str

    @property
    def is_stable(self) -> bool:
        return self.from_value == self.to_value


@dataclass(frozen=True)
class ClassificationRule:
    """condition is a tuple of (attribute, label) pairs sorted by attribute."""

    condition: tuple[tuple[str, str], ...]
    target_class: int
    support: float
    confidence: float


@dataclass(frozen=True)
class ActionRule:
    stable: tuple[AtomicActionTerm, ...]
    flexible: tuple[AtomicActionTerm, ...]
    outcome: str
    support: float
    confidence: float

    def __post_init__(self):
        if not self.flexible:
            raise ValueError("action rule needs at least one flexible term")
        for term in self.stable:
            if not term.is_stable:
                raise ValueError(f"stable term changes value: {term}")
        for term in self.flexible:
            if term.is_stable:
                raise ValueError(f"flexible term does not change value: {term}")

    @property
    def terms(self) -> tuple[AtomicActionTerm, ...]:
        return tuple(sorted(self.stable + self.flexible))


@dataclass(frozen=True)
class Treatment:
    """The flexible part of one or more action rules: the value changes."""

    changes: tuple[AtomicActionTerm, ...]

    def __post_init__(self):
        if not self.changes:
            raise ValueError("treatment must contain at least one change")
        attrs = [t.attribute for t in self.changes]
        if len(set(attrs)) != len(attrs):
            raise ValueError("treatment attributes must be pairwise distinct")
        for term in self.changes:
            if term.is_stable:
                raise ValueError(f"treatment change must alter the value: {term}")
        object.__setattr__(self, "changes", tuple(sorted(self.changes)))

    @property
    def key(self) -> str:
        """The treatment's line in treatments.txt: attribute:from->to terms
        joined by "&"; parse_treatment_key reads it back."""
        return "&".join(
            "{}:{}->{}".format(
                *(_escape(text, _KEY_SPECIAL) for text in (t.attribute, t.from_value, t.to_value))
            )
            for t in self.changes
        )


def _check_discretized(table: CaseTable) -> None:
    if len(table) == 0:
        raise SchemaError("empty case table")
    for name in table.attribute_names:
        table.coded(name)  # raises for a numeric attribute without bins


def _item_masks(table: CaseTable) -> list[tuple[tuple[str, str], np.ndarray]]:
    """Every (attribute, label) item with its row mask, attributes ascending
    and labels ascending within each."""
    items = []
    for name in sorted(table.attribute_names):
        column = table.coded(name)
        items += [((name, label), column.codes == code) for code, label in enumerate(column.values)]
    return items


def mine_classification_rules(
    table: CaseTable,
    min_support: float,
    min_confidence: float,
    max_antecedent_len: int = 4,
) -> tuple[list[ClassificationRule], list[ClassificationRule]]:
    """(class-0 rules, class-1 rules): every condition set (up to the length
    cap) meeting both minima for that class, from one levelwise walk.

    support = P(condition and class), confidence = P(class | condition).
    Enumeration is exhaustive; apriori pruning only skips supersets that can
    reach min_support for neither class.
    """
    _check_discretized(table)
    if not (0.0 < min_support <= 1.0) or not (0.0 < min_confidence <= 1.0):
        raise ConfigError("min_support and min_confidence must be in (0, 1]")

    n = len(table)
    positive = table.outcome == 1
    rules: tuple[list[ClassificationRule], ...] = ([], [])

    def emit(condition: tuple[tuple[str, str], ...], cond_mask: np.ndarray) -> bool:
        """Record the condition's rules; True if it is frequent for either class."""
        total = int(cond_mask.sum())
        positives = int((cond_mask & positive).sum())
        joints = (total - positives, positives)
        for target, joint in enumerate(joints):
            if joint / n >= min_support and joint / total >= min_confidence:
                rules[target].append(
                    ClassificationRule(condition, target, joint / n, joint / total)
                )
        return max(joints) / n >= min_support

    emit((), np.ones(n, dtype=bool))

    # Levelwise growth; an itemset survives if P(cond and class) >= min_support
    # for either class. Every subset of a set frequent for a class is frequent
    # for that class too, so the shared frontier loses no rule of either.
    frontier: list[tuple[tuple[tuple[str, str], ...], np.ndarray]] = []
    for item, mask in _item_masks(table):
        if emit((item,), mask):
            frontier.append(((item,), mask))

    length = 1
    while frontier and length < max_antecedent_len:
        survivors = {cond for cond, _ in frontier}
        next_frontier = []
        for i, (cond_a, mask_a) in enumerate(frontier):
            for cond_b, mask_b in frontier[i + 1:]:
                if cond_a[:-1] != cond_b[:-1]:
                    continue
                last_a, last_b = cond_a[-1], cond_b[-1]
                if last_a[0] == last_b[0]:
                    continue
                # Level 1 is sorted and each level appends in (i, j) order, so last_a < last_b.
                merged = cond_a + (last_b,)
                if any(
                    merged[:k] + merged[k + 1:] not in survivors
                    for k in range(len(merged) - 1)
                ):
                    continue
                mask = mask_a & mask_b
                if emit(merged, mask):
                    next_frontier.append((merged, mask))
        frontier = next_frontier
        length += 1

    for class_rules in rules:
        class_rules.sort(key=lambda r: (len(r.condition), r.condition))
    return rules


def mine_action_rules(
    table: CaseTable,
    min_support: float,
    min_confidence: float,
    max_antecedent_len: int = 4,
) -> list[ActionRule]:
    """Pair class-0 and class-1 rules into action rules.

    Pairing requires identical condition attribute sets, equal values on all
    uncontrollable attributes, and a differing value on at least one
    controllable attribute. The combined rule must itself meet the minima.
    """
    _check_discretized(table)
    controllable = {a.name for a in table.schema if a.controllable}
    if not controllable:
        return []

    rules0, rules1 = mine_classification_rules(
        table, min_support, min_confidence, max_antecedent_len
    )

    def pairing_key(rule: ClassificationRule):
        return tuple(
            (attr, None if attr in controllable else value)
            for attr, value in rule.condition
        )

    by_key: dict[tuple, list[ClassificationRule]] = {}
    for rule in rules1:
        by_key.setdefault(pairing_key(rule), []).append(rule)

    # A pair's terms determine both of its rules, so no two pairs collide.
    out: list[ActionRule] = []
    for r0 in rules0:
        for r1 in by_key.get(pairing_key(r0), ()):
            terms = [
                AtomicActionTerm(attr, value0, value1)
                for (attr, value0), (_, value1) in zip(r0.condition, r1.condition)
            ]
            flexible = tuple(t for t in terms if not t.is_stable)
            support = min(r0.support, r1.support)
            confidence = r0.confidence * r1.confidence
            if not flexible or support < min_support or confidence < min_confidence:
                continue
            stable = tuple(t for t in terms if t.is_stable)
            out.append(ActionRule(stable, flexible, table.outcome_name, support, confidence))

    out.sort(key=lambda r: (-r.support, -r.confidence, r.terms))
    return out


def extract_treatments(rules: Iterable[ActionRule]) -> list[Treatment]:
    """Deduplicated flexible-term sets, ordered by descending best support."""
    best: dict[tuple[AtomicActionTerm, ...], float] = {}
    for rule in rules:
        changes = tuple(sorted(rule.flexible))
        prev = best.get(changes)
        if prev is None or rule.support > prev:
            best[changes] = rule.support
    ordered = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return [Treatment(changes) for changes, _ in ordered]


def measure(rule: ActionRule, table: CaseTable) -> tuple[float, float]:
    """Recompute (support, confidence) of an action rule from scratch."""
    n = len(table)
    if n == 0:
        raise SchemaError("empty case table")
    outcomes = table.outcome
    cond0 = np.ones(n, dtype=bool)
    cond1 = np.ones(n, dtype=bool)
    for term in rule.terms:
        cond0 &= table.equals(term.attribute, term.from_value)
        cond1 &= table.equals(term.attribute, term.to_value)

    joint0 = int((cond0 & (outcomes == 0)).sum())
    joint1 = int((cond1 & (outcomes == 1)).sum())
    n0, n1 = int(cond0.sum()), int(cond1.sum())
    sup0, sup1 = joint0 / n, joint1 / n
    conf0 = joint0 / n0 if n0 else 0.0
    conf1 = joint1 / n1 if n1 else 0.0
    return min(sup0, sup1), conf0 * conf1


# ---------------------------------------------------------------------------
# Text forms: rules.txt and treatments.txt
# ---------------------------------------------------------------------------
# Both files write a name or label with a backslash before "\" and before
# each delimiter of its field, and a line break as \n or \r, so any text
# reads back unchanged; text without those characters keeps its bytes.

_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_LINE_BREAKS = {"\n": "n", "\r": "r"}
_UNESCAPES = {"n": "\n", "r": "\r"}


def _escape(text: str, special: re.Pattern) -> str:
    r"""text with a backslash before each match of special, which matches
    "\" and line breaks too; a line break is written \n or \r."""
    return special.sub(lambda m: "\\" + _LINE_BREAKS.get(m[0], m[0]), text)


def _unescape(text: str) -> str:
    return _ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[1]), text)


# rules.txt holds one rule per line:
#   [(A: v) ∧ (B: x → y)] ⟹ [Outcome: 0 → 1], with support 0.057 and confidence 0.764
# Stable terms print as (attr: value), flexible ones as (attr: from → to);
# stable terms come first, each group sorted by attribute. Every field
# escapes "→", "∧" and "⟹"; attribute and outcome names also escape ": ".
_LABEL_SPECIAL = re.compile(r"[\\\n\r→∧⟹]")
_NAME_SPECIAL = re.compile(r"[\\\n\r→∧⟹]|: ")
_LABEL = r"(?:\\.|[^\\\n\r→∧⟹])*"
_NAME = r"(?:\\.|[^\\\n\r→∧⟹:]|:(?! ))*"
_TERM = re.compile(rf"\(({_NAME}): ({_LABEL})(?: → ({_LABEL}))?\)", re.DOTALL)
_LINE = re.compile(
    rf"\[(?P<antecedent>(?:{_TERM.pattern}(?: ∧ {_TERM.pattern})*)?)\] "
    rf"⟹ \[(?P<outcome>{_NAME}): 0 → 1\], "
    r"with support (?P<support>\S+) and confidence (?P<confidence>\S+)",
    re.DOTALL,
)


def format_term(term: AtomicActionTerm) -> str:
    attr = _escape(term.attribute, _NAME_SPECIAL)
    from_value = _escape(term.from_value, _LABEL_SPECIAL)
    if term.is_stable:
        return f"({attr}: {from_value})"
    return f"({attr}: {from_value} → {_escape(term.to_value, _LABEL_SPECIAL)})"


def format_rule(rule: ActionRule) -> str:
    antecedent = " ∧ ".join(map(format_term, sorted(rule.stable) + sorted(rule.flexible)))
    outcome = _escape(rule.outcome, _NAME_SPECIAL)
    return (
        f"[{antecedent}] ⟹ [{outcome}: 0 → 1], "
        f"with support {rule.support!r} and confidence {rule.confidence!r}"
    )


def parse_rule(line: str) -> ActionRule:
    """Inverse of format_rule; SchemaError for a line it cannot have written."""
    m = _LINE.fullmatch(line.strip())
    if m is None:
        raise SchemaError(f"unparseable rule line: {line!r}")
    stable, flexible = [], []
    for term in _TERM.finditer(m["antecedent"]):
        attr, from_value = _unescape(term[1]), _unescape(term[2])
        if term[3] is None:
            stable.append(AtomicActionTerm(attr, from_value, from_value))
        else:
            flexible.append(AtomicActionTerm(attr, from_value, _unescape(term[3])))
    try:
        return ActionRule(
            stable=tuple(sorted(stable)),
            flexible=tuple(sorted(flexible)),
            outcome=_unescape(m["outcome"]),
            support=float(m["support"]),
            confidence=float(m["confidence"]),
        )
    except ValueError as exc:
        raise SchemaError(f"unparseable rule line {line!r}: {exc}") from None


def save_rules(rules: Iterable[ActionRule], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(format_rule(rule) + "\n" for rule in rules)


def _parse_lines(path, what: str, parse) -> list:
    """parse of each non-blank line of a text file; an error keeps its class
    and names the file and the line."""
    parsed = []
    for number, line in enumerate(read_text(path, what).split("\n"), 1):
        if line.strip():
            try:
                parsed.append(parse(line))
            except (ConfigError, SchemaError) as exc:
                raise type(exc)(f"{what} {path}, line {number}: {exc}") from None
    return parsed


def load_rules(path) -> list[ActionRule]:
    return _parse_lines(path, "rules file", parse_rule)


# treatments.txt holds one Treatment.key per line; each field escapes ":",
# "&" and "->". A label may be empty (an XES value=""), a name may not.
_KEY_SPECIAL = re.compile(r"[\\:&\n\r]|->")
_KEY_CHAR = r"(?:\\.|[^\\:&-]|-(?!>))"
_KEY_TERM = re.compile(f"({_KEY_CHAR}+):({_KEY_CHAR}*)->({_KEY_CHAR}*)", re.DOTALL)
_KEY = re.compile(f"{_KEY_TERM.pattern}(?:&{_KEY_TERM.pattern})*", re.DOTALL)


def parse_treatment_key(key: str) -> Treatment:
    """Inverse of Treatment.key: only unescaped ':', '->' and '&' delimit,
    so any non-empty attribute name and any label read back unchanged."""
    if not _KEY.fullmatch(key):
        raise ConfigError(f"malformed treatment {key!r}; expected attribute:from->to")
    changes = [
        AtomicActionTerm(*map(_unescape, m.groups())) for m in _KEY_TERM.finditer(key)
    ]
    try:
        return Treatment(tuple(changes))
    except ValueError as exc:
        raise ConfigError(f"bad treatment {key!r}: {exc}") from None


def save_treatments(treatments: Iterable[Treatment], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(treatment.key + "\n" for treatment in treatments)


def load_treatments(path) -> list[Treatment]:
    return _parse_lines(path, "treatments file", parse_treatment_key)
