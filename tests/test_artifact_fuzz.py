"""Fuzzing the readers of the text artifacts: treatments.txt and rules.txt.

Lines are random text built from each format's delimiters and from mutated
valid lines; files are random bytes, valid UTF-8 or not. Whatever a reader
makes of them, the only exceptions allowed out are UpliftMineError
subclasses, which the CLI maps to its documented exit codes.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from upliftmine.actionrules import load_rules, load_treatments, parse_rule, parse_treatment_key
from upliftmine.errors import UpliftMineError

TREATMENT_LINE = "F:a->b&org\\:resource:User_1->User_2"
RULE_LINE = "[(S: x) ∧ (F: a → b)] ⟹ [Y: 0 → 1], with support 0.375 and confidence 1.0"

_any_char = st.characters(blacklist_categories=("Cs",))


def lines(valid: str, pieces: list[str]):
    """Random joins of the format's pieces and any characters, and the valid
    line with a slice replaced by such a join."""
    fragment = st.lists(st.sampled_from(pieces) | _any_char, max_size=12).map("".join)

    @st.composite
    def mutated(draw):
        start = draw(st.integers(0, len(valid)))
        stop = draw(st.integers(start, len(valid)))
        return valid[:start] + draw(fragment) + valid[stop:]

    return fragment | mutated()


TREATMENT_PIECES = [":", "->", "-", ">", "&", "\\", "\\:", "\\n", "\\r", "\n", "\r", "a", "b"]
RULE_PIECES = [
    "[", "]", "(", ")", ": ", ":", " ∧ ", " ⟹ ", " → ", "0 → 1", ", with support ",
    " and confidence ", "0.5", "nan", "1e999", "-", "x", "Y", " ", "\n", "\r",
    "\\", "\\\\", "\\→", "\\∧", "\\⟹", "\\: ", "\\n",
]


def _only_upliftmine_errors(read, value):
    try:
        read(value)
    except UpliftMineError:
        pass


@settings(max_examples=200, deadline=None)
@example("F:a->a")
@example("F:a->b&F:b->c")
@given(lines(TREATMENT_LINE, TREATMENT_PIECES))
def test_parse_treatment_key_raises_only_upliftmine_errors(line):
    _only_upliftmine_errors(parse_treatment_key, line)


@settings(max_examples=200, deadline=None)
@example("[(F: a)] ⟹ [Y: 0 → 1], with support 0.5 and confidence 1.0")
@example("[(F: a → b)] ⟹ [Y: 0 → 1], with support x and confidence 1.0")
@example("[F: a → b] ⟹ [Y: 0 → 1], with support 0.5 and confidence 1.0")
@given(lines(RULE_LINE, RULE_PIECES))
def test_parse_rule_raises_only_upliftmine_errors(line):
    _only_upliftmine_errors(parse_rule, line)


_files = st.binary(max_size=80) | lines(TREATMENT_LINE, TREATMENT_PIECES).map(str.encode)


@settings(max_examples=100, deadline=None)
@example(b"F:a->b\n\xff\n")
@given(_files)
def test_load_treatments_raises_only_upliftmine_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("treatments") / "treatments.txt"
    path.write_bytes(data)
    _only_upliftmine_errors(load_treatments, path)


@settings(max_examples=100, deadline=None)
@example(RULE_LINE.encode() + b"\n\xfe")
@given(st.binary(max_size=80) | lines(RULE_LINE, RULE_PIECES).map(str.encode))
def test_load_rules_raises_only_upliftmine_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("rules") / "rules.txt"
    path.write_bytes(data)
    _only_upliftmine_errors(load_rules, path)
