"""Fuzzing the config and scenario loaders, and the CLI commands that use them.

Each example takes a valid document (the README's example pipeline config,
or the scenario the CI workflow simulates), mutates it (a key dropped, a
value replaced by one of another type or a non-finite number, a value nested
inside a list or a map), and loads it. Only UpliftMineError subclasses may
escape; what loads must hold only finite numbers and typed fields; and the
CLI must answer every example with an exit code, never with its catch-all
"unexpected failure".
"""

import copy
import dataclasses
import logging
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from upliftmine import cli
from upliftmine.config import config_to_dict, load_config
from upliftmine.errors import UpliftMineError
from upliftmine.pipeline import stage_simulate
from upliftmine.synthetic import load_scenario

README = Path(__file__).resolve().parents[1] / "README.md"

# The pipeline config under "Analyzing your own log".
README_CONFIG = next(
    yaml.safe_load(block)
    for block in re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    if "outcome:" in block
)

# The scenario of the CI step that runs simulate and run twice.
CI_SCENARIO = {
    "n_cases": 2000,
    "seed": 424242,
    "p_confounder": 0.5,
    "p_subgroup": 0.5,
    "p_treat_given_confounder": [0.5, 0.5],
    "p_outcome_treated": [[0.1, 0.8], [0.1, 0.8]],
    "p_outcome_control": [[0.1, 0.1], [0.1, 0.1]],
}

# A small log with the README config's columns, so that mutated configs
# that load also run every stage.
README_LOG = "case_id,activity,timestamp,Region,Discount,OrderValue,Converted\n" + "".join(
    f"c{i},order,2020-01-01T00:00:{i:02d}Z,{('north', 'south')[i % 2]},"
    f"{('none', '10pct')[i % 3 == 0]},{10 * (i % 7)},{int(i % 3 == 0 or i % 5 == 0)}\n"
    for i in range(40)
)

# Scenario size is not under test; generating a huge log only costs time.
MAX_SIMULATED_CASES = 500

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    NON_FINITE,
    st.text(max_size=8),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """The path of every value inside nested dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _with(doc, path, value=None, drop=False):
    """A deep copy of doc with the value at path replaced, or dropped."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = _at(doc, parents)
    if drop:
        del node[last]
    else:
        node[last] = value
    return doc


@st.composite
def mutated(draw, base):
    doc = base
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        how = draw(st.sampled_from(["drop", "retype", "non-finite", "nest"]))
        if how == "drop":
            doc = _with(doc, path, drop=True)
        elif how == "retype":
            doc = _with(doc, path, draw(VALUES))
        elif how == "non-finite":
            doc = _with(doc, path, draw(NON_FINITE))
        else:
            old = _at(doc, path)
            nested = [old] if draw(st.booleans()) else {draw(st.text(max_size=6)): old}
            doc = _with(doc, path, nested)
    return doc


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, float):
        yield node


class _Errors(logging.Handler):
    """Collects the messages the CLI logs at ERROR level."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _cli(argv) -> int:
    errors = _Errors()
    logger = logging.getLogger("upliftmine")
    logger.addHandler(errors)
    try:
        code = cli.main(argv)
    finally:
        logger.removeHandler(errors)
    caught = [m for m in errors.messages if m.startswith("unexpected failure")]
    assert not caught, caught
    return code


CONFIG_FAULTS = [
    _with(README_CONFIG, ("tree", "n_reg"), float("inf")),
    _with(README_CONFIG, ("cost", "outcome_value"), float("nan")),
    _with(README_CONFIG, ("cost", "impression_cost"), float("inf")),
    _with(README_CONFIG, ("min_uplift",), float("nan")),
    _with(README_CONFIG, ("csv",), {"timestamp_format": 5}),
    _with(README_CONFIG, ("csv",), {"case_id": [1]}),
    _with(README_CONFIG, ("attributes", 3, "controllable"), True),
]

SCENARIO_FAULTS = [
    _with(CI_SCENARIO, ("seed",), -1),
    _with(CI_SCENARIO, ("n_cases",), 10.7),
    _with(CI_SCENARIO, ("n_cases",), True),
    _with(CI_SCENARIO, ("seed",), 1.5),
]


def _examples(docs):
    def apply(test):
        for doc in reversed(docs):
            test = example(doc)(test)
        return test

    return apply


def _write(directory: Path, doc) -> Path:
    path = directory / "doc.yaml"
    path.write_text(yaml.safe_dump(doc, allow_unicode=True), encoding="utf-8")
    return path


@settings(max_examples=40, deadline=None)
@given(mutated(README_CONFIG))
@_examples(CONFIG_FAULTS)
def test_load_config_raises_only_upliftmine_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            config = load_config(_write(Path(tmp), raw))
        except UpliftMineError:
            return
    assert all(math.isfinite(x) for x in _numbers(config_to_dict(config)))
    csv = config.csv
    assert all(isinstance(v, str) for v in (csv.case_id, csv.activity, csv.timestamp))
    assert csv.timestamp_format is None or isinstance(csv.timestamp_format, str)
    assert csv.attributes is None or all(isinstance(a, str) for a in csv.attributes)


@settings(max_examples=20, deadline=None)
@given(mutated(README_CONFIG))
@_examples(CONFIG_FAULTS)
def test_cli_run_never_reaches_its_catch_all(raw):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "logs").mkdir()
        (tmp / "logs" / "my_log.csv").write_text(README_LOG, encoding="utf-8")
        path = _write(tmp, raw)
        assert _cli(["run", "--config", str(path), "--out", str(tmp / "out")]) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(mutated(CI_SCENARIO))
@_examples(SCENARIO_FAULTS)
def test_load_scenario_raises_only_upliftmine_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            scenario = load_scenario(_write(Path(tmp), raw))
        except UpliftMineError:
            return
    for key in ("n_cases", "seed"):
        assert type(raw[key]) is int and getattr(scenario, key) == raw[key]
    assert scenario.seed >= 0
    assert all(math.isfinite(x) for x in _numbers(dataclasses.asdict(scenario)))


def _small_simulate(scenario, out_dir):
    n_cases = min(scenario.n_cases, MAX_SIMULATED_CASES)
    return stage_simulate(dataclasses.replace(scenario, n_cases=n_cases), out_dir)


@settings(max_examples=20, deadline=None)
@given(mutated(CI_SCENARIO))
@_examples(SCENARIO_FAULTS)
def test_cli_simulate_never_reaches_its_catch_all(raw):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "stage_simulate", _small_simulate):
        path = _write(Path(tmp), raw)
        assert _cli(["simulate", "--config", str(path), "--out", str(Path(tmp) / "sim")]) in (0, 1, 2)
