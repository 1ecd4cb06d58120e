"""Synthetic causal scenarios with known ground truth.

Each generated case draws a binary confounder and a binary subgroup flag,
assigns treatment with a probability that may depend on the confounder
(that dependence is what makes a scenario confounded), and realizes the
outcome from the potential-outcome table of the arm actually received.
Ground-truth subgroup effects are available in closed form, so estimators
can be judged against exact answers.

Randomness comes from numpy's default generator (PCG64) seeded explicitly;
one seed always yields the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np
import yaml

from .casetable import AttributeSchema
from .errors import ConfigError, PositivityError, read_text, require
from .logparse import CaseLog, Coded

CONFOUNDER = "confounder"
SUBGROUP = "subgroup"
TREATMENT_ATTR = "treatment"
OUTCOME = "outcome"
ACTIVITY = "observed"

# The stamp of case 0, UTC.
_T0 = np.datetime64("2020-01-01T00:00:00", "s")

ProbTable = tuple[tuple[float, float], tuple[float, float]]


def _check_prob(value: float, name: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class SyntheticScenario:
    """Parameters of one data-generating process.

    p_treat_given_confounder[l] is the treatment probability when the
    confounder equals l; p_outcome_treated[l][x] and p_outcome_control[l][x]
    are the potential-outcome probabilities for confounder l and subgroup x.
    """

    n_cases: int
    seed: int
    p_confounder: float
    p_subgroup: float
    p_treat_given_confounder: tuple[float, float]
    p_outcome_treated: ProbTable
    p_outcome_control: ProbTable

    def __post_init__(self):
        if self.n_cases <= 0:
            raise ConfigError("n_cases must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        _check_prob(self.p_confounder, "p_confounder")
        _check_prob(self.p_subgroup, "p_subgroup")
        for l, p in enumerate(self.p_treat_given_confounder):
            _check_prob(p, f"p_treat_given_confounder[{l}]")
        for name, tbl in (
            ("p_outcome_treated", self.p_outcome_treated),
            ("p_outcome_control", self.p_outcome_control),
        ):
            for l in (0, 1):
                for x in (0, 1):
                    _check_prob(tbl[l][x], f"{name}[{l}][{x}]")

    def check_positivity(self) -> None:
        for l, p in enumerate(self.p_treat_given_confounder):
            if not 0.0 < p < 1.0:
                raise PositivityError(
                    f"p_treat_given_confounder[{l}] = {p}: both treatment arms "
                    "must be possible in every confounder stratum"
                )

    def schema(self) -> list[AttributeSchema]:
        return [
            AttributeSchema(CONFOUNDER, "categorical", controllable=False),
            AttributeSchema(SUBGROUP, "categorical", controllable=False),
            AttributeSchema(TREATMENT_ATTR, "categorical", controllable=True),
            AttributeSchema(OUTCOME, "categorical", controllable=False),
        ]


def _pair(raw, name: str) -> tuple[float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{name} must be a pair [value at 0, value at 1]")
    for i, value in enumerate(raw):
        require(value, float, f"{name}[{i}]")
    return (float(raw[0]), float(raw[1]))


def _table(raw, name: str) -> ProbTable:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ConfigError(f"{name} must be a 2x2 table, one row per confounder value")
    return (_pair(raw[0], f"{name}[0]"), _pair(raw[1], f"{name}[1]"))


def scenario_from_dict(raw: dict) -> SyntheticScenario:
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a mapping")
    known = {f.name for f in fields(SyntheticScenario)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    missing = sorted(known - set(raw))
    if missing:
        raise ConfigError(f"scenario keys required: {', '.join(missing)}")
    for key in ("n_cases", "seed"):
        require(raw[key], int, key)
    for key in ("p_confounder", "p_subgroup"):
        require(raw[key], float, key)
    return SyntheticScenario(
        n_cases=raw["n_cases"],
        seed=raw["seed"],
        p_confounder=float(raw["p_confounder"]),
        p_subgroup=float(raw["p_subgroup"]),
        p_treat_given_confounder=_pair(
            raw["p_treat_given_confounder"], "p_treat_given_confounder"
        ),
        p_outcome_treated=_table(raw["p_outcome_treated"], "p_outcome_treated"),
        p_outcome_control=_table(raw["p_outcome_control"], "p_outcome_control"),
    )


def load_scenario(path) -> SyntheticScenario:
    try:
        raw = yaml.safe_load(read_text(path, "scenario"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse scenario {path}: {exc}") from None
    return scenario_from_dict(raw)


def true_cate(scenario: SyntheticScenario, cell: int) -> float:
    """Closed-form subgroup effect: the confounder-weighted mean difference
    of the potential-outcome probabilities for subgroup value `cell`."""
    if cell not in (0, 1):
        raise ConfigError(f"unknown subgroup cell: {cell!r}")
    weights = (1.0 - scenario.p_confounder, scenario.p_confounder)
    return sum(
        w * (scenario.p_outcome_treated[l][cell] - scenario.p_outcome_control[l][cell])
        for l, w in enumerate(weights)
    )


def true_cell_effect(scenario: SyntheticScenario, confounder: int, cell: int) -> float:
    """Exact effect within one (confounder, subgroup) stratum."""
    return (
        scenario.p_outcome_treated[confounder][cell]
        - scenario.p_outcome_control[confounder][cell]
    )


def naive_pooled_uplift(scenario: SyntheticScenario) -> float:
    """Closed-form E[Y | treated] - E[Y | control] ignoring the confounder:
    what a naive comparison converges to; differs from the true effect when
    assignment depends on the confounder."""
    w_l = (1.0 - scenario.p_confounder, scenario.p_confounder)
    w_x = (1.0 - scenario.p_subgroup, scenario.p_subgroup)
    num_t = den_t = num_c = den_c = 0.0
    for l in (0, 1):
        for x in (0, 1):
            cell_w = w_l[l] * w_x[x]
            p_a = scenario.p_treat_given_confounder[l]
            num_t += cell_w * p_a * scenario.p_outcome_treated[l][x]
            den_t += cell_w * p_a
            num_c += cell_w * (1.0 - p_a) * scenario.p_outcome_control[l][x]
            den_c += cell_w * (1.0 - p_a)
    return num_t / den_t - num_c / den_c


def generate(scenario: SyntheticScenario) -> tuple[CaseLog, dict[int, float]]:
    """Sample a minimal log, one "observed" event per case, plus the exact
    subgroup-effect table {0: effect, 1: effect}."""
    scenario.check_positivity()
    rng = np.random.default_rng(scenario.seed)
    n = scenario.n_cases

    confounder = rng.random(n) < scenario.p_confounder
    subgroup = rng.random(n) < scenario.p_subgroup
    p_assign = np.where(
        confounder,
        scenario.p_treat_given_confounder[1],
        scenario.p_treat_given_confounder[0],
    )
    treated = rng.random(n) < p_assign

    treated_tbl = np.array(scenario.p_outcome_treated)
    control_tbl = np.array(scenario.p_outcome_control)
    l_idx = confounder.astype(int)
    x_idx = subgroup.astype(int)
    y_treated = rng.random(n) < treated_tbl[l_idx, x_idx]
    y_control = rng.random(n) < control_tbl[l_idx, x_idx]
    outcome = np.where(treated, y_treated, y_control)

    flags = {CONFOUNDER: confounder, SUBGROUP: subgroup, TREATMENT_ATTR: treated, OUTCOME: outcome}
    case_log = CaseLog(
        case_ids=[f"case_{i:06d}" for i in range(n)],
        counts={ACTIVITY: Coded(np.ones(n, np.int32), (0, 1))},
        last={name: Coded(values.astype(np.int32), ("0", "1")) for name, values in flags.items()},
        n_events=n,
    )
    effects = {cell: true_cate(scenario, cell) for cell in (0, 1)}
    return case_log, effects


def write_log(case_log: CaseLog, path) -> None:
    """Write a generated log as CSV: case i is one ACTIVITY event at i
    seconds past 2020-01-01 UTC, with the attributes in name order. No
    field of a generated log (the attribute names, the case ids, ACTIVITY,
    the stamps and the 0/1 flags) needs quoting, so the rows are joined as
    they are, with csv.writer's line terminator."""
    names = sorted(case_log.last)
    seconds = np.datetime_as_string(_T0 + np.arange(len(case_log)), unit="s")
    stamps = (text + "+00:00" for text in seconds.tolist())
    columns = (case_log.case_ids, repeat(ACTIVITY), stamps, *map(case_log.last.get, names))
    rows = chain([("case_id", "activity", "timestamp", *names)], zip(*columns))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(map(",".join, rows)) + "\r\n")
