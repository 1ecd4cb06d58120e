import csv
from datetime import datetime, timedelta, timezone

import pytest

from upliftmine.casetable import encode_cases
from upliftmine.errors import ConfigError, PositivityError
from upliftmine.logparse import CaseLog, parse_csv
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
    write_log,
)


def scenario(**overrides) -> SyntheticScenario:
    base = dict(
        n_cases=1000,
        seed=0,
        p_confounder=0.5,
        p_subgroup=0.5,
        p_treat_given_confounder=(0.5, 0.5),
        p_outcome_treated=((0.3, 0.3), (0.3, 0.3)),
        p_outcome_control=((0.3, 0.3), (0.3, 0.3)),
    )
    base.update(overrides)
    return SyntheticScenario(**base)


def test_null_scenario_has_zero_effect_everywhere():
    s = scenario()
    assert true_cate(s, 0) == 0.0
    assert true_cate(s, 1) == 0.0
    assert naive_pooled_uplift(s) == pytest.approx(0.0)


def test_true_cate_echoes_the_planted_effect():
    s = scenario(
        p_outcome_treated=((0.3, 0.6), (0.3, 0.6)),
        p_outcome_control=((0.3, 0.3), (0.3, 0.3)),
    )
    assert true_cate(s, 0) == pytest.approx(0.0)
    assert true_cate(s, 1) == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        true_cate(s, 2)


def test_confounding_biases_the_naive_contrast():
    # The confounder raises the outcome by 0.25 in both arms and also makes
    # treatment four times likelier, so pooling mixes the strata unevenly.
    s = scenario(
        p_treat_given_confounder=(0.2, 0.8),
        p_outcome_treated=((0.30, 0.30), (0.55, 0.55)),
        p_outcome_control=((0.20, 0.20), (0.45, 0.45)),
    )
    for l in (0, 1):
        for x in (0, 1):
            assert true_cell_effect(s, l, x) == pytest.approx(0.10)
    assert true_cate(s, 0) == pytest.approx(0.10)
    naive = naive_pooled_uplift(s)
    assert abs(naive - 0.10) > 0.05


def test_generated_cells_converge_to_their_planted_effects():
    s = scenario(
        n_cases=100_000,
        seed=2024,
        p_outcome_treated=((0.25, 0.55), (0.40, 0.70)),
        p_outcome_control=((0.20, 0.30), (0.35, 0.45)),
    )
    log, effects = generate(s)
    assert effects == {0: true_cate(s, 0), 1: true_cate(s, 1)}

    counts = {}
    columns = (log.last[name] for name in (CONFOUNDER, SUBGROUP, TREATMENT_ATTR, OUTCOME))
    for *key, outcome in zip(*columns):
        pos, n = counts.get(tuple(key), (0, 0))
        counts[tuple(key)] = (pos + (outcome == "1"), n + 1)

    for l in (0, 1):
        for x in (0, 1):
            t_pos, t_n = counts[(str(l), str(x), "1")]
            c_pos, c_n = counts[(str(l), str(x), "0")]
            observed = t_pos / t_n - c_pos / c_n
            assert observed == pytest.approx(true_cell_effect(s, l, x), abs=0.015)


def test_generation_is_reproducible():
    s = scenario(n_cases=400, seed=99)
    log_a, _ = generate(s)
    log_b, _ = generate(s)
    assert log_a == log_b
    log_c, _ = generate(scenario(n_cases=400, seed=100))
    assert log_a != log_c


def test_written_log_parses_back_to_the_generated_one(tmp_path):
    log, _ = generate(scenario(n_cases=50, seed=3))
    assert log.counts == {"observed": [1] * 50}
    assert log.n_events == 50
    write_log(log, tmp_path / "log.csv")
    assert parse_csv(tmp_path / "log.csv") == log
    lines = (tmp_path / "log.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"case_id,activity,timestamp,confounder,outcome,subgroup,treatment"
    assert lines[2].startswith(b"case_000001,observed,2020-01-01T00:00:01+00:00,")


def test_written_log_equals_csv_writers_bytes(tmp_path):
    # write_log joins the fields unquoted; csv.writer would quote none of them.
    log, _ = generate(scenario(n_cases=300, seed=5))
    write_log(log, tmp_path / "log.csv")
    names = sorted(log.last)
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "activity", "timestamp", *names])
        for i, case_id in enumerate(log.case_ids):
            stamp = (t0 + timedelta(seconds=i)).isoformat()
            writer.writerow([case_id, "observed", stamp, *(log.last[n][i] for n in names)])
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_written_stamps_equal_isoformat_across_midnight(tmp_path):
    # 90,000 cases reach 2020-01-02T01:00; case i is stamped i seconds past
    # 2020-01-01 UTC, as datetime.isoformat writes it.
    n = 90_000
    log = CaseLog([f"c{i}" for i in range(n)], {"observed": [1] * n}, {}, n)
    write_log(log, tmp_path / "log.csv")
    with open(tmp_path / "log.csv", newline="", encoding="utf-8") as fh:
        stamps = [row[2] for row in csv.reader(fh)][1:]
    t0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
    assert stamps == [(t0 + timedelta(seconds=i)).isoformat() for i in range(n)]
    assert stamps[86_400] == "2020-01-02T00:00:00+00:00"


def test_generate_refuses_deterministic_assignment():
    s = scenario(p_treat_given_confounder=(1.0, 0.5))
    with pytest.raises(PositivityError, match="confounder"):
        generate(s)


def test_scenario_validates_probabilities():
    with pytest.raises(ConfigError):
        scenario(p_confounder=1.5)
    with pytest.raises(ConfigError):
        scenario(p_outcome_treated=((0.3, -0.1), (0.3, 0.3)))
    with pytest.raises(ConfigError):
        scenario(n_cases=0)


def test_generated_log_encodes_cleanly():
    s = scenario(n_cases=500, seed=5)
    log, _ = generate(s)
    table = encode_cases(log, s.schema(), OUTCOME)
    assert len(table) == 500
    assert table.attribute(TREATMENT_ATTR).controllable
    assert not table.attribute(CONFOUNDER).controllable
    assert set(table.coded(SUBGROUP).values) == {"0", "1"}
    treated = sum(1 for value in table.column(TREATMENT_ATTR) if value == "1")
    assert 0.4 < treated / 500 < 0.6
