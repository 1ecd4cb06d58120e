import csv
import random

import pytest

from upliftmine.actionrules import AtomicActionTerm, Treatment
from upliftmine.errors import ConfigError
from upliftmine.ranking import (
    RECOMMENDATION_COLUMNS,
    CostModel,
    net_value,
    rank,
    write_recommendations,
)
from upliftmine.uplift import Segment


def treat(attr: str, src: str = "a", dst: str = "b") -> Treatment:
    return Treatment((AtomicActionTerm(attr, src, dst),))


def seg(uplift: float, n: int, conditions=()) -> Segment:
    return Segment(
        conditions=tuple(conditions),
        uplift=uplift,
        n_treat=max(1, n // 2),
        n_ctrl=max(1, n - n // 2),
        n_reachable=n,
    )


def test_net_value_spec_example():
    model = CostModel(outcome_value=50.0, impression_cost=2.0)
    assert net_value(100, 0.1, model) == 300.0


def test_net_value_zero_uplift_is_pure_cost():
    model = CostModel(outcome_value=50.0, impression_cost=2.0)
    assert net_value(250, 0.0, model) == -500.0


def test_net_value_break_even_for_any_population():
    model = CostModel(outcome_value=20.0, impression_cost=2.0)
    for n in (0, 1, 7, 10_000):
        assert net_value(n, 0.1, model) == 0.0


def test_net_value_rejects_negative_population():
    model = CostModel(outcome_value=1.0, impression_cost=0.0)
    with pytest.raises(ConfigError):
        net_value(-1, 0.5, model)


def test_cost_model_rejects_negative_parameters():
    with pytest.raises(ConfigError):
        CostModel(outcome_value=-1.0, impression_cost=0.0)
    with pytest.raises(ConfigError):
        CostModel(outcome_value=1.0, impression_cost=-0.5)


def test_rank_orders_by_net_and_flags_losses():
    model = CostModel(outcome_value=50.0, impression_cost=2.0)
    # 100 * (0.1 * 50 - 2) = 300 profitable, 10 * (0.02 * 50 - 2) = -10 not.
    winner = seg(0.1, 100, [("Region", "==", "north")])
    loser = seg(0.02, 10, [("Region", "!=", "north")])
    recs = rank([(treat("F"), [loser, winner])], default_model=model)
    assert [r.net for r in recs] == [300.0, -10.0]
    assert [r.unprofitable for r in recs] == [False, True]
    assert recs[0].incremental_value == 500.0
    assert recs[0].incremental_cost == 200.0
    assert recs[1].segment is loser


def test_rank_breaks_net_ties_by_uplift():
    model = CostModel(outcome_value=1.0, impression_cost=0.0)
    # Both nets are 60.0; the higher-uplift segment must come first.
    small_sharp = seg(0.3, 200, [("A", "==", "x")])
    big_diffuse = seg(0.2, 300, [("A", "!=", "x")])
    recs = rank([(treat("F"), [big_diffuse, small_sharp])], default_model=model)
    assert recs[0].segment is small_sharp
    assert recs[1].segment is big_diffuse
    assert recs[0].net == recs[1].net == 60.0


def test_rank_net_is_net_value_bit_for_bit():
    rng = random.Random(20261017)
    for _ in range(2000):
        n = rng.randrange(0, 100_000)
        model = CostModel(
            outcome_value=rng.uniform(0.0, 100.0), impression_cost=rng.uniform(0.0, 10.0)
        )
        (rec,) = rank([(treat("F"), [seg(rng.uniform(-1.0, 1.0), n)])], default_model=model)
        assert rec.net.hex() == net_value(n, rec.uplift, model).hex()


def test_rank_requires_a_cost_model():
    with pytest.raises(ConfigError, match="F:a->b"):
        rank([(treat("F"), [seg(0.1, 10)])])


def test_rank_per_treatment_models_override_default():
    default = CostModel(outcome_value=1.0, impression_cost=10.0)
    special = CostModel(outcome_value=1.0, impression_cost=0.0)
    cheap = treat("F")
    pricey = treat("G")
    same_seg = seg(0.5, 100)
    recs = rank(
        [(pricey, [same_seg]), (cheap, [same_seg])],
        cost_models={cheap.key: special},
        default_model=default,
    )
    assert recs[0].treatment is cheap
    assert recs[0].net == 50.0
    assert recs[1].net == 50.0 - 1000.0


def test_rank_output_is_order_independent():
    model = CostModel(outcome_value=5.0, impression_cost=0.25)
    rng = random.Random(7)
    pairs = []
    for i in range(6):
        segments = [
            seg(rng.uniform(-0.2, 0.5), rng.randrange(1, 500), [("A", "==", str(j))])
            for j in range(rng.randrange(0, 4))
        ]
        pairs.append((treat(f"F{i}"), segments))
    baseline = rank(pairs, default_model=model)
    for trial in range(10):
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert rank(shuffled, default_model=model) == baseline


def test_rank_cheaper_treatment_never_drops():
    """Lowering one treatment's impression cost never pushes any of its
    recommendations below a competitor it previously beat. Positions among
    the treatment's own segments may still reshuffle (the saving scales
    with segment size), so the check counts only rival recommendations."""
    rng = random.Random(42)
    for trial in range(50):
        pairs = [
            (
                treat(f"F{i}"),
                [
                    seg(rng.uniform(-0.3, 0.6), rng.randrange(1, 300), [("A", "==", str(j))])
                    for j in range(rng.randrange(1, 4))
                ],
            )
            for i in range(4)
        ]
        target = pairs[0][0]
        base_cost = rng.uniform(0.5, 2.0)
        models = {
            t.key: CostModel(outcome_value=10.0, impression_cost=base_cost)
            for t, _ in pairs
        }
        before = rank(pairs, cost_models=models)
        models[target.key] = CostModel(
            outcome_value=10.0, impression_cost=base_cost * rng.uniform(0.0, 0.99)
        )
        after = rank(pairs, cost_models=models)

        def rivals_above(recs):
            counts = {}
            seen_rivals = 0
            for r in recs:
                if r.treatment == target:
                    counts[r.segment.predicate_text] = seen_rivals
                else:
                    seen_rivals += 1
            return counts

        above_before = rivals_above(before)
        above_after = rivals_above(after)
        assert above_before.keys() == above_after.keys()
        for key in above_before:
            assert above_after[key] <= above_before[key]


def test_write_recommendations_round_trips_values(tmp_path):
    model = CostModel(outcome_value=50.0, impression_cost=2.0)
    recs = rank(
        [(treat("F"), [seg(0.1, 100, [("Region", "==", "north")]), seg(0.02, 10)])],
        default_model=model,
    )
    path = tmp_path / "recommendations.csv"
    write_recommendations(recs, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == RECOMMENDATION_COLUMNS
    assert len(rows) == 3
    top = dict(zip(rows[0], rows[1]))
    assert top["treatment"] == "F:a->b"
    assert top["segment"] == "Region == north"
    assert int(top["n"]) == 100
    assert float(top["uplift"]) == 0.1
    assert float(top["net"]) == 300.0
    assert top["flag"] == "ok"
    assert dict(zip(rows[0], rows[2]))["flag"] == "unprofitable"
