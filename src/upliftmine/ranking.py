"""Cost-aware ranking of (treatment, segment) pairs.

A segment's incremental return from treating its n reachable cases is
net = n * (u * v - c): uplift u times the value v of one positive outcome,
minus the per-case impression cost c. Negative-net pairs are kept but
flagged so reports can show why they rank last.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .actionrules import Treatment
from .errors import ConfigError, require
from .uplift import Segment


@dataclass(frozen=True)
class CostModel:
    outcome_value: float = 1.0
    impression_cost: float = 0.0

    def __post_init__(self):
        require(self.outcome_value, float, "outcome_value")
        require(self.impression_cost, float, "impression_cost")
        if self.outcome_value < 0:
            raise ConfigError("outcome_value must be >= 0")
        if self.impression_cost < 0:
            raise ConfigError("impression_cost must be >= 0")


@dataclass(frozen=True)
class Recommendation:
    treatment: Treatment
    segment: Segment
    n: int
    uplift: float
    incremental_value: float
    incremental_cost: float
    net: float
    unprofitable: bool


def net_value(n: int, u: float, model: CostModel) -> float:
    """Incremental return of treating n cases with uplift u."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    return n * (u * model.outcome_value - model.impression_cost)


def rank(
    segments_by_treatment: Iterable[tuple[Treatment, Sequence[Segment]]],
    cost_models: Optional[Mapping[str, CostModel]] = None,
    default_model: Optional[CostModel] = None,
) -> list[Recommendation]:
    """One Recommendation per (treatment, segment), sorted by net descending,
    ties by uplift descending, then by treatment key and predicate.

    cost_models maps a treatment's key to its model; treatments without an
    entry fall back to default_model, and lacking both is an error.
    """
    cost_models = cost_models or {}
    out: list[Recommendation] = []
    for treatment, segments in segments_by_treatment:
        model = cost_models.get(treatment.key, default_model)
        if model is None:
            raise ConfigError(f"no cost model for treatment {treatment.key}")
        for segment in segments:
            n = segment.n_reachable
            net = net_value(n, segment.uplift, model)
            out.append(
                Recommendation(
                    treatment=treatment,
                    segment=segment,
                    n=n,
                    uplift=segment.uplift,
                    incremental_value=n * segment.uplift * model.outcome_value,
                    incremental_cost=n * model.impression_cost,
                    net=net,
                    unprofitable=net < 0,
                )
            )
    out.sort(
        key=lambda r: (
            -r.net,
            -r.uplift,
            r.treatment.key,
            r.segment.predicate_text,
        )
    )
    return out


RECOMMENDATION_COLUMNS = [
    "treatment",
    "segment",
    "n",
    "uplift",
    "incremental_value",
    "incremental_cost",
    "net",
    "flag",
]


def write_recommendations(recommendations: Iterable[Recommendation], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECOMMENDATION_COLUMNS)
        for rec in recommendations:
            writer.writerow(
                [
                    rec.treatment.key,
                    rec.segment.predicate_text,
                    rec.n,
                    repr(rec.uplift),
                    repr(rec.incremental_value),
                    repr(rec.incremental_cost),
                    repr(rec.net),
                    "unprofitable" if rec.unprofitable else "ok",
                ]
            )
