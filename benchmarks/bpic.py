"""Seeded loan-application logs shaped like BPI Challenge 2017.

The published BPIC 2017 log cannot be bundled, so the benchmark samples a
stand-in with the same attribute layout: two categorical and two numeric
application attributes that the bank cannot change, four numeric offer
attributes it can, and whether the customer selected the final offer.
Every case has an application prefix, one or two offers and a closing
decision, about ten events in all, each with a resource and lifecycle
attribute like the real log.

One seed always gives the same bytes: all randomness comes from
``numpy.random.default_rng(seed)`` and the writers format every value with
``repr`` or fixed strings.
"""

from __future__ import annotations

import csv
import gzip
import io
from datetime import datetime, timedelta, timezone

import numpy as np

LOAN_GOALS = (
    "Car",
    "Home improvement",
    "Existing loan takeover",
    "Not specified",
    "Unknown",
    "Other, see explanation",
)
LOAN_GOAL_WEIGHTS = (0.3, 0.25, 0.2, 0.1, 0.1, 0.05)
APPLICATION_TYPES = ("New credit", "Limit raise")

OFFER_ATTRIBUTES = (
    "FirstWithdrawalAmount",
    "MonthlyCost",
    "NumberOfTerms",
    "OfferedAmount",
)
CASE_ATTRIBUTES = ("LoanGoal", "ApplicationType", "RequestedAmount")

# Activities around the offers; each case runs PREFIX, then OFFER once per
# offer, then SUFFIX and the decision.
PREFIX = ("A_Create Application", "A_Submitted", "W_Complete application", "A_Accepted")
OFFER = ("O_Create Offer", "O_Sent (mail and online)")
SUFFIX = ("W_Call after offers", "A_Validating")
DECISION = ("O_Refused", "O_Accepted")

P_SECOND_OFFER = 0.3
MAX_EVENTS = len(PREFIX) + 2 * len(OFFER) + len(SUFFIX) + 1
N_RESOURCES = 40

_T0 = datetime(2016, 1, 1, 8, 0, tzinfo=timezone.utc)


# P(Selected) by the MonthlyCost quartile of the final offer: cheap offers
# sell. The levels sit far apart, so which treatments clear the miner's
# thresholds does not hinge on sampling noise and the work per seed stays
# steady.
P_SELECTED = (0.95, 0.85, 0.5, 0.1)
# New credit applications with a low first withdrawal select more often,
# Limit raise ones less: heterogeneity for the uplift trees to find.
WITHDRAW_SHIFT = 0.05


def _quartiles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exactly balanced quartile labels in random order."""
    return rng.permutation(np.arange(n) % 4)


def _within(rng, q: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Values in [lo, hi) whose quartile of the range is q, so equal-frequency
    binning at 4 recovers q."""
    return lo + (hi - lo) * (q + rng.random(q.shape)) / 4.0


def sample_cases(n_cases: int, seed: int) -> dict[str, np.ndarray]:
    """Per-case draws, all vectorised. Offer arrays have one row per case
    and one column per offer slot; the second slot is unused when
    ``n_offers`` is 1."""
    rng = np.random.default_rng(seed)
    goal = rng.choice(len(LOAN_GOALS), size=n_cases, p=LOAN_GOAL_WEIGHTS)
    limit_raise = rng.random(n_cases) < 0.2
    requested = np.round(np.exp(rng.normal(np.log(15000.0), 0.6, n_cases)), 2)
    credit = np.clip(np.round(rng.normal(850.0, 90.0, n_cases)), 500, 1150).astype(int)
    n_offers = 1 + (rng.random(n_cases) < P_SECOND_OFFER)

    # Quartile of each offer attribute per case and offer slot. The final
    # offer's quartiles are exactly balanced; a replaced first offer's are
    # drawn freely.
    final = np.stack([_quartiles(rng, n_cases) for _ in OFFER_ATTRIBUTES])
    first = np.where(n_offers == 2, rng.integers(0, 4, final.shape), final)
    q = np.stack([first, final], axis=2)
    q_withdraw, q_cost, q_terms, q_amount = q
    withdraw = np.round(_within(rng, q_withdraw, 0.0, 20000.0), 2)
    monthly = np.round(_within(rng, q_cost, 50.0, 1000.0), 2)
    terms = 12 + 27 * q_terms + rng.integers(0, 27, q_terms.shape)
    offered = np.round(_within(rng, q_amount, 5000.0, 50000.0), 2)

    p = np.array(P_SELECTED)[q_cost[:, 1]]
    shift = np.where(q_withdraw[:, 1] < 2, WITHDRAW_SHIFT, -WITHDRAW_SHIFT)
    p = np.clip(p + np.where(limit_raise, -shift, shift), 0.0, 1.0)
    selected = rng.random(n_cases) < p

    return {
        "goal": goal,
        "limit_raise": limit_raise,
        "requested": requested,
        "credit": credit,
        "n_offers": n_offers,
        "offered": offered,
        "terms": terms,
        "monthly": monthly,
        "withdraw": withdraw,
        "selected": selected,
        # Seconds from _T0 to each case's start and between its events.
        "start": np.cumsum(rng.integers(60, 600, n_cases)),
        "gaps": rng.integers(30, 7200, (n_cases, MAX_EVENTS)),
        "resource": rng.integers(1, N_RESOURCES + 1, (n_cases, MAX_EVENTS)),
    }


def _events(cases: dict[str, np.ndarray], i: int):
    """Yield (activity, timestamp text, resource, attributes) for case i,
    in time order. Application attributes ride on the first event and
    offer attributes on each O_Create Offer; ``Selected`` is false on an
    offer that a later one replaced."""
    n_offers = int(cases["n_offers"][i])
    activities = list(PREFIX)
    for _ in range(n_offers):
        activities.extend(OFFER)
    activities.extend(SUFFIX)
    selected = bool(cases["selected"][i])
    activities.append(DECISION[selected])

    t = _T0 + timedelta(seconds=int(cases["start"][i]))
    gaps = cases["gaps"][i]
    resources = cases["resource"][i]
    offer = 0
    for k, activity in enumerate(activities):
        t += timedelta(seconds=int(gaps[k]), milliseconds=k)
        attrs: dict[str, object] = {}
        if k == 0:
            attrs["LoanGoal"] = LOAN_GOALS[int(cases["goal"][i])]
            attrs["ApplicationType"] = APPLICATION_TYPES[int(cases["limit_raise"][i])]
            attrs["RequestedAmount"] = float(cases["requested"][i])
        elif activity == OFFER[0]:
            attrs["FirstWithdrawalAmount"] = float(cases["withdraw"][i, offer])
            attrs["MonthlyCost"] = float(cases["monthly"][i, offer])
            attrs["NumberOfTerms"] = int(cases["terms"][i, offer])
            attrs["OfferedAmount"] = float(cases["offered"][i, offer])
            attrs["CreditScore"] = int(cases["credit"][i])
            attrs["Selected"] = selected and offer == n_offers - 1
            offer += 1
        yield activity, t.isoformat(timespec="milliseconds"), f"User_{int(resources[k])}", attrs


def case_id(i: int) -> str:
    return f"Application_{i:07d}"


def n_events(cases: dict[str, np.ndarray]) -> int:
    per_case = len(PREFIX) + len(SUFFIX) + 1 + len(OFFER) * cases["n_offers"]
    return int(per_case.sum())


def _text(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


CSV_ATTRIBUTES = (
    "org:resource",
    "lifecycle:transition",
    "LoanGoal",
    "ApplicationType",
    "RequestedAmount",
    "CreditScore",
    *OFFER_ATTRIBUTES,
    "Selected",
)


def write_csv(cases: dict[str, np.ndarray], path: str) -> None:
    """One row per event, cases in order; empty cells are missing values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("case_id", "activity", "timestamp", *CSV_ATTRIBUTES))
        for i in range(len(cases["goal"])):
            cid = case_id(i)
            for activity, stamp, resource, attrs in _events(cases, i):
                extra = {"org:resource": resource, "lifecycle:transition": "complete"}
                extra.update(attrs)
                writer.writerow(
                    (cid, activity, stamp)
                    + tuple(_text(extra[a]) if a in extra else "" for a in CSV_ATTRIBUTES)
                )


def _xes_tag(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "string"


def _xes_attr(key: str, value: object, indent: str) -> str:
    text = _text(value).replace("&", "&amp;").replace('"', "&quot;").replace("<", "&lt;")
    return f'{indent}<{_xes_tag(value)} key="{key}" value="{text}"/>\n'


def write_xes_gz(cases: dict[str, np.ndarray], path: str) -> None:
    """Gzip XES with the application attributes at trace level, as in the
    published log; the first event carries none of them."""
    # mtime=0 and no file name in the gzip header keep the bytes seed-pure.
    with open(path, "wb") as raw, gzip.GzipFile(
        filename="", mode="wb", compresslevel=6, fileobj=raw, mtime=0
    ) as gz, io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="UTF-8" ?>\n')
        fh.write('<log xes.version="1.0" xmlns="http://www.xes-standard.org/">\n')
        for i in range(len(cases["goal"])):
            parts = ["  <trace>\n", _xes_attr("concept:name", case_id(i), "    ")]
            for activity, stamp, resource, attrs in _events(cases, i):
                if activity == PREFIX[0]:
                    for key in CASE_ATTRIBUTES:
                        parts.append(_xes_attr(key, attrs.pop(key), "    "))
                parts.append("    <event>\n")
                parts.append(_xes_attr("concept:name", activity, "      "))
                parts.append(_xes_attr("org:resource", resource, "      "))
                parts.append(_xes_attr("lifecycle:transition", "complete", "      "))
                parts.append(f'      <date key="time:timestamp" value="{stamp}"/>\n')
                for key, value in attrs.items():
                    parts.append(_xes_attr(key, value, "      "))
                parts.append("    </event>\n")
            parts.append("  </trace>\n")
            fh.write("".join(parts))
        fh.write("</log>\n")
