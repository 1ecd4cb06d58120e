"""Builders shared across test modules."""

import numpy as np

from upliftmine.actionrules import AtomicActionTerm, Treatment
from upliftmine.casetable import AttributeSchema, CaseTable
from upliftmine.uplift import TreeParams


def make_table(attrs, rows, outcome_name="Y", bins=None, raw_numeric=None):
    """attrs: iterable of (name, kind, controllable); rows: (features, y)."""
    schema = [AttributeSchema(name, kind, controllable) for name, kind, controllable in attrs]
    return CaseTable(
        schema,
        outcome_name,
        [f"c{i}" for i in range(len(rows))],
        [outcome for _, outcome in rows],
        {a.name: [features[a.name] for features, _ in rows] for a in schema},
        bins,
        raw_numeric,
    )


EIGHT_ROW_TABLE = make_table(
    [("S", "categorical", False), ("F", "categorical", True)],
    [
        ({"S": "x", "F": "a"}, 0),
        ({"S": "x", "F": "a"}, 0),
        ({"S": "x", "F": "a"}, 0),
        ({"S": "x", "F": "b"}, 1),
        ({"S": "x", "F": "b"}, 1),
        ({"S": "x", "F": "b"}, 1),
        ({"S": "y", "F": "a"}, 1),
        ({"S": "y", "F": "b"}, 0),
    ],
)

F_A_TO_B = Treatment((AtomicActionTerm("F", "a", "b"),))


def random_split_table(rng: np.random.Generator):
    """A small random table plus params and a binary treatment column,
    sized for exhaustive split-oracle comparison (<= 32 rows, <= 3 feature
    attributes)."""
    n_feature_attrs = int(rng.integers(1, 4))
    attr_specs = []
    for i in range(n_feature_attrs):
        kind = "numeric" if rng.random() < 0.5 else "categorical"
        attr_specs.append((f"f{i}", kind))

    min_treat = int(rng.integers(1, 3))
    n_treated = int(rng.integers(max(2 * min_treat, 2), 17))
    n_control = int(rng.integers(2, 17))
    rows = []
    for group, count in (("1", n_treated), ("0", n_control)):
        for _ in range(count):
            features = {"T": group}
            for name, kind in attr_specs:
                if rng.random() < 0.1:
                    features[name] = None
                elif kind == "numeric":
                    features[name] = float(rng.integers(0, 6))
                else:
                    features[name] = str(rng.choice(["p", "q", "r"]))
            rows.append((features, int(rng.random() < 0.5)))

    table = make_table(
        [("T", "categorical", True)] + [(n, k, False) for n, k in attr_specs],
        rows,
    )
    params = TreeParams(
        max_depth=int(rng.integers(1, 4)),
        min_samples_split=2,
        min_samples_treatment=min_treat,
        n_reg=float(rng.choice([0.5, 1.0, 10.0, 100.0])),
        divergence=str(rng.choice(["KL", "Euclid", "ChiSq"])),
    )
    treatment = Treatment((AtomicActionTerm("T", "0", "1"),))
    return table, params, treatment
