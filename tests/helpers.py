"""Builders shared across test modules."""

import csv
import io
from datetime import datetime
from xml.sax.saxutils import quoteattr

import numpy as np
from hypothesis import strategies as st

from upliftmine.actionrules import AtomicActionTerm, Treatment
from upliftmine.casetable import AttributeSchema, CaseTable
from upliftmine.uplift import TreeParams


def make_table(attrs, rows, outcome_name="Y", bins=None):
    """attrs: iterable of (name, kind, controllable); rows: (features, y)."""
    schema = [AttributeSchema(name, kind, controllable) for name, kind, controllable in attrs]
    return CaseTable(
        schema,
        outcome_name,
        [f"c{i}" for i in range(len(rows))],
        [outcome for _, outcome in rows],
        {a.name: [features[a.name] for features, _ in rows] for a in schema},
        bins,
    )


def decoded(coded):
    """The per-row labels of a Coded column, None where missing."""
    return [coded.values[code] if code >= 0 else None for code in coded.codes.tolist()]


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

# Names and labels built from the delimiters and escapes of rules.txt and
# treatments.txt, and from any other character.
tricky_text = st.lists(
    st.sampled_from(
        [" ", ":", ": ", "∧", "⟹", "→", "(", ")", "[", "]", "\n", "\r", "\\", "&", "->", "-", "a"]
    )
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
).map("".join)


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


def cell_text(value) -> str:
    """How a typed attribute value is written into a log."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_log(rows) -> bytes:
    """CSV bytes of (case_id, activity, timestamp, attrs) rows in file order:
    one column per attribute name, the cell empty where a row lacks it."""
    names = sorted({name for *_, attrs in rows for name in attrs})
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["case_id", "activity", "timestamp", *names])
    for case_id, activity, ts, attrs in rows:
        cells = [cell_text(attrs[name]) if name in attrs else "" for name in names]
        writer.writerow([case_id, activity, ts.isoformat(), *cells])
    return out.getvalue().encode("utf-8")


_XES_TAGS = {bool: "boolean", int: "int", float: "float", str: "string"}
# Attribute orders of a value element: the usual one, value first, and one
# with an attribute XES does not define.
XES_LAYOUTS = ("key value", "value key", "key value extra")


def _xes_attr(key, value, prefix="", layout=XES_LAYOUTS[0]) -> str:
    if isinstance(value, datetime):
        tag, text = "date", value.isoformat()
    else:
        tag, text = _XES_TAGS[type(value)], cell_text(value)
    named = {"key": quoteattr(key), "value": quoteattr(text), "extra": '"x"'}
    attrs = " ".join(f"{name}={named[name]}" for name in layout.split())
    return f"<{prefix}{tag} {attrs}/>"


def xes_log(traces, prefix="", layout=XES_LAYOUTS[0], orphans=False) -> bytes:
    """XES bytes of (case_id, trace_attrs, events, attrs_last) traces: a None
    case_id writes no concept:name; attrs_last puts the trace attributes
    after the events; events are (activity, timestamp, attrs) in file order.
    prefix goes before every element name, layout orders each value
    element's attributes, and orphans adds to every trace and event a value
    element without a value and one without a key, which carry nothing."""
    def attr(key, value):
        return _xes_attr(key, value, prefix, layout)

    orphan = f'<{prefix}string key="orphan"/><{prefix}int value="1"/>' if orphans else ""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<{prefix}log xmlns{prefix and ":" + prefix[:-1]}="http://www.xes-standard.org/">'
    ]
    for case_id, trace_attrs, events, attrs_last in traces:
        head = [attr(k, v) for k, v in trace_attrs.items()]
        if case_id is not None:
            head.append(attr("concept:name", case_id))
        head.append(orphan)
        body = [
            f"<{prefix}event>"
            + attr("concept:name", activity)
            + attr("time:timestamp", ts)
            + "".join(attr(k, v) for k, v in attrs.items())
            + orphan
            + f"</{prefix}event>"
            for activity, ts, attrs in events
        ]
        trace = "".join(body + head if attrs_last else head + body)
        parts.append(f"<{prefix}trace>{trace}</{prefix}trace>")
    parts.append(f"</{prefix}log>")
    return "\n".join(parts).encode("utf-8")
