import csv
import dataclasses
import fcntl
import json
import logging
import math
import os
import re
import shutil
import threading
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import decoded, make_table, tricky_text, xes_log
from upliftmine import pipeline
from upliftmine.actionrules import (
    AtomicActionTerm,
    Treatment,
    extract_treatments,
    load_rules,
    load_treatments,
    mine_action_rules,
    parse_treatment_key,
    save_treatments,
)
from upliftmine.casetable import MISSING_LABEL, AttributeSchema, CaseTable, discretize
from upliftmine.cli import main
from upliftmine.config import (
    PipelineConfig,
    RuleParams,
    config_from_dict,
    config_to_dict,
    load_config,
)
from upliftmine.errors import ConfigError, SchemaError
from upliftmine.pipeline import (
    CASE_SUMMARY_FILE,
    CASE_TABLE_FILE,
    GROUND_TRUTH_FILE,
    MANIFEST_FILE,
    RECOMMENDATIONS_FILE,
    RULES_FILE,
    SCENARIO_LOG_FILE,
    SEGMENTS_FILE,
    TREATMENTS_FILE,
    TREES_DIR,
    _summarize_table,
    run,
    stage_ingest,
    stage_mine,
    stage_rank,
    stage_uplift,
    table_from_dict,
    table_to_dict,
)
from upliftmine.pipeline import _encode_compact, _read_json, _Staging, _write_json
from upliftmine.ranking import CostModel
from upliftmine.uplift import TreeParams

EIGHT_ROW_CSV = "case_id,activity,timestamp,S,F,Y\n" + "".join(
    f"c{i},apply,2020-01-01T00:00:{i:02d}Z,{s},{f},{y}\n"
    for i, (s, f, y) in enumerate(
        [
            ("x", "a", "0"),
            ("x", "a", "0"),
            ("x", "a", "0"),
            ("x", "b", "1"),
            ("x", "b", "1"),
            ("x", "b", "1"),
            ("y", "a", "1"),
            ("y", "b", "0"),
        ]
    )
)

RULE_LINE = "[(S: x) ∧ (F: a → b)] ⟹ [Y: 0 → 1], with support 0.375 and confidence 1.0"


def minimal_raw(tmp_path: Path) -> dict:
    return {
        "input": str(tmp_path / "log.csv"),
        "outcome": "Y",
        "attributes": [
            {"name": "S", "kind": "categorical"},
            {"name": "F", "kind": "categorical", "controllable": True},
            {"name": "Y", "kind": "categorical"},
        ],
    }


@pytest.fixture
def eight_row_config(tmp_path: Path) -> PipelineConfig:
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw.update(
        {
            "out_dir": str(tmp_path / "out"),
            "rules": {"min_support": 0.25, "min_confidence": 0.75},
            "tree": {
                "max_depth": 2,
                "min_samples_split": 4,
                "min_samples_treatment": 1,
                "n_reg": 1.0,
            },
            "cost": {"outcome_value": 10.0, "impression_cost": 1.0},
        }
    )
    return config_from_dict(raw)


def test_config_defaults(tmp_path):
    config = config_from_dict(minimal_raw(tmp_path))
    assert config.input_format == "csv"
    assert config.rules.min_support == 0.03
    assert config.rules.min_confidence == 0.55
    assert config.rules.max_antecedent_len == 4
    assert config.tree.max_depth == 5
    assert config.tree.min_samples_split == 200
    assert config.tree.min_samples_treatment == 50
    assert config.tree.n_reg == 100.0
    assert config.tree.divergence == "KL"
    assert config.min_uplift == 0.0
    assert config.positive_labels == ("1", "true")
    assert config.cost.outcome_value == 1.0
    assert config.cost.impression_cost == 0.0


def _bins_on_v(how):
    def mutate(raw):
        raw["attributes"].append({"name": "V", "kind": "numeric"})
        raw["bins"] = {"V": how}

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.update(input=""),  # input may be left out, not empty
        lambda raw: raw.pop("outcome"),
        lambda raw: raw.update(outcome="Missing"),
        lambda raw: raw.update(format="parquet"),
        lambda raw: raw.update(surprise=1),
        lambda raw: raw.update(rules={"min_support": 0.0}),
        lambda raw: raw.update(rules={"min_supprot": 0.1}),
        lambda raw: raw.update(tree={"divergence": "JS"}),
        lambda raw: raw.update(bins={"Nope": 3}),
        lambda raw: raw.update(cost={"outcome_value": -2.0}),
        lambda raw: raw.update(min_uplift="lots"),
        lambda raw: raw.update(attributes=[]),
        lambda raw: raw.update(bins={"S": 3}),
        lambda raw: (raw["attributes"][2].update(kind="numeric"), raw.update(bins={"Y": 3})),
        _bins_on_v("12"),
        _bins_on_v(4.5),
        _bins_on_v(True),
        _bins_on_v(1),
        _bins_on_v(None),
        _bins_on_v([1.0, "2"]),
        _bins_on_v([False, 1.0]),
        _bins_on_v([1.0, float("nan")]),
        lambda raw: raw.update(tree={"max_depth": "3"}),
        lambda raw: raw.update(tree={"max_depth": 2.5}),
        lambda raw: raw.update(tree={"max_depth": True}),
        lambda raw: raw.update(tree={"min_samples_split": "200"}),
        lambda raw: raw.update(tree={"min_samples_treatment": 1.5}),
        lambda raw: raw.update(tree={"n_reg": "100"}),
        lambda raw: raw.update(tree={"n_reg": True}),
        lambda raw: raw.update(rules={"min_support": "0.1"}),
        lambda raw: raw.update(rules={"min_confidence": True}),
        lambda raw: raw.update(rules={"max_antecedent_len": 2.5}),
        lambda raw: raw.update(rules={"max_antecedent_len": False}),
        lambda raw: raw.update(tree={"n_reg": float("inf")}),
        lambda raw: raw.update(tree={"n_reg": float("nan")}),
        lambda raw: raw.update(tree={"n_reg": 10**400}),
        lambda raw: raw.update(rules={"min_support": float("nan")}),
        lambda raw: raw.update(cost={"outcome_value": float("nan")}),
        lambda raw: raw.update(cost={"impression_cost": float("inf")}),
        lambda raw: raw.update(cost={"outcome_value": "10"}),
        lambda raw: raw.update(
            cost={"overrides": {"F:a->b": {"outcome_value": 1.0, "impression_cost": float("nan")}}}
        ),
        lambda raw: raw.update(min_uplift=float("nan")),
        lambda raw: raw.update(min_uplift=float("-inf")),
        lambda raw: raw.update(min_uplift=True),
        lambda raw: raw.update(csv={"timestamp_format": 5}),
        lambda raw: raw.update(csv={"case_id": [1]}),
        lambda raw: raw.update(csv={"activity": None}),
        lambda raw: raw.update(csv={"attributes": "S"}),
        lambda raw: raw.update(csv={"attributes": ["S", 2]}),
        _bins_on_v([2.0, 1.0]),
        _bins_on_v([1.0, 1.0]),
    ],
)
def test_config_validation(tmp_path, mutate):
    raw = minimal_raw(tmp_path)
    mutate(raw)
    with pytest.raises(ConfigError):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("tree", "max_depth", "3", "tree.max_depth must be an integer"),
        ("tree", "min_samples_split", True, "tree.min_samples_split must be an integer"),
        ("tree", "n_reg", "1", "tree.n_reg must be a number"),
        ("rules", "min_support", "0.1", "rules.min_support must be a number"),
        ("rules", "max_antecedent_len", 2.5, "rules.max_antecedent_len must be an integer"),
        ("tree", "n_reg", float("inf"), "tree.n_reg must be finite"),
        ("cost", "outcome_value", float("nan"), "cost.outcome_value must be finite"),
        ("cost", "impression_cost", float("inf"), "cost.impression_cost must be finite"),
        ("csv", "timestamp_format", 5, "csv.timestamp_format must be a string"),
        ("csv", "case_id", [1], "csv.case_id must be a string"),
        ("rules", "min_confidence", 0.0, "rules.min_confidence must be in (0, 1]"),
        ("rules", "max_antecedent_len", 0, "rules.max_antecedent_len must be >= 1"),
        ("tree", "max_depth", -1, "tree.max_depth must be >= 0"),
        ("tree", "min_samples_split", 1, "tree.min_samples_split must be >= 2"),
        ("tree", "min_samples_treatment", -1, "tree.min_samples_treatment must be >= 0"),
        ("tree", "n_reg", 0, "tree.n_reg must be > 0"),
    ],
)
def test_config_type_error_names_the_field(tmp_path, section, field, value, message):
    raw = minimal_raw(tmp_path)
    raw[section] = {field: value}
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)


@pytest.mark.parametrize("tree", [{"n_reg": 100}, {"max_depth": 0, "n_reg": 0.5}])
def test_config_accepts_an_integer_n_reg_and_a_zero_depth(tmp_path, tree):
    raw = minimal_raw(tmp_path)
    raw["tree"] = tree
    assert config_from_dict(raw).tree.n_reg == tree["n_reg"]


@pytest.mark.parametrize("how", [2, 7, [], [1, 2.5]])
def test_config_accepts_bin_counts_and_boundaries(tmp_path, how):
    raw = minimal_raw(tmp_path)
    _bins_on_v(how)(raw)
    assert config_from_dict(raw).bins == {"V": how}


def test_config_dict_round_trip(tmp_path):
    raw = minimal_raw(tmp_path)
    raw.update(
        {
            "bins": {"S": 3},
            "cost": {
                "outcome_value": 4.0,
                "impression_cost": 0.5,
                "overrides": {"F:a->b": {"outcome_value": 9.0, "impression_cost": 0.0}},
            },
            "min_uplift": 0.05,
        }
    )
    raw["attributes"][0] = {"name": "S", "kind": "numeric", "source": "last", "source_arg": "S"}
    config = config_from_dict(raw)
    assert config_from_dict(config_to_dict(config)) == config


def test_config_reads_override_keys_as_treatments(tmp_path):
    raw = minimal_raw(tmp_path)
    model = {"outcome_value": 9.0, "impression_cost": 0.0}
    raw["cost"] = {"overrides": {"G:x->y&F:a->b": model, "org\\:resource:u->v": model}}
    config = config_from_dict(raw)
    g_and_f = Treatment((AtomicActionTerm("G", "x", "y"), AtomicActionTerm("F", "a", "b")))
    resource = Treatment((AtomicActionTerm("org:resource", "u", "v"),))
    assert list(config.cost_overrides) == [g_and_f.key, resource.key]
    assert g_and_f.key == "F:a->b&G:x->y"


@pytest.mark.parametrize(
    "keys, message",
    [
        (["F:a"], "cost.overrides[F:a]: malformed treatment"),
        (["F:a->a"], "cost.overrides[F:a->a]: bad treatment"),
        (["F:a->b&F:b->c"], "cost.overrides[F:a->b&F:b->c]: bad treatment"),
        (
            ["F:a->b&G:x->y", "G:x->y&F:a->b"],
            "cost.overrides[G:x->y&F:a->b]: treatment F:a->b&G:x->y is priced twice",
        ),
    ],
    ids=["no-arrow", "unchanged", "attribute-twice", "priced-twice"],
)
def test_cli_malformed_override_key_is_a_config_error(tmp_path, caplog, keys, message):
    raw = minimal_raw(tmp_path)
    model = {"outcome_value": 1.0, "impression_cost": 0.0}
    raw["cost"] = {"overrides": {key: model for key in keys}}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(config)]) == 1
    assert message in caplog.text


def test_load_config_resolves_relative_paths(tmp_path):
    raw = minimal_raw(tmp_path)
    raw["input"] = "log.csv"
    raw["out_dir"] = "artifacts"
    nested = tmp_path / "configs"
    nested.mkdir()
    path = nested / "pipeline.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    config = load_config(path)
    assert config.input == str(nested / "log.csv")
    assert config.out_dir == str(nested / "artifacts")


def test_run_produces_all_artifacts(eight_row_config):
    info = run(eight_row_config)
    out = Path(eight_row_config.out_dir)

    schema = {"controllable": False, "source": "raw", "source_arg": None}
    assert _read_json(out / CASE_TABLE_FILE) == {
        "schema": [
            {**schema, "name": "S", "kind": "categorical"},
            {**schema, "name": "F", "kind": "categorical", "controllable": True},
        ],
        "outcome": "Y",
        "case_ids": [f"c{i}" for i in range(8)],
        "outcomes": [0, 0, 0, 1, 1, 1, 1, 0],
        "columns": {"S": list("xxxxxxyy"), "F": list("aaabbbab")},
        "bins": {},
    }
    assert "cases: 8" in (out / "case_table_summary.txt").read_text(encoding="utf-8")
    assert (out / RULES_FILE).read_text(encoding="utf-8") == RULE_LINE + "\n"
    assert (out / TREATMENTS_FILE).read_text(encoding="utf-8") == "F:a->b\n"
    dots = sorted((out / TREES_DIR).glob("*.dot"))
    assert len(dots) == 1
    assert dots[0].name == "tree_000_F_a-b.dot"

    segments = _read_json(out / SEGMENTS_FILE)
    assert segments["skipped"] == []
    (entry,) = segments["treatments"]
    assert entry["key"] == "F:a->b"
    (segment,) = entry["segments"]
    assert segment["conditions"] == [["S", "==", "x"]]
    assert segment["n_reachable"] == 6
    assert segment["uplift"] == pytest.approx(0.85)

    lines = (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("F:a->b,S == x,6,")

    manifest = _read_json(out / MANIFEST_FILE)
    assert set(manifest["stages"]) == {"ingest", "mine", "uplift", "rank"}
    assert manifest["stages"] == info
    assert manifest["config"] == config_to_dict(eight_row_config)
    assert manifest["tool"]["name"] == "upliftmine"
    assert manifest["config"]["tree"]["min_samples_split"] == 4


def test_interleaved_stages_keep_both_manifest_entries(eight_row_config):
    # An ingest frame open around a whole mine frame in one process: each
    # commit reads the manifest anew, so the later commit keeps the other
    # stage's entry.
    with pipeline._stage(eight_row_config, "ingest") as (outer, _):
        with pipeline._stage(eight_row_config, "mine") as (inner, _):
            inner["n_rules"] = 1
        outer["n_cases"] = 8
    manifest = _read_json(Path(eight_row_config.out_dir) / MANIFEST_FILE)
    assert manifest["stages"] == {"ingest": {"n_cases": 8}, "mine": {"n_rules": 1}}


def test_a_stage_waits_for_the_out_dir_lock_and_keeps_both_entries(eight_row_config):
    # Here the lock stands for another process's stage between its manifest
    # read and its commit, which adds an uplift entry. mine must wait for it,
    # then read the manifest anew.
    stage_ingest(eight_row_config)
    out = Path(eight_row_config.out_dir)
    lock = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        mine = threading.Thread(target=stage_mine, args=(eight_row_config,))
        mine.start()
        mine.join(timeout=0.5)
        assert mine.is_alive() and not (out / RULES_FILE).exists()
        manifest = _read_json(out / MANIFEST_FILE)
        manifest["stages"]["uplift"] = {"n_treatments": 0}
        _write_json(out / MANIFEST_FILE, manifest)
    finally:
        os.close(lock)
    mine.join(timeout=30)
    assert not mine.is_alive() and (out / RULES_FILE).exists()
    assert set(_read_json(out / MANIFEST_FILE)["stages"]) == {"ingest", "mine", "uplift"}


def snapshot(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def _composition_row(i: int) -> dict:
    """Case i of the composition logs: F = b lifts Y except in every fifth case."""
    f = "ab"[i % 2]
    return {"S": "xyz"[i // 2 % 3], "F": f, "V": i % 7 * 1.5, "Y": int((f == "b") != (i % 5 == 0))}


def _with_infinities(i: int) -> dict:
    row = _composition_row(i)
    return {**row, "V": {0: "-inf", 3: "inf"}.get(i % 7, row["V"])}


def _with_missing_values(i: int) -> dict:
    row = _composition_row(i)
    return {**row, "S": None if i % 6 == 0 else row["S"], "V": None if i % 4 == 1 else row["V"]}


def _with_typed_labels(i: int) -> dict:
    """S holds XES ints and a float, F booleans, V floats and Y ints."""
    row = _composition_row(i)
    return {**row, "S": (0, 1, 2.5)[i // 2 % 3], "F": row["F"] == "b"}


def _composition_config(directory: Path, rows: list[dict], xes: bool) -> PipelineConfig:
    """A config over rows, one event per case, as CSV or as typed XES; V is
    numeric and binned, the rest categorical."""
    directory.mkdir()
    log = directory / ("log.xes" if xes else "log.csv")
    if xes:
        stamp = datetime(2020, 1, 1, tzinfo=timezone.utc)
        traces = [(f"c{i}", {}, [("apply", stamp, row)], False) for i, row in enumerate(rows)]
        log.write_bytes(xes_log(traces))
    else:
        lines = ["case_id,activity,timestamp,S,F,V,Y"] + [
            ",".join([f"c{i}", "apply", "2020-01-01T00:00:00Z"])
            + "".join("," if v is None else f",{v}" for v in row.values())
            for i, row in enumerate(rows)
        ]
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    raw = minimal_raw(directory)
    raw["attributes"].insert(2, {"name": "V", "kind": "numeric"})
    raw.update(
        input=str(log),
        format="xes" if xes else "csv",
        out_dir=str(directory / "out"),
        bins={"V": 3},
        rules={"min_support": 0.05, "min_confidence": 0.5},
        tree={"max_depth": 2, "min_samples_split": 4, "min_samples_treatment": 1, "n_reg": 1.0},
    )
    return config_from_dict(raw)


def test_run_equals_staged_composition(eight_row_config, tmp_path):
    """run hands the table it ingested on in memory, the stages read it back:
    the artifacts, manifests included, must not tell the two apart, also for
    binned columns, infinities, missing values and typed XES labels."""
    configs = {"eight rows": eight_row_config}
    for name, row, xes in [
        ("binned", _composition_row, False),
        ("infinities", _with_infinities, False),
        ("missing values", _with_missing_values, False),
        ("typed xes labels", _with_typed_labels, True),
    ]:
        configs[name] = _composition_config(tmp_path / name, [row(i) for i in range(60)], xes)
    for name, config in configs.items():
        out = Path(config.out_dir)
        run(config)
        combined = snapshot(out)
        assert any(path.startswith(TREES_DIR) for path in combined), name

        shutil.rmtree(out)
        stage_ingest(config)
        stage_mine(config)
        stage_uplift(config)
        stage_rank(config)
        assert snapshot(out) == combined, name


def test_run_reads_the_case_table_zero_times_and_each_stage_alone_once(
    eight_row_config, monkeypatch
):
    reads, read_json = [], pipeline._read_json

    def counting(path):
        if os.path.basename(path) == CASE_TABLE_FILE:
            reads.append(path)
        return read_json(path)

    monkeypatch.setattr(pipeline, "_read_json", counting)
    run(eight_row_config)
    assert reads == []
    stage_mine(eight_row_config)
    assert len(reads) == 1
    stage_uplift(eight_row_config)
    assert len(reads) == 2


def test_vacuous_support_threshold_empties_the_chain(eight_row_config, tmp_path):
    eight_row_config.rules.min_support = 1.0
    run(eight_row_config)
    out = Path(eight_row_config.out_dir)
    assert (out / RULES_FILE).read_text(encoding="utf-8") == ""
    assert (out / TREATMENTS_FILE).read_text(encoding="utf-8") == ""
    assert sorted((out / TREES_DIR).glob("*.dot")) == []
    assert _read_json(out / SEGMENTS_FILE) == {"treatments": [], "skipped": []}
    lines = (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1


def test_mine_without_ingest_names_the_missing_file(eight_row_config):
    with pytest.raises(ConfigError, match="case_table.json"):
        stage_mine(eight_row_config)
    with pytest.raises(ConfigError, match="ingest"):
        stage_uplift(eight_row_config)
    with pytest.raises(ConfigError, match="segments.json"):
        stage_rank(eight_row_config)


def test_uplift_with_hand_written_treatments_file(eight_row_config, tmp_path):
    stage_ingest(eight_row_config)
    hand_written = tmp_path / "my_treatments.txt"
    hand_written.write_text("F:a->b\n", encoding="utf-8")
    info = stage_uplift(eight_row_config, treatments_path=str(hand_written))
    assert info["n_treatments"] == 1
    assert len(list((Path(eight_row_config.out_dir) / TREES_DIR).glob("*.dot"))) == 1


def test_uplift_skips_a_treatment_without_treated_cases_and_drops_stale_trees(
    eight_row_config, tmp_path
):
    run(eight_row_config)
    out = Path(eight_row_config.out_dir)
    assert [p.name for p in (out / TREES_DIR).iterdir()] == ["tree_000_F_a-b.dot"]
    header = (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8").splitlines()[0]
    # No case has F == z, so the treated group is empty.
    hand_written = tmp_path / "my_treatments.txt"
    hand_written.write_text("F:a->z\n", encoding="utf-8")
    info = stage_uplift(eight_row_config, treatments_path=str(hand_written))
    assert info == {"n_treatments": 0, "n_skipped": 1, "n_segments": 0}
    assert list((out / TREES_DIR).iterdir()) == []
    assert _read_json(out / SEGMENTS_FILE) == {"skipped": ["F:a->z"], "treatments": []}
    stage_rank(eight_row_config)
    assert (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8").splitlines() == [header]


def test_parse_treatment_key_round_trips():
    treatment = Treatment(
        (AtomicActionTerm("F", "a", "b"), AtomicActionTerm("G", "[6-48]", "[97-120]"))
    )
    assert parse_treatment_key(treatment.key) == treatment
    # An empty label, as an XES value="" gives, reads back; an empty name
    # and a change to the same label do not.
    for key in ("F:->b", "F:a->"):
        assert parse_treatment_key(key).key == key
    for bad in ("", "F", "F:a", ":a->b", "F:->", "F:a->a"):
        with pytest.raises(ConfigError):
            parse_treatment_key(bad)


_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    tricky_text,
)


@st.composite
def treatments(draw):
    changes = []
    for attr in draw(st.lists(_text.filter(len), min_size=1, max_size=3, unique=True)):
        from_value = draw(_text)
        to_value = draw(_text.filter(lambda v: v != from_value))
        changes.append(AtomicActionTerm(attr, from_value, to_value))
    return Treatment(tuple(changes))


@settings(max_examples=200, deadline=None)
@example(
    [
        Treatment((AtomicActionTerm("a:b", "x", "y"),)),
        Treatment((AtomicActionTerm("a", "b:x", "y"),)),
    ]
)
@given(st.lists(treatments(), max_size=4))
def test_treatments_file_round_trips_any_treatment(tmp_path_factory, written):
    path = tmp_path_factory.mktemp("treatments") / TREATMENTS_FILE
    save_treatments(written, path)
    assert load_treatments(path) == written
    # So two different treatments never share a key.
    assert [parse_treatment_key(t.key) for t in written] == written


def test_treatments_file_escapes_xes_names(tmp_path):
    treatment = Treatment((AtomicActionTerm("org:resource", "User_1", "User_2"),))
    path = tmp_path / TREATMENTS_FILE
    save_treatments([treatment], path)
    assert path.read_text(encoding="utf-8") == "org\\:resource:User_1->User_2\n"
    assert load_treatments(path) == [treatment]
    plain = Treatment((AtomicActionTerm("G", "[6-48]", "(1.5,2]"),))
    save_treatments([plain], path)
    assert path.read_text(encoding="utf-8") == plain.key + "\n"


_label = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
_number = st.floats(allow_nan=False)
# Numbers whose JSON form needs care: signed zeros, infinities and NaN, the
# table's missing value.
_edge_number = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | _number


@st.composite
def case_tables(draw, number=_number, label=_label):
    n = draw(st.integers(min_value=0, max_value=8))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    schema = [
        AttributeSchema("c", "categorical", controllable=True),
        AttributeSchema("b", "numeric"),
        AttributeSchema("x", "numeric", source="count", source_arg="act"),
    ]
    bound = st.floats(allow_nan=False)
    bounds = sorted(draw(st.sets(bound, max_size=3)))
    return CaseTable(
        schema,
        "Y",
        column(label),
        column(st.integers(min_value=0, max_value=1)),
        {
            "c": column(st.one_of(st.none(), label)),
            "b": column(st.one_of(st.none(), number)),
            "x": column(st.one_of(st.none(), number)),
        },
        {"b": bounds},
    )


@settings(max_examples=100, deadline=None)
@given(case_tables())
def test_case_table_json_round_trip(tmp_path_factory, table):
    out = tmp_path_factory.mktemp("case_table")
    _write_json(out / "first.json", table_to_dict(table))
    again = table_from_dict(_read_json(out / "first.json"))
    for name in table.attribute_names:
        assert again.column(name) == table.column(name)
    assert again.case_ids == table.case_ids
    assert again.outcomes() == table.outcomes()
    assert again.bins == table.bins
    assert again.coded("b").values == table.coded("b").values
    assert decoded(again.coded("b")) == decoded(table.coded("b"))
    _write_json(out / "second.json", table_to_dict(again))
    assert (out / "second.json").read_bytes() == (out / "first.json").read_bytes()


@pytest.mark.parametrize(
    "case_ids, message",
    [
        (["c0", "c1"], "case_table.json: attribute 'x': value in case 'c1' is too large for a float"),
        # One case fewer than values: the bad value is past the last case.
        (["c0"], "case_table.json: attribute 'x': column length differs from cases"),
    ],
    ids=["too-large", "longer-than-the-cases"],
)
def test_case_table_json_number_too_large_for_a_float(tmp_path, case_ids, message):
    path = tmp_path / CASE_TABLE_FILE
    path.write_text(
        '{"bins":{},"case_ids":' + json.dumps(case_ids) + ',"columns":{"x":[1,' + "9" * 400
        + ']},"outcome":"Y","outcomes":' + json.dumps([0] * len(case_ids))
        + ',"schema":[{"kind":"numeric","name":"x"}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(SchemaError, match=message):
        table_from_dict(_read_json(path))


def _reject(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _bits(numbers) -> list[int]:
    """Bit patterns of numbers, with every NaN (a missing value) as one."""
    array = np.asarray(numbers, dtype=np.float64)
    return np.where(np.isnan(array), np.nan, array).view(np.int64).tolist()


@settings(max_examples=100, deadline=None)
@given(case_tables(_edge_number))
def test_case_table_json_is_strict_and_round_trips_bit_for_bit(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("case_table") / CASE_TABLE_FILE
    _write_json(path, table_to_dict(table))
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text, parse_constant=_reject)
    compact = json.dumps(payload, separators=(",", ":"), sort_keys=True, ensure_ascii=False)
    assert text == compact + "\n"
    again = table_from_dict(_read_json(path))
    for name in ("b", "x"):
        assert _bits(again.numeric(name)) == _bits(table.numeric(name))
    assert _bits(again.bins["b"]) == _bits(table.bins["b"])


# Labels whose JSON text needs an escape or reads like another JSON value.
_json_label = _label | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "é", "𝄞", "\u2028", "null", ""]
)


@settings(max_examples=100, deadline=None)
@given(case_tables(label=_json_label))
def test_case_table_writer_matches_the_compact_encoder(tmp_path_factory, table):
    # The writer encodes each distinct label once and joins the texts by
    # code; the bytes must be those of the decoded payload, encoded whole.
    path = tmp_path_factory.mktemp("case_table") / CASE_TABLE_FILE
    payload = table_to_dict(table)
    _write_json(path, payload)
    payload["outcomes"] = table.outcomes()
    payload["columns"] = {name: list(column) for name, column in payload["columns"].items()}
    assert path.read_text(encoding="utf-8") == _encode_compact(payload) + "\n"
    again = table_from_dict(_read_json(path))
    for name in table.attribute_names:
        assert again.column(name) == table.column(name)
    assert (again.case_ids, again.outcomes(), again.bins) == (
        table.case_ids, table.outcomes(), table.bins
    )


def test_case_table_without_a_key_is_a_schema_error(tmp_path):
    table = make_table([("c", "categorical", False)], [({"c": "a"}, 1)])
    payload = table_to_dict(table)
    for key in payload:
        with pytest.raises(SchemaError, match="case_table.json.*re-run ingest"):
            table_from_dict({k: v for k, v in payload.items() if k != key})


def test_write_json_failure_keeps_the_old_file(tmp_path):
    # A write is all-or-nothing through the stage's staging directory: a
    # staged _write_json that fails leaves the target as it was.
    path = tmp_path / "artifact.json"
    with _Staging(str(tmp_path), "test") as staging:
        _write_json(staging.path("artifact.json"), {"x": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError), _Staging(str(tmp_path), "test") as staging:
        _write_json(staging.path("artifact.json"), {"x": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_staged_write_error_is_a_config_error_that_names_the_artifact(tmp_path):
    with pytest.raises(ConfigError, match=f"cannot write {tmp_path / 'artifact.json'}: "):
        with _Staging(str(tmp_path), "test") as staging:
            path = staging.path("artifact.json")
            os.mkdir(path)
            _write_json(path, {"x": 1})
    assert os.listdir(tmp_path) == []


def test_failed_rules_write_keeps_the_old_file(eight_row_config, tmp_path, monkeypatch):
    stage_ingest(eight_row_config)
    stage_mine(eight_row_config)
    out = Path(eight_row_config.out_dir)
    before = (out / RULES_FILE).read_bytes()
    assert before
    (tmp_path / "log.csv").write_text(
        EIGHT_ROW_CSV.replace(",a,", ",a → b,"), encoding="utf-8"
    )
    stage_ingest(eight_row_config)

    def fail(treatments, path):
        raise OSError(28, "No space left on device")

    # rules.txt is staged before treatments.txt fails to write.
    monkeypatch.setattr(pipeline, "save_treatments", fail)
    with pytest.raises(ConfigError, match="treatments.txt: No space left on device"):
        stage_mine(eight_row_config)
    assert (out / RULES_FILE).read_bytes() == before
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_summary_counts_missing_values_not_missing_labels():
    table = make_table(
        [("c", "categorical", False), ("b", "numeric", False), ("x", "numeric", False)],
        [
            ({"c": MISSING_LABEL, "b": 1.0, "x": None}, 0),
            ({"c": None, "b": None, "x": 2.0}, 1),
            ({"c": "a", "b": 3.0, "x": 3.0}, 0),
        ],
    )
    summary = _summarize_table(discretize(table, {"b": 2}))
    assert "  c: categorical, 2 labels, stable, 1 missing\n" in summary
    assert "  b: numeric, 2 bins, stable, 1 missing\n" in summary
    assert "  x: numeric (not binned), stable, 1 missing\n" in summary


SCENARIO_YAML = """\
n_cases: 2000
seed: 11
p_confounder: 0.5
p_subgroup: 0.5
p_treat_given_confounder: [0.5, 0.5]
p_outcome_treated: [[0.1, 0.9], [0.1, 0.9]]
p_outcome_control: [[0.1, 0.1], [0.1, 0.1]]
"""


def test_simulate_then_run_composes(tmp_path):
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(SCENARIO_YAML, encoding="utf-8")
    out = tmp_path / "sim"

    assert main(["simulate", "--config", str(scenario_path), "--out", str(out)]) == 0
    assert (out / "scenario_log.csv").exists()
    truth = _read_json(out / "ground_truth.json")
    assert truth["cate_by_subgroup"]["1"] == pytest.approx(0.8)
    assert truth["cate_by_subgroup"]["0"] == pytest.approx(0.0)

    assert main(["run", "--config", str(out / "pipeline.yaml")]) == 0
    lines = (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8").splitlines()
    assert len(lines) >= 2
    top = lines[1].split(",")
    assert top[0] == "treatment:0->1"
    assert "subgroup" in top[1]
    assert float(top[3]) > 0.4


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_quick_start_recommends_the_planted_subgroup(tmp_path):
    out = tmp_path / "sim"
    scenario = str(CONFIGS / "planted_scenario.yaml")
    assert main(["simulate", "--config", scenario, "--out", str(out)]) == 0
    assert main(["run", "--config", str(out / "pipeline.yaml")]) == 0
    truth = _read_json(out / GROUND_TRUTH_FILE)["cate_by_subgroup"]["1"]
    with open(out / RECOMMENDATIONS_FILE, newline="", encoding="utf-8") as fh:
        top = next(csv.DictReader(fh))
    assert abs(float(top["uplift"]) - truth) <= 0.1
    # Every case the top segment admits is in the planted subgroup.
    conditions = [term.split(" ") for term in top["segment"].split(" and ")]
    holds = {"==": str.__eq__, "!=": str.__ne__}
    with open(out / SCENARIO_LOG_FILE, newline="", encoding="utf-8") as fh:
        admitted = [
            row["subgroup"]
            for row in csv.DictReader(fh)
            if all(holds[op](row[attribute], value) for attribute, op, value in conditions)
        ]
    assert len(admitted) == int(top["n"]) and set(admitted) == {"1"}


def test_bpic2017_config_declares_the_offer_as_the_treatment():
    config = load_config(CONFIGS / "bpic2017.yaml")
    config = dataclasses.replace(config, input="BPI_Challenge_2017.xes.gz")
    assert config.input == "BPI_Challenge_2017.xes.gz"
    assert (config.input_format, config.outcome) == ("xes", "Selected")
    assert len(config.attributes) == 9
    controllable = {a.name for a in config.attributes if a.controllable}
    assert controllable == {"FirstWithdrawalAmount", "MonthlyCost", "NumberOfTerms", "OfferedAmount"}
    numeric = {a.name for a in config.attributes if a.kind == "numeric"}
    assert config.bins == dict.fromkeys(numeric, 4)
    assert config.tree == TreeParams() and config.rules == RuleParams()
    assert config.cost == CostModel(1.0, 0.0) and not config.cost_overrides


def _bpic_shaped_xes(path: Path, n_cases: int) -> None:
    """One event per case with the BPIC 2017 config's attributes; a low
    MonthlyCost lifts Selected."""
    rng = np.random.default_rng(17)
    stamp = datetime(2017, 1, 1, tzinfo=timezone.utc)
    traces = []
    for i in range(n_cases):
        cost = float(rng.integers(50, 500))
        attrs = {
            "LoanGoal": str(rng.choice(["Car", "Home", "Other"])),
            "ApplicationType": str(rng.choice(["New credit", "Limit raise"])),
            "RequestedAmount": float(rng.integers(1, 50) * 1000),
            "CreditScore": float(rng.integers(0, 1200)),
            "FirstWithdrawalAmount": float(rng.integers(0, 20) * 500),
            "MonthlyCost": cost,
            "NumberOfTerms": float(rng.integers(12, 120)),
            "OfferedAmount": float(rng.integers(1, 50) * 1000),
            "Selected": bool(rng.random() < (0.7 if cost < 200 else 0.3)),
        }
        traces.append((f"Application_{i}", {}, [("O_Create Offer", stamp, attrs)], False))
    path.write_bytes(xes_log(traces))


def test_bpic2017_config_runs_stage_by_stage(tmp_path):
    # The committed config names no log: ingest takes it from --input, and
    # mine, uplift and rank read out_dir alone, keep the input that ingest
    # recorded and write what run writes.
    log = tmp_path / "bpic.xes"
    _bpic_shaped_xes(log, 800)
    config = str(CONFIGS / "bpic2017.yaml")
    whole, staged = tmp_path / "whole", tmp_path / "staged"
    assert main(["run", "--config", config, "--input", str(log), "--out", str(whole)]) == 0
    assert main(["ingest", "--config", config, "--input", str(log), "--out", str(staged)]) == 0
    for stage in ("mine", "uplift", "rank"):
        assert main([stage, "--config", config, "--out", str(staged)]) == 0, stage
        assert _read_json(staged / MANIFEST_FILE)["config"]["input"] == str(log), stage
    want, got = snapshot(whole), snapshot(staged)
    assert any(path.startswith(TREES_DIR) for path in want)
    manifests = [json.loads(files.pop(MANIFEST_FILE)) for files in (want, got)]
    assert got == want
    for manifest, out in zip(manifests, (whole, staged)):
        assert manifest["config"].pop("out_dir") == str(out)
    assert manifests[0] == manifests[1]


def test_each_stage_pins_the_mmap_threshold_once(eight_row_config, tmp_path, monkeypatch):
    pins = []
    monkeypatch.setattr(pipeline, "pin_mmap_threshold", lambda: pins.append(1))
    for stage in (stage_ingest, stage_mine, stage_uplift, stage_rank):
        pins.clear()
        stage(eight_row_config)
        assert len(pins) == 1, stage.__name__
    pins.clear()
    run(eight_row_config)
    assert len(pins) == 4
    # simulate writes no stage of the pipeline, and is left unpinned.
    pins.clear()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML, encoding="utf-8")
    assert main(["simulate", "--config", str(scenario), "--out", str(tmp_path / "sim")]) == 0
    assert pins == []


def test_simulate_is_deterministic_across_directories(tmp_path):
    scenario_path = tmp_path / "scenario.yaml"
    scenario_path.write_text(SCENARIO_YAML, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(scenario_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(scenario_path), "--out", str(out_b)]) == 0
    for name in ("scenario_log.csv", "ground_truth.json", "pipeline.yaml"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_exit_codes(tmp_path, eight_row_config):
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])
    assert excinfo.value.code == 1

    bad_config = tmp_path / "bad.yaml"
    bad_config.write_text("input: x\nsurprise: true\n", encoding="utf-8")
    assert main(["run", "--config", str(bad_config)]) == 1

    good_config = tmp_path / "good.yaml"
    raw = minimal_raw(tmp_path)
    raw["input"] = str(tmp_path / "no_such_log.csv")
    good_config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["ingest", "--config", str(good_config)]) == 2

    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    ok_config = tmp_path / "ok.yaml"
    ok_raw = minimal_raw(tmp_path)
    ok_raw["out_dir"] = str(tmp_path / "cli_out")
    ok_config.write_text(yaml.safe_dump(ok_raw), encoding="utf-8")
    assert main(["ingest", "--config", str(ok_config)]) == 0
    assert (tmp_path / "cli_out" / CASE_TABLE_FILE).exists()

    assert main(["mine", "--config", str(ok_config), "--out", str(tmp_path / "empty")]) == 1


def test_cli_input_stands_in_for_a_config_without_one(tmp_path, caplog, monkeypatch):
    # --input is taken as given, relative to the working directory, while
    # out_dir resolves against the config's folder.
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    nested = tmp_path / "configs"
    nested.mkdir()
    raw = {**minimal_raw(tmp_path), "out_dir": "out"}
    del raw["input"]
    assert config_from_dict(raw).input is None
    config = nested / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--config", str(config), "--input", "log.csv"]) == 0
    assert (nested / "out" / CASE_TABLE_FILE).exists()
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(config)]) == 1
    assert f"config {config} names no input log: set its input key or give --input" in caplog.text


def test_cli_short_csv_row_is_a_data_error(tmp_path, caplog):
    (tmp_path / "log.csv").write_text(
        "case_id,activity,timestamp,S,F,Y\nc1,apply\n", encoding="utf-8"
    )
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config)]) == 2
    assert "row 1" in caplog.text
    assert "unexpected failure" not in caplog.text


XES_WRONGLY_TYPED = """<log><trace>
  <string key="concept:name" value="c1"/>
  <event>
    <string key="concept:name" value="apply"/>
    <date key="time:timestamp" value="2020-01-01T00:00:00Z"/>
    <int key="S" value="abc"/>
  </event>
</trace></log>"""


@pytest.mark.parametrize(
    "log_name, data, message",
    [
        ("log.xes", XES_WRONGLY_TYPED.encode(), "trace 'c1': <int> attribute 'S'"),
        ("log.csv", EIGHT_ROW_CSV.encode().replace(b",x,", b",\xff,", 1), "invalid UTF-8 at byte"),
    ],
    ids=["xes-wrongly-typed", "csv-invalid-utf8"],
)
def test_cli_undecodable_log_value_is_a_data_error(tmp_path, caplog, log_name, data, message):
    (tmp_path / log_name).write_bytes(data)
    raw = minimal_raw(tmp_path)
    raw["input"] = str(tmp_path / log_name)
    raw["format"] = log_name.rsplit(".", 1)[1]
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config)]) == 2
    assert message in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize(
    "log_name, data, message",
    [
        (
            "log.xes",
            b'<log><event><string key="concept:name" value="apply"/></event></log>',
            "XES <event> outside of a <trace>",
        ),
        (
            "log.csv",
            EIGHT_ROW_CSV.replace(",x,", f",{'x' * 200_000},", 1).encode(),
            "malformed CSV at line 2: field larger than field limit",
        ),
    ],
    ids=["xes-event-outside-a-trace", "csv-field-over-the-limit"],
)
def test_cli_malformed_log_is_a_data_error(tmp_path, caplog, log_name, data, message):
    (tmp_path / log_name).write_bytes(data)
    raw = minimal_raw(tmp_path)
    raw.update(input=str(tmp_path / log_name), format=log_name.rsplit(".", 1)[1])
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config)]) == 2
    assert message in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"source": "last", "source_arg": 5}, "source_arg must be a string"),
        ({"source": "sum"}, "unknown source 'sum'"),
        ({"source": "count"}, "source 'count' needs source_arg"),
    ],
)
def test_cli_bad_attribute_source_is_a_config_error(tmp_path, caplog, fields, message):
    raw = minimal_raw(tmp_path)
    raw["attributes"][0].update(fields)
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(config)]) == 1
    assert f"attribute 'S': {message}" in caplog.text
    assert "unexpected failure" not in caplog.text


def test_cli_int_too_large_for_a_float_is_a_data_error(tmp_path, caplog):
    # A 400-digit <int> reads as an int, but float() of it overflows.
    data = XES_WRONGLY_TYPED.replace(
        '<int key="S" value="abc"/>', f'<int key="S" value="{"9" * 400}"/><int key="Y" value="1"/>'
    )
    (tmp_path / "log.xes").write_text(data, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["attributes"][0]["kind"] = "numeric"
    raw.update(input=str(tmp_path / "log.xes"), format="xes", out_dir=str(tmp_path / "out"))
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config)]) == 2
    assert "attribute 'S': value in case 'c1' is too large for a float" in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("tree", {"n_reg": float("inf")}, "tree.n_reg must be finite"),
        ("cost", {"outcome_value": float("nan")}, "cost.outcome_value must be finite"),
        ("cost", {"impression_cost": float("inf")}, "cost.impression_cost must be finite"),
        ("min_uplift", float("nan"), "min_uplift must be finite"),
        ("csv", {"timestamp_format": 5}, "csv.timestamp_format must be a string"),
        ("csv", {"case_id": [1]}, "csv.case_id must be a string"),
    ],
    ids=["n_reg-inf", "outcome_value-nan", "impression_cost-inf", "min_uplift-nan",
         "timestamp_format-int", "case_id-list"],
)
def test_cli_non_finite_or_mistyped_config_is_a_config_error(
    tmp_path, caplog, section, value, message
):
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    raw[section] = value
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["run", "--config", str(config)]) == 1
    assert message in caplog.text
    assert "unexpected failure" not in caplog.text
    assert not (tmp_path / "out").exists()


def test_cli_unordered_bins_are_a_config_error_before_the_input_is_read(tmp_path, caplog):
    raw = minimal_raw(tmp_path)  # its log.csv does not exist
    _bins_on_v([700.0, 600.0])(raw)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config)]) == 1
    assert "bins for 'V'" in caplog.text
    assert "cannot read input" not in caplog.text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, mutate, message",
    [
        (
            "ingest",
            lambda raw: raw["attributes"][2].update(controllable=True),
            "outcome 'Y' must not be controllable",
        ),
        (
            "run",
            lambda raw: raw["attributes"].append({"name": "V", "kind": "numeric"}),
            "numeric attribute 'V' has no bins entry",
        ),
        ("ingest", lambda raw: raw.update(outcome=""), "outcome attribute name is required"),
        (
            "ingest",
            lambda raw: raw["attributes"].append({"name": "S", "kind": "numeric"}),
            "duplicate attribute names in config",
        ),
    ],
    ids=["controllable-outcome", "run-unbinned-numeric", "empty-outcome", "duplicate-attribute"],
)
def test_cli_config_fault_is_reported_before_the_input_is_read(
    tmp_path, caplog, command, mutate, message
):
    raw = minimal_raw(tmp_path)  # its log.csv does not exist
    mutate(raw)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config)]) == 1
    assert message in caplog.text
    assert "cannot read input" not in caplog.text
    assert not (tmp_path / "out").exists()


def test_run_with_an_unbinned_numeric_feature_writes_nothing(eight_row_config):
    config = dataclasses.replace(
        eight_row_config, attributes=[*eight_row_config.attributes, AttributeSchema("V", "numeric")]
    )
    with pytest.raises(ConfigError, match="numeric attribute 'V' has no bins entry"):
        run(config)
    assert not (Path(config.out_dir) / CASE_TABLE_FILE).exists()
    # A standalone ingest still takes it, for the tree to split at raw thresholds.
    stage_ingest(config)
    assert (Path(config.out_dir) / CASE_TABLE_FILE).exists()


SCENARIO = {
    "n_cases": 200,
    "seed": 7,
    "p_confounder": 0.5,
    "p_subgroup": 0.5,
    "p_treat_given_confounder": [0.5, 0.5],
    "p_outcome_treated": [[0.1, 0.8], [0.1, 0.8]],
    "p_outcome_control": [[0.1, 0.1], [0.1, 0.1]],
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", -1, "seed must be >= 0"),
        ("n_cases", 10.7, "n_cases must be an integer"),
        ("n_cases", True, "n_cases must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("p_confounder", "0.5", "p_confounder must be a number"),
        ("n_case", 200, "unknown scenario keys: n_case"),
    ],
)
def test_cli_mistyped_scenario_is_a_config_error(tmp_path, caplog, key, value, message):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({**SCENARIO, key: value}), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 1
    assert message in caplog.text
    assert "unexpected failure" not in caplog.text
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run", "- input: log.csv\n", "config must be a mapping"),
        ("run", "input: [log.csv\n", "cannot parse config"),
        ("simulate", "- seed: 1\n", "scenario must be a mapping"),
        ("simulate", "seed: [1\n", "cannot parse scenario"),
    ],
    ids=["config-list", "config-yaml", "scenario-list", "scenario-yaml"],
)
def test_cli_config_or_scenario_not_a_yaml_mapping_is_a_config_error(
    tmp_path, caplog, command, text, message
):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in caplog.text
    assert "unexpected failure" not in caplog.text
    assert not (tmp_path / "out").exists()


def test_cli_negative_seed_override_is_a_config_error(tmp_path, caplog):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SCENARIO), encoding="utf-8")
    argv = ["simulate", "--config", str(path), "--out", str(tmp_path / "sim"), "--seed", "-1"]
    with caplog.at_level(logging.ERROR):
        assert main(argv) == 1
    assert "seed must be >= 0" in caplog.text
    assert "unexpected failure" not in caplog.text


def test_cli_run_writes_labels_with_line_breaks_and_arrows(tmp_path):
    (tmp_path / "log.csv").write_text(
        EIGHT_ROW_CSV.replace(",x,", ',"line one\nline two",').replace(",a,", ",a → b,"),
        encoding="utf-8",
    )
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    raw["rules"] = {"min_support": 0.25, "min_confidence": 0.75}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / RECOMMENDATIONS_FILE).exists()
    rules = mine_action_rules(table_from_dict(_read_json(out / CASE_TABLE_FILE)), 0.25, 0.75)
    assert AtomicActionTerm("S", "line one\nline two", "line one\nline two") in rules[0].stable
    assert AtomicActionTerm("F", "a → b", "b") in rules[0].flexible
    assert load_rules(out / RULES_FILE) == rules
    assert load_treatments(out / TREATMENTS_FILE) == extract_treatments(rules)


def test_cli_ingest_input_and_format_override_the_config(tmp_path):
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 0
    out = tmp_path / "out"
    from_csv = (out / CASE_TABLE_FILE).read_bytes()
    traces = []
    for line in EIGHT_ROW_CSV.splitlines()[1:]:
        case_id, activity, stamp, s, f, y = line.split(",")
        stamp = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
        traces.append((case_id, {}, [(activity, stamp, {"S": s, "F": f, "Y": y})], False))
    xes = tmp_path / "log.xes"
    xes.write_bytes(xes_log(traces))
    shutil.rmtree(out)
    argv = ["ingest", "--config", str(config), "--input", str(xes), "--format", "xes"]
    assert main(argv) == 0
    assert (out / CASE_TABLE_FILE).read_bytes() == from_csv
    recorded = _read_json(out / MANIFEST_FILE)["config"]
    assert (recorded["input"], recorded["format"]) == (str(xes), "xes")


@pytest.mark.parametrize(
    "key, argv, message",
    [
        ("log.csv", ["--input", ""], "input path must not be empty"),
        ("log.csv", ["--out", ""], "cannot create output directory"),
        ("", ["--input", "log.csv"], "input path must not be empty"),
    ],
    ids=["empty-input-flag", "empty-out-flag", "empty-input-key"],
)
def test_cli_flags_pass_the_checks_of_their_keys(tmp_path, caplog, monkeypatch, key, argv, message):
    # ingest --input "" fails as input: "" does, and --input does not hide a
    # bad input key; neither writes anything.
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = {**minimal_raw(tmp_path), "input": key, "out_dir": str(tmp_path / "out")}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with caplog.at_level(logging.ERROR):
        assert main(["ingest", "--config", str(config), *argv]) == 1
    assert message in caplog.text
    assert sorted(os.listdir(tmp_path)) == ["log.csv", "pipeline.yaml"]


def test_cli_run_mines_an_empty_xes_label(tmp_path):
    # F is value="" in half the traces and "b", which lifts Y, in the rest.
    stamp = datetime(2020, 1, 1, tzinfo=timezone.utc)
    traces = []
    for i in range(40):
        f = "b" if i % 2 else ""
        y = str(int((f == "b") != (i % 10 == 1)))
        traces.append((f"c{i}", {}, [("apply", stamp, {"S": "x", "F": f, "Y": y})], False))
    (tmp_path / "log.xes").write_bytes(xes_log(traces))
    raw = minimal_raw(tmp_path)
    raw.update(
        input=str(tmp_path / "log.xes"),
        format="xes",
        out_dir=str(tmp_path / "out"),
        rules={"min_support": 0.25, "min_confidence": 0.75},
        tree={"min_samples_split": 4, "min_samples_treatment": 1},
    )
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert load_treatments(out / TREATMENTS_FILE) == [Treatment((AtomicActionTerm("F", "", "b"),))]
    assert "\nF:->b," in (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8")


def _row_layout(path: Path) -> bytes:
    """The case table as versions before the columnar layout wrote it."""
    payload = _read_json(path)
    columns = payload.pop("columns")
    payload["rows"] = [
        {"case_id": case_id, "features": {n: v[i] for n, v in columns.items()}, "outcome": y}
        for i, (case_id, y) in enumerate(zip(payload.pop("case_ids"), payload.pop("outcomes")))
    ]
    return json.dumps(payload).encode()


def _edited(edit):
    """A corruption that rewrites the eight-row case table's payload by edit."""
    return lambda path: json.dumps(edit(_read_json(path))).encode()


def _binned_n(payload: dict, bounds, previous_layout=False) -> dict:
    """The eight-row case table plus a numeric attribute n = 0..7 binned at
    bounds; previous_layout writes n as versions before this layout did,
    interval labels in columns and the numbers under raw_numeric."""
    numbers = [float(i) for i in range(8)]
    payload["schema"].append({**payload["schema"][0], "name": "n", "kind": "numeric"})
    payload["columns"]["n"] = numbers
    payload["bins"] = {"n": bounds}
    if previous_layout:
        payload["columns"]["n"] = ["[0-3]"] * 4 + [">3"] * 4
        payload["raw_numeric"] = {"n": numbers}
    return payload


def _binned(bounds, previous_layout=False):
    return _edited(lambda payload: _binned_n(payload, bounds, previous_layout))


def _edit_column(name, values):
    return _edited(lambda payload: {**payload, "columns": {**payload["columns"], name: values}})


def _numbers(values):
    """The eight-row case table plus a numeric attribute n holding values."""

    def edit(payload):
        payload = _binned_n(payload, [3.5])
        payload["columns"]["n"] = values
        return payload

    return _edited(edit)


@pytest.mark.parametrize(
    "corrupt",
    [
        _row_layout,
        lambda path: path.read_bytes()[:100],
        lambda path: b"\xff\xfe{}",
        lambda path: b"",
        _binned([2.0, 1.0]),
        _binned(["a", "b"]),
        _binned([float("nan")]),
        _binned([3.5], previous_layout=True),
        _edited(lambda payload: {**_binned_n(payload, [3.5]), "bins": ["n"]}),
        _edited(lambda payload: {**payload, "case_ids": "abcdefgh"}),
        _edit_column("S", "xxxxxxyy"),
        _edit_column("S", {f"c{i}": "x" for i in range(8)}),
        _numbers([math.inf] * 8),
        _binned([-math.inf]),
        _numbers(["1.5"] * 8),
        _numbers(["Infinity"] * 8),
        _numbers([True] * 8),
        _numbers([10**400] * 8),
        _edited(lambda payload: {**payload, "outcome": 5}),
        _edit_column("S", [1] * 8),
        _edit_column("S", list("xxxxxxy")),
        _edited(lambda payload: {**payload, "outcomes": [0] * 7}),
        _edited(lambda payload: {**payload, "outcomes": [2] + [0] * 7}),
        _edited(lambda payload: {**payload, "columns": {"F": payload["columns"]["F"]}}),
        _edited(lambda payload: {**payload, "bins": {"S": [1.0]}}),
        _edited(lambda payload: {**payload, "schema": payload["schema"] * 2}),
        _edited(lambda payload: {
            **payload, "schema": [{**payload["schema"][0], "kind": "text"}, payload["schema"][1]]
        }),
    ],
    ids=["row-layout", "truncated", "not-utf8", "empty", "non-increasing", "text", "nan",
         "previous-layout", "bins-list", "case-ids-text", "column-text", "column-object",
         "infinity-token", "infinity-token-bins", "number-text", "infinity-text",
         "number-boolean", "number-too-large", "outcome-number", "label-number",
         "column-short", "outcomes-short", "outcome-two", "column-missing",
         "bins-categorical", "schema-duplicate", "schema-kind"],
)
def test_cli_stale_or_corrupt_case_table_is_a_data_error(tmp_path, caplog, corrupt):
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 0
    path = tmp_path / "out" / CASE_TABLE_FILE
    path.write_bytes(corrupt(path))
    with caplog.at_level(logging.ERROR):
        assert main(["mine", "--config", str(config)]) == 2
    assert CASE_TABLE_FILE in caplog.text
    assert "unexpected failure" not in caplog.text


def _run_eight_rows(tmp_path: Path) -> Path:
    """Run the eight-row log into tmp_path/out, one segment at least; returns
    the config path."""
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    raw["rules"] = {"min_support": 0.25, "min_confidence": 0.75}
    raw["tree"] = {"max_depth": 2, "min_samples_split": 4, "min_samples_treatment": 1}
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    assert _read_json(tmp_path / "out" / SEGMENTS_FILE)["treatments"][0]["segments"]
    return config


def _edit_first_treatment(payload: dict, **fields) -> dict:
    first, *rest = payload["treatments"]
    return {**payload, "treatments": [{**first, **fields}, *rest]}


def _edit_segments(edit):
    def corrupt(payload: dict) -> dict:
        segments = [edit(s) for s in payload["treatments"][0]["segments"]]
        return _edit_first_treatment(payload, segments=segments)

    return corrupt


@pytest.mark.parametrize(
    "filename, corrupt",
    [
        (SEGMENTS_FILE, lambda payload: {}),
        (SEGMENTS_FILE, lambda payload: []),
        (SEGMENTS_FILE, lambda payload: _edit_first_treatment(payload, changes=[])),
        (
            SEGMENTS_FILE,
            lambda payload: _edit_first_treatment(
                payload, changes=[{**payload["treatments"][0]["changes"][0], "from": 1}]
            ),
        ),
        (SEGMENTS_FILE, _edit_segments(lambda s: {k: v for k, v in s.items() if k != "conditions"})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "conditions": [["S"]]})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "conditions": [[1, "==", "x"]]})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "conditions": [["S", "<=", "x"]]})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "conditions": [["S", "<=", True]]})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "conditions": [["S", "<=", "nan"]]})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "uplift": "high"})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "n_treat": "3"})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "n_reachable": -5})),
        (SEGMENTS_FILE, _edit_segments(lambda s: {**s, "n_treat": -1})),
        (MANIFEST_FILE, lambda payload: []),
        (MANIFEST_FILE, lambda payload: {**payload, "stages": []}),
    ],
    ids=[
        "segments-object", "segments-list", "no-changes", "number-from", "no-conditions",
        "condition-arity", "number-attribute", "text-threshold", "bool-threshold",
        "nan-threshold", "text-uplift", "text-count", "negative-reachable", "negative-treat",
        "manifest-list", "manifest-stages-list",
    ],
)
def test_cli_malformed_segments_or_manifest_is_a_data_error(tmp_path, caplog, filename, corrupt):
    config = _run_eight_rows(tmp_path)
    path = tmp_path / "out" / filename
    _write_json(path, corrupt(_read_json(path)))
    with caplog.at_level(logging.ERROR):
        assert main(["rank", "--config", str(config)]) == 2
    assert filename in caplog.text
    assert "unexpected failure" not in caplog.text


def _minus_inf_log() -> str:
    """800 cases: x is -inf in half of them, where F = b lifts Y, and 1 in
    the rest, where it barely does; the tree splits x at -inf."""
    rows = []
    for i in range(800):
        f = "ab"[i // 2 % 2]
        if i % 2 == 0:
            x, y = "-inf", (f == "b") == (i % 10 != 0)
        else:
            x, y = "1", i // 4 % 2
        rows.append(f"c{i},apply,2020-01-01T00:00:00Z,{x},{f},{int(y)}\n")
    return "case_id,activity,timestamp,x,F,Y\n" + "".join(rows)


def test_infinite_threshold_is_strict_json_in_segments(tmp_path):
    (tmp_path / "log.csv").write_text(_minus_inf_log(), encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["attributes"][0] = {"name": "x", "kind": "numeric"}
    raw.update(
        out_dir=str(tmp_path / "out"),
        bins={"x": [0.0]},
        rules={"min_support": 0.01, "min_confidence": 0.01},
        tree={"min_samples_split": 10, "min_samples_treatment": 5},
    )
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "out"
    for path in out.glob("*.json"):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject)
    segments = _read_json(out / SEGMENTS_FILE)["treatments"][0]["segments"]
    assert [["x", "<=", "-inf"]] in [s["conditions"] for s in segments]
    recommendations = (out / RECOMMENDATIONS_FILE).read_text(encoding="utf-8")
    assert "F:a->b,x <= -inf,400," in recommendations
    assert any("x <= -inf" in p.read_text(encoding="utf-8") for p in (out / TREES_DIR).iterdir())


@pytest.mark.parametrize("filename", [SEGMENTS_FILE, MANIFEST_FILE])
def test_cli_non_standard_json_token_is_a_data_error(tmp_path, caplog, filename):
    config = _run_eight_rows(tmp_path)
    path = tmp_path / "out" / filename
    payload = _read_json(path)
    if filename == SEGMENTS_FILE:
        payload = _edit_segments(lambda s: {**s, "uplift": math.nan})(payload)
    else:
        payload["stages"]["ingest"]["n_events"] = math.inf
    path.write_text(json.dumps(payload), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(["rank", "--config", str(config)]) == 2
    assert f"{filename} holds" in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize(
    "filename, command, stage",
    [(SEGMENTS_FILE, "rank", "uplift"), (CASE_TABLE_FILE, "mine", "ingest")],
)
def test_cli_stale_non_standard_json_names_the_stage_to_rerun(
    tmp_path, caplog, filename, command, stage
):
    # An artifact written before JSON artifacts were strict can hold a bare
    # -Infinity; the error says which stage writes the file anew.
    config = _run_eight_rows(tmp_path)
    path = tmp_path / "out" / filename
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("[", "[-Infinity,", 1), encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config)]) == 2
    assert f"{filename} holds -Infinity, which is not standard JSON; re-run {stage}" in caplog.text
    assert "unexpected failure" not in caplog.text


def _files(out: Path) -> dict:
    """Bytes, inode and mtime of every file under out. Artifacts are replaced
    by rename, so a rewrite with the same bytes shows as a new inode or, as a
    removed file's inode can come back, as a new mtime (see _backdated_files)."""
    return {
        p: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
        for p in out.rglob("*")
        if p.is_file()
    }


def _backdated_files(out: Path) -> dict:
    """_files(out) once every file under out is backdated to the epoch, so
    that any later write moves its mtime."""
    for p in out.rglob("*"):
        if p.is_file():
            os.utime(p, ns=(0, 0))
    return _files(out)


def test_files_sees_a_rewrite_with_the_same_bytes(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "artifact.txt"
    path.write_text("same\n", encoding="utf-8")
    before = _backdated_files(out)
    copy = tmp_path / "copy.txt"
    shutil.copyfile(path, copy)
    os.replace(copy, path)
    after = _files(out)
    assert after != before
    assert after[path][0] == before[path][0]
    assert after[path][2] != before[path][2]


@pytest.mark.parametrize("command", ["ingest", "mine", "uplift", "rank"])
def test_cli_malformed_manifest_leaves_every_artifact_untouched(tmp_path, caplog, command):
    config = _run_eight_rows(tmp_path)
    out = tmp_path / "out"
    assert list((out / TREES_DIR).glob("*.dot"))
    _write_json(out / MANIFEST_FILE, [])
    before = _backdated_files(out)
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config)]) == 2
    assert MANIFEST_FILE in caplog.text
    assert "unexpected failure" not in caplog.text
    assert _files(out) == before


@pytest.mark.parametrize("lines", [["nope:a->b", "F:a->b"], ["F:a->b", "F:b->a", "nope:a->b"]])
def test_cli_failed_uplift_leaves_every_artifact_untouched(tmp_path, caplog, lines):
    config = _run_eight_rows(tmp_path)
    out = tmp_path / "out"
    assert list((out / TREES_DIR).glob("*.dot"))
    treatments = tmp_path / "treatments.txt"
    treatments.write_text("\n".join(lines) + "\n", encoding="utf-8")
    before = _backdated_files(out)
    with caplog.at_level(logging.ERROR):
        assert main(["uplift", "--config", str(config), "--treatments", str(treatments)]) == 2
    assert "'nope'" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert _files(out) == before


@pytest.mark.parametrize(
    "command, filename",
    [("mine", MANIFEST_FILE), ("mine", CASE_TABLE_FILE), ("uplift", SEGMENTS_FILE),
     ("rank", RECOMMENDATIONS_FILE)],
)
def test_cli_artifact_that_is_a_directory_is_a_config_error(tmp_path, caplog, command, filename):
    config = _run_eight_rows(tmp_path)
    path = tmp_path / "out" / filename
    path.unlink()
    path.mkdir()
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config)]) == 1
    assert f"{path}: Is a directory" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert path.is_dir()
    assert not list((tmp_path / "out").rglob("*.tmp"))


@pytest.mark.parametrize(
    "command, blocked",
    [("ingest", CASE_SUMMARY_FILE), ("mine", TREATMENTS_FILE), ("uplift", SEGMENTS_FILE)],
)
def test_cli_stage_replaces_all_of_its_artifacts_or_none(tmp_path, caplog, command, blocked):
    # The blocked artifact is written after the stage's others (the case
    # table, rules.txt, the trees): none of them may be replaced either.
    config = _run_eight_rows(tmp_path)
    out = tmp_path / "out"
    (out / blocked).unlink()
    (out / blocked).mkdir()
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV.replace("c7,", "c9,"), encoding="utf-8")
    before = _backdated_files(out)
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config)]) == 1
    assert f"{out / blocked}: Is a directory" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert _files(out) == before
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("blocked", ["pipeline.yaml", "ground_truth.json"])
def test_cli_simulate_replaces_all_of_its_files_or_none(tmp_path, caplog, blocked):
    # scenario_log.csv is written before either blocked file: it may not be
    # replaced either, or the log and its ground truth come from two seeds.
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(scenario), "--out", str(out)]
    assert main(argv) == 0
    (out / blocked).unlink()
    (out / blocked).mkdir()
    before = _backdated_files(out)
    with caplog.at_level(logging.ERROR):
        assert main([*argv, "--seed", "12"]) == 1
    assert f"{out / blocked}: Is a directory" in caplog.text
    assert "unexpected failure" not in caplog.text
    assert _files(out) == before
    assert not list(out.rglob("*.tmp"))


def _unreadable(path: Path, how: str) -> None:
    if how == "directory":
        path.mkdir()
    elif how == "invalid-utf8":
        path.write_bytes(b"input: caf\xe9.csv\n")


@pytest.mark.parametrize("how", ["missing", "directory", "invalid-utf8"])
@pytest.mark.parametrize("command", ["run", "simulate"])
def test_cli_unreadable_config_or_scenario_is_a_config_error(tmp_path, caplog, command, how):
    path = tmp_path / "config.yaml"
    _unreadable(path, how)
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "sim")]
    with caplog.at_level(logging.ERROR):
        assert main(argv) == 1
    assert f"cannot read {'config' if command == 'run' else 'scenario'} {path}" in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize("how", ["missing", "directory", "invalid-utf8"])
def test_cli_unreadable_treatments_file_is_a_config_error(tmp_path, caplog, how):
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    raw = minimal_raw(tmp_path)
    raw["out_dir"] = str(tmp_path / "out")
    config = tmp_path / "pipeline.yaml"
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 0
    path = tmp_path / "treatments.txt"
    _unreadable(path, how)
    with caplog.at_level(logging.ERROR):
        assert main(["uplift", "--config", str(config), "--treatments", str(path)]) == 1
    assert f"cannot read treatments file {path}" in caplog.text
    assert "unexpected failure" not in caplog.text


@pytest.mark.parametrize("command", ["ingest", "run", "simulate"])
def test_cli_out_naming_a_file_is_a_config_error(tmp_path, caplog, command):
    (tmp_path / "log.csv").write_text(EIGHT_ROW_CSV, encoding="utf-8")
    config = tmp_path / "config.yaml"
    if command == "simulate":
        config.write_text(yaml.safe_dump(SCENARIO), encoding="utf-8")
    else:
        config.write_text(yaml.safe_dump(minimal_raw(tmp_path)), encoding="utf-8")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main([command, "--config", str(config), "--out", str(taken)]) == 1
    assert f"cannot create output directory {taken}: " in caplog.text
    assert "unexpected failure" not in caplog.text
    assert taken.read_text(encoding="utf-8") == "not a directory\n"
