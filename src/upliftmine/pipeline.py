"""Pipeline stages behind the CLI.

Every stage reads its input artifact from the configured output directory
and writes its own artifacts plus a manifest entry, so a full run is
literally the composition of the stages and produces byte-identical files
either way. Artifacts are plain text or JSON to stay diff-able.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import logging
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .actionrules import (
    AtomicActionTerm,
    Treatment,
    extract_treatments,
    mine_action_rules,
    save_rules,
)
from .casetable import NUMERIC, AttributeSchema, CaseTable
from .casetable import discretize, encode_cases
from .config import PipelineConfig, config_to_dict, save_config
from .errors import ConfigError, PositivityError, SchemaError, read_text
from .logparse import parse_csv, parse_xes
from .ranking import rank, write_recommendations
from .synthetic import OUTCOME, SyntheticScenario, generate, naive_pooled_uplift, write_log
from .uplift import Segment, assign_groups, build_tree, extract_segments, to_dot

log = logging.getLogger(__name__)

CASE_TABLE_FILE = "case_table.json"
CASE_SUMMARY_FILE = "case_table_summary.txt"
RULES_FILE = "rules.txt"
TREATMENTS_FILE = "treatments.txt"
TREES_DIR = "trees"
SEGMENTS_FILE = "segments.json"
RECOMMENDATIONS_FILE = "recommendations.csv"
MANIFEST_FILE = "manifest.json"

SCENARIO_LOG_FILE = "scenario_log.csv"
GROUND_TRUTH_FILE = "ground_truth.json"
PIPELINE_CONFIG_FILE = "pipeline.yaml"


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path beside path and rename it over path once the
    block has written it: readers never see a partial artifact, and a failed
    write leaves the old one untouched."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path, payload) -> None:
    with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _require_artifact(out_dir: str, filename: str, producer: str) -> str:
    path = os.path.join(out_dir, filename)
    if not os.path.exists(path):
        raise ConfigError(f"missing artifact {path}: run the {producer} stage first")
    return path


def _make_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def _read_manifest(out_dir: str) -> dict:
    """The manifest in out_dir, or an empty one; read before a stage writes."""
    path = os.path.join(out_dir, MANIFEST_FILE)
    manifest = _read_json(path) if os.path.exists(path) else {"stages": {}}
    if not isinstance(manifest, dict) or not isinstance(manifest.setdefault("stages", {}), dict):
        raise SchemaError(
            f"{MANIFEST_FILE} is not a manifest: expected an object whose stages "
            "are an object; remove it or re-run the pipeline"
        )
    return manifest


def _write_manifest(config: PipelineConfig, manifest: dict, stage: str, info: dict) -> None:
    manifest["tool"] = {"name": "upliftmine", "version": __version__}
    manifest["config"] = config_to_dict(config)
    manifest["stages"][stage] = info
    _write_json(os.path.join(config.out_dir, MANIFEST_FILE), manifest)


# ---------------------------------------------------------------------------
# Case table artifact
# ---------------------------------------------------------------------------

def table_to_dict(table: CaseTable) -> dict:
    return {
        "schema": [asdict(a) for a in table.schema],
        "outcome": table.outcome_name,
        "case_ids": table.case_ids,
        "outcomes": table.outcomes(),
        "columns": {name: table.column(name) for name in table.attribute_names},
        "bins": table.bins,
    }


_CASE_TABLE_KEYS = {"schema", "outcome", "case_ids", "outcomes", "columns", "bins"}


def table_from_dict(payload: dict) -> CaseTable:
    try:
        if set(payload) != _CASE_TABLE_KEYS:
            raise KeyError(sorted(set(payload) ^ _CASE_TABLE_KEYS))
        return CaseTable(
            [AttributeSchema(**entry) for entry in payload["schema"]],
            payload["outcome"],
            payload["case_ids"],
            payload["outcomes"],
            payload["columns"],
            payload["bins"],
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(
            f"{CASE_TABLE_FILE} is not a case table of this version ({exc!r}); "
            "re-run ingest"
        ) from None
    except SchemaError as exc:
        raise SchemaError(f"{CASE_TABLE_FILE}: {exc}") from None


def _summarize_table(table: CaseTable) -> str:
    positives = int(table.outcome.sum())
    lines = [
        f"cases: {len(table)}",
        f"outcome {table.outcome_name}: {positives} positive, "
        f"{len(table) - positives} negative",
    ]
    for attr in table.schema:
        name = attr.name
        if attr.kind == NUMERIC:
            bins = table.bins.get(name)
            shape = "numeric (not binned)" if bins is None else f"numeric, {len(bins) + 1} bins"
            missing = np.isnan(table.numeric(name)).sum()
        else:
            codes, labels = table.coded(name)
            shape = f"categorical, {len(labels)} labels"
            missing = (codes == -1).sum()
        role = "controllable" if attr.controllable else "stable"
        lines.append(f"  {name}: {shape}, {role}, {missing} missing")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_ingest(config: PipelineConfig) -> dict:
    manifest = _read_manifest(config.out_dir)
    _make_dir(config.out_dir)
    if config.input_format == "xes":
        case_log = parse_xes(config.input)
    else:
        case_log = parse_csv(config.input, config.csv)
    table = encode_cases(
        case_log,
        list(config.attributes),
        config.outcome,
        frozenset(config.positive_labels),
    )
    if config.bins:
        table = discretize(table, config.bins)
    _write_json(os.path.join(config.out_dir, CASE_TABLE_FILE), table_to_dict(table))
    summary_path = os.path.join(config.out_dir, CASE_SUMMARY_FILE)
    with _replacing(summary_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_summarize_table(table))
    info = {
        "n_events": case_log.n_events,
        "n_traces": len(case_log),
        "n_cases": len(table),
    }
    _write_manifest(config, manifest, "ingest", info)
    log.info("ingest: %d traces -> %d cases", len(case_log), len(table))
    return info


# treatments.txt holds one treatment per line, written as Treatment.key but
# with a backslash before every "\", ":", "&" and "->" inside a name or label,
# and line breaks written as \n and \r.
_KEY_SPECIAL = re.compile(r"[\\:&\n\r]|->")
_KEY_ESCAPED = re.compile(r"\\(.)", re.DOTALL)
_LINE_BREAKS = {"\n": "n", "\r": "r"}
_UNESCAPES = {"n": "\n", "r": "\r"}
_KEY_FIELD = r"((?:\\.|[^\\:&-]|-(?!>))+)"
_KEY_TERM = re.compile(f"{_KEY_FIELD}:{_KEY_FIELD}->{_KEY_FIELD}", re.DOTALL)
_KEY = re.compile(f"{_KEY_TERM.pattern}(?:&{_KEY_TERM.pattern})*", re.DOTALL)


def _escape(text: str) -> str:
    return _KEY_SPECIAL.sub(lambda m: "\\" + _LINE_BREAKS.get(m[0], m[0]), text)


def _unescape(text: str) -> str:
    return _KEY_ESCAPED.sub(lambda m: _UNESCAPES.get(m[1], m[1]), text)


def save_treatments(treatments, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for treatment in treatments:
            terms = (
                f"{_escape(t.attribute)}:{_escape(t.from_value)}->{_escape(t.to_value)}"
                for t in treatment.changes
            )
            fh.write("&".join(terms) + "\n")


def parse_treatment_key(key: str) -> Treatment:
    """Inverse of a save_treatments line: only unescaped ':', '->' and '&'
    delimit, so any attribute name or label reads back unchanged."""
    if not _KEY.fullmatch(key):
        raise ConfigError(f"malformed treatment {key!r}; expected attribute:from->to")
    changes = [
        AtomicActionTerm(*map(_unescape, m.groups())) for m in _KEY_TERM.finditer(key)
    ]
    try:
        return Treatment(tuple(changes))
    except ValueError as exc:
        raise ConfigError(f"bad treatment {key!r}: {exc}") from None


def load_treatments(path) -> list[Treatment]:
    lines = read_text(path, "treatments file").split("\n")
    return [parse_treatment_key(line) for line in lines if line.strip()]


def stage_mine(config: PipelineConfig) -> dict:
    table_path = _require_artifact(config.out_dir, CASE_TABLE_FILE, "ingest")
    manifest = _read_manifest(config.out_dir)
    table = table_from_dict(_read_json(table_path))
    rules = mine_action_rules(
        table,
        config.rules.min_support,
        config.rules.min_confidence,
        config.rules.max_antecedent_len,
    )
    with _replacing(os.path.join(config.out_dir, RULES_FILE)) as tmp:
        save_rules(rules, tmp)
    treatments = extract_treatments(rules)
    with _replacing(os.path.join(config.out_dir, TREATMENTS_FILE)) as tmp:
        save_treatments(treatments, tmp)
    info = {"n_rules": len(rules), "n_treatments": len(treatments)}
    _write_manifest(config, manifest, "mine", info)
    log.info("mine: %d rules, %d treatments", len(rules), len(treatments))
    return info


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text.replace("->", "-"))[:60]


def stage_uplift(config: PipelineConfig, treatments_path: str | None = None) -> dict:
    table_path = _require_artifact(config.out_dir, CASE_TABLE_FILE, "ingest")
    if treatments_path is None:
        treatments_path = _require_artifact(config.out_dir, TREATMENTS_FILE, "mine")
    treatments = load_treatments(treatments_path)
    manifest = _read_manifest(config.out_dir)
    table = table_from_dict(_read_json(table_path))

    trees_dir = os.path.join(config.out_dir, TREES_DIR)
    _make_dir(trees_dir)
    for name in os.listdir(trees_dir):
        if name.endswith(".dot"):
            os.remove(os.path.join(trees_dir, name))

    entries = []
    skipped = []
    for treatment in treatments:
        try:
            assignment = assign_groups(table, treatment)
            tree = build_tree(table, assignment, config.tree)
            segments = extract_segments(tree, table, config.min_uplift)
        except PositivityError as exc:
            log.warning("skipping treatment %s: %s", treatment.key, exc)
            skipped.append(treatment.key)
            continue
        dot_name = f"tree_{len(entries):03d}_{_slug(treatment.key)}.dot"
        dot_path = os.path.join(trees_dir, dot_name)
        with _replacing(dot_path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            fh.write(to_dot(tree, title=treatment.key))
        entries.append(
            {
                "key": treatment.key,
                "changes": [
                    {"attribute": t.attribute, "from": t.from_value, "to": t.to_value}
                    for t in treatment.changes
                ],
                "tree_file": f"{TREES_DIR}/{dot_name}",
                "segments": [asdict(seg) for seg in segments],
            }
        )
    _write_json(
        os.path.join(config.out_dir, SEGMENTS_FILE),
        {"treatments": entries, "skipped": skipped},
    )
    info = {
        "n_treatments": len(entries),
        "n_skipped": len(skipped),
        "n_segments": sum(len(e["segments"]) for e in entries),
    }
    _write_manifest(config, manifest, "uplift", info)
    log.info(
        "uplift: %d trees, %d skipped, %d segments",
        info["n_treatments"],
        info["n_skipped"],
        info["n_segments"],
    )
    return info


def _segment_from_dict(entry: dict) -> Segment:
    """One segments.json segment; TypeError or ValueError when it is malformed."""
    segment = Segment(**{**entry, "conditions": tuple(map(tuple, entry["conditions"]))})
    for attribute, op, value in segment.conditions:
        if op not in ("<=", ">", "==", "!=") or isinstance(value, bool) or not isinstance(
            value, (int, float) if op in ("<=", ">") else str
        ):
            raise ValueError(f"malformed condition {[attribute, op, value]!r}")
    counts = (segment.n_treat, segment.n_ctrl, segment.n_reachable)
    if not all(type(n) is int for n in counts) or type(segment.uplift) not in (int, float):
        raise ValueError(f"segment counts must be integers and uplift a number: {entry!r}")
    return segment


def stage_rank(config: PipelineConfig) -> dict:
    segments_path = _require_artifact(config.out_dir, SEGMENTS_FILE, "uplift")
    manifest = _read_manifest(config.out_dir)
    payload = _read_json(segments_path)
    pairs = []
    try:
        for entry in payload["treatments"]:
            treatment = Treatment(
                tuple(
                    AtomicActionTerm(c["attribute"], c["from"], c["to"])
                    for c in entry["changes"]
                )
            )
            pairs.append((treatment, [_segment_from_dict(s) for s in entry["segments"]]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(
            f"{SEGMENTS_FILE} is not a segments file of this version ({exc!r}); "
            "re-run uplift"
        ) from None
    recommendations = rank(
        pairs, cost_models=config.cost_overrides, default_model=config.cost
    )
    with _replacing(os.path.join(config.out_dir, RECOMMENDATIONS_FILE)) as tmp:
        write_recommendations(recommendations, tmp)
    info = {
        "n_recommendations": len(recommendations),
        "n_unprofitable": sum(1 for r in recommendations if r.unprofitable),
    }
    _write_manifest(config, manifest, "rank", info)
    log.info(
        "rank: %d recommendations (%d unprofitable)",
        info["n_recommendations"],
        info["n_unprofitable"],
    )
    return info


# glibc's mallopt parameter, and the threshold it starts from.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 128 * 1024


def pin_mmap_threshold() -> None:
    """Keep glibc serving every block of 128 KiB or more by mmap, so that
    freeing it returns it to the system. Left to itself, glibc raises the
    threshold to the size of each such block freed (a decoded case table
    is megabytes), and later blocks below it stay resident once freed in
    whatever pattern the heap's layout gives: bpic-xes-20k's peak RSS moved
    by up to 4 MB with the length of the output path alone. Setting the
    threshold turns that adjustment off. Off Linux this does nothing."""
    if sys.platform.startswith("linux"):
        with contextlib.suppress(AttributeError):  # a libc without mallopt
            ctypes.CDLL(None).mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def run(config: PipelineConfig) -> dict:
    """The whole pipeline, stage by stage, sharing artifacts on disk."""
    pin_mmap_threshold()
    return {
        "ingest": stage_ingest(config),
        "mine": stage_mine(config),
        "uplift": stage_uplift(config),
        "rank": stage_rank(config),
    }


def stage_simulate(scenario: SyntheticScenario, out_dir: str) -> dict:
    """Sample a scenario into out_dir along with ground truth and a ready
    pipeline config, so `run` on that config consumes the simulated log."""
    _make_dir(out_dir)
    case_log, effects = generate(scenario)
    with _replacing(os.path.join(out_dir, SCENARIO_LOG_FILE)) as tmp:
        write_log(case_log, tmp)
    _write_json(
        os.path.join(out_dir, GROUND_TRUTH_FILE),
        {
            "scenario": asdict(scenario),
            "cate_by_subgroup": {str(cell): value for cell, value in effects.items()},
            "naive_pooled_uplift": naive_pooled_uplift(scenario),
        },
    )
    config = PipelineConfig(
        input=SCENARIO_LOG_FILE,
        outcome=OUTCOME,
        attributes=scenario.schema(),
        out_dir=".",
    )
    with _replacing(os.path.join(out_dir, PIPELINE_CONFIG_FILE)) as tmp:
        save_config(config, tmp)
    info = {"n_cases": scenario.n_cases, "out_dir": out_dir}
    log.info("simulate: %d cases -> %s", scenario.n_cases, out_dir)
    return info
