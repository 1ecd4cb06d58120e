"""Pipeline stages behind the CLI.

Every stage writes its own artifacts plus a manifest entry into the
configured output directory. A stage run alone reads its input artifacts
from there. `run` writes case_table.json and hands the same table on in
memory to mine and uplift; the other artifacts pass on disk. A full run
equals the composition of the stages, byte for byte. Artifacts are plain
text or JSON to stay diff-able.

Every stage runs in one frame, `_stage`: its inputs are checked first, and
manifest.json is read and checked before anything in out_dir changes. Every
file the CLI writes, simulate's included, goes into a staging directory
(`_Staging`); only once all of a stage's files are written are they renamed
over the old ones, the manifest last. So a stage that fails on its input, on
a treatment or on writing an artifact leaves out_dir as it was. An artifact
that cannot be read or written is a ConfigError that names it.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import json
import logging
import math
import os
import re
import shutil
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .actionrules import (
    AtomicActionTerm,
    Treatment,
    extract_treatments,
    load_treatments,
    mine_action_rules,
    save_rules,
    save_treatments,
)
from .casetable import NUMERIC, AttributeSchema, CaseTable
from .casetable import discretize, encode_cases
from .config import PipelineConfig, config_to_dict, save_config
from .errors import ConfigError, PositivityError, SchemaError
from .logparse import Coded, parse_csv, parse_xes
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


# case_table.json's encoder: compact, which lets json use its C encoder, and
# strict RFC 8259 JSON (see table_to_dict).
_encode_compact = json.JSONEncoder(
    ensure_ascii=False, allow_nan=False, sort_keys=True, separators=(",", ":")
).encode

# The C encoder keeps every piece of its output, ~70 bytes per list item,
# until it joins them, so long lists go to it a slice at a time.
_JSON_SLICE = 4096


def _compact_pieces(value):
    """_encode_compact(value), in pieces of at most _JSON_SLICE list items.
    A Coded column is one piece: each of its values is encoded once, and the
    texts are joined by code."""
    if isinstance(value, Coded):
        texts = np.array([*map(_encode_compact, value.values), "null"], object)  # code -1: null
        yield "[" + ",".join(texts[value.codes].tolist()) + "]"
    elif isinstance(value, dict):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _encode_compact(key) + ":"
            yield from _compact_pieces(value[key])
        yield "}" if value else "{}"
    elif isinstance(value, list):
        yield "["
        for start in range(0, len(value), _JSON_SLICE):
            yield ("," if start else "") + _encode_compact(value[start : start + _JSON_SLICE])[1:-1]
        yield "]"
    else:
        yield _encode_compact(value)


def _write_json(path, payload) -> None:
    """Strict RFC 8259 JSON. case_table.json, by far the largest artifact, is
    written compactly; the other JSON artifacts are indented, a Coded column
    (see table_to_dict) as the list of its values."""
    with open(path, "w", encoding="utf-8") as fh:
        if os.path.basename(path) == CASE_TABLE_FILE:
            fh.writelines(_compact_pieces(payload))
        else:
            json.dump(payload, fh, indent=2, default=list, sort_keys=True, ensure_ascii=False,
                      allow_nan=False)
        fh.write("\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# The stage that writes each artifact a later stage reads.
_PRODUCERS = {CASE_TABLE_FILE: "ingest", TREATMENTS_FILE: "mine", SEGMENTS_FILE: "uplift"}


def _read_json(path):
    """A JSON artifact; one that is not strict JSON is a SchemaError, which
    names the stage to re-run when a stage produces the file."""
    producer = _PRODUCERS.get(os.path.basename(path))
    rerun = f"; re-run {producer}" if producer else ""

    def reject(token):
        raise SchemaError(f"{path} holds {token}, which is not standard JSON{rerun}")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}{rerun}") from None


def _make_dir(path) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


class _Staging:
    """The artifacts of one stage, each written under its own name into a
    staging directory in out_dir, so that out_dir keeps the old ones until
    commit() renames them all in, in the order they were staged; stale files
    go once the new ones are in. As a context manager it makes out_dir on
    entry, commits on a clean exit and removes the staging directory whatever
    happens; an OSError from a staged write is a ConfigError that names the
    artifact."""

    def __init__(self, out_dir: str, stage: str):
        self.out_dir = out_dir
        self.dir = os.path.join(out_dir, f".{stage}.{os.getpid()}.tmp")
        self.names: list[str] = []
        self.stale: list[str] = []

    def path(self, name: str) -> str:
        """Where to write the artifact name, a path relative to out_dir."""
        self.names.append(name)
        path = os.path.join(self.dir, name)
        _make_dir(os.path.dirname(path))
        return path

    def commit(self) -> None:
        targets = [os.path.join(self.out_dir, name) for name in self.names]
        for target in targets:
            if os.path.isdir(target):
                raise ConfigError(f"cannot write {target}: Is a directory")
            _make_dir(os.path.dirname(target))
        try:
            for name, target in zip(self.names, targets):
                os.replace(os.path.join(self.dir, name), target)
            for path in set(self.stale).difference(targets):
                os.remove(path)
        except OSError as exc:
            raise ConfigError(f"cannot replace artifacts in {self.out_dir}: {exc}") from None

    def __enter__(self) -> _Staging:
        _make_dir(self.out_dir)
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        try:
            if exc is None:
                self.commit()
            elif isinstance(exc, OSError) and self.names:
                target = os.path.join(self.out_dir, self.names[-1])
                raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from None
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def _manifest(config: PipelineConfig) -> dict:
    manifest_path = os.path.join(config.out_dir, MANIFEST_FILE)
    manifest = _read_json(manifest_path) if os.path.exists(manifest_path) else {"stages": {}}
    if not isinstance(manifest, dict) or not isinstance(manifest.setdefault("stages", {}), dict):
        raise SchemaError(
            f"{MANIFEST_FILE} is not a manifest: expected an object whose stages "
            "are an object; remove it or re-run the pipeline"
        )
    return manifest


@contextlib.contextmanager
def _stage(config: PipelineConfig, name: str, *input_files: str):
    """The frame of every stage. It first pins glibc's mmap threshold
    (pin_mmap_threshold). Before the body runs, each input artifact must
    exist and manifest.json is read and checked, so neither a missing input
    nor a malformed manifest changes out_dir. The body fills the yielded
    info dict and writes each artifact where the yielded _Staging says; then
    an flock on out_dir itself is taken and held through the commit, and the
    manifest, read anew so that a stage that ended meanwhile in any process
    keeps its entry, records info under stages.<name> and the config (with
    the input it holds if the config names none) and is staged last; one log
    line reports info. A failed stage leaves no staged file behind."""
    pin_mmap_threshold()
    for filename in input_files:
        path = os.path.join(config.out_dir, filename)
        if not os.path.exists(path):
            producer = _PRODUCERS[filename]
            raise ConfigError(f"missing artifact {path}: run the {producer} stage first")
    _manifest(config)
    info: dict[str, int] = {}
    with contextlib.ExitStack() as unlock, _Staging(config.out_dir, name) as staging:
        yield info, staging
        lock = os.open(config.out_dir, os.O_RDONLY)
        unlock.callback(os.close, lock)
        fcntl.flock(lock, fcntl.LOCK_EX)
        manifest = _manifest(config)
        manifest["tool"] = {"name": "upliftmine", "version": __version__}
        recorded = config_to_dict(config)
        if config.input is None and isinstance(manifest.get("config"), dict):
            recorded["input"] = manifest["config"].get("input")
        manifest["config"] = recorded
        manifest["stages"][name] = info
        _write_json(staging.path(MANIFEST_FILE), manifest)
    log.info("%s: %s", name, ", ".join(f"{n} {key.removeprefix('n_')}" for key, n in info.items()))


# ---------------------------------------------------------------------------
# Case table artifact
# ---------------------------------------------------------------------------

# RFC 8259 JSON has no infinities: they are these strings, in case_table.json's
# numeric columns and bins and in segments.json's thresholds only.
_INFINITIES = {"inf": math.inf, "-inf": -math.inf}
_INFINITY_TEXT = {math.inf: "inf", -math.inf: "-inf"}
_NUMBER_TYPES = {int, float, type(None)}  # null: missing


def _numbers_to_json(values: list) -> list:
    if math.inf in values or -math.inf in values:
        return [_INFINITY_TEXT.get(v, v) for v in values]
    return values


def _numbers_from_json(name: str, values: list) -> list:
    """values with "inf" and "-inf" read as floats; any other text, and
    true or false, is not a number."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        return values
    for v in values:
        if type(v) not in _NUMBER_TYPES and not (type(v) is str and v in _INFINITIES):
            raise SchemaError(f"attribute {name!r}: {v!r} is not a number")
    return [_INFINITIES[v] if type(v) is str else v for v in values]


def table_to_dict(table: CaseTable) -> dict:
    """The case table's JSON payload. Labels and outcomes stay Coded, so
    that the writer encodes each distinct value once; numbers are lists."""
    numeric = {a.name for a in table.schema if a.kind == NUMERIC}
    return {
        "schema": [asdict(a) for a in table.schema],
        "outcome": table.outcome_name,
        "case_ids": table.case_ids,
        "outcomes": Coded(table.outcome, (0, 1)),
        "columns": {
            name: _numbers_to_json(table.column(name)) if name in numeric else table.coded(name)
            for name in table.attribute_names
        },
        "bins": {name: _numbers_to_json(bounds) for name, bounds in table.bins.items()},
    }


_CASE_TABLE_KEYS = {"schema", "outcome", "case_ids", "outcomes", "columns", "bins"}


def table_from_dict(payload: dict) -> CaseTable:
    try:
        if set(payload) != _CASE_TABLE_KEYS:
            raise KeyError(sorted(set(payload) ^ _CASE_TABLE_KEYS))
        arrays = [payload["case_ids"], payload["outcomes"], *payload["columns"].values()]
        if not (
            isinstance(payload["outcome"], str)
            and isinstance(payload["bins"], dict)
            and all(isinstance(a, list) for a in arrays)
        ):
            raise TypeError("outcome must be a string, bins an object, the rest arrays")
        schema = [AttributeSchema(**entry) for entry in payload["schema"]]
        numeric = {a.name for a in schema if a.kind == NUMERIC}
        columns = {
            name: _numbers_from_json(name, c) if name in numeric else c
            for name, c in payload["columns"].items()
        }
        bins = {name: _numbers_from_json(name, b) for name, b in payload["bins"].items()}
        return CaseTable(
            schema, payload["outcome"], payload["case_ids"], payload["outcomes"], columns, bins
        )
    except (AttributeError, KeyError, TypeError) as exc:
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
            column = table.coded(name)
            shape = f"categorical, {len(column.values)} labels"
            missing = (column.codes == -1).sum()
        role = "controllable" if attr.controllable else "stable"
        lines.append(f"  {name}: {shape}, {role}, {missing} missing")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def _read_table(config: PipelineConfig) -> CaseTable:
    return table_from_dict(_read_json(os.path.join(config.out_dir, CASE_TABLE_FILE)))


def stage_ingest(config: PipelineConfig) -> tuple[dict, CaseTable]:
    """The stage's info and the case table it wrote, which run hands on."""
    if config.input is None:
        raise ConfigError("the config names no input log: set its input key or give --input")
    with _stage(config, "ingest") as (info, staging):
        if config.input_format == "xes":
            case_log = parse_xes(config.input)
        else:
            case_log = parse_csv(config.input, config.csv)
        table = encode_cases(
            case_log, list(config.attributes), config.outcome, frozenset(config.positive_labels)
        )
        info.update(n_events=case_log.n_events, n_traces=len(case_log), n_cases=len(table))
        # The log's values are not needed past encoding; freeing them before
        # the JSON payload is built lowers ingest's peak memory.
        del case_log
        if config.bins:
            table = discretize(table, config.bins)
        summary = _summarize_table(table)
        _write_json(staging.path(CASE_TABLE_FILE), table_to_dict(table))
        _write_text(staging.path(CASE_SUMMARY_FILE), summary)
    return info, table


def stage_mine(config: PipelineConfig, table: CaseTable | None = None) -> dict:
    """Mine the table, which is read from case_table.json unless handed on."""
    with _stage(config, "mine", CASE_TABLE_FILE) as (info, staging):
        if table is None:
            table = _read_table(config)
        rules = mine_action_rules(
            table,
            config.rules.min_support,
            config.rules.min_confidence,
            config.rules.max_antecedent_len,
        )
        treatments = extract_treatments(rules)
        info.update(n_rules=len(rules), n_treatments=len(treatments))
        save_rules(rules, staging.path(RULES_FILE))
        save_treatments(treatments, staging.path(TREATMENTS_FILE))
    return info


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text.replace("->", "-"))[:60]


def stage_uplift(
    config: PipelineConfig, treatments_path: str | None = None, table: CaseTable | None = None
) -> dict:
    """One tree per treatment over the table, which is read from
    case_table.json unless handed on."""
    inputs = [CASE_TABLE_FILE]
    if treatments_path is None:
        inputs.append(TREATMENTS_FILE)
        treatments_path = os.path.join(config.out_dir, TREATMENTS_FILE)
    with _stage(config, "uplift", *inputs) as (info, staging):
        treatments = load_treatments(treatments_path)
        if table is None:
            table = _read_table(config)
        trees_dir = os.path.join(config.out_dir, TREES_DIR)
        if os.path.isdir(trees_dir):
            staging.stale = [
                os.path.join(trees_dir, name) for name in os.listdir(trees_dir) if name.endswith(".dot")
            ]
        entries, skipped = [], []
        for treatment in treatments:
            try:
                assignment = assign_groups(table, treatment)
                tree = build_tree(table, assignment, config.tree)
                segments = extract_segments(tree, config.min_uplift)
            except PositivityError as exc:
                log.warning("skipping treatment %s: %s", treatment.key, exc)
                skipped.append(treatment.key)
                continue
            dot_name = f"tree_{len(entries):03d}_{_slug(treatment.key)}.dot"
            _write_text(staging.path(f"{TREES_DIR}/{dot_name}"), to_dot(tree, title=treatment.key))
            entries.append(
                {
                    "key": treatment.key,
                    "changes": [
                        {"attribute": t.attribute, "from": t.from_value, "to": t.to_value}
                        for t in treatment.changes
                    ],
                    "tree_file": f"{TREES_DIR}/{dot_name}",
                    "segments": [_segment_to_dict(seg) for seg in segments],
                }
            )
        n_segments = sum(len(e["segments"]) for e in entries)
        info.update(n_treatments=len(entries), n_skipped=len(skipped), n_segments=n_segments)
        _write_json(staging.path(SEGMENTS_FILE), {"treatments": entries, "skipped": skipped})
    return info


def _segment_to_dict(segment: Segment) -> dict:
    """One segments.json segment; an infinite threshold is "inf" or "-inf"."""
    conditions = [[a, op, _INFINITY_TEXT.get(v, v)] for a, op, v in segment.conditions]
    return {**asdict(segment), "conditions": conditions}


def _segment_from_dict(entry: dict) -> Segment:
    """One segments.json segment; TypeError or ValueError when it is malformed."""
    conditions = []
    for attribute, op, value in entry["conditions"]:
        numeric = op in ("<=", ">")
        if numeric:
            value = _INFINITIES.get(value, value)
        if (
            op not in ("<=", ">", "==", "!=")
            or not isinstance(attribute, str)
            or isinstance(value, bool)
            or not isinstance(value, (int, float) if numeric else str)
        ):
            raise ValueError(f"malformed condition {[attribute, op, value]!r}")
        conditions.append((attribute, op, value))
    segment = Segment(**{**entry, "conditions": tuple(conditions)})
    counts = (segment.n_treat, segment.n_ctrl, segment.n_reachable)
    if not all(type(n) is int and n >= 0 for n in counts) or type(segment.uplift) not in (int, float):
        raise ValueError(f"segment counts must be integers >= 0 and uplift a number: {entry!r}")
    return segment


def stage_rank(config: PipelineConfig) -> dict:
    with _stage(config, "rank", SEGMENTS_FILE) as (info, staging):
        payload = _read_json(os.path.join(config.out_dir, SEGMENTS_FILE))
        pairs = []
        try:
            for entry in payload["treatments"]:
                terms = [(c["attribute"], c["from"], c["to"]) for c in entry["changes"]]
                if not all(isinstance(text, str) for term in terms for text in term):
                    raise TypeError("a change's attribute, from and to must be strings")
                treatment = Treatment(tuple(AtomicActionTerm(*term) for term in terms))
                pairs.append((treatment, [_segment_from_dict(s) for s in entry["segments"]]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"{SEGMENTS_FILE} is not a segments file of this version ({exc!r}); "
                "re-run uplift"
            ) from None
        recommendations = rank(pairs, cost_models=config.cost_overrides, default_model=config.cost)
        unprofitable = sum(1 for r in recommendations if r.unprofitable)
        info.update(n_recommendations=len(recommendations), n_unprofitable=unprofitable)
        write_recommendations(recommendations, staging.path(RECOMMENDATIONS_FILE))
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
    """The whole pipeline, stage by stage. Ingest writes case_table.json and
    hands the same table on to mine and uplift, so neither reads it back;
    the other artifacts pass on disk. mine needs every numeric feature
    binned, so one without bins is a ConfigError before the log is read."""
    for a in config.attributes:
        if a.kind == NUMERIC and a.name != config.outcome and a.name not in config.bins:
            raise ConfigError(f"numeric attribute {a.name!r} has no bins entry, which run needs")
    ingest, table = stage_ingest(config)
    return {
        "ingest": ingest,
        "mine": stage_mine(config, table),
        "uplift": stage_uplift(config, table=table),
        "rank": stage_rank(config),
    }


def stage_simulate(scenario: SyntheticScenario, out_dir: str) -> dict:
    """Sample a scenario into out_dir along with ground truth and a ready
    pipeline config, so `run` on that config consumes the simulated log."""
    with _Staging(out_dir, "simulate") as staging:
        case_log, effects = generate(scenario)
        config = PipelineConfig(
            input=SCENARIO_LOG_FILE,
            outcome=OUTCOME,
            attributes=scenario.schema(),
            out_dir=".",
        )
        write_log(case_log, staging.path(SCENARIO_LOG_FILE))
        _write_json(
            staging.path(GROUND_TRUTH_FILE),
            {
                "scenario": asdict(scenario),
                "cate_by_subgroup": {str(cell): value for cell, value in effects.items()},
                "naive_pooled_uplift": naive_pooled_uplift(scenario),
            },
        )
        save_config(config, staging.path(PIPELINE_CONFIG_FILE))
    info = {"n_cases": scenario.n_cases, "out_dir": out_dir}
    log.info("simulate: %d cases -> %s", scenario.n_cases, out_dir)
    return info
