"""Pipeline configuration: one dataclass, loaded from YAML, dumped verbatim
into the run manifest so a run can be reproduced from its artifacts."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields

import yaml

from .actionrules import parse_treatment_key
from .casetable import DEFAULT_POSITIVE_LABELS, NUMERIC, AttributeSchema
from .errors import ConfigError, SchemaError, read_text, require
from .logparse import CsvColumns
from .ranking import CostModel
from .uplift import TreeParams

INPUT_FORMATS = ("csv", "xes")


@dataclass
class RuleParams:
    min_support: float = 0.03
    min_confidence: float = 0.55
    max_antecedent_len: int = 4

    def __post_init__(self):
        require(self.min_support, float, "min_support")
        require(self.min_confidence, float, "min_confidence")
        require(self.max_antecedent_len, int, "max_antecedent_len")
        if not 0.0 < self.min_support <= 1.0:
            raise ConfigError("min_support must be in (0, 1]")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must be in (0, 1]")
        if self.max_antecedent_len < 1:
            raise ConfigError("max_antecedent_len must be >= 1")


@dataclass
class PipelineConfig:
    input: str | None  # the log that ingest reads; mine, uplift and rank need none
    outcome: str
    attributes: list[AttributeSchema]
    input_format: str = "csv"
    out_dir: str = "out"
    positive_labels: tuple[str, ...] = tuple(sorted(DEFAULT_POSITIVE_LABELS))
    csv: CsvColumns = field(default_factory=CsvColumns)
    bins: dict[str, int | list[float]] = field(default_factory=dict)
    rules: RuleParams = field(default_factory=RuleParams)
    tree: TreeParams = field(default_factory=TreeParams)
    min_uplift: float = 0.0
    cost: CostModel = field(default_factory=lambda: CostModel(1.0, 0.0))
    cost_overrides: dict[str, CostModel] = field(default_factory=dict)

    def __post_init__(self):
        if self.input_format not in INPUT_FORMATS:
            raise ConfigError(
                f"format must be one of {INPUT_FORMATS}, got {self.input_format!r}"
            )
        if self.input == "":
            raise ConfigError("input path must not be empty")
        if not self.outcome:
            raise ConfigError("outcome attribute name is required")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate attribute names in config")
        if self.outcome not in names:
            raise ConfigError(
                f"outcome {self.outcome!r} is not among the declared attributes"
            )
        if any(a.controllable for a in self.attributes if a.name == self.outcome):
            raise ConfigError(f"outcome {self.outcome!r} must not be controllable")
        numeric = {a.name for a in self.attributes if a.kind == NUMERIC} - {self.outcome}
        for attr, how in self.bins.items():
            if attr not in numeric:
                raise ConfigError(
                    f"bins configured for {attr!r}, which is not a declared "
                    "numeric feature"
                )
            if not _is_bin_spec(how):
                raise ConfigError(
                    f"bins for {attr!r} must be a bin count >= 2 or a list of "
                    f"strictly increasing finite boundaries, got {how!r}"
                )


def _is_bin_spec(how) -> bool:
    """An equal-frequency bin count (an int >= 2) or a list of strictly
    increasing finite boundaries."""
    if isinstance(how, list):
        return all(
            isinstance(b, (int, float)) and not isinstance(b, bool) and math.isfinite(b)
            for b in how
        ) and all(b1 < b2 for b1, b2 in zip(how, how[1:]))
    return isinstance(how, int) and not isinstance(how, bool) and how >= 2


def _section(raw, name: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must give a mapping")
    return raw


def _build(cls, raw, name: str):
    """cls from one config section; a field's ConfigError comes back named
    with the section, as in tree.n_reg."""
    try:
        return cls(**_section(raw, name))
    except TypeError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from None


# PipelineConfig's fields, input_format read as format and cost_overrides as cost.overrides.
_TOP_KEYS = {f.name for f in fields(PipelineConfig)} - {"input_format", "cost_overrides"} | {"format"}


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("outcome", "attributes"):
        if key not in raw:
            raise ConfigError(f"config key {key!r} is required")

    attr_entries = raw["attributes"]
    if not isinstance(attr_entries, list) or not attr_entries:
        raise ConfigError("attributes must be a non-empty list")
    attributes = []
    for entry in attr_entries:
        try:
            attributes.append(AttributeSchema(**_section(entry, "attributes[]")))
        except (TypeError, SchemaError) as exc:
            raise ConfigError(f"bad attribute declaration {entry!r}: {exc}") from None

    cost_raw = dict(_section(raw.get("cost"), "cost"))
    overrides_raw = _section(cost_raw.pop("overrides", None), "cost.overrides")
    cost_raw.setdefault("outcome_value", 1.0)
    cost_raw.setdefault("impression_cost", 0.0)
    cost = _build(CostModel, cost_raw, "cost")
    # Overrides are keyed as Treatment.key, so that a key whose terms come in
    # another order, or escape what needs no escape, still finds its treatment.
    cost_overrides = {}
    for key, entry in overrides_raw.items():
        where = f"cost.overrides[{key}]"
        try:
            treatment_key = parse_treatment_key(str(key)).key
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if treatment_key in cost_overrides:
            raise ConfigError(f"{where}: treatment {treatment_key} is priced twice")
        cost_overrides[treatment_key] = _build(CostModel, entry, where)

    labels = raw.get("positive_labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(s, str) for s in labels)
    ):
        raise ConfigError("positive_labels must be a list of strings")

    min_uplift = raw.get("min_uplift", 0.0)
    require(min_uplift, float, "min_uplift")

    return PipelineConfig(
        input=None if raw.get("input") is None else str(raw["input"]),
        outcome=str(raw["outcome"]),
        attributes=attributes,
        input_format=raw.get("format", "csv"),
        out_dir=str(raw.get("out_dir", "out")),
        positive_labels=tuple(labels) if labels else tuple(sorted(DEFAULT_POSITIVE_LABELS)),
        csv=_build(CsvColumns, raw.get("csv"), "csv"),
        bins=_section(raw.get("bins"), "bins"),
        rules=_build(RuleParams, raw.get("rules"), "rules"),
        tree=_build(TreeParams, raw.get("tree"), "tree"),
        min_uplift=float(min_uplift),
        cost=cost,
        cost_overrides=cost_overrides,
    )


def config_to_dict(config: PipelineConfig) -> dict:
    """Plain-data mirror of config_from_dict's input, manifest- and YAML-ready."""
    raw = asdict(config)
    raw["format"] = raw.pop("input_format")
    raw["cost"]["overrides"] = raw.pop("cost_overrides")
    raw["positive_labels"] = list(config.positive_labels)
    return raw


def _resolve(path: str, base: str) -> str:
    return path if os.path.isabs(path) else os.path.normpath(os.path.join(base, path))


def load_config(path) -> PipelineConfig:
    """Read a YAML config; relative input/out_dir resolve against the file."""
    try:
        raw = yaml.safe_load(read_text(path, "config"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    config = config_from_dict(raw)
    base = os.path.dirname(os.path.abspath(path))
    if config.input is not None:
        config.input = _resolve(config.input, base)
    config.out_dir = _resolve(config.out_dir, base)
    return config


def save_config(config: PipelineConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=True)
