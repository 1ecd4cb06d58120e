"""Pipeline configuration: one dataclass, loaded from YAML, dumped verbatim
into the run manifest so a run can be reproduced from its artifacts. The
config types own every default and check, wherever a config comes from."""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields

import yaml

from .actionrules import parse_treatment_key
from .casetable import DEFAULT_POSITIVE_LABELS, NUMERIC, AttributeSchema, check_bins, check_schema
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
    outcome: str
    attributes: list[AttributeSchema]
    input: str | None = None  # the log that ingest reads; mine, uplift and rank need none
    input_format: str = "csv"
    out_dir: str = "out"
    positive_labels: tuple[str, ...] = tuple(sorted(DEFAULT_POSITIVE_LABELS))
    csv: CsvColumns = field(default_factory=CsvColumns)
    bins: dict[str, int | list[float]] = field(default_factory=dict)
    rules: RuleParams = field(default_factory=RuleParams)
    tree: TreeParams = field(default_factory=TreeParams)
    min_uplift: float = 0.0
    cost: CostModel = field(default_factory=CostModel)
    cost_overrides: dict[str, CostModel] = field(default_factory=dict)

    def __post_init__(self):
        if self.input_format not in INPUT_FORMATS:
            raise ConfigError(
                f"format must be one of {INPUT_FORMATS}, got {self.input_format!r}"
            )
        if self.input is not None:
            require(self.input, str, "input")
            if not self.input:
                raise ConfigError("input path must not be empty")
        require(self.outcome, str, "outcome")
        if not self.outcome:
            raise ConfigError("outcome attribute name is required")
        require(self.out_dir, str, "out_dir")
        require(self.min_uplift, float, "min_uplift")
        self.min_uplift = float(self.min_uplift)
        # An empty list stays empty: encode_cases reads it as DEFAULT_POSITIVE_LABELS.
        self.positive_labels = tuple(_list_of(self.positive_labels, str, "positive_labels", "strings"))
        _list_of(self.attributes, AttributeSchema, "attributes", "attribute declarations")
        try:
            check_schema(self.attributes, self.outcome)
        except SchemaError as exc:
            raise ConfigError(str(exc)) from None
        if not isinstance(self.bins, dict):
            raise ConfigError("bins must be a mapping")
        numeric = {a.name for a in self.attributes if a.kind == NUMERIC} - {self.outcome}
        for attr, how in self.bins.items():
            if attr not in numeric:
                raise ConfigError(
                    f"bins configured for {attr!r}, which is not a declared "
                    "numeric feature"
                )
            check_bins(attr, how)


def _list_of(values, kind: type, name: str, what: str):
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, kind) for v in values):
        raise ConfigError(f"{name} must be a list of {what}")
    return values


def _section(raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a mapping")
    return raw


def _build(cls, raw, name: str):
    """cls from one config section; a field's ConfigError comes back named
    with the section, as in tree.n_reg."""
    kwargs = _section(raw, f"config section {name!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{name}.{exc}") from None


def _attribute(entry) -> AttributeSchema:
    kwargs = _section(entry, "config section 'attributes[]'")
    try:
        return AttributeSchema(**kwargs)
    except (TypeError, SchemaError) as exc:
        raise ConfigError(f"bad attribute declaration {entry!r}: {exc}") from None


# Overrides are keyed as Treatment.key, so that a key whose terms come in
# another order, or escape what needs no escape, still finds its treatment.
def _priced(overrides) -> dict[str, CostModel]:
    priced = {}
    for key, entry in _section(overrides, "config section 'cost.overrides'").items():
        where = f"cost.overrides[{key}]"
        try:
            treatment_key = parse_treatment_key(str(key)).key
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if treatment_key in priced:
            raise ConfigError(f"{where}: treatment {treatment_key} is priced twice")
        priced[treatment_key] = _build(CostModel, entry, where)
    return priced


# PipelineConfig's fields, input_format read as format and cost_overrides as cost.overrides.
_TOP_KEYS = {f.name for f in fields(PipelineConfig)} - {"input_format", "cost_overrides"} | {"format"}


def config_from_dict(raw: dict) -> PipelineConfig:
    """The PipelineConfig of a parsed YAML config: its keys map onto fields,
    but a key set to null is left out, so that it takes its default."""
    kwargs = {key: value for key, value in _section(raw, "config").items() if value is not None}
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("outcome", "attributes"):
        if key not in kwargs:
            raise ConfigError(f"config key {key!r} is required")
    if "format" in kwargs:
        kwargs["input_format"] = kwargs.pop("format")
    if isinstance(kwargs["attributes"], list):
        kwargs["attributes"] = list(map(_attribute, kwargs["attributes"]))
    for name, cls in (("csv", CsvColumns), ("rules", RuleParams), ("tree", TreeParams)):
        if name in kwargs:
            kwargs[name] = _build(cls, kwargs[name], name)
    if "cost" in kwargs:
        cost = dict(_section(kwargs["cost"], "config section 'cost'"))
        if "overrides" in cost:
            kwargs["cost_overrides"] = _priced(cost.pop("overrides"))
        kwargs["cost"] = _build(CostModel, cost, "cost")
    return PipelineConfig(**kwargs)


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
