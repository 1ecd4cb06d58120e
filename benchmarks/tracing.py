"""Spans around the calls ``upliftmine.pipeline`` makes, for the traced run.

The tracer replaces module attributes of ``upliftmine.pipeline`` with
timing wrappers at runtime; the stage functions look their callees up in
that module's globals, so every call goes through a wrapper and nothing
under ``src/`` is edited. Spans are kept in memory and summarised, or
dumped, when the run ends.

Each span records its name, start, end, parent and thread, plus the
thread's CPU time at both ends, so time a pool thread spent busy separates
from time it waited for the interpreter lock or the scheduler.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from math import ceil

STAGES = ("ingest", "mine", "uplift", "rank")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # The open stage span adopts spans opened by pool threads, whose own
        # stacks are empty.
        self._stage: int | None = None

    @contextmanager
    def span(self, name: str, stage: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._stage
        with self._lock:
            span = Span(
                id=len(self.spans),
                name=name,
                parent=parent,
                thread=threading.current_thread().name,
                start=time.perf_counter(),
                cpu_start=time.thread_time(),
            )
            self.spans.append(span)
        stack.append(span.id)
        if stage:
            self._stage = span.id
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu_end = time.thread_time()
            stack.pop()
            if stage:
                self._stage = None

    def wrap(self, module, attr: str, name: str, counts=None, stage=False) -> None:
        """Replace module.attr by a wrapper that records one span per call;
        counts(result) returns the span's work counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, stage) as span:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts = counts(result)
                return result

        setattr(module, attr, traced)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _count_nodes(node) -> int:
    if node is None:
        return 0
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def instrument(tracer: Tracer) -> None:
    """Wrap every call the pipeline stages make into the other layers."""
    from upliftmine import pipeline

    for stage in STAGES:
        tracer.wrap(pipeline, f"stage_{stage}", f"pipeline.{stage}", stage=True)
    events = lambda log: {"events": log.n_events}  # noqa: E731
    tracer.wrap(pipeline, "parse_csv", "logparse.parse", events)
    tracer.wrap(pipeline, "parse_xes", "logparse.parse", events)
    tracer.wrap(pipeline, "encode_cases", "casetable.encode", lambda t: {"cases": len(t)})
    tracer.wrap(pipeline, "discretize", "casetable.discretize")
    tracer.wrap(pipeline, "table_to_dict", "pipeline.table_to_dict")
    tracer.wrap(pipeline, "table_from_dict", "pipeline.table_from_dict")
    tracer.wrap(
        pipeline, "mine_action_rules", "actionrules.mine", lambda r: {"rules": len(r)}
    )
    tracer.wrap(
        pipeline,
        "extract_treatments",
        "actionrules.extract_treatments",
        lambda t: {"treatments": len(t)},
    )
    tracer.wrap(pipeline, "assign_groups", "uplift.assign_groups")
    tracer.wrap(
        pipeline,
        "build_tree",
        "uplift.build_tree",
        lambda tree: {"nodes": _count_nodes(tree.root)},
    )
    tracer.wrap(
        pipeline,
        "extract_segments",
        "uplift.extract_segments",
        lambda s: {"segments": len(s)},
    )
    tracer.wrap(pipeline, "rank", "ranking.rank", lambda r: {"recommendations": len(r)})

    # JSON encode and decode of the case table only; the manifest and the
    # other artifacts stay in their stage's self time.
    write_json, read_json = pipeline._write_json, pipeline._read_json

    def is_case_table(path) -> bool:
        return os.path.basename(path) == pipeline.CASE_TABLE_FILE

    def traced_write(path, payload):
        if not is_case_table(path):
            return write_json(path, payload)
        with tracer.span("pipeline.case_table_json_write") as span:
            write_json(path, payload)
            span.counts = {"bytes": os.path.getsize(path)}

    def traced_read(path):
        if not is_case_table(path):
            return read_json(path)
        with tracer.span("pipeline.case_table_json_read"):
            return read_json(path)

    pipeline._write_json = traced_write
    pipeline._read_json = traced_read


def _self_time(span: Span, children: list[Span]) -> float:
    """Span time minus the part of it that its children's intervals cover."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered, reach = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.wall - covered


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, keyed by metric name."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def wall(name):
        return sum(s.wall for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    m["logparse.parse_s"] = wall("logparse.parse")
    m["logparse.events"] = count("logparse.parse", "events")
    m["logparse.us_per_event"] = 1e6 * m["logparse.parse_s"] / max(1, m["logparse.events"])
    m["casetable.encode_s"] = wall("casetable.encode")
    m["casetable.discretize_s"] = wall("casetable.discretize")
    m["casetable.cases"] = count("casetable.encode", "cases")

    writes = by_name.get("pipeline.case_table_json_write", [])
    m["pipeline.case_table_write_s"] = wall("pipeline.table_to_dict") + wall(
        "pipeline.case_table_json_write"
    )
    m["pipeline.case_table_read_s"] = wall("pipeline.case_table_json_read") + wall(
        "pipeline.table_from_dict"
    )
    m["pipeline.case_table_reads"] = len(by_name.get("pipeline.case_table_json_read", []))
    m["pipeline.case_table_mb"] = (writes[-1].counts["bytes"] if writes else 0) / 2**20
    for stage in STAGES:
        stage_spans = by_name.get(f"pipeline.{stage}", [])
        m[f"pipeline.{stage}_s"] = sum(s.wall for s in stage_spans)
        m[f"pipeline.{stage}_self_s"] = sum(
            _self_time(s, children.get(s.id, [])) for s in stage_spans
        )

    m["actionrules.mine_s"] = wall("actionrules.mine") + wall("actionrules.extract_treatments")
    m["actionrules.rules"] = count("actionrules.mine", "rules")
    m["actionrules.treatments"] = count("actionrules.extract_treatments", "treatments")

    trees = [s for s in by_name.get("uplift.build_tree", []) if s.error is None]
    tree_ms = sorted(1e3 * s.wall for s in trees)
    m["uplift.assign_groups_s"] = wall("uplift.assign_groups")
    m["uplift.build_tree_s"] = wall("uplift.build_tree")
    m["uplift.build_tree_cpu_s"] = sum(s.cpu for s in by_name.get("uplift.build_tree", ()))
    m["uplift.build_tree_wait_s"] = m["uplift.build_tree_s"] - m["uplift.build_tree_cpu_s"]
    m["uplift.trees"] = len(trees)
    m["uplift.skipped"] = sum(
        1
        for name in ("uplift.assign_groups", "uplift.build_tree")
        for s in by_name.get(name, ())
        if s.error == "PositivityError"
    )
    m["uplift.nodes"] = count("uplift.build_tree", "nodes")
    m["uplift.tree_p50_ms"] = statistics.median(tree_ms) if tree_ms else 0.0
    m["uplift.tree_p90_ms"] = _nearest_rank(tree_ms, 0.9) if tree_ms else 0.0
    m["uplift.extract_segments_s"] = wall("uplift.extract_segments")
    m["uplift.segments"] = count("uplift.extract_segments", "segments")
    m["ranking.rank_s"] = wall("ranking.rank")
    m["ranking.recommendations"] = count("ranking.rank", "recommendations")
    return m
