"""The benchmark's own tests: seed-pure generators and span arithmetic.

    python3 -m pytest benchmarks/tests -q

The generator test runs the real set-up and one pipeline run per workload,
about a minute in all.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracing import Span, _self_time  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_pins_input_and_held_out_seed_passes_checks(name, tmp_path):
    first, again, held_out = tmp_path / "first", tmp_path / "again", tmp_path / "held_out"
    run.setup(name, DEFAULT_SEED, first)
    run.setup(name, DEFAULT_SEED, again)
    expected = run.setup(name, HELD_OUT_SEED, held_out)

    assert _contents(first) == _contents(again)
    logs = [p for p in _contents(first) if "log" in p]
    assert len(logs) == 1
    assert _contents(first)[logs[0]] != _contents(held_out)[logs[0]]

    out = tmp_path / "out"
    run.run_pipeline(held_out, out)
    problems, _ = run.check_outputs(name, HELD_OUT_SEED, held_out, out, expected)
    assert problems == []


def _span(id, start, end, parent=None):
    return Span(id=id, name=str(id), parent=parent, thread="t", start=start, cpu_start=0.0,
                end=end)


def test_self_time_subtracts_the_union_of_overlapping_children():
    stage = _span(0, 0.0, 10.0)
    # Two pool threads overlap on [2, 3]; a child outside the parent is clipped.
    children = [_span(1, 1.0, 3.0, 0), _span(2, 2.0, 4.0, 0), _span(3, 9.0, 12.0, 0)]
    assert _self_time(stage, children) == pytest.approx(10.0 - 3.0 - 1.0)
