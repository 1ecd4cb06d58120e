"""One set-up or one pipeline run, in a fresh interpreter.

``run.py`` starts this script once per set-up and once per pipeline run,
so each measured pipeline owns its process: ``ru_maxrss`` is the
pipeline's own peak, and no heap or garbage-collector state carries over
from the generator or an earlier run. The result is one JSON line on
standard output.

    python child.py setup <workload> <seed> <input dir>
    python child.py run <input dir> <output dir> [<spans file>]

Given a spans file, the run is traced (see tracing.py) and its spans are
written there.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np

from upliftmine.casetable import CATEGORICAL, NUMERIC, AttributeSchema
from upliftmine.config import PipelineConfig, RuleParams, load_config, save_config
from upliftmine.pipeline import PIPELINE_CONFIG_FILE, run, stage_simulate
from upliftmine.synthetic import SyntheticScenario

import bpic
import tracing
from workloads import WORKLOADS

# The layout of tests/test_acceptance.py's BPIC_SCHEMA and BPIC_BINS.
BPIC_SCHEMA = [
    AttributeSchema("LoanGoal", CATEGORICAL),
    AttributeSchema("ApplicationType", CATEGORICAL),
    AttributeSchema("RequestedAmount", NUMERIC),
    AttributeSchema("CreditScore", NUMERIC),
    AttributeSchema("FirstWithdrawalAmount", NUMERIC, controllable=True),
    AttributeSchema("MonthlyCost", NUMERIC, controllable=True),
    AttributeSchema("NumberOfTerms", NUMERIC, controllable=True),
    AttributeSchema("OfferedAmount", NUMERIC, controllable=True),
    AttributeSchema("Selected", CATEGORICAL),
]
BPIC_BINS = {a.name: 4 for a in BPIC_SCHEMA if a.kind == NUMERIC}


def planted_scenario(n_cases: int, seed: int) -> SyntheticScenario:
    """The README quick-start scenario: +0.7 uplift where subgroup == 1,
    none elsewhere, treatment by a fair coin."""
    return SyntheticScenario(
        n_cases=n_cases,
        seed=seed,
        p_confounder=0.5,
        p_subgroup=0.5,
        p_treat_given_confounder=(0.5, 0.5),
        p_outcome_treated=((0.1, 0.8), (0.1, 0.8)),
        p_outcome_control=((0.1, 0.1), (0.1, 0.1)),
    )


def setup(name: str, seed: int, input_dir: str) -> dict:
    """Write the workload's input log and pipeline.yaml into input_dir."""
    w = WORKLOADS[name]
    start = time.perf_counter()
    if w.kind == "planted":
        stage_simulate(planted_scenario(w.n_cases, seed), input_dir)
        n_events = w.n_cases
    else:
        os.makedirs(input_dir, exist_ok=True)
        cases = bpic.sample_cases(w.n_cases, seed)
        log_name = "bpic_log.xes.gz" if w.input_format == "xes" else "bpic_log.csv"
        writer = bpic.write_xes_gz if w.input_format == "xes" else bpic.write_csv
        writer(cases, os.path.join(input_dir, log_name))
        n_events = bpic.n_events(cases)
        config = PipelineConfig(
            input=log_name,
            outcome="Selected",
            attributes=BPIC_SCHEMA,
            input_format=w.input_format,
            out_dir=".",
            bins=dict(BPIC_BINS),
            rules=RuleParams(w.min_support, w.min_confidence),
        )
        save_config(config, os.path.join(input_dir, PIPELINE_CONFIG_FILE))
    return {
        "setup_s": time.perf_counter() - start,
        "n_cases": w.n_cases,
        "n_events": n_events,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pipeline(input_dir: str, out_dir: str, spans_path: str | None) -> dict:
    """Time run(config) on the generated input, writing artifacts to out_dir."""
    config = load_config(os.path.join(input_dir, PIPELINE_CONFIG_FILE))
    config.out_dir = os.path.abspath(out_dir)
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    info = run(config)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    result = {
        "pipeline_s": wall,
        "pipeline_cpu_s": cpu,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "info": info,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return result


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "setup":
        result = setup(argv[1], int(argv[2]), argv[3])
    elif len(argv) in (3, 4) and argv[0] == "run":
        result = run_pipeline(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
