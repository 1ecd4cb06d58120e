"""Benchmark of the upliftmine pipeline: seeded workloads, checked outputs.

    python3 benchmarks/run.py --workload bpic-csv-5k --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py                  # every workload, default seed

For one workload the script sets up the input log from the seed a few
times, then runs ``upliftmine.pipeline.run`` back to back, each run in a
fresh interpreter (child.py), until the measuring time is spent. Every run's
artifacts are checked and hashed. With ``--trace 0`` it reports the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, the artifact hashes and the provenance.
The full record also goes to benchmarks/.work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PINNED = BENCH / "pinned.json"

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
# Every child interpreter runs on this one CPU (the highest-numbered one
# this process may use), as pyperf's --affinity does. The pipeline's code
# holds the interpreter lock, so a second CPU only adds lock hand-offs
# between CPUs to stage_uplift's pool, and those hand-offs stall whenever
# either CPU is taken by another tenant of a shared host.
CHILD_CPU = max(os.sched_getaffinity(0))
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# Planted checks: estimated uplift within this of the planted effect.
UPLIFT_TOLERANCE = 0.05
HASHED_FILES = (
    "case_table.json",
    "rules.txt",
    "treatments.txt",
    "segments.json",
    "recommendations.csv",
)
PINNED_COUNTS = ("n_cases", "n_events", "n_rules", "n_treatments", "n_segments")


class ChildError(RuntimeError):
    pass


def _pin_to_child_cpu() -> None:
    os.sched_setaffinity(0, {CHILD_CPU})


def _child(*args: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=CHILD_TIMEOUT_S,
        preexec_fn=_pin_to_child_cpu,
    )
    if proc.returncode != 0:
        raise ChildError(
            f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, input_dir: Path) -> dict:
    shutil.rmtree(input_dir, ignore_errors=True)
    return _child("setup", workload, str(seed), str(input_dir))


def run_pipeline(input_dir: Path, out_dir: Path, spans: Path | None = None) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    args = ["run", str(input_dir), str(out_dir)]
    return _child(*args, *([str(spans)] if spans else []))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every deterministic artifact; the trees as one digest over
    their sorted names and contents."""
    hashes = {name: _sha256(out_dir / name) for name in HASHED_FILES}
    trees = hashlib.sha256()
    for path in sorted((out_dir / "trees").glob("*.dot")):
        trees.update(f"{path.name} {_sha256(path)}\n".encode())
    hashes["trees/*.dot"] = trees.hexdigest()
    return hashes


def manifest_counts(out_dir: Path) -> dict[str, int]:
    stages = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    return {
        "n_cases": stages["ingest"]["n_cases"],
        "n_events": stages["ingest"]["n_events"],
        "n_rules": stages["mine"]["n_rules"],
        "n_treatments": stages["mine"]["n_treatments"],
        "n_trees": stages["uplift"]["n_treatments"],
        "n_skipped": stages["uplift"]["n_skipped"],
        "n_segments": stages["uplift"]["n_segments"],
        "n_recommendations": stages["rank"]["n_recommendations"],
    }


def _subgroup_side(conditions) -> int | None:
    """1 or 0 when the conditions pin the planted subgroup flag, else None."""
    for attr, op, value in conditions:
        if attr == "subgroup":
            return int(value) if op == "==" else 1 - int(value)
    return None


def _planted_problems(input_dir: Path, out_dir: Path) -> list[str]:
    truth = json.loads((input_dir / "ground_truth.json").read_text(encoding="utf-8"))
    effect = {int(cell): value for cell, value in truth["cate_by_subgroup"].items()}
    problems = []
    segments = json.loads((out_dir / "segments.json").read_text(encoding="utf-8"))
    for entry in segments["treatments"]:
        for seg in entry["segments"]:
            side = _subgroup_side(seg["conditions"])
            if side is None:
                problems.append(f"{entry['key']}: segment {seg['conditions']} mixes subgroups")
            elif abs(seg["uplift"] - effect[side]) > UPLIFT_TOLERANCE:
                problems.append(
                    f"{entry['key']}: uplift {seg['uplift']:.4f} where subgroup == {side}, "
                    f"planted {effect[side]:+.2f}"
                )
    with open(out_dir / "recommendations.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    sides = [1 if ("subgroup == 1" in r or "subgroup != 0" in r) else 0 for r in rows]
    if not sides or sides != sorted(sides, reverse=True) or sides[0] != 1:
        problems.append("subgroup == 1 segments do not rank first in recommendations.csv")
    return problems


def check_outputs(
    workload: str, seed: int, input_dir: Path, out_dir: Path, expected: dict
) -> tuple[list[str], dict[str, int]]:
    """Problems with one run's artifacts, and its manifest counts."""
    counts = manifest_counts(out_dir)
    problems = [
        f"{key} = {counts[key]}, generated {expected[key]}"
        for key in ("n_cases", "n_events")
        if counts[key] != expected[key]
    ]
    if counts["n_recommendations"] != counts["n_segments"]:
        problems.append(
            f"{counts['n_recommendations']} recommendations for {counts['n_segments']} segments"
        )
    pinned = _pinned().get(workload, {}).get(str(seed))
    if pinned:
        problems += [
            f"{key} = {counts[key]}, pinned {pinned['counts'][key]}"
            for key in PINNED_COUNTS
            if counts[key] != pinned["counts"][key]
        ]
    if WORKLOADS[workload].kind == "planted":
        problems += _planted_problems(input_dir, out_dir)
    return problems, counts


def _pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}


def _hash_changes(workload: str, seed: int, hashes: dict[str, str] | None) -> list[str] | None:
    """Artifacts whose hash differs from the pinned one; None if unpinned."""
    pinned = _pinned().get(workload, {}).get(str(seed))
    if not pinned or hashes is None:
        return None
    return [name for name, digest in pinned["sha256"].items() if hashes.get(name) != digest]


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD of the checkout read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(setup_info: dict, loadavg: list[float]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "child_cpu": CHILD_CPU,
        "python": setup_info["python"],
        "numpy": setup_info["numpy"],
        "git_sha": _git_sha(),
        "loadavg_1m_5m_15m": loadavg,
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the full record."""
    work = WORK / workload
    input_dir, out_dir = work / "input", work / "out"
    load = list(os.getloadavg())
    setups = [setup(workload, seed, input_dir) for _ in range(1 if trace else SETUPS)]
    expected = setups[-1]

    runs, traced, problems_by_run, hashes, counts = [], [], [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for spans in ([None, work / "spans.json"] if trace else [None]):
            attempted += 1
            try:
                result = run_pipeline(input_dir, out_dir, spans)
                problems, counts = check_outputs(workload, seed, input_dir, out_dir, expected)
                digest = artifact_hashes(out_dir)
                if hashes and digest != hashes[0]:
                    problems.append("artifacts differ from this seed's first run")
                hashes.append(digest)
            except (ChildError, OSError, KeyError, ValueError, subprocess.TimeoutExpired) as exc:
                result, problems = None, [f"{type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                problems_by_run.append(problems)
            elif spans:
                traced.append(result)
            else:
                runs.append(result)
        elapsed = time.perf_counter() - start
        rounds = attempted // (2 if trace else 1)
        if elapsed * (rounds + 1) / rounds > seconds:
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems_by_run,
        "counts": counts,
        "sha256": hashes[0] if hashes else None,
        "hash_changes_vs_pinned": _hash_changes(workload, seed, hashes[0] if hashes else None),
        "setup_s": [s["setup_s"] for s in setups],
        "pipeline_s": [r["pipeline_s"] for r in runs],
        "provenance": provenance(expected, load),
    }
    metrics: dict[str, float] = {}
    if trace and runs and traced:
        layers = [t["layers"] for t in traced]
        metrics = {name: statistics.median([m[name] for m in layers]) for name in layers[0]}
        metrics["synthetic.simulate_s"] = setups[0]["setup_s"]
        metrics["trace.overhead_s"] = statistics.median([t["pipeline_s"] for t in traced]) - statistics.median(
            record["pipeline_s"]
        )
        record["traced_pipeline_s"] = [t["pipeline_s"] for t in traced]
        record["stage_share_of_traced_pipeline_s"] = statistics.median(
            [sum(m[f"pipeline.{s}_s"] for s in ("ingest", "mine", "uplift", "rank")) for m in layers]
        ) / statistics.median(record["traced_pipeline_s"])
    elif runs:
        metrics = {
            "pipeline_s": statistics.median(record["pipeline_s"]),
            "pipeline_cpu_s": statistics.median([r["pipeline_cpu_s"] for r in runs]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
            "setup_s": statistics.median(record["setup_s"]),
        }
    record["metrics"] = metrics
    return record


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(record: dict, spec: dict) -> dict:
    """Print the record for a reader and return the result line's object."""
    trace = record["trace"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    n_runs = len(record["pipeline_s"])
    print(
        f"{record['workload']} seed {record['seed']}: {record['attempted']} pipeline runs "
        f"({'untraced and traced' if trace else 'untraced'}), "
        f"{len(record['setup_s'])} set-up(s)"
    )
    units = {e["name"]: e["unit"] for e in declared}
    metrics = {}
    for name, value in record["metrics"].items():
        # A metric the spec does not declare (casetable.discretize_s, which
        # is absent where nothing is binned) is printed but not reported.
        unit = units.get(name, "s")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
        note = ""
        if name == "setup_s":
            note = f"  median of {len(record['setup_s'])}"
        elif not trace:
            note = f"  median of {n_runs}"
        elif name not in units:
            note = "  (not in BENCHMARK.json)"
        print(f"  {name:34s} {value:12.4f} {unit}{note}")
    print(
        f"  {'fail_rate':34s} {record['failed'] / record['attempted']:12.4f} ratio"
        f"  ({record['failed']} of {record['attempted']} runs)"
    )
    for problems in record["problems"]:
        print("  FAILED: " + "; ".join(problems))
    if record["counts"]:
        print("  counts: " + ", ".join(f"{k}={v}" for k, v in record["counts"].items()))
    for name, digest in (record["sha256"] or {}).items():
        print(f"  sha256 {name}: {digest}")
    changes = record["hash_changes_vs_pinned"]
    if changes is None:
        print("  hashes: seed not pinned")
    else:
        print("  hashes vs pinned: " + (", ".join(changes) + " changed" if changes else "unchanged"))
    if trace and "stage_share_of_traced_pipeline_s" in record:
        print(
            f"  stage spans cover {100 * record['stage_share_of_traced_pipeline_s']:.2f}% "
            "of traced pipeline_s"
        )
    p = record["provenance"]
    print(
        f"  provenance: nproc={p['nproc']} child_cpu={p['child_cpu']} python={p['python']} "
        f"numpy={p['numpy']} git={p['git_sha']} loadavg={p['loadavg_1m_5m_15m']}"
    )
    complete = set(metrics) == {e["name"] for e in declared}
    return {
        "correct": record["failed"] == 0 and complete,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _save(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _pin(record: dict) -> None:
    """Record this seed's manifest counts and artifact hashes in pinned.json."""
    pinned = _pinned()
    pinned.setdefault(record["workload"], {})[str(record["seed"])] = {
        "counts": {k: record["counts"][k] for k in PINNED_COUNTS},
        "sha256": record["sha256"],
    }
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin", action="store_true", help="record this seed's counts and hashes in pinned.json"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "upliftmine" / "__init__.py").is_file():
        print(f"error: no upliftmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        record = bench(name, args.seed, seconds, bool(args.trace))
        _save(record)
        result = report(record, spec)
        if args.pin and result["correct"] and not args.trace:
            _pin(record)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({name: r for name, r in zip(names, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
