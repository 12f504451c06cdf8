"""Alternating parent-vs-change benchmark pairs, summarised as a BENCH_<n>.json skeleton.

    python tests/pairs.py --rev <rev> --seeds 2401 2402 ... > BENCH_<n>.json

Each side runs ``perfbench/run.py --workload <w> --seed <seed> --seconds <s>
--trace 0``, for every workload of BENCHMARK.json at its ``run_seconds``, from
the root of its own copy: the parent's is ``git archive <rev> src perfbench
BENCHMARK.json``, the change's the same paths of the working tree, copied when
the script starts, so that editing the tree during the runs changes neither
side.  For each seed the workloads run in turn; the parent runs first on odd
seeds and the change first on even ones.  Progress goes to stderr, the summary
to stdout.

The summary gives, per workload and end-to-end metric of BENCHMARK.json, each
side's median, q1, q3 and IQR by ``statistics.quantiles(n=4,
method="inclusive")``, the change's median over the parent's, and the pairs each
side won (a tie is won by neither); per workload, whether ``stdout_sha256``
matched in every pair and the failed operations of each side.  The raw runs are
kept.  pytest does not collect this file; ``test_pairs.py`` tests its summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import sweep

ROOT = sweep.ROOT
PATHS = ("src", "perfbench", "BENCHMARK.json")  # what a side needs to run the benchmark
SIDES = ("parent", "change")


def order(seed: int) -> tuple[str, str]:
    """The sides in the order they run at a seed: the parent first on odd seeds."""
    return SIDES if seed % 2 else SIDES[::-1]


def quartiles(values: list[float]) -> dict:
    """median, q1, q3 and IQR of a side's runs; a single run is its own quartiles."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: dict, better: dict) -> dict:
    """The summary of runs[workload][side], lists of run results in seed order (each
    {"metrics", "stdout_sha256", "failed"}), with better[metric] "lower" or "higher"."""
    end_to_end, identical, failed = {}, {}, {}
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        if len(parent) != len(change):
            raise ValueError(f"{workload}: {len(parent)} parent runs, {len(change)} change runs")
        end_to_end[workload] = {}
        for metric, direction in better.items():
            p = [r["metrics"][metric] for r in parent]
            c = [r["metrics"][metric] for r in change]
            sign = 1 if direction == "lower" else -1
            end_to_end[workload][metric] = {
                "parent": quartiles(p),
                "change": quartiles(c),
                "parent_runs": p,
                "change_runs": c,
                "change_over_parent_median": statistics.median(c) / statistics.median(p),
                "pairs_change_better": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
                "pairs_parent_better": sum(sign * (a - b) < 0 for a, b in zip(p, c)),
                "pairs": len(p),
            }
        identical[workload] = all(a["stdout_sha256"] == b["stdout_sha256"]
                                  for a, b in zip(parent, change))
        failed[workload] = {side: sum(r["failed"] for r in sides[side]) for side in SIDES}
    return {"end_to_end": end_to_end, "stdout_identical_every_pair": identical,
            "failed_operations": failed}


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark call from root: its metric values, stdout digest and failures."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root.name} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "stdout_sha256": record["stdout_sha256"], "failed": result["failed"],
            "env": record["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="git revision of the parent side")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    env = None
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: Path(tmp, side) for side in SIDES}
        for root in roots.values():
            root.mkdir()
        sweep.extract(args.rev, roots["parent"], *PATHS)
        for name in PATHS:
            copy = shutil.copytree if (ROOT / name).is_dir() else shutil.copy2
            copy(ROOT / name, roots["change"] / name)
        for seed in args.seeds:
            for workload in workloads:
                for side in order(seed):
                    run = run_side(roots[side], workload, seed, seconds)
                    env = run.pop("env")
                    runs[workload][side].append(run)
                    print(f"seed {seed} {workload} {side}: "
                          + json.dumps(run["metrics"]), file=sys.stderr, flush=True)
    parent_commit = subprocess.run(["git", "rev-parse", args.rev], cwd=ROOT, capture_output=True,
                                   text=True, check=True).stdout.strip()
    bench = {
        "parent_commit": parent_commit,
        "command": f"python3 perfbench/run.py --workload <w> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "run_seconds": seconds,
        "seeds": args.seeds,
        "order": "parent and change alternate; the parent runs first on odd seeds; for each "
                 "seed the workloads run in turn",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of each side",
        "env": {k: env[k] for k in ("nproc", "cpu_model", "python", "numpy") if k in env},
        **summarise(runs, better),
    }
    sys.stdout.write(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
