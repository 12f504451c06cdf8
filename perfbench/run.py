"""igeo benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload point-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout: igeo is imported from ``src/`` there and from
nowhere else.  Each call starts fresh worker processes (``worker.py``), one
client each, with one thread per numeric library.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json from untraced passes, with ``wall_s``,
``points_per_s`` and ``setup_s`` in reference seconds: raw times scaled by a
fixed kernel timed next to them (``reference.py``), so that the host's drifting
CPU speed cancels; the raw times are in the record line.  ``--trace 1``
reports the per-layer metrics of the median traced pass; untraced passes
alternate with the traced ones to give the tracing overhead.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record (environment, request and point counts, stdout digest, failures).

``--quick`` runs each workload at a small size, traced twice with one seed,
and fails unless every count and the stdout digest repeat exactly and every
metric of BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import COUNT_METRICS, SELF_METRICS, TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_RUNS = 7  # set-up is measured in this many fresh processes; the median is reported
RUN_TIMEOUT_S = 170  # every worker of one call must end within this

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "s" for name in SELF_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "cli.failed": "count",
    "cli.out_bytes": "bytes",
    "trace_overhead_frac": "1",
}


class BenchError(Exception):
    pass


def _worker(deadline, workload, seed, seconds, trace, small, setup_only=False) -> dict:
    env = dict(os.environ)
    env.pop("IGEO_SEED", None)  # the CLI's default Monte Carlo seed stays the default
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--small"] * small + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median_pass(layers: list[dict]) -> dict:
    """The traced pass with the median cli.main_s, so its metrics are one consistent set."""
    layer = sorted(layers, key=lambda x: x["cli.main_s"])[(len(layers) - 1) // 2]
    if any(x["_self_sum_ns"] != x["_main_ns"] for x in layers):
        raise BenchError("some span lies outside cli.main, so self times do not add up")
    return layer


def measure(workload: str, seed: int, seconds: float, trace: int, small: bool = False,
            setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """(full record, result line) of one benchmark call."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = _environment()
    wl = workloads.build(workload, seed, small)
    main = _worker(deadline, workload, seed, seconds, trace, small)
    untraced = main["untraced"]
    attempted, failed = untraced["attempted"], untraced["failed"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "small": small, "env": {**env, "numpy": main["numpy"]},
        "requests_per_pass": len(wl.requests), "points_per_pass": wl.points,
        "stdout_sha256": main["stdout_sha256"], "failures": main["failures"],
        "untraced_passes": len(untraced["wall_s"]),
    }
    wall = statistics.median(untraced["wall_s"])  # raw; the tracing overhead compares raw times
    if trace:
        traced = main["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = dict(_median_pass(traced["layers"]))
        values["trace_overhead_frac"] = (statistics.median(traced["wall_s"]) - wall) / wall
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        record.update(traced_passes=len(traced["wall_s"]), absent=main["absent"])
    else:
        setups = [_worker(deadline, workload, seed, 0, 0, small, setup_only=True)["setup_s"]
                  for _ in range(setup_runs)]
        ref_wall = statistics.median(untraced["ref_wall_s"])
        values = {
            "wall_s": ref_wall,
            "points_per_s": wl.points / ref_wall,
            "setup_s": statistics.median(setups) * main["ref_scale"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        record.update(raw_wall_s=wall, raw_setup_s_runs=setups, ref_scale=main["ref_scale"],
                      timed_run_raw_setup_s=main["setup_s"],
                      kernel_samples=main["kernel_samples"])
        lat = untraced["latency"]
        # a percentile is reported only where at least ten samples lie beyond it
        record["request_latency"] = lat if lat["beyond_p99"] >= 10 else None
    record["failed_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def quick(seed: int) -> int:
    """Count stability and metric coverage on small workloads; 0 when everything holds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = ({m["name"]: m["unit"] for m in spec[key]}
                             for key in ("end_to_end", "per_layer"))
    problems = []
    counts = (*COUNT_METRICS, "cli.out_bytes")
    for workload in workloads.WORKLOADS:
        runs = [measure(workload, seed, 0, 0, small=True, setup_runs=1),
                measure(workload, seed, 0, 1, small=True),
                measure(workload, seed, 0, 1, small=True)]
        for (record, result), names in zip(runs, (end_to_end, per_layer, per_layer)):
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != names:
                problems.append(f"{workload}: printed {printed}, declared {names}")
            if not result["correct"]:
                problems.append(f"{workload}: {record['failures']}")
        first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
        problems += [f"{workload}: {name} {first[name]['value']} then {second[name]['value']}"
                     for name in counts if first[name]["value"] != second[name]["value"]]
        digests = {record["stdout_sha256"] for record, _ in runs}
        if len(digests) != 1:
            problems.append(f"{workload}: stdout digests differ {digests}")
        print(json.dumps({"workload": workload,
                          "counts": {name: first[name]["value"] for name in counts}}))
    for p in problems:
        print(f"quick check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="count stability check")
    args = ap.parse_args()
    if not (ROOT / "src" / "igeo").is_dir():
        print(f"no igeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args.seed)
        if args.workload is None:
            ap.error("--workload is required")
        record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
