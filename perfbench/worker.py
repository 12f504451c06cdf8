"""One benchmark client in a fresh process: set up, then timed passes.

The client drives ``igeo.cli.main(argv)`` in-process, one request at a time
(a closed loop with one client), capturing stdout and stderr in memory.  The
set-up clock starts before ``import igeo.cli`` and stops after the untimed
warm-up.  Each pass runs the workload's fixed request list once; outputs are
checked after the pass, outside its timing.  The first pass is checked against
the oracles in ``checks`` and is not timed; every later pass must reproduce it
byte for byte.  Pass times are reported raw and in reference seconds (see
``reference``), with the run's mean reference scale for set-up times.  With
``--setup-only`` the worker stops after set-up and reports its raw time.

Prints one JSON object on stdout.  Run through ``run.py``, which sets the
environment (PYTHONPATH, one thread per numeric library).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5


def _call(cli, argv):
    """(exit code or None, stdout, stderr, latency ns) of one request."""
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter_ns()
    try:
        code = cli.main(list(argv))
    except Exception:  # the client keeps running; the request counts as failed
        code = None
        err.write(traceback.format_exc())
    finally:
        latency = time.perf_counter_ns() - start
        sys.stdout, sys.stderr = real
    return code, out.getvalue(), err.getvalue(), latency


def _run_pass(cli, requests, probe):
    """(seconds, reference seconds, results) of one pass.

    The reference kernel runs before the first request, between requests and
    after the last; its time is left out of the pass, and its samples during
    the pass turn the pass's seconds into reference seconds.
    """
    first = len(probe.samples)
    probe.sample()
    start, before = time.perf_counter(), probe.spent_s
    results = []
    for req in requests:
        results.append(_call(cli, req.argv))
        probe.maybe()
    wall = time.perf_counter() - start - (probe.spent_s - before)
    probe.sample()
    return wall, wall * probe.scale(first), results


class Verifier:
    """Checks outputs; the first pass against the oracles, later ones against the first."""

    def __init__(self, workload):
        self.requests = workload.requests
        self.digests: list[str] | None = None
        self.ok: list[bool] = []
        self.stream_sha256: str | None = None
        self.failures: list[str] = []

    def failed(self, results) -> int:
        """Failed requests in one pass's results."""
        import checks  # imports igeo, so only after the set-up clock has stopped

        stream = hashlib.sha256()
        digests = []
        for _, out, _, _ in results:
            data = out.encode()
            stream.update(data)
            digests.append(hashlib.sha256(data).hexdigest())
        if self.digests is None:
            self.digests, self.stream_sha256 = digests, stream.hexdigest()
            for req, (code, out, err, _) in zip(self.requests, results):
                try:
                    checks.check(req.argv, code, out, req.points)
                    self.ok.append(True)
                except Exception as exc:  # any malformed output is a failed request
                    self.ok.append(False)
                    self._note(req, f"{type(exc).__name__}: {exc} {err[-500:]}")
        bad = 0
        for req, (code, _, _, _), digest, first, ok in zip(
                self.requests, results, digests, self.digests, self.ok):
            if digest != first:
                self._note(req, "output differs from the first pass")
            if code != 0 or digest != first or not ok:
                bad += 1
        return bad

    def _note(self, req, message):
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{' '.join(req.argv)}: {message}"[:2000])


def _percentiles(latencies_ns):
    """Median and p99 request latency, with the samples beyond p99."""
    lat = sorted(latencies_ns)
    n = len(lat)
    i99 = min(n - 1, int(0.99 * n))
    return {"samples": n, "beyond_p99": n - 1 - i99,
            "p50_ms": lat[n // 2] / 1e6, "p99_ms": lat[i99] / 1e6}


def _passes(cli, workload, verifier, seconds, tracer=None):
    """(passes, peak RSS in MB): passes while the next one still fits in ``seconds``.

    The first pass is checked against the oracles and is not timed; the peak
    RSS is read after it, before the reference kernel first allocates.  Later
    passes interleave the reference kernel.  With a tracer, traced and untraced
    passes alternate, so that drift in the machine's speed does not enter the
    tracing overhead; there is at least one of each.
    """
    modes = ("untraced", "traced") if tracer else ("untraced",)
    out = {m: {"wall_s": [], "ref_wall_s": [], "layers": [], "latency_ns": [],
               "failed": 0, "attempted": 0} for m in modes}
    start = time.perf_counter()
    results = [_call(cli, req.argv) for req in workload.requests]
    out["untraced"]["failed"] += verifier.failed(results)
    out["untraced"]["attempted"] += len(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import reference  # imports numpy, so only after the set-up clock has stopped

    probe = reference.Probe(workload.reference)
    for i in itertools.count():
        cycle = time.perf_counter()
        mode = modes[i % len(modes)]
        if mode == "traced":
            with tracer:
                wall, ref_wall, results = _run_pass(cli, workload.requests, probe)
        else:
            wall, ref_wall, results = _run_pass(cli, workload.requests, probe)
        bad = verifier.failed(results)
        acc = out[mode]
        if mode == "traced":
            acc["layers"].append({**tracer.take(), "cli.failed": bad,
                                  "cli.out_bytes": sum(len(r[1].encode()) for r in results)})
        acc["wall_s"].append(wall)
        acc["ref_wall_s"].append(ref_wall)
        acc["latency_ns"].extend(r[3] for r in results)
        acc["failed"] += bad
        acc["attempted"] += len(results)
        now = time.perf_counter()
        if i + 1 >= len(modes) and now + (now - cycle) > start + seconds:
            break
    for acc in out.values():
        acc["latency"] = _percentiles(acc.pop("latency_ns"))
    out.update(kernel_samples=len(probe.samples), ref_scale=probe.scale())
    return out, peak_rss_mb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = workloads.build(args.workload, args.seed, args.small)

    start = time.perf_counter()
    cli = importlib.import_module("igeo.cli")
    for argv in workload.warmup:
        code, _, err, _ = _call(cli, argv)
        if code != 0:
            print(f"warm-up request {' '.join(argv)} exited {code}: {err}", file=sys.stderr)
            return 1
    setup_s = time.perf_counter() - start
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"igeo was imported from {source}, not from this checkout", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy

        verifier = Verifier(workload)
        tracer = Tracer() if args.trace else None
        passes, peak_rss_mb = _passes(cli, workload, verifier, args.seconds, tracer)
        result.update(
            passes,
            absent=tracer.absent if tracer else [],
            numpy=numpy.__version__,
            stdout_sha256=verifier.stream_sha256,
            failures=verifier.failures,
            peak_rss_mb=peak_rss_mb,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
