"""Reference kernels: the machine's current speed, measured next to the program.

The CPU speed a process gets on a shared host drifts by tens of percent over
minutes.  The worker therefore interleaves a fixed kernel with its requests
(before and after each pass, and after any request that ends at least
``INTERVAL_S`` after the previous sample) and reports each pass in reference
seconds: its raw time x the kernel's reference time / the kernel's mean time
over the samples taken during that pass.  Set-up times, measured in other
processes just after the passes, are scaled by the kernel's mean time over
the whole run.  A change to the program moves the raw time and not the
kernel, so it moves the reported time by the same factor; a slow spell of the
machine moves both.

There are two kernels.  ``interp`` is interpreted Python with dicts, lists,
JSON and many small numpy calls; ``bulk`` is 1e6 normal draws with a
reduction.  Each workload names the one that matches its own work
(``Workload.reference``): a slow spell slows interpreted code about twice as
much as bulk draws, so a workload of bulk draws scaled by the interpreted
kernel would be over-corrected.  The kernels use nothing from igeo.

Import this module only after the set-up clock has stopped: it imports numpy.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

INTERVAL_S = 0.3  # least time between two samples inside a pass

_SMALL = np.linspace(0.1, 1.0, 9).reshape(3, 3)


def _interp() -> float:
    acc = 0.0
    for i in range(40_000):
        x = i * 1e-5
        acc += x * x - 0.5 * x
    rows = [{"i": i, "v": [i * 0.1, i * 0.2], "k": f"x{i}"} for i in range(2_000)]
    acc += len(json.dumps(rows))
    for i in range(1_000):
        acc += float(np.einsum("ij,jk->ik", _SMALL * (1.0 + i * 1e-6), _SMALL).sum())
    return acc


def _bulk() -> float:
    draws = 0.5 + 1.3 * np.random.default_rng(7).standard_normal(1_000_000)
    return float(np.mean(draws * draws))


# name -> (kernel, its time in reference seconds: about its time on a 2-vCPU
# Xeon VM in that machine's fast spells)
KERNELS = {"interp": (_interp, 0.02), "bulk": (_bulk, 0.025)}


class Probe:
    """Samples of one kernel, and the time they took in all."""

    def __init__(self, kernel: str):
        self.run, self.ref_s = KERNELS[kernel]
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.run()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
        self.spent_s += self._last - start

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, first: int = 0) -> float:
        """Reference seconds per raw second, from the mean of the samples from ``first`` on."""
        return self.ref_s / statistics.fmean(self.samples[first:])
