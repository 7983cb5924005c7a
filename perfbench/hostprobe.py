"""A fixed piece of benchmark-owned work that measures how fast the host runs
right now, so that times measured on a shared host can be scaled to one
reference speed.

On a shared virtual machine the same request can take 50% longer for tens
of seconds to minutes at a time, because other tenants take the host's
cycles.  That drift is slower than a request and moves interpreted code
and bulk array work alike, though not by the same share.  The benchmark
therefore runs `probe`, which does some of each, between requests and
scales each request's time by REFERENCE_S over the median of the probes
taken around it.  The probe never calls mechfront, so a change to the
program does not move it.

    python3 perfbench/hostprobe.py        # prints five probe times in ms
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's time on the reference host: a scaled time reads as the time
# the request would take on a host where `probe` takes this long.
REFERENCE_S = 0.010

_ARANGE = np.arange(64, dtype=float)
_GRID = np.arange(40, dtype=float) * 0.1


def probe() -> float:
    """Seconds taken by a fixed mix of the kinds of work mechfront's
    requests do: interpreted loops, dict stores and small-array numpy calls
    (the optimum and the verification), then a fresh 64000-row profile
    matrix, partitioned and reduced row by row (the enumeration)."""
    t0 = time.perf_counter()
    s = 0.0
    d = {}
    for i in range(20000):
        s += (i * 7 % 13) * 0.5
        d[i & 255] = s
    a = _ARANGE
    for i in range(300):
        b = np.sort(a * (i % 7) - a[::-1])
        s += float(b[3])
    g = _GRID
    bids = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    s += float(np.partition(bids, 1, axis=1)[:, 1].sum())
    s += float(np.argmin(bids, axis=1).sum())
    elapsed = time.perf_counter() - t0
    if s != s:  # keeps the arithmetic live; never true
        raise AssertionError("probe arithmetic produced NaN")
    return elapsed


class Scaler:
    """Probes taken between requests, and the factor that scales a request's
    time to the reference host from the probes around it."""

    def __init__(self, every_s: float, window: int):
        self.every_s = every_s  # at most this much time between two probes
        self.window = window  # probes whose median scales one request
        self.samples = []
        self._last = float("-inf")

    def maybe_probe(self) -> int:
        """Probe when `every_s` has gone by since the last probe; returns the
        number of probes so far, which marks the request about to run."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            self.samples.append(probe())
            self._last = time.perf_counter()
        return len(self.samples)

    def factors(self, marks) -> list:
        """REFERENCE_S over the median of the `window` probes centred on
        each mark (a request runs after probe mark-1 and before probe mark)."""
        if not self.samples:
            raise ValueError("no probe was taken")
        half = self.window // 2
        n = len(self.samples)
        cache = {}
        out = []
        for mark in marks:
            if mark not in cache:
                lo = max(0, min(mark - 1 - half, n - self.window))
                cache[mark] = REFERENCE_S / statistics.median(
                    self.samples[lo:lo + self.window])
            out.append(cache[mark])
        return out


if __name__ == "__main__":
    probe()
    print(" ".join(f"{probe() * 1e3:.3f}" for _ in range(5)))
