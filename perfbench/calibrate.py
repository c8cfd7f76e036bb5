"""A fixed reference computation that tracks the host's speed.

On a machine shared with other tenants, their load slows everything this
process runs, by up to 2x for tens of seconds at a time.  The benchmark runs
this reference between its requests and scales each request's time by how
long the reference took around it, so that its timings read as the time on a
host where one reference unit takes REFERENCE_UNIT_S.  Set-up, a fresh
process importing blochframes, is scaled the same way by a fresh process
that only imports numpy (reference_process), which tracked it far better
than the in-process reference.

The reference touches nothing of blochframes, so no change to the program
moves it.  It mixes what the workloads spend their time on: building and
running argument parsers and JSON (the CLI), Python-level float formatting
(the CSV writer), many small numpy products (per-qubit frames and
contractions) and elementwise passes over arrays of a few hundred kilobytes
(grid scans).  Of the candidates timed beside the workloads under varying
load, the argument parsers tracked every workload best and the elementwise
passes worst, hence their shares.  It runs with the garbage collector off,
so that the program's heap does not change its cost.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time

import numpy as np

# seconds one reference unit takes on the unloaded reference host (a 2-vCPU
# x86_64 virtual machine); a scale for the reported timings, not a measurement
REFERENCE_UNIT_S = 0.014
# seconds a fresh `python -c "import numpy"` takes on the same host
REFERENCE_PROCESS_S = 0.15

_rng = np.random.default_rng(20260101)
_FLOATS = _rng.normal(size=3000).tolist()
_DOC = {"rows": 1296, "weights": _rng.normal(size=600).tolist(), "argmin": [[0.1, 0.2, 0.3]] * 8}
_A = _rng.normal(size=(8, 8))
_B = _rng.normal(size=(8, 8))
_V = _rng.normal(size=60_000)


def reference_unit() -> float:
    """Run one reference unit and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ",".join(repr(x) for x in _FLOATS)
        json.loads(json.dumps(_DOC))
        for _ in range(4):
            parser = argparse.ArgumentParser(prog="reference")
            commands = parser.add_subparsers(dest="command")
            for k in range(6):
                command = commands.add_parser(f"command{k}")
                command.add_argument("--state")
                command.add_argument("--grid", type=int, default=24)
            parser.parse_args(["command3", "--state", "{}", "--grid", "12"])
        m = _A
        for _ in range(800):
            m = np.einsum("ij,jk->ik", _A, _B) + m @ _B * 1e-3
        for _ in range(2):
            float(np.sum(np.cos(_V) * _V + np.abs(_V)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Reference units run after each block of requests and are kept with the
    time they ran.  A block's speed factor is REFERENCE_UNIT_S over the median
    of the units that ran within WINDOW_S of it, before or after, so that a
    block is scaled by the host's speed around it and not by one unit's luck."""

    # reference time after a block, as a share of the block's time
    SHARE = 0.15
    WINDOW_S = 0.5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, unit time)
        self.after_block(0.0)

    def after_block(self, block_s: float):
        """Run reference units for SHARE of a block of `block_s` seconds, at
        least one."""
        spent = 0.0
        while not spent or spent < self.SHARE * block_s:
            unit = reference_unit()
            spent += unit
            self.samples.append((time.perf_counter() - 0.5 * unit, unit))

    def forget_before(self, when: float):
        """Drop the units that ran more than WINDOW_S before `when`."""
        self.samples = [s for s in self.samples if s[0] >= when - self.WINDOW_S]

    def factor(self, start: float, end: float) -> float:
        """Speed factor of a block that ran from `start` to `end`."""
        units = [unit for at, unit in self.samples if start - self.WINDOW_S <= at <= end + self.WINDOW_S]
        if not units:  # units slower than the window: take every unit kept
            units = [unit for _, unit in self.samples]
        return REFERENCE_UNIT_S / statistics.median(units)


def reference_process() -> float:
    """Start a fresh interpreter that imports numpy; return its wall time in seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start
