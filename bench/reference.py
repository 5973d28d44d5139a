"""A fixed reference computation that tracks how fast the host runs right now.

On a machine shared with other tenants the same job can run 30-50 % slower
for minutes at a time, and a job's CPU time moves with its wall time, so
no statistic of one run's job times is steady across runs. The end-to-end
loop times this kernel before the first job and after every job; a job's
wall time divided by the mean kernel time on either side of it cancels
most of that drift. The kernel imitates the package's hot paths (JSON
parsing, per-sample numpy calls from Python, float formatting) but does not
import the package, so no change to the package moves it.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import time

import numpy as np

_JOINTS = 12
_FRAMES = 300
_SAMPLES = 1100


@functools.lru_cache(maxsize=1)
def _text() -> str:
    rng = random.Random(0)
    frames = [{"t": i / 30, "joints": [[rng.random() for _ in range(3)] for _ in range(_JOINTS)]}
              for i in range(_FRAMES)]
    return json.dumps({"frames": frames})


def kernel() -> int:
    """Parse a skeleton-like JSON text, resample it point by point and
    format the result as CSV text; returns the text's length."""
    frames = json.loads(_text())["frames"]
    ts = np.array([f["t"] for f in frames])
    pos = np.array([f["joints"] for f in frames])  # (frames, joints, 3)
    grid = ts[0] + np.arange(_SAMPLES) / 124.0
    rows = [[float(np.interp(t, ts, pos[:, j, c])) for j in range(_JOINTS) for c in range(3)]
            for t in grid]
    return len("\n".join(",".join(f"{x:.6f}" for x in row) for row in rows))


def seconds() -> float:
    """Wall time of one kernel run, after a garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
