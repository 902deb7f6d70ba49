"""Reference work that measures how fast the host runs at the moment.

The host switches between speeds that differ by up to 1.6x for tens of
seconds at a time (neighbours on the same physical cores), and every
workload slows with it, code that makes many small NumPy calls from Python
most.  The workers run a fixed amount of this reference work before every
operation and report the host speed, its nominal over its measured time;
run.py divides throughput by it, giving the throughput at a fixed host speed.

The reference imports nothing from ebsplines, so no change to the program
moves it.  It mirrors what the program spends its time on: Python-driven
loops of small numpy reductions over spectral coefficients (as the lambda
solve and GCV do) and a DCT, all single-threaded.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import dct

N = 1000
# Seconds per unit that count as host speed 1.  A 2-vCPU Xeon VM at 2.1 GHz
# took 0.5 ms in its fast phase and 1.1 ms in its slow one.  Only the scale of
# the corrected figures depends on it.
UNIT_NOMINAL_S = 0.7e-3

_rng = np.random.default_rng(20141124)
_W = np.sort(_rng.uniform(1.0, 1e9, N))
_Y = _rng.standard_normal(N)
_LAMS = np.exp(np.linspace(np.log(1e-12), np.log(1.0), 48))


def unit() -> float:
    """One unit of reference work; returns a value so nothing is skipped."""
    x2 = dct(_Y, norm="ortho") ** 2
    acc = 0.0
    for lam in _LAMS:
        u = lam * _W
        r = u / (1.0 + u)
        acc += float(np.dot(x2, r / (1.0 + u))) - \
            float(np.dot(x2, r)) * float(np.sum(1.0 / (1.0 + u))) / N
    return acc


def run(units: int) -> float:
    """Run ``units`` units; return the seconds they took."""
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - t0


run(20)  # first calls pay one-off costs
