"""Frequentist comparator: GCV selection of the smoothing parameter.

In the spectral domain the generalized cross-validation criterion at fixed
order q is

    GCV(lam) = n * sum X_i^2 (u_i/(1+u_i))^2 / ( sum u_i/(1+u_i) )^2,

the spectral form of n ||(I - S) Y||^2 / tr(I - S)^2, with sums beyond the
null space.  ``select_lambda_gcv`` minimizes it in log lambda; the
experiments that use it live in ``simlab``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .selection import _at, _lockstep, _log_grid, _scan, _tails, _unit_scale
from .spectral import SpectralModel

# The 60-point coarse log-lambda grid that brackets the minimum.  GCV keeps
# comparing its values rather than bisecting the sign of its derivative: the
# bracket can hold two minima, and the sign alone then may pick the worse.
_GRID_POINTS = 60
_GRID = _log_grid(_GRID_POINTS)
_LOGS = [math.log(lam) for lam in _GRID]
# The result's lattice t = k h in log lambda: relative accuracy 1e-4 in t for |t| > 19.6
_STEP = 2.0 ** -9


def gcv_criterion(model: SpectralModel, coeffs, lam: float) -> float:
    """GCV value at one smoothing parameter (homogeneous of degree 2 in Y)."""
    x2, nz = _tails(model.eigen, coeffs)
    return _at(functools.partial(_crit_rows, model.n), x2, nz, lam)


def _crit_rows(n, u, v, w):
    """The rows r^2 and sum r of GCV, v = 1 + u, r = u/v, for each row of
    u = lam * nz (see ``selection._scan``), and their finish for squared tail
    coefficients x2: GCV = n x2.r^2 / (sum r)^2; as in ``selection._t_rows``
    it takes an index ``i`` of rows."""
    np.add(u, 1.0, out=v)
    np.divide(u, v, out=u)
    np.multiply(u, u, out=w)
    den = u.sum(axis=-1)
    # np.vecdot, as in ``selection._t_rows``: the BLAS dot of np.dot per row
    return lambda x2, i=slice(None): n * np.vecdot(w[i], x2) / (den[i] * den[i])


@dataclass(frozen=True)
class GcvResult:
    lambda_f_hat: float
    boundary_flag: bool


def select_lambda_gcv(model: SpectralModel, y) -> GcvResult:
    """Minimize GCV in log lambda over [LAMBDA_MIN, LAMBDA_MAX]: coarse grid,
    then a search of the lattice log lambda = k 2^-9 (``_lattice``).

    The grid's best point's neighbours bracket the search (a best point at
    either end sets the boundary flag), and the result is a lattice point
    whose GCV is no larger than at its neighbours there.  The search runs on
    y / 2^k (``selection._unit_scale``): a power-of-two scale of y moves no
    bit of it (other scales: see ``_lattice``); a non-finite y raises.
    """
    y, _ = _unit_scale(np.asarray(y, dtype=float)[None], "y")
    return _select_gcvs(model, model.basis.forward(y))[0]


def _select_gcvs(model: SpectralModel, x: np.ndarray) -> list[GcvResult]:
    """``select_lambda_gcv`` for each row of the stack x = Phi^T y, a row a lane."""
    x2s, nz = _tails(model.eigen, x)
    rows = functools.partial(_crit_rows, model.n)

    def crit(lams, live):  # GCV of the rows ``live``, a lambda per row
        return _scan(rows, x2s, nz, np.array(lams), live)

    vals = _scan(rows, x2s, nz, _GRID)
    js = np.argmin(vals, axis=1).tolist()
    lams = _lockstep([_lattice(j, f) for j, f in zip(js, vals.tolist())], crit)
    return [GcvResult(lambda_f_hat=lam, boundary_flag=j in (0, _GRID_POINTS - 1))
            for lam, j in zip(lams, js)]


def _lattice(j: int, grid_gcv: list):
    """The search of the lattice t = k h on the bracket around grid point j,
    a lane of ``selection._lockstep``: yields lambda = e^(k h), is sent GCV
    there, and returns one whose GCV is no larger than at k - 1 and k + 1.
    From the grid's points on, each step proposes the vertex of a parabola
    through the best point x and its two nearest points (else through x and
    its neighbours, else x) on the lattice; a point met before gives way to
    a free neighbour of the best lattice point, and with none the search
    ends.  So comparisons alone decide the result: a last-bit change of the
    values (3y for y) can move the points, but where GCV falls and then rises
    along the lattice every path ends at its one point below both
    neighbours.  Only ties to rounding (where GCV is flat, towards either end
    of the lambda range) or two lattice minima in the bracket can move it.
    """
    lo = math.ceil(_LOGS[max(j - 1, 0)] / _STEP)
    hi = math.floor(_LOGS[min(j + 1, _GRID_POINTS - 1)] / _STEP)
    i = min(max(j - 1, 0), _GRID_POINTS - 3)
    ts, fs = _LOGS[i:i + 3], grid_gcv[i:i + 3]  # the points so far, in order
    on, c = {}, None  # GCV at each lattice index evaluated, and the best index
    while True:
        m = fs.index(min(fs))
        x, n = ts[m], len(ts)
        a, b = ts[m - 1] if m else -math.inf, ts[m + 1] if m + 1 < n else math.inf
        if b - x <= x - a:  # ts[w:w + 3] holds x and the two points nearest it
            w = m if m + 2 < n and ts[m + 2] - x <= x - a else m - 1
        else:
            w = m - 2 if m > 1 and x - ts[m - 2] < b - x else m - 1
        u = x
        for w in (w, m - 1):  # then the window of a, x and b
            if 0 <= w <= n - 3:
                (t0, t1, t2), (f0, f1, f2) = ts[w:w + 3], fs[w:w + 3]
                den = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
                if den < -2.0 ** -46 * f1 * (t2 - t0):  # convex beyond rounding
                    v = t1 - 0.5 * ((t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)) / den
                    if a < v < b:
                        u = v
                        break
        k = min(max(round(u / _STEP), lo), hi)
        if k in on:
            s = 1 if u > c * _STEP else -1
            k = next((nb for nb in (c + s, c - s) if lo <= nb <= hi and nb not in on), c)
            if k == c:
                return math.exp(c * _STEP)
        on[k] = fk = yield math.exp(k * _STEP)
        c = k if fk < on.get(c, math.inf) else c
        ts.insert(p := bisect.bisect(ts, k * _STEP), k * _STEP)
        fs.insert(p, fk)
