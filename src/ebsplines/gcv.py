"""Frequentist comparator: GCV selection of the smoothing parameter.

In the spectral domain the generalized cross-validation criterion at fixed
order q is

    GCV(lam) = n * sum X_i^2 (u_i/(1+u_i))^2 / ( sum u_i/(1+u_i) )^2,

the spectral form of n ||(I - S) Y||^2 / tr(I - S)^2, with sums beyond the
null space.  ``select_lambda_gcv`` minimizes it in log lambda; the
experiments that use it live in ``simlab``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .selection import _at, _lockstep, _log_grid, _scan, _tails, _unit_scale
from .spectral import SpectralModel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The 60-point coarse log-lambda grid that brackets the minimum.  GCV keeps
# golden section rather than bisecting the sign of its derivative: the
# bracket can hold two minima, and the sign alone then may pick the worse.
_GRID_POINTS = 60
_GRID = _log_grid(_GRID_POINTS)


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
    q: float
    boundary_flag: bool


def select_lambda_gcv(model: SpectralModel, y) -> GcvResult:
    """Minimize GCV in log lambda over [LAMBDA_MIN, LAMBDA_MAX]: coarse grid,
    then golden section.

    The coarse grid is evaluated in blocks, by the kernel the golden-section
    steps use.  The refinement targets relative accuracy 1e-4 in log lambda;
    a minimizer at either end of the coarse grid sets the boundary flag.  The
    result holds the minimizer; ``gcv_criterion`` gives the value there.  The
    search runs on y / 2^k (see ``selection._unit_scale``), so the minimizer
    does not depend on the data's scale; a non-finite y raises.
    """
    y, _ = _unit_scale(np.asarray(y, dtype=float)[None], "y")
    return _select_gcvs(model, model.basis.forward(y))[0]


def _select_gcvs(model: SpectralModel, x: np.ndarray) -> list[GcvResult]:
    """``select_lambda_gcv`` for each row of the stack x = Phi^T y, a row a lane."""
    x2s, nz = _tails(model.eigen, x)
    rows = functools.partial(_crit_rows, model.n)

    def crit(t, live):  # GCV of the rows ``live`` at lambda = e^t, a t per row
        return _scan(rows, x2s, nz, np.fromiter(map(math.exp, t), float, len(t)), live)

    js = np.argmin(_scan(rows, x2s, nz, _GRID), axis=1).tolist()
    # golden section on the bracket around the best grid point of each row
    t = _lockstep([_golden(math.log(_GRID[max(j - 1, 0)]),
                           math.log(_GRID[min(j + 1, _GRID_POINTS - 1)])) for j in js],
                  crit)
    return [GcvResult(lambda_f_hat=math.exp(tk), q=model.q,
                      boundary_flag=j in (0, _GRID_POINTS - 1)) for tk, j in zip(t, js)]


def _golden(a: float, b: float):
    """Golden section on [a, b] in log lambda to relative accuracy 1e-4, a lane
    of ``selection._lockstep``: yields log lambdas, returns the last midpoint."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = yield c
    fd = yield d
    while (b - a) > 1e-4 * max(1.0, abs(a), abs(b)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = yield d
    return 0.5 * (a + b)
