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

from .errors import EbsplinesError
from .selection import LAMBDA_MAX, LAMBDA_MIN, _at, _dots, _log_grid, _scan, _tails
from .spectral import SpectralModel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the coarse log-lambda grid that brackets the minimum.  GCV keeps
# golden section rather than bisecting the sign of its derivative: the
# bracket can hold two minima, and the sign alone then may pick the worse.
_GRID_POINTS = 60


def gcv_criterion(model: SpectralModel, coeffs, lam: float) -> float:
    """GCV value at one smoothing parameter (homogeneous of degree 2 in Y)."""
    if not lam > 0:
        raise EbsplinesError(f"need lambda > 0, got {lam}")
    x2, nz = _tails(model.eigen, coeffs)
    return _at(functools.partial(_crit_rows, x2, model.n), nz)(lam)


def _crit_rows(x2, n, u, v, w):
    """GCV = n X^2.r^2 / (sum r)^2, v = 1 + u, r = u/v, for each row of
    u = lam * nz or for u itself when it is one row (see ``selection._scan``
    and ``_at``)."""
    np.add(u, 1.0, out=v)
    np.divide(u, v, out=u)
    rss = _dots(x2, np.multiply(u, u, out=w))
    den = u.sum(axis=-1)
    return n * rss / (den * den)


@dataclass(frozen=True)
class GcvResult:
    lambda_f_hat: float
    q: float
    criterion_value: float
    boundary_flag: bool


def select_lambda_gcv(model: SpectralModel, y,
                      lam_range: tuple[float, float] = (LAMBDA_MIN, LAMBDA_MAX),
                      ) -> GcvResult:
    """Minimize GCV in log lambda: coarse grid, then golden section.

    The coarse grid is evaluated in blocks, by the kernel the golden-section
    steps use.  The refinement targets relative accuracy 1e-4 in log lambda;
    a minimizer at either end of the coarse grid sets the boundary flag.
    """
    x = model.basis.forward(np.asarray(y, dtype=float))
    return _select_gcv(model, x, lam_range)


def _select_gcv(model, coeffs, lam_range=(LAMBDA_MIN, LAMBDA_MAX)) -> GcvResult:
    """``select_lambda_gcv`` from the coefficients Phi^T y."""
    x2, nz = _tails(model.eigen, coeffs)
    rows = functools.partial(_crit_rows, x2, model.n)
    crit = _at(rows, nz)

    grid = _log_grid(lam_range, _GRID_POINTS)
    vals = _scan(rows, nz, grid)
    j = int(np.argmin(vals))
    boundary = j in (0, _GRID_POINTS - 1)

    a = math.log(grid[max(j - 1, 0)])
    b = math.log(grid[min(j + 1, _GRID_POINTS - 1)])
    # golden-section on the bracket around the best grid point
    c = b - _INV_PHI * (b - a)
    dd = a + _INV_PHI * (b - a)
    fc, fd = crit(math.exp(c)), crit(math.exp(dd))
    while (b - a) > 1e-4 * max(1.0, abs(a), abs(b)):
        if fc <= fd:
            b, dd, fd = dd, c, fc
            c = b - _INV_PHI * (b - a)
            fc = crit(math.exp(c))
        else:
            a, c, fc = c, dd, fd
            dd = a + _INV_PHI * (b - a)
            fd = crit(math.exp(dd))
    lam = math.exp(0.5 * (a + b))
    return GcvResult(lambda_f_hat=float(lam), q=model.q,
                     criterion_value=float(crit(lam)), boundary_flag=boundary)
