"""Frequentist comparator: GCV selection of the smoothing parameter.

In the spectral domain the generalized cross-validation criterion at fixed
order q is

    GCV(lam) = n * sum X_i^2 (u_i/(1+u_i))^2 / ( sum u_i/(1+u_i) )^2,

the spectral form of n ||(I - S) Y||^2 / tr(I - S)^2, with sums beyond the
null space.  Mallows' C_p (which needs a known noise variance) is provided
for parity.  ``select_lambda_gcv`` minimizes either criterion in log lambda;
the experiments that use it live in ``simlab``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EbsplinesError
from .selection import LAMBDA_MAX, LAMBDA_MIN, _at, _dots, _scan, _tails
from .spectral import SpectralModel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Points of the coarse log-lambda grid that brackets the minimum.  GCV keeps
# golden section rather than bisecting the sign of its derivative: the
# bracket can hold two minima, and the sign alone then may pick the worse.
_GRID_POINTS = 60


def gcv_criterion(model: SpectralModel, coeffs, lam: float) -> float:
    """GCV value at one smoothing parameter (homogeneous of degree 2 in Y)."""
    return _crit_at(model, coeffs, None, lam)


def mallows_cp(model: SpectralModel, coeffs, lam: float, sigma2: float) -> float:
    """Mallows' C_p: ||(I-S)Y||^2 + 2 sigma^2 tr(S) - n sigma^2 (spectral form)."""
    return _crit_at(model, coeffs, sigma2, lam)


def _crit_at(model, coeffs, sigma2, lam):
    if not lam > 0:
        raise EbsplinesError(f"need lambda > 0, got {lam}")
    x2, nz = _tails(model.eigen, coeffs)
    return _at(functools.partial(_crit_rows, x2, model.n, model.null_dim, sigma2), nz)(lam)


def _crit_rows(x2, n, d, sigma2, u, v, w):
    """GCV = n X^2.r^2 / (sum r)^2 (sigma2 None) or C_p = X^2.r^2 + 2 sigma2
    (d + sum 1/v) - n sigma2, v = 1 + u, r = u/v, for each row of u = lam * nz
    or for u itself when it is one row (see ``selection._scan`` and ``_at``)."""
    np.add(u, 1.0, out=v)
    np.divide(u, v, out=u)
    rss = _dots(x2, np.multiply(u, u, out=w))
    if sigma2 is None:
        den = u.sum(axis=-1)
        return n * rss / (den * den)
    return rss + 2.0 * sigma2 * (d + np.divide(1.0, v, out=v).sum(axis=-1)) - n * sigma2


@dataclass(frozen=True)
class GcvResult:
    lambda_f_hat: float
    q: float
    criterion_value: float
    boundary_flag: bool


def select_lambda_gcv(model: SpectralModel, y, criterion: str = "gcv",
                      sigma2: float | None = None,
                      lam_range: tuple[float, float] = (LAMBDA_MIN, LAMBDA_MAX),
                      ) -> GcvResult:
    """Minimize the criterion in log lambda: coarse grid, then golden section.

    The coarse grid is evaluated in blocks, by the kernel the golden-section
    steps use.  The refinement targets relative accuracy 1e-4 in log lambda;
    a minimizer at either end of the coarse grid sets the boundary flag.
    """
    x = model.basis.forward(np.asarray(y, dtype=float))
    return _select_gcv(model, x, criterion, sigma2, lam_range)


def _select_gcv(model, coeffs, criterion="gcv", sigma2=None,
                lam_range=(LAMBDA_MIN, LAMBDA_MAX)) -> GcvResult:
    """``select_lambda_gcv`` from the coefficients Phi^T y."""
    if criterion not in ("gcv", "cp"):
        raise EbsplinesError(f"unknown criterion {criterion!r}")
    if criterion == "cp" and sigma2 is None:
        raise EbsplinesError("Mallows' C_p needs a known sigma2")
    sigma2 = sigma2 if criterion == "cp" else None
    x2, nz = _tails(model.eigen, coeffs)
    rows = functools.partial(_crit_rows, x2, model.n, model.null_dim, sigma2)
    crit = _at(rows, nz)

    lo, hi = lam_range
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _GRID_POINTS))
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
