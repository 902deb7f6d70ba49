"""Marginal likelihood, estimating equations and the (lambda, q) selector.

With spectral coefficients ``X = Phi^T Y`` and eigenvalues ``n*eta`` the
marginal log-likelihood of the conjugate model (shape a = q/2, scale b = 0) is,
up to the lambda-independent -(n/2) log( sum_{i>d} X_i^2 ),

    l(lam, q) = -(n/2) log( sum_{i>d} X_i^2 u_i / (1+u_i) / sum_{i>d} X_i^2 )
                + (1/2) sum_{i>d} log( u_i / (1+u_i) ),      u_i = lam*n*eta_i,

where d = floor(q).  Its zeros are located through two rescaled derivatives:

    T_lam = (1/n) sum X^2 u/(1+u)^2
            - (1/n^2) (sum X^2 u/(1+u)) (sum 1/(1+u)),
    T_q   = (1/n) sum X^2 u log(n*eta)/(1+u)^2
            - (1/n^2) (sum X^2 u/(1+u)) (sum log(n*eta)/(1+u)),

with sums over i > d and the (negligible) dX^2/dq contribution dropped; the
coefficients for real q reuse the floor(q) basis.  ``solve_lambda`` finds the
root of T_lam for each q, ``select_q`` locates the sign change of
T_q(lambda_hat_q, q) over a grid of orders, and ``fit`` assembles the final
smoothing-spline estimate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, EbsplinesError
from .spectral import (
    ANALYTIC,
    DesignGrid,
    SpectralModel,
    design_grid,
    penalty_eigenvalues,
    smoother_weights,
    spectral_model,
)

# Practical search interval for the smoothing parameter.  Theory restricts
# lambda_hat to [1/n, 1], but realistic signal-to-noise ratios put the root
# many orders of magnitude below 1/n, so the search reaches much deeper.
LAMBDA_MIN = 1e-28
LAMBDA_MAX = 1.0


def _tails(model: SpectralModel, coeffs) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(coeffs, dtype=float)
    if len(x) != model.n:
        raise EbsplinesError(f"expected {model.n} coefficients, got {len(x)}")
    d = model.null_dim
    return x[d:] ** 2, model.eigen.values[d:]


def marginal_loglik(model: SpectralModel, coeffs, lam: float) -> float:
    """Marginal log-likelihood l(lam, q) up to an additive constant.

    The lambda-independent -(n/2) log(sum X^2) is left out, and the residual
    share and log(u/(1+u)) are formed without cancellation, so differences
    of the value across lambda keep their digits (the value itself is
    O(n) while its lambda-derivative can be orders of magnitude smaller).
    """
    if not lam > 0:
        raise EbsplinesError(f"need lambda > 0, got {lam}")
    x2, nz = _tails(model, coeffs)
    u = lam * nz
    total = float(np.sum(x2))
    resid = float(np.dot(x2, u / (1.0 + u)))
    if resid <= 0:
        raise DegenerateDataError(
            "residual quadratic form vanishes; no data beyond the null space")
    share = resid / total
    if share < 0.5:
        log_share = math.log(share)
    else:
        # 1 - share = sum X^2/(1+u) / sum X^2 is small here: keep its digits
        log_share = math.log1p(-float(np.dot(x2, 1.0 / (1.0 + u))) / total)
    log_r = -np.log1p(1.0 / u)
    return -0.5 * model.n * log_share + 0.5 * float(np.sum(log_r))


def t_lambda(model: SpectralModel, coeffs, lam: float) -> float:
    """Estimating equation for lambda (rescaled lambda-derivative of the
    marginal log-likelihood)."""
    if not lam > 0:
        raise EbsplinesError(f"need lambda > 0, got {lam}")
    x2, nz = _tails(model, coeffs)
    n = model.n
    u = lam * nz
    r = u / (1.0 + u)
    a = float(np.dot(x2, r / (1.0 + u))) / n
    b = float(np.dot(x2, r)) * float(np.sum(1.0 / (1.0 + u))) / (n * n)
    return a - b


def t_q(model: SpectralModel, coeffs, lam: float) -> float:
    """Estimating equation for the penalty order q at fixed lambda."""
    if not lam > 0:
        raise EbsplinesError(f"need lambda > 0, got {lam}")
    x2, nz = _tails(model, coeffs)
    n = model.n
    u = lam * nz
    r = u / (1.0 + u)
    ln = np.log(nz)
    a = float(np.dot(x2, r * ln / (1.0 + u))) / n
    b = float(np.dot(x2, r)) * float(np.sum(ln / (1.0 + u))) / (n * n)
    return a - b


def sigma2_hat(model: SpectralModel, coeffs, lam: float) -> float:
    """Noise variance estimate (1/n) Y'(I - S)Y, in spectral form.

    Nondecreasing in lambda; 0 at lambda = 0 and the full tail energy at
    lambda = inf.
    """
    x2, nz = _tails(model, coeffs)
    if lam < 0:
        raise EbsplinesError(f"need lambda >= 0, got {lam}")
    if lam == 0:
        return 0.0
    if math.isinf(lam):
        return float(np.sum(x2)) / model.n
    u = lam * nz
    return float(np.dot(x2, u / (1.0 + u))) / model.n


@dataclass(frozen=True)
class LambdaSolve:
    """Root of T_lam for one order: the value, the residual and a boundary flag."""

    lam: float
    t_value: float
    boundary: bool


def solve_lambda(model: SpectralModel, coeffs,
                 lam_range: tuple[float, float] = (LAMBDA_MIN, LAMBDA_MAX),
                 tol: float | None = None,
                 scan_points: int = 33,
                 max_iter: int = 200) -> LambdaSolve:
    """Solve T_lam(lambda) = 0 by sign-bracketing bisection in log lambda.

    The interval is scanned on a log grid; each sign change from negative to
    positive (a maximum of the marginal likelihood) is refined and, in the
    rare multi-root case, the root with the highest marginal likelihood wins.
    Without a sign change anywhere, the endpoint of the theory interval
    [1/n, 1] with the smaller |T_lam| is returned with the boundary flag set
    -- that outcome is data, not an error.

    The default residual tolerance is 1e-3/n relative to the mean squared
    coefficient (T_lam is quadratic in the data), which keeps the solve
    scale-equivariant; an explicit ``tol`` is honored absolutely.
    """
    x2, nz = _tails(model, coeffs)
    n = model.n
    if tol is None:
        tol = (1e-3 / n) * max(float(np.mean(x2)), 1e-300)

    def tval(lam: float) -> float:
        u = lam * nz
        r = u / (1.0 + u)
        return float(np.dot(x2, r / (1.0 + u))) / n \
            - float(np.dot(x2, r)) * float(np.sum(1.0 / (1.0 + u))) / (n * n)

    lo, hi = lam_range
    if not (0 < lo < hi):
        raise EbsplinesError(f"bad lambda range {lam_range}")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), scan_points))
    tv = [tval(l) for l in grid]
    brackets = [(grid[j], grid[j + 1], tv[j])
                for j in range(scan_points - 1) if tv[j] < 0 < tv[j + 1]]
    if not brackets:
        # No root anywhere in the (extended) interval.  The marginal
        # likelihood diverges as lambda -> 0, so the fallback compares the
        # theory interval's endpoints [1/n, 1], preferring the smoothing end
        # on ties (pure noise then lands at lambda = 1).
        lo_t = min(max(1.0 / n, lo), hi)
        cand = [(abs(tval(hi)), hi), (abs(tval(lo_t)), lo_t)]
        _, lam_b = min(cand, key=lambda c: c[0])
        return LambdaSolve(lam=float(lam_b), t_value=tval(lam_b), boundary=True)

    roots = []
    for a, b, fa in brackets:
        root, froot = None, None
        for _ in range(max_iter):
            m = math.sqrt(a * b)
            fm = tval(m)
            if abs(fm) <= tol or b / a < 1.0 + 1e-14:
                root, froot = m, fm
                break
            if fa * fm < 0:
                b = m
            else:
                a, fa = m, fm
        if root is None:
            root = math.sqrt(a * b)
            froot = tval(root)
        roots.append((root, froot))
    if len(roots) > 1:
        roots.sort(key=lambda rf: -marginal_loglik(model, coeffs, rf[0]))
    lam, t_at = roots[0]
    return LambdaSolve(lam=float(lam), t_value=float(t_at), boundary=False)


class ModelFamily:
    """Spectral models over a range of orders on one design grid.

    Coefficients for real q reuse the floor(q) basis; every order pairs it
    with the penalty-phase eigenvalues (``penalty_eigenvalues``).  Models are
    cached per order behind a lock, so a family can be shared across
    parallel workers.
    """

    def __init__(self, grid: DesignGrid, kind: str = ANALYTIC):
        self.grid = grid
        self.kind = kind
        self._models: dict[float, SpectralModel] = {}
        self._lock = threading.Lock()

    def model(self, q: float) -> SpectralModel:
        q = float(q)
        with self._lock:
            m = self._models.get(q)
        if m is None:
            base = spectral_model(self.grid, math.floor(q), self.kind)
            if q == math.floor(q):
                m = base
            else:
                m = SpectralModel(grid=self.grid, q=q,
                                  eigen=penalty_eigenvalues(q, self.grid.n),
                                  basis=base.basis)
            with self._lock:
                self._models[q] = m
        return m

    def coefficients(self, y, q: float) -> np.ndarray:
        return self.model(q).basis.forward(y)


def default_q_grid(n: int, q_max: int | None = None,
                   refine: float | None = None) -> tuple[float, ...]:
    """Integer grid {1, ..., q_max}; with ``refine`` a real-valued grid of that
    spacing (the theory-faithful mode uses spacing ~ 1/log(n)^2).

    Orders live in (1/2, log n]; the default q_max is 6, capped at log(n)
    for small designs.
    """
    cap = max(1, int(math.floor(math.log(max(n, 3)))))
    if q_max is None:
        q_max = min(6, cap)
    if q_max < 1:
        raise EbsplinesError("q_max must be >= 1")
    if q_max > cap:
        raise EbsplinesError(f"q_max = {q_max} exceeds log(n) for n = {n}")
    if refine is None:
        return tuple(float(q) for q in range(1, q_max + 1))
    if refine <= 0:
        raise EbsplinesError("refinement spacing must be positive")
    vals = np.arange(1.0, q_max + 0.5 * refine, refine)
    return tuple(float(v) for v in vals)


@dataclass(frozen=True)
class QDiagnostic:
    q: float
    lambda_hat: float
    t_q_value: float
    boundary: bool


@dataclass(frozen=True)
class Selection:
    q_hat: float
    q_star: float
    per_q: tuple[QDiagnostic, ...]
    all_nonpositive: bool = False
    all_positive_warning: bool = False


def select_q(family: ModelFamily, y, qgrid, policy: str = "integer",
             lam_range: tuple[float, float] = (LAMBDA_MIN, LAMBDA_MAX)) -> Selection:
    """Select the penalty order from the sign change of T_q over the grid.

    For each grid order: solve for lambda_hat_q and evaluate
    T_q(lambda_hat_q, q).  The raw selection q* is the first crossing from
    non-positive to positive, located by linear interpolation between grid
    points.  All values non-positive means the signal looks at least as
    smooth as the largest order, so q* is the grid maximum; a positive value
    already at the smallest order maps to the grid minimum with a warning.
    Policy "integer" rounds q* half-up to the nearest integer (clamped to the
    grid range); "raw" returns q* itself.
    """
    qgrid = tuple(float(q) for q in qgrid)
    if not qgrid:
        raise EbsplinesError("empty q grid")
    if any(qgrid[j] >= qgrid[j + 1] for j in range(len(qgrid) - 1)):
        raise EbsplinesError("q grid must be strictly increasing")
    if qgrid[0] <= 0.5:
        raise EbsplinesError("q grid values must exceed 1/2")

    coeff_cache: dict[int, np.ndarray] = {}
    diags = []
    tvals = []
    for q in qgrid:
        m = family.model(q)
        d = m.null_dim
        if d not in coeff_cache:
            coeff_cache[d] = m.basis.forward(y)
        x = coeff_cache[d]
        sol = solve_lambda(m, x, lam_range=lam_range)
        tq = t_q(m, x, sol.lam)
        diags.append(QDiagnostic(q=q, lambda_hat=sol.lam, t_q_value=tq,
                                 boundary=sol.boundary))
        tvals.append(tq)

    tvals = np.asarray(tvals)
    scale = float(np.max(np.abs(tvals)))
    eps = 1e-10 * scale
    pos = tvals > eps

    all_nonpositive = False
    warn = False
    if not pos.any():
        q_star = qgrid[-1]
        all_nonpositive = True
    elif pos[0]:
        q_star = qgrid[0]
        warn = True
    else:
        j = int(np.argmax(pos))
        t0, t1 = float(tvals[j - 1]), float(tvals[j])
        q0, q1 = qgrid[j - 1], qgrid[j]
        q_star = q0 + (q1 - q0) * (0.0 - t0) / (t1 - t0)

    if policy == "integer":
        q_hat = float(math.floor(q_star + 0.5))
        q_hat = min(max(q_hat, math.ceil(qgrid[0])), math.floor(qgrid[-1]))
    elif policy == "raw":
        q_hat = float(q_star)
    else:
        raise EbsplinesError(f"unknown rounding policy {policy!r}")

    return Selection(q_hat=q_hat, q_star=float(q_star), per_q=tuple(diags),
                     all_nonpositive=all_nonpositive, all_positive_warning=warn)


@dataclass(frozen=True)
class FitResult:
    """Adaptive empirical Bayesian smoothing spline fit."""

    lambda_hat: float
    q_hat: float
    q_star: float
    fitted: np.ndarray
    sigma2_hat: float
    coeffs: np.ndarray
    model: SpectralModel = field(repr=False)
    selection: Selection = field(repr=False)
    boundary: bool = False

    @property
    def n(self) -> int:
        return self.model.n


def smooth(model: SpectralModel, y, lam: float) -> np.ndarray:
    """Apply the order-q smoother at a fixed lambda: Phi diag(w) Phi^T y."""
    x = model.basis.forward(y)
    w = smoother_weights(model.eigen, lam)
    return model.basis.inverse(w * x)


# Relative spread max(y) - min(y) at or below which data are constant to
# rounding, in units of their largest magnitude (64 ulps).
_CONSTANT_SPREAD = 64.0 * np.finfo(float).eps


def _check_data(y: np.ndarray, n: int) -> None:
    """Input contract of ``fit``: n finite values that are not all equal."""
    if y.shape != (n,):
        raise EbsplinesError(f"expected {n} data values, got shape {y.shape}")
    lo, hi = float(np.min(y)), float(np.max(y))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise EbsplinesError(f"y[{i}] = {y[i]} is not finite")
    if hi - lo <= _CONSTANT_SPREAD * max(abs(lo), abs(hi)):
        raise DegenerateDataError(
            "data are constant to rounding: every spectral coefficient beyond "
            "the constant vanishes")


def fit(family: ModelFamily, y, qgrid=None, policy: str = "integer",
        lam_range: tuple[float, float] = (LAMBDA_MIN, LAMBDA_MAX),
        lambda_override: float | None = None,
        q_override: float | None = None) -> FitResult:
    """Full adaptive fit: select q, solve for lambda, smooth.

    ``lambda_override`` and ``q_override`` bypass the corresponding selection
    step (test hooks; lambda_override accepts 0 and inf for the interpolation
    and null-space-projection limits).

    Raises ``EbsplinesError`` when y is not n finite values, naming the first
    non-finite index, and ``DegenerateDataError`` when y is constant to
    rounding.
    """
    y = np.asarray(y, dtype=float)
    n = family.grid.n
    if n < 8:
        raise EbsplinesError(f"need n >= 8 for a fit, got {n}")
    _check_data(y, n)
    if qgrid is None:
        qgrid = default_q_grid(n)

    if q_override is None:
        sel = select_q(family, y, qgrid, policy=policy, lam_range=lam_range)
        q_hat = sel.q_hat
    else:
        q_hat = float(q_override)
        sel = Selection(q_hat=q_hat, q_star=q_hat, per_q=())

    model = family.model(q_hat)
    x = model.basis.forward(y)

    if lambda_override is None:
        chosen = next((dg for dg in sel.per_q if dg.q == q_hat), None)
        if chosen is not None:
            lam, boundary = chosen.lambda_hat, chosen.boundary
        else:
            sol = solve_lambda(model, x, lam_range=lam_range)
            lam, boundary = sol.lam, sol.boundary
    else:
        lam, boundary = float(lambda_override), False

    w = smoother_weights(model.eigen, lam)
    fitted = model.basis.inverse(w * x)
    s2 = sigma2_hat(model, x, lam)
    return FitResult(lambda_hat=lam, q_hat=q_hat, q_star=sel.q_star,
                     fitted=fitted, sigma2_hat=s2, coeffs=x, model=model,
                     selection=sel, boundary=boundary)


def fit_design(y, convention: str = "midpoint", kind: str = ANALYTIC,
               **kwargs) -> FitResult:
    """Convenience wrapper: build the grid and family from the data length."""
    y = np.asarray(y, dtype=float)
    family = ModelFamily(design_grid(len(y), convention), kind=kind)
    return fit(family, y, **kwargs)
