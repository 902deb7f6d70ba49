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

with sums over i > d.  As lambda -> 0, sum 1/(1+u) -> n - d, so T_lam ->
(d/n^2) sum X^2 u > 0: a root of T_lam (a maximum of l) is a - to + transition
after an interior dip below zero, which the selector and the numeric oracle
lambda (``oracles``: the same solve on E X^2) bracket on a 33-point scan;
without one the solve is a boundary (f1, q = 1, sigma = 0.01: n <= 300).
The brackets read only the signs of that scan (``_grid_signs``): each row is
built up to the index past which u >= 1e3, the rest of each sum is bounded
in closed form, and a full row is built only where the bounds, widened by
the rounding error of the sums, leave a sign open; so the brackets, and the
roots, are those of full rows bit for bit.

Every order shares the cosine coefficients X, so dX^2/dq is exactly zero.
The weight log(n*eta) (``EigenSequence.log_tail``) is q d log(n*eta)/dq
only at a fixed phase c of n*eta = pi^(2q) (i - c)^(2q); it leaves out the
term -q/(i - c) of the production phase c = (q+1)/2 (ROADMAP item 1).
``solve_lambda`` finds the root of T_lam for one q.  ``_fits``, behind
``fit``, holds the order selection once: the q-grid checks, each order's
lambda solve and T_q there, the q rule, one solve per order off a refined
grid for the rows whose q_hat it is, and the rescale of T_q to data units.
Solves run as lanes side by side (``_lockstep``); the rows of a round do not
see the data, so lanes at one lambda share its row (``_scan``).

``fit``, ``solve_lambda`` and ``gcv.select_lambda_gcv`` guard their data with
``_unit_scale``; the criteria at one lambda return values, not a selection,
and take their coefficients as given, unguarded.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateDataError, EbsplinesError
from .spectral import (
    DesignGrid,
    EigenSequence,
    SpectralModel,
    make_basis,
    spectral_model,
)

# Practical search interval for the smoothing parameter.  Theory restricts
# lambda_hat to [1/n, 1], but realistic signal-to-noise ratios put the root
# many orders of magnitude below 1/n, so the search reaches much deeper.
LAMBDA_MIN = 1e-28
LAMBDA_MAX = 1.0

# Entries of each (rows x n) buffer of ``_scan`` (128 KB, one row at least).
_BLOCK_ENTRIES = 16384


def _tails(eigen: EigenSequence, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Squared coefficients of a vector, or of a stack of them, and the
    eigenvalues beyond the null space."""
    x = np.asarray(coeffs, dtype=float)
    if x.shape[-1:] != (eigen.n,):
        raise EbsplinesError(f"expected {eigen.n} coefficients, got shape {x.shape}")
    return x[..., eigen.null_dim:] ** 2, eigen.tail


def marginal_loglik(model: SpectralModel, coeffs, lam: float) -> float:
    """Marginal log-likelihood l(lam, q) up to an additive constant.

    The lambda-independent -(n/2) log(sum X^2) is left out, and the residual
    share and log(u/(1+u)) are formed without cancellation, so differences
    of the value across lambda keep their digits (the value itself is
    O(n) while its lambda-derivative can be orders of magnitude smaller).
    """
    return _loglik(model.eigen, _tails(model.eigen, coeffs)[0], lam)


def _finite(lam: float) -> float:
    if not 0 < lam < math.inf:
        raise EbsplinesError(f"need 0 < lambda < inf, got {lam}")
    return lam


def _loglik(eigen: EigenSequence, x2: np.ndarray, lam: float) -> float:
    """``marginal_loglik`` of the squared tail coefficients x2."""
    u = _finite(lam) * eigen.tail
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
    return -0.5 * eigen.n * log_share + 0.5 * float(np.sum(log_r))


def _t_rows(n, g, u, v, w, s=None):
    """The rows of a rescaled derivative that do not see the data, for each
    row of u = lam * nz: r g/v, r and sum(g/v), v = 1 + u, r = u/v, built in
    place of u, v and w.  Returns the finish for squared tail coefficients x2
    (see ``_scan``): (1/n) x2.(r g/v) - (1/n^2) (x2.r) sum(g/v), which is
    T_lam for g = None (g = 1, without its pass) and T_q for g = log(nz).
    Given sums ``s``, sum(g/v) per row, replace their pass.  The finish
    reads u, w and the sums, not v, and takes an index ``i`` of rows: x2 at
    row i[k] (all rows without it)."""
    np.add(u, 1.0, out=v)
    np.divide(u, v, out=u)
    np.divide(u if g is None else np.multiply(u, g, out=w), v, out=w)
    if s is None:
        s = np.divide(1.0 if g is None else g, v, out=v).sum(axis=-1)
    # np.vecdot runs the BLAS dot of np.dot on every (row, x2) pair, over
    # stacks too; a @ x2 would sum in another order
    return lambda x2, i=slice(None): (np.vecdot(w[i], x2) / n
                                      - np.vecdot(u[i], x2) * s[i] / (n * n))


def _log_grid(points: int) -> np.ndarray:
    """``points`` lambdas equally spaced in log lambda over the search interval."""
    return np.exp(np.linspace(math.log(LAMBDA_MIN), math.log(LAMBDA_MAX), points))


def _outer(lams: np.ndarray, nz: np.ndarray, out: np.ndarray) -> None:
    """The block of rows lam * nz, one row per lambda, into ``out``: one BLAS
    product for several rows (a broadcast multiply takes twice as long), a
    multiply for one row (the product packs nz first); both round each entry
    once, so the bits do not depend on the block."""
    if len(lams) > 1:
        np.dot(lams[:, None], nz[None, :], out=out)
    else:
        np.multiply(lams[:, None], nz, out=out)


def _scan(rows_fn, x2s: np.ndarray, nz: np.ndarray, lams: np.ndarray,
          lanes=None) -> np.ndarray:
    """A criterion of the stack ``x2s`` of squared tail coefficients at each of
    ``lams``, (replicates x lambdas), or with ``lanes`` of row lanes[k] at lams[k]
    (a stack of one row serves every lane uncopied).  ``rows_fn(u, v, w)``
    builds a block of rows u = lam * nz in place, in three buffers of at most
    ``_BLOCK_ENTRIES`` entries (one row at least).  Rows do not see the
    data: each block is built once, and its finish reduces it by
    ``np.vecdot`` and ``sum(axis=-1)``, element-wise otherwise, so a value
    does not depend on the block, stack or lane it is computed in.  So lanes
    at one lambda share its row: when the distinct lambdas fill fewer blocks
    than the lanes, the blocks hold those, and each block finishes the lanes
    of its rows at most a block of lanes at a time, their x2 gathered into
    the second buffer (v), which no finish reads."""
    step = max(1, _BLOCK_ENTRIES // len(nz))
    keys, row = lams, None
    if lanes is not None and len(lams) > step:
        index = {}  # the row of each distinct lambda, keyed on its exact float
        at = [index.setdefault(lam, len(index)) for lam in lams.tolist()]
        if -(-len(index) // step) < -(-len(lams) // step):
            keys, row, lanes = np.array(list(index)), np.array(at), np.asarray(lanes)
    bufs = np.empty((3, min(step, len(lams)), len(nz)))
    vals = np.empty(len(lams) if lanes is not None else (len(x2s), len(lams)))
    for s in range(0, len(keys), step):
        j = slice(s, s + step)
        u, v, w = bufs[:, :len(keys[j])]
        _outer(keys[j], nz, u)
        finish = rows_fn(u, v, w)
        if row is None:
            vals[..., j] = finish(x2s[:, None] if lanes is None
                                  else x2s if len(x2s) == 1 else x2s[lanes[j]])
            continue
        mine = np.flatnonzero((row >= s) & (row < s + step))
        for c in range(0, len(mine), step):
            k = mine[c:c + step]
            # mode "clip": with "raise", np.take buffers its output
            x2 = x2s if len(x2s) == 1 else np.take(x2s, lanes[k], 0, bufs[1, :len(k)], "clip")
            vals[k] = finish(x2, row[k] - s)
    return vals


def _at(rows_fn, x2: np.ndarray, nz: np.ndarray, lam: float) -> float:
    """The criterion of the row kernel ``rows_fn`` (see ``_scan``) on one row
    x2 of squared tail coefficients at one lambda, 0 < lambda < inf."""
    return float(_scan(rows_fn, x2[None], nz, np.array([_finite(lam)]), [0])[0])


def _t_at(eigen: EigenSequence, x2: np.ndarray, lam: float, tq: bool = False) -> float:
    """T_lam, or T_q with ``tq``, of the squared tail coefficients x2 at one
    lambda; linear in x2, so on x2 = E X^2 their expectation (``oracles``)."""
    rows = functools.partial(_t_rows, eigen.n, eigen.log_tail if tq else None)
    return _at(rows, x2, eigen.tail, lam)


def t_lambda(model: SpectralModel, coeffs, lam: float) -> float:
    """Estimating equation for lambda (rescaled lambda-derivative of the
    marginal log-likelihood)."""
    return _t_at(model.eigen, _tails(model.eigen, coeffs)[0], lam)


def t_q(model: SpectralModel, coeffs, lam: float) -> float:
    """Estimating equation for the penalty order q at fixed lambda."""
    return _t_at(model.eigen, _tails(model.eigen, coeffs)[0], lam, tq=True)


def sigma2_hat(model: SpectralModel, coeffs, lam: float) -> float:
    """Noise variance estimate (1/n) Y'(I - S)Y, in spectral form.

    Nondecreasing in lambda; 0 at lambda = 0 and the full tail energy at
    lambda = inf.
    """
    x2, nz = _tails(model.eigen, coeffs)
    if not lam >= 0:
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


# The 33-point log-lambda scan that brackets the roots of T_lam, and the
# iteration cap of the bisection (about 55 halvings of the full range reach
# the 1e-14 bracket).
_SCAN_GRID = _log_grid(33)
_BISECT_ITER = 200

# u = lam * n eta past which the bracket scan bounds a row rather than
# building it (``_grid_signs``): the bounds are then within 2/(1 + 1e3).
_SATURATED = 1e3
_EPS = 2.0 ** -53  # unit roundoff of float64
_TINY = np.finfo(float).tiny  # 2^-1022


def _bisect_log(a: float, b: float, rtol: float, tol: float = 0.0):
    """Root of f between a and b, f(a) < 0 <= f(b), by bisection in log
    lambda, as a lane of ``_lockstep``: yields each midpoint m, is sent f(m).

    Only the sign of f steers the search, so rescaling f (T_lam is quadratic
    in the data) moves no midpoint.  Stops at the first midpoint m with
    |f(m)| <= tol or with b/a < 1 + rtol, and returns (m, f(m)).
    """
    for _ in range(_BISECT_ITER):
        m = math.sqrt(a * b)
        fm = yield m
        if abs(fm) <= tol or b / a < 1.0 + rtol:
            return m, fm
        if fm >= 0:
            b = m
        else:
            a = m
    m = math.sqrt(a * b)
    return m, (yield m)


def _lockstep(lanes: list, f) -> list:
    """What each lane returns: a lane is a search that yields its next point and
    is sent the value there, and ``f(points, live)`` evaluates the points of
    all running lanes ``live`` at once."""
    out = [None] * len(lanes)
    points = {k: next(lane) for k, lane in enumerate(lanes)}
    while points:
        live = list(points)
        for k, value in zip(live, f([points[k] for k in live], live)):
            try:
                points[k] = lanes[k].send(value)
            except StopIteration as stop:
                out[k] = stop.value
                del points[k]
    return out


def solve_lambda(model: SpectralModel, coeffs, tol: float | None = None) -> LambdaSolve:
    """Solve T_lam(lambda) = 0 by sign-bracketing bisection in log lambda.

    The interval [LAMBDA_MIN, LAMBDA_MAX] is scanned on a log grid (in
    blocks, by the kernel the bisection steps use); each sign change from
    negative to positive (a maximum of the marginal likelihood) is refined
    and, in the rare multi-root case, the root with the highest marginal
    likelihood wins.
    Without a sign change anywhere, the endpoint of the theory interval
    [1/n, 1] with the smaller |T_lam| is returned with the boundary flag set
    -- that outcome is data, not an error.

    The default residual tolerance is 1e-3/n relative to the mean squared
    coefficient (T_lam is quadratic in the data); an explicit ``tol`` is
    honored absolutely.  The solve runs on coeffs / 2^k (``_unit_scale``) with
    tol / 4^k, so lambda does not depend on the data's scale; t_value is
    scaled back, to +-inf (NumPy warns) past the float range.  A non-finite
    coefficient raises ``EbsplinesError``.
    """
    x, (k,) = _unit_scale(np.asarray(coeffs, dtype=float)[None], "coeffs")
    tol = None if tol is None else float(np.ldexp(tol, -2 * k))
    sol, = _solve_lambdas(model.eigen, _tails(model.eigen, x)[0], tol)
    return replace(sol, t_value=float(np.ldexp(sol.t_value, 2 * k)))


def _scan_sums(eigen: EigenSequence) -> np.ndarray:
    """The sums S = sum 1/(1 + lam nz) of T_lam's rows at the scan lambdas,
    by ``_scan``'s blocks and ``_t_rows``'s pass, so bit for bit its sums."""
    nz, lams, step = eigen.tail, _SCAN_GRID, max(1, _BLOCK_ENTRIES // len(eigen.tail))
    buf, s = np.empty((min(step, len(lams)), len(nz))), np.empty(len(lams))
    for j in range(0, len(lams), step):
        v = buf[:len(lams[j:j + step])]
        _outer(lams[j:j + step], nz, v)
        s[j:j + step] = np.divide(1.0, np.add(v, 1.0, out=v), out=v).sum(axis=-1)
    return s


def _grid_signs(eigen: EigenSequence, x2s: np.ndarray, sums=None) -> np.ndarray:
    """The signs (-1, 0, 1) of the T_lam values ``_scan`` gives at the scan
    lambdas, (replicates x lambdas), for the stack x2s of squared tail
    coefficients, from rows built only up to a cut; ``sums`` are the
    model's ``_scan_sums``, built here when not given.

    The eigenvalues ascend, so past a cut K every u = lam * nz is at least
    ``_SATURATED``; K depends on the model and lambda, not on the data.  A
    block of rows stops at the cut of its smallest lambda.  With delta =
    1/(1 + lam nz_K), the parts past K of A = sum x2 r/v and B = sum x2 r
    lie in [(1 - delta)^2, 1] (1/lam) sum x2/nz and [1 - delta, 1] sum x2
    (sums from K on); S = sum 1/v is whole.  A lambda is settled when, for
    every row, the bounds on T_lam = A/n - B S/n^2, widened by the slack
    3 gamma_(n+16) (A/n + B S/n^2) + 2^-1022 at their upper ends, exclude
    0; otherwise its signs are those of ``_scan``'s full rows.  The slack: A
    and B each add at most n nonnegative terms, each a few roundings off its
    exact value, so in ``_scan`` as in the bounds each is within
    gamma_(n+16) = (n+16) eps / (1 - (n+16) eps) of its exact value (Higham
    2002, section 3.1); a third gamma covers the rounding of the bounds
    themselves, and 2^-1022 the products that underflow (2^-1075 each).
    """
    n, nz, lams, m = eigen.n, eigen.tail, _SCAN_GRID, len(eigen.tail)
    s = _scan_sums(eigen) if sums is None else sums
    cut = np.searchsorted(nz, _SATURATED / lams).tolist()
    blocks, j = [], 0
    while j < len(lams):  # the rows from j on, as many as a buffer holds at j's cut
        k = min(len(lams), j + max(1, _BLOCK_ENTRIES // max(cut[j], 1)))
        blocks.append((slice(j, k), cut[j]))
        cut[j:k] = [cut[j]] * (k - j)
        j = k
    # sum x2 and sum x2/nz past each cut < len(nz): one reduceat pass each,
    # and a last column of zeros for the full rows
    heads = np.array(sorted({h for _, h in blocks if h < m}), dtype=np.intp)
    t = np.zeros((2, len(x2s), len(heads) + 1))
    if len(heads):
        x, at = x2s[:, heads[0]:], heads - heads[0]
        np.add.reduceat(x, at, axis=-1, out=t[0, :, :-1])
        np.add.reduceat(x / nz[heads[0]:], at, axis=-1, out=t[1, :, :-1])
        np.add.accumulate(t[..., ::-1], axis=-1, out=t[..., ::-1])
    cut = np.array(cut)
    p, ql = np.take(t, np.searchsorted(heads, cut), axis=-1)
    ql /= lams
    uk = lams * np.take(nz, cut, mode="clip")
    e = uk / (1.0 + uk)  # 1 - delta
    nf, n2 = float(n), float(n * n)  # exact
    g = 3.0 * (n + 16) * _EPS / (1.0 - (n + 16) * _EPS)
    ab = np.empty((2, len(x2s), len(lams)))
    buf = np.empty(3 * min(len(lams) * m, max(_BLOCK_ENTRIES, m)))
    for blk, head in blocks:
        rows = blk.stop - blk.start
        u, v, w = buf[:3 * rows * head].reshape(3, rows, head)
        _outer(lams[blk], nz[:head], u)
        _t_rows(n, None, u, v, w, s[blk])
        x2 = x2s[:, None, :head]
        np.vecdot(w, x2, out=ab[0][:, blk])
        np.vecdot(u, x2, out=ab[1][:, blk])
    # the finish of ``_t_rows`` at the two ends of the bounds
    a, b = ab
    a_hi, b_hi = (a + ql) / nf, (b + p) * s / n2
    lo = (a + e * e * ql) / nf - b_hi
    hi = a_hi - (b + e * p) * s / n2
    signs = np.sign(lo + hi)
    todo = np.flatnonzero(~(np.maximum(lo, -hi) > g * (a_hi + b_hi) + _TINY).all(axis=0))
    if len(todo):
        signs[:, todo] = np.sign(_scan(functools.partial(_t_rows, n, None), x2s, nz, lams[todo]))
    return signs


def _solve_lambdas(eigen: EigenSequence, x2s: np.ndarray, tol=None,
                   sums=None) -> list[LambdaSolve]:
    """``solve_lambda`` for each row of the stack x2s of squared tail
    coefficients, every bracket a lane, with the scan sums ``sums`` that the
    model's family keeps (``ModelFamily``), if any.  The brackets come from the
    signs of T_lam on the scan grid (``_grid_signs``), the same as the signs
    of ``_scan``'s values, so the roots are the same bit for bit."""
    n, nz = eigen.n, eigen.tail
    tols = ((1e-3 / n) * np.maximum(np.mean(x2s, axis=-1), 1e-300) if tol is None
            else [tol] * len(x2s))
    rows = functools.partial(_t_rows, n, None)

    tv = _grid_signs(eigen, x2s, sums)
    ks, js = np.nonzero((tv[:, :-1] < 0) & (tv[:, 1:] > 0))
    roots = _lockstep([_bisect_log(_SCAN_GRID[j], _SCAN_GRID[j + 1], 1e-14, tols[k])
                       for k, j in zip(ks, js)],
                      lambda m, live: _scan(rows, x2s, nz, np.array(m), ks[live]))
    sols = [None] * len(x2s)
    for k, (lam, t_at) in zip(ks.tolist(), roots):
        # a later root of the row wins only by a higher marginal likelihood
        if sols[k] is None or (_loglik(eigen, x2s[k], lam)
                               > _loglik(eigen, x2s[k], sols[k].lam)):
            sols[k] = LambdaSolve(lam=float(lam), t_value=float(t_at), boundary=False)

    # Rows without a root anywhere in the (extended) interval.  The marginal
    # likelihood diverges as lambda -> 0, so the fallback does not compare
    # likelihoods: it returns the end of the theory interval [1/n, 1] with the
    # smaller |T_lam|, the smoothing end on ties, and sets the boundary flag.
    none = [k for k, sol in enumerate(sols) if sol is None]
    if none:
        ends = np.array([LAMBDA_MAX, 1.0 / n])
        for k, t in zip(none, _scan(rows, x2s[none], nz, ends)):
            e = int(abs(t[1]) < abs(t[0]))
            sols[k] = LambdaSolve(lam=float(ends[e]), t_value=float(t[e]), boundary=True)
    return sols


class ModelFamily:
    """The production models on one design grid: ``spectral_model(grid, q)``,
    the cosine basis with the order-q penalty-phase eigenvalues, cached per
    order.  All orders use the transform ``basis``: a fit transforms data once.
    With each model it keeps the sums sum(1/(1 + lam n eta)) at the 33 scan
    lambdas of T_lam (``_scan_sums``), built with the model and never
    written after: they do not see the data, and every scan on it reads them.
    """

    def __init__(self, grid: DesignGrid):
        self.grid = grid
        self.basis = make_basis(grid, 1.0)  # the cosine basis ignores the order
        self._models: dict[float, tuple[SpectralModel, np.ndarray]] = {}

    def model(self, q: float) -> SpectralModel:
        return self._entry(q)[0]

    def _entry(self, q) -> tuple[SpectralModel, np.ndarray]:
        q = float(q)
        if q not in self._models:
            self._models[q] = (m := spectral_model(self.grid, q), _scan_sums(m.eigen))
        return self._models[q]


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
    if not 0 < refine < math.inf:
        raise EbsplinesError(f"refinement spacing must be positive and finite, got {refine}")
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


def _smooth(model: SpectralModel, x: np.ndarray, lam) -> np.ndarray:
    """The order-q smoother at a fixed lambda > 0, Phi diag(w) x, for
    x = Phi^T y, or for each row of a stack x at its own lambda lam[k]."""
    w = 1.0 / (1.0 + np.multiply.outer(lam, model.eigen.values))
    return model.basis.inverse(w * x)


# Relative spread max(y) - min(y) at or below which data are constant to
# rounding, in units of their largest magnitude (64 ulps).
_CONSTANT_SPREAD = 64.0 * np.finfo(float).eps


def _unit_scale(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The input guard of the selectors, on a stack ``a`` of data rows: each row
    divided by 2^k to max |row / 2^k| in [1/2, 1) (k = 0 for a zero row), and
    each k.  The scaling is exact and keeps the squares inside the float range
    at any data scale.  Raises ``EbsplinesError`` naming the first non-finite entry."""
    top = np.max(np.abs(a), axis=-1, initial=0.0)
    if not np.isfinite(top).all():
        r, i = np.argwhere(~np.isfinite(a))[0]
        raise EbsplinesError(f"{name}[{i}] = {a[r, i]} is not finite")
    ks = np.frexp(top)[1]
    return np.ldexp(a, -ks[:, None]), ks


def fit(family: ModelFamily, y, qgrid=None) -> FitResult:
    """Full adaptive fit: select q, solve for lambda, smooth.

    For each grid order, solve for lambda_hat_q and evaluate T_q there.  q* is
    the first crossing of T_q from non-positive to positive, by linear
    interpolation between grid points; all values non-positive
    (``all_nonpositive``: at least as smooth as the largest order) give the
    grid maximum, a positive value at the smallest order the grid minimum
    (``all_positive_warning``).  q_hat rounds q* half-up, clamped to the grid
    range; lambda_hat is the root solved at q_hat (a fresh solve when q_hat
    is off a refined grid).

    The fit runs on y / 2^k (``_unit_scale``): lambda_hat and q_hat do not
    depend on k; fitted values, coefficients, T_q and sigma2_hat are scaled
    back exactly.  Raises ``EbsplinesError`` when y is not n finite values,
    naming the first non-finite index, or when sigma2_hat (quadratic in the
    data) cannot be stored at the data's scale, and ``DegenerateDataError``
    when y is constant to rounding.
    """
    return _fits(family, np.asarray(y, dtype=float)[None], qgrid)[0]


def _fits(family: ModelFamily, y: np.ndarray, qgrid=None) -> list[FitResult]:
    """``fit`` for each row of the data stack y, the rows selected together."""
    n = family.grid.n
    if n < 8:
        raise EbsplinesError(f"need n >= 8 for a fit, got {n}")
    if y.shape[1:] != (n,):
        raise EbsplinesError(f"expected {n} data values, got shape {y.shape[1:]}")
    x, ks = _unit_scale(y, "y")
    lo, hi = np.min(x, axis=-1), np.max(x, axis=-1)
    if np.any(hi - lo <= _CONSTANT_SPREAD * np.maximum(np.abs(lo), np.abs(hi))):
        raise DegenerateDataError(
            "data are constant to rounding: every spectral coefficient beyond "
            "the constant vanishes")
    qgrid = tuple(float(q) for q in (default_q_grid(n) if qgrid is None else qgrid))
    if not qgrid:
        raise EbsplinesError("empty q grid")
    if any(qgrid[j] >= qgrid[j + 1] for j in range(len(qgrid) - 1)):
        raise EbsplinesError("q grid must be strictly increasing")
    if qgrid[0] <= 0.5:
        raise EbsplinesError("q grid values must exceed 1/2")
    x = family.basis.forward(x)

    # per order, every row's lambda solve and T_q there (unit scale)
    sols, tqs = [], np.empty((len(x), len(qgrid)))
    for j, q in enumerate(qgrid):
        m, sums = family._entry(q)
        x2s, nz = _tails(m.eigen, x)
        sols.append(_solve_lambdas(m.eigen, x2s, sums=sums))
        tqs[:, j] = _scan(functools.partial(_t_rows, n, m.eigen.log_tail), x2s, nz,
                          np.array([sol.lam for sol in sols[j]]), np.arange(len(x)))

    picks = []  # per row: the positive T_q, q* and q_hat
    for tvals in tqs:
        pos = tvals > 1e-10 * float(np.max(np.abs(tvals)))
        if not pos.any():
            q_star = qgrid[-1]
        elif pos[0]:
            q_star = qgrid[0]
        else:
            j = int(np.argmax(pos))
            t0, t1 = float(tvals[j - 1]), float(tvals[j])
            q0, q1 = qgrid[j - 1], qgrid[j]
            q_star = q0 + (q1 - q0) * (0.0 - t0) / (t1 - t0)
        picks.append((pos, q_star, float(min(max(math.floor(q_star + 0.5), math.ceil(qgrid[0])),
                                             math.floor(qgrid[-1])))))
    fits, by_q = [], dict(zip(qgrid, sols))
    for q in sorted({p[2] for p in picks} - by_q.keys()):  # off a refined grid
        rows = [r for r, p in enumerate(picks) if p[2] == q]  # one solve of them all
        m, sums = family._entry(q)
        by_q[q] = dict(zip(rows, _solve_lambdas(m.eigen, _tails(m.eigen, x[rows])[0], sums=sums)))
    for r, (xk, k, tvals, (pos, q_star, q_hat)) in enumerate(zip(x, ks.tolist(), tqs, picks)):
        model, sol = family.model(q_hat), by_q[q_hat][r]
        s2 = sigma2_hat(model, xk, sol.lam)
        e = math.frexp(s2)[1] + 2 * k
        if s2 > 0 and not sys.float_info.min_exp <= e <= sys.float_info.max_exp:
            raise EbsplinesError(
                f"sigma2_hat = {s2:.6g} * 2^{2 * k} at data scale 2^{k} lies "
                "outside the normal float range")
        # T_q, like sigma2_hat, is quadratic in the data
        per_q = tuple(QDiagnostic(q=q, lambda_hat=s[r].lam, t_q_value=math.ldexp(t, 2 * k),
                                  boundary=s[r].boundary)
                      for q, s, t in zip(qgrid, sols, tvals.tolist()))
        sel = Selection(q_hat=q_hat, q_star=float(q_star), per_q=per_q,
                        all_nonpositive=not pos.any(), all_positive_warning=bool(pos[0]))
        fits.append(FitResult(lambda_hat=sol.lam, q_hat=q_hat, q_star=sel.q_star,
                              fitted=np.ldexp(_smooth(model, xk, sol.lam), k),
                              sigma2_hat=math.ldexp(s2, 2 * k), coeffs=np.ldexp(xk, k),
                              model=model, selection=sel, boundary=sol.boundary))
    return fits
