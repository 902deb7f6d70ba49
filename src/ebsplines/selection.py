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
The brackets read only the signs of that scan (``_grid_signs``), and the
bisection only the signs at its midpoints: each row is built only on the
band 1e-3 <= u < 1e3 (at one set of cuts per scan lambda, which the
midpoints reuse), the rest of each sum is bounded in closed form
(``_t_bounds``; below the band through A = B - sum X^2 r^2 and
S = m - sum r, r = u/(1+u)), and a full row is built only where the bounds,
widened by the rounding error of the sums, leave a sign open, and in each
solve's last round; so the brackets, roots and residuals are those of full
rows bit for bit.  Nothing is kept between solves.

Every order shares the cosine coefficients X, so dX^2/dq is exactly zero.
The weight log(n*eta) (``EigenSequence.log_tail``) is q d log(n*eta)/dq
only at a fixed phase c of n*eta = pi^(2q) (i - c)^(2q); it leaves out the
term -q/(i - c) of the production phase c = (q+1)/2 (ROADMAP item 1).
``solve_lambda`` finds the root of T_lam for one q.  ``_fits``, behind
``fit``, holds the order selection once: the q-grid checks, every order's
lambda solves and T_q there, the q rule, one solve of the orders off a
refined grid for the rows whose q_hat they are, and the rescale of T_q to
data units.  Solves run as lanes side by side, every order's in one
lockstep (``_lockstep``); the rows of a round do not see the data, so lanes
at one lambda share its row (``_scan``).

``fit``, ``solve_lambda`` and ``gcv.select_lambda_gcv`` guard their data with
``_unit_scale``; the criteria at one lambda return values, not a selection,
and take their coefficients as given, unguarded.
"""

from __future__ import annotations

import functools
import itertools
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


def _t_rows(n, g, u, v, w):
    """The rows of a rescaled derivative that do not see the data, for each
    row of u = lam * nz: r g/v, r and sum(g/v), v = 1 + u, r = u/v, built in
    place of u, v and w.  Returns the finish for squared tail coefficients x2
    (see ``_scan``): (1/n) x2.(r g/v) - (1/n^2) (x2.r) sum(g/v), which is
    T_lam for g = None (g = 1, without its pass) and T_q for g = log(nz).
    The finish reads u, w and the sums, not v, and takes an index ``i`` of
    rows: x2 at row i[k] (all rows without it)."""
    np.add(u, 1.0, out=v)
    np.divide(u, v, out=u)
    np.divide(u if g is None else np.multiply(u, g, out=w), v, out=w)
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
          lanes=None, buf=None) -> np.ndarray:
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
    the second buffer (v), which no finish reads.  The buffers are carved
    from ``buf`` (``_scratch``) when it is given."""
    step = max(1, _BLOCK_ENTRIES // len(nz))
    keys, row = lams, None
    if lanes is not None and len(lams) > step:
        index = {}  # the row of each distinct lambda, keyed on its exact float
        at = [index.setdefault(lam, len(index)) for lam in lams.tolist()]
        if -(-len(index) // step) < -(-len(lams) // step):
            keys, row, lanes = np.array(list(index)), np.array(at), np.asarray(lanes)
    shape = (3, min(step, len(lams)), len(nz))
    bufs = np.empty(shape) if buf is None else buf[:math.prod(shape)].reshape(shape)
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

# M: the bracket scan and the bisection build T_lam's rows only on the band
# 1/M <= u < M of u = lam * n eta and bound the rest in closed form, to
# about 1/M of its size (``_t_bounds``).  The band of each scan lambda
# starts at n eta = 1/(M lam) and ends at n eta = M/lam.
_SATURATED = 1e3
_BAND_ENDS = np.concatenate([1.0 / (_SATURATED * _SCAN_GRID), _SATURATED / _SCAN_GRID])
_EPS = 2.0 ** -53  # unit roundoff of float64
_TINY = 2.0 ** -1022  # the smallest normal float


def _bisect_log(a: float, b: float, rtol: float, tol: float = 0.0):
    """Root of f between a and b, f(a) < 0 <= f(b), by bisection in log
    lambda, as a lane of ``_lockstep``: yields each midpoint m with whether
    it is the last (b/a < 1 + rtol, or the iteration cap), is sent f(m).

    Only the sign of f steers the search, so rescaling f (T_lam is quadratic
    in the data) moves no midpoint, and where the sign is known beyond the
    tolerance, +-inf serves for f(m).  Stops at the first midpoint m with
    |f(m)| <= tol or with b/a < 1 + rtol, and returns (m, f(m)).
    """
    for _ in range(_BISECT_ITER):
        m = math.sqrt(a * b)
        last = b / a < 1.0 + rtol
        fm = yield m, last
        if abs(fm) <= tol or last:
            return m, fm
        if fm >= 0:
            b = m
        else:
            a = m
    m = math.sqrt(a * b)
    return m, (yield m, True)


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
    coefficient (T_lam is quadratic in the data); an explicit ``tol``, finite
    and >= 0, is honored absolutely.  The solve runs on coeffs / 2^k (``_unit_scale``) with
    tol / 4^k, so lambda does not depend on the data's scale; t_value is
    scaled back, to +-inf (NumPy warns) past the float range.  A non-finite
    coefficient raises ``EbsplinesError``.
    """
    if tol is not None and not 0 <= tol < math.inf:
        raise EbsplinesError(f"need a finite tol >= 0, got {tol}")
    x, (k,) = _unit_scale(np.asarray(coeffs, dtype=float)[None], "coeffs")
    tol = None if tol is None else float(np.ldexp(tol, -2 * k))
    (sol,), = _solve_lambdas([(model.eigen, _tails(model.eigen, x)[0])], tol)
    return replace(sol, t_value=float(np.ldexp(sol.t_value, 2 * k)))


def _ends(eigen: EigenSequence, x2s: np.ndarray, cuts: np.ndarray,
          out: np.ndarray, buf: np.ndarray) -> None:
    """Into ``out`` (10 x replicates x lambdas), per row of x2s and lambda j,
    the head i < H = cuts[0, j] and the tail i >= K = cuts[1, j] of T_lam's
    row, side by side: H and K, nz[H - 1] (0 if H = 0) and nz[K] (nz[m - 1]
    if K = m), then sum x2 nz and sum x2/nz, sum x2 nz^2 and sum x2, and
    sum nz and sum 1/nz, over the head and the tail (0 over an empty part).
    Each sum adds up the parts between the distinct cuts, from one
    ``reduceat`` pass over products built in ``buf`` (``_scratch``)."""
    nz, m, r = eigen.tail, len(eigen.tail), len(x2s)
    hs, ts = sorted(set(cuts[0].tolist()) - {0}), sorted(set(cuts[1].tolist()) - {m})
    # the parts [0, hs[0]), ..., [hs[-2], hs[-1]) after a 0 for H = 0, and
    # [ts[0], ts[1]), ..., [ts[-1], m) before a 0 for K = m; rows x2 nz,
    # x2 nz^2 and nz over the heads, x2/nz, x2 and 1/nz over the tails
    sums = np.zeros((2 * r + 1, len(hs) + len(ts) + 2))
    if hs:
        at, top, part = [0, *hs[:-1]], hs[-1], sums[:, 1:len(hs) + 1]
        x = np.multiply(x2s[:, :top], nz[:top], out=buf[:r * top].reshape(r, top))
        np.add.reduceat(x, at, axis=1, out=part[:r])
        np.add.reduceat(np.multiply(x, nz[:top], out=x), at, axis=1, out=part[r:-1])
        np.add.reduceat(nz[:top], at, out=part[-1])
        np.cumsum(sums[:, :len(hs) + 1], axis=1, out=sums[:, :len(hs) + 1])
    if ts:
        at, low, part = [k - ts[0] for k in ts], ts[0], sums[:, len(hs) + 1:-1]
        inv = np.divide(1.0, nz[low:], out=buf[:m - low])
        x = np.multiply(x2s[:, low:], inv, out=buf[m - low:(r + 1) * (m - low)].reshape(r, -1))
        np.add.reduceat(x, at, axis=1, out=part[:r])
        np.add.reduceat(x2s[:, low:], at, axis=1, out=part[r:-1])
        np.add.reduceat(inv, at, out=part[-1])
        back = sums[:, :len(hs):-1]
        np.cumsum(back, axis=1, out=back)
    c = cuts.shape[1]
    sums = sums[:, np.concatenate([np.searchsorted(hs, cuts[0], "right"),
                                   np.searchsorted(ts, cuts[1]) + len(hs) + 1])]
    out[:2] = cuts[:, None]
    out[2], out[3] = nz[cuts[0] - 1] * (cuts[0] > 0), nz[np.minimum(cuts[1], m - 1)]
    out[4:8] = sums[:-1].reshape(2, r, 2, c).transpose(0, 2, 1, 3).reshape(4, r, c)
    out[8:] = sums[-1].reshape(2, 1, c)


def _band_rows(lams: np.ndarray, bands: list, buf: np.ndarray) -> np.ndarray:
    """T_lam's sums A = x2.(r/v), B = x2.r and S = sum 1/v, v = 1 + u,
    r = u/v (3 x rows, 0 on an empty row) on the rows u = lams[k] * nz of
    bands[k] = (nz, x2), side by side in ``buf`` (a fresh buffer if they do
    not fit), each summed by one ``reduceat``.  They feed bounds only, so,
    as in ``_bracket_parts``, they multiply by 1/v where ``_t_rows`` divides."""
    sizes = [len(nz) for nz, _ in bands]
    at = np.cumsum([0, *sizes])
    sums, full = np.zeros((3, len(bands))), np.flatnonzero(sizes)
    if len(full):
        u, x2, w = (buf if len(buf) >= 3 * at[-1] else np.empty(3 * at[-1]))[
            :3 * at[-1]].reshape(3, at[-1])
        for lam, (nz, _), a, b in zip(lams.tolist(), bands, at.tolist(), at[1:].tolist()):
            np.multiply(nz, lam, out=u[a:b])
        np.concatenate([x2 for _, x2 in bands], out=x2)
        np.divide(1.0, np.add(u, 1.0, out=w), out=w)  # 1/v
        sums[2, full] = np.add.reduceat(w, at[full])
        np.multiply(np.multiply(u, w, out=u), x2, out=x2)  # x2 r
        sums[1, full] = np.add.reduceat(x2, at[full])
        sums[0, full] = np.add.reduceat(np.multiply(x2, w, out=x2), at[full])
    return sums


def _t_bounds(n: int, lam, a, b, s, head, tail, tol=0.0):
    """The ends lo <= T_lam <= hi at lam, and the slack past which an end
    fixes the sign of ``_scan``'s T_lam and puts it beyond +-tol, from the
    sums a, b, s of A, B and S built on a band of the row
    (``_bracket_parts``, ``_band_rows``) and ``_ends``' head before it and
    tail past it.  Elementwise, on arrays as on floats.

    Tail, u >= u_K: with e = u_K/(1 + u_K), r = u/v lies in [e, 1], r/v =
    r^2/u in [e^2, 1]/u and 1/v = r/u in [e, 1]/u, so the tail's parts of
    A, B and S lie in [e^2, 1] (1/lam) sum x2/nz, [e, 1] sum x2 and [e, 1]
    (1/lam) sum 1/nz.  Head, u <= u_h = lam nz_(H-1): T_lam is about
    (d/n^2) B there, which bounds on A and S would lose to the cancellation
    of A/n against B S/n^2; but A = B - C, C = sum x2 r^2, and S = H - sum r
    hold exactly on the head, with r in [(1 - u_h) u, u], so its B, C and
    sum r lie in [1 - u_h, 1] lam sum x2 nz, [(1 - u_h)^2, 1] lam^2 sum
    x2 nz^2 and [1 - u_h, 1] lam sum nz.  T_lam rises with the head's B (by
    (n - S)/n^2 >= 0, as S <= m < n) and sum r (by B/n^2) and with the
    tail's A, and falls with the head's C and the tail's B and S, so its
    ends lie at two corners of this box.

    The slack is 6 gamma_(n+16) (A/n + B S/n^2 + tol) + 2^-1022/lam + tol
    at the upper ends of A and B S, gamma_k = k eps/(1 - k eps).  A, B and
    S each add at most n nonnegative terms, each a few roundings off its
    exact value, so in ``_scan`` as in the bounds each is within
    gamma_(n+16) of its exact value (Higham 2002, section 3.1).  B S/n^2
    then takes 2 gammas on each side, 4 in all (S is summed otherwise here
    than in ``_scan``), and A/n 2; the other 2 cover the rounding of the
    bounds' own arithmetic (the factors lam, e and 1 - u_h, the sums of the
    parts, the head's C and sum r, at most 1e-3 of B and S) and of adding
    tol.  A product that underflows is off by 2^-1075, which the tail's
    1/lam scales by at most 1e28: 2^-1022/lam covers them.
    """
    h, nzh, hb, hc, hr, _, nzk, tq, tp, ts = (*head, *tail)
    f = 1.0 - lam * nzh  # r/u >= 1 - u_h on the head
    uk = lam * nzk
    e = uk / (1.0 + uk)  # r >= e on the tail
    hb, hc, hr, tq, ts = lam * hb, lam * lam * hc, lam * hr, tq / lam, ts / lam
    n2 = float(n * n)  # exact
    a_hi, b_hi, s_hi = a + tq + hb, b + tp + hb, s + ts + h
    lo = (a + e * e * tq + f * hb - hc) / n - (b + tp + f * hb) * (s_hi - f * hr) / n2
    hi = (a_hi - f * f * hc) / n - (b + e * tp + hb) * (s + e * ts + h - hr) / n2
    g = 6.0 * (n + 16) * _EPS / (1.0 - (n + 16) * _EPS)
    return lo, hi, g * (a_hi / n + b_hi * s_hi / n2 + tol) + _TINY / lam + tol


def _bracket_parts(eigen: EigenSequence, x2s: np.ndarray, out: np.ndarray,
                   buf: np.ndarray) -> None:
    """Into ``out`` (13 x replicates x lambdas), per row of x2s and scan
    lambda: the head and the tail of T_lam's row at its block's cuts
    (``_ends``), then A, B and S on the band between them (as ``_band_rows``).

    The eigenvalues ascend, so every u = lam * nz is below 1/M before a
    lambda's own head cut and at least M from its own tail cut on (M =
    ``_SATURATED``).  A block of rows is built on the band from the head
    cut of its largest lambda to the tail cut of its smallest, as many rows
    as a buffer holds (none on an empty band), and takes these as its
    lambdas' cuts; so the head at lam_(j+1)'s cut and the tail at lam_j's
    stay head and tail at every lambda between them (``_solve_lambdas``)."""
    nz, lams = eigen.tail, _SCAN_GRID
    own = np.searchsorted(nz, _BAND_ENDS).tolist()
    head, cut, blocks, j = own[:len(lams)], own[len(lams):], [], 0
    while j < len(lams):  # rows j to k - 1 on the band from k - 1's head to j's cut
        k = j + 1
        if head[j] < cut[j]:
            while (k < len(lams) and head[k] < cut[k]
                   and (k + 1 - j) * (cut[j] - head[k]) <= _BLOCK_ENTRIES):
                k += 1
            blocks.append((j, k))
            head[j:k], cut[j:k] = [head[k - 1]] * (k - j), [cut[j]] * (k - j)
        j = k
    _ends(eigen, x2s, np.array([head, cut]), out[:10], buf)
    out[10:] = 0.0
    for j, k in blocks:
        band = slice(head[j], cut[j])
        u, v, w = buf[:3 * (k - j) * (cut[j] - head[j])].reshape(3, k - j, -1)
        _outer(lams[j:k], nz[band], u)
        np.divide(1.0, np.add(u, 1.0, out=v), out=v)  # 1/v
        np.multiply(np.multiply(u, v, out=u), v, out=w)  # r and r/v
        x2 = x2s[:, None, band]
        out[10, :, j:k], out[11, :, j:k], out[12, :, j:k] = (
            np.vecdot(w, x2), np.vecdot(u, x2), v.sum(axis=-1))


def _scratch(problems: list) -> np.ndarray:
    """A buffer for the products ``_ends`` sums and the rows
    ``_bracket_parts``, ``_band_rows`` and ``_scan`` build, for any of
    ``problems``: one per solve, as a fresh large array costs a page fault
    per 4 KB."""
    return np.empty(max(max(len(x2s) + 1, 3) * x2s.shape[1] + 3 * _BLOCK_ENTRIES
                        for _, x2s in problems))


def _grid_signs(problems: list, buf: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The signs (-1, 0, 1) of the T_lam values ``_scan`` gives at the scan
    lambdas for the stacks x2s of squared tail coefficients of ``problems``
    [(eigen, x2s), ...], models on one grid, their rows one after another,
    (rows x lambdas); and their ``_bracket_parts`` (13 x rows x lambdas).
    One pass of ``_t_bounds`` bounds every row.  A lambda is settled for a
    stack when, for every row of it, the bounds, widened by their slack,
    exclude 0; otherwise its signs are those of ``_scan``'s full rows."""
    buf = _scratch(problems) if buf is None else buf
    at = [0, *itertools.accumulate(len(x2s) for _, x2s in problems)]
    parts = np.empty((13, at[-1], len(_SCAN_GRID)))
    for (eigen, x2s), r0, r1 in zip(problems, at, at[1:]):
        _bracket_parts(eigen, x2s, parts[:, r0:r1], buf)
    n = problems[0][0].n
    lo, hi, slack = _t_bounds(n, _SCAN_GRID, *parts[10:], parts[:10:2], parts[1:10:2])
    signs = np.sign(lo + hi)
    open_ = ~(np.maximum(lo, -hi) > slack)
    for (eigen, x2s), r0, r1 in zip(problems, at, at[1:]) if open_.any() else ():
        todo = np.flatnonzero(open_[r0:r1].any(axis=0))
        if len(todo):
            signs[r0:r1, todo] = np.sign(_scan(functools.partial(_t_rows, n, None), x2s,
                                               eigen.tail, _SCAN_GRID[todo], None, buf))
    return signs, parts


def _solve_lambdas(problems: list, tol=None) -> list[list[LambdaSolve]]:
    """``solve_lambda`` for each row of each stack x2s of squared tail
    coefficients of ``problems`` [(eigen, x2s), ...], models on one grid,
    every bracket a lane of one lockstep.  The brackets come from the signs
    of ``_scan``'s T_lam on the scan grid (``_grid_signs``).  In stacks of
    rows the lanes at one lambda share full rows (``_scan``).  A single
    row's midpoint takes the head at its bracket's upper lambda's cuts and
    the tail at the lower's (``_bracket_parts``), builds its row on the band
    between them (``_band_rows``) and its sign from ``_t_bounds`` (in
    floats) where they put T_lam beyond +-tol.  The full row is built where
    they do not and in a lane's last round, so the brackets, roots and
    t_values are ``_scan``'s bit for bit."""
    n = problems[0][0].n
    rows = functools.partial(_t_rows, n, None)
    sizes = [len(x2s) for _, x2s in problems]
    tols = (np.full(sum(sizes), float(tol)) if tol is not None else
            np.concatenate([(1e-3 / n) * np.maximum(np.mean(x2s, axis=-1), 1e-300)
                            for _, x2s in problems]))
    buf = _scratch(problems)
    signs, parts = _grid_signs(problems, buf)
    gs, js = np.nonzero((signs[:, :-1] < 0) & (signs[:, 1:] > 0))
    # per lane: its problem and row there, and its tolerance
    starts = np.cumsum([0, *sizes])
    lane_p = np.searchsorted(starts, gs, "right") - 1
    lane_k, tols = gs - starts[lane_p], tols[gs].tolist()
    # a single row's lanes: the head at the upper lambda's cuts, the tail at
    # the lower's and the band between them (eigenvalues and coefficients)
    single = max(sizes) == 1
    sides = [(parts[:10:2, g, j + 1].tolist(), parts[1:10:2, g, j].tolist())
             for g, j in zip(gs.tolist(), js.tolist())] if single else []
    bands = [(problems[g][0].tail[int(h[0]):int(t[0])], problems[g][1][0, int(h[0]):int(t[0])])
             for g, (h, t) in zip(gs.tolist(), sides)]

    def values(points, live):
        lams, vals = [m for m, _ in points], [None] * len(live)
        # a single row's midpoints: each one's row on its band, its sign
        # where the bounds, in floats, put T_lam beyond +-tol
        todo = [i for i, (_, last) in enumerate(points) if not last] if single else []
        if todo:
            sums = _band_rows(np.array([lams[i] for i in todo]), [bands[live[i]] for i in todo],
                              buf)
            for i, (a, b, s) in zip(todo, sums.T.tolist()):
                lo, hi, slack = _t_bounds(n, lams[i], a, b, s, *sides[live[i]], tols[live[i]])
                vals[i] = math.inf if lo > slack else -math.inf if -hi > slack else None
        # the rest on full rows (``_scan``: lanes of an order at one lambda
        # share its row); the lanes, like the problems, run in order
        rest = [i for i, val in enumerate(vals) if val is None]
        lv, lm = np.array(live, dtype=int)[rest], np.array(lams)[rest]
        at = np.searchsorted(lane_p[lv], np.arange(len(problems) + 1))
        for (eigen, x2s), a, b in zip(problems, at, at[1:]):
            if a < b:
                got = _scan(rows, x2s, eigen.tail, lm[a:b], lane_k[lv[a:b]], buf)
                for i, val in zip(rest[a:b], got.tolist()):
                    vals[i] = val
        return vals

    roots = _lockstep([_bisect_log(_SCAN_GRID[j], _SCAN_GRID[j + 1], 1e-14, t)
                       for j, t in zip(js.tolist(), tols)], values)
    sols = [[None] * len(x2s) for _, x2s in problems]
    for p, k, (lam, t_at) in zip(lane_p.tolist(), lane_k.tolist(), roots):
        # a later root of the row wins only by a higher marginal likelihood
        eigen, x2s = problems[p]
        if sols[p][k] is None or (_loglik(eigen, x2s[k], lam)
                                  > _loglik(eigen, x2s[k], sols[p][k].lam)):
            sols[p][k] = LambdaSolve(lam=float(lam), t_value=float(t_at), boundary=False)

    # Rows without a root anywhere in the (extended) interval.  The marginal
    # likelihood diverges as lambda -> 0, so the fallback does not compare
    # likelihoods: it returns the end of the theory interval [1/n, 1] with the
    # smaller |T_lam|, the smoothing end on ties, and sets the boundary flag.
    ends = np.array([LAMBDA_MAX, 1.0 / n])
    for (eigen, x2s), sol in zip(problems, sols):
        none = [k for k, s in enumerate(sol) if s is None]
        if none:
            for k, t in zip(none, _scan(rows, x2s[none], eigen.tail, ends)):
                e = int(abs(t[1]) < abs(t[0]))
                sol[k] = LambdaSolve(lam=float(ends[e]), t_value=float(t[e]), boundary=True)
    return sols


class ModelFamily:
    """The production models on one design grid: ``spectral_model(grid, q)``,
    the cosine basis with the order-q penalty-phase eigenvalues, cached per
    order.  All orders use the transform ``basis``: a fit transforms data once.
    """

    def __init__(self, grid: DesignGrid):
        self.grid = grid
        self.basis = make_basis(grid, 1.0)  # the cosine basis ignores the order
        self._models: dict[float, SpectralModel] = {}

    def model(self, q: float) -> SpectralModel:
        q = float(q)
        if q not in self._models:
            self._models[q] = spectral_model(self.grid, q)
        return self._models[q]


def default_q_grid(n: int, q_max: int | None = None,
                   refine: float | None = None) -> tuple[float, ...]:
    """Integer grid {1, ..., q_max}; with ``refine`` = h the real-valued grid
    1 + k h, k = 0, 1, ..., up to q_max (the theory-faithful mode uses
    spacing ~ 1/log(n)^2).

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
    # 1 + k h, not a running sum, for every k up to (q_max - 1)/h however it rounds
    vals = 1.0 + refine * np.arange(int((q_max - 1) / refine) + 2)
    return tuple(float(v) for v in vals if v <= q_max)


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

    # every order's lambda solves, side by side, and T_q there (unit scale);
    # x2 past each null space, copied for a stack (``_scan`` gathers rows faster then)
    x2 = x ** 2
    problems = [(eigen, np.ascontiguousarray(x2[:, eigen.null_dim:])) for eigen in
                (family.model(q).eigen for q in qgrid)]
    sols, tqs = _solve_lambdas(problems), np.empty((len(x), len(qgrid)))
    for j, ((eigen, x2s), sol) in enumerate(zip(problems, sols)):
        tqs[:, j] = _scan(functools.partial(_t_rows, n, eigen.log_tail), x2s, eigen.tail,
                          np.array([s.lam for s in sol]), np.arange(len(x)))

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
    off = {q: [r for r, p in enumerate(picks) if p[2] == q]  # off a refined grid
           for q in sorted({p[2] for p in picks} - by_q.keys())}
    if off:  # one solve of them all
        eigens = [family.model(q).eigen for q in off]
        for (q, rows), sol in zip(off.items(), _solve_lambdas(
                [(eigen, x2[rows, eigen.null_dim:]) for eigen, rows in zip(eigens, off.values())])):
            by_q[q] = dict(zip(rows, sol))
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
