"""Credible balls around the adaptive fit and their frequentist coverage.

Under the marginal posterior, the squared distance of the regression function
from the fitted values, scaled by the noise estimate, is distributed like

    (1/N) sum_i w_i eps_i^2,   w_i = 1 / (1 + lam * n*eta_i),
    eps ~ N(0, I_n),  N ~ chi^2_n  independent,

in the rms norm.  Its (1-alpha) quantile r_n(lam, q)^2 is the root in r of

    P(Q_r <= 0) = 1 - alpha,   Q_r = sum_i w_i chi^2_1 - r chi^2_n,

a quadratic form in independent chi-squares.  ``radius`` computes that
probability exactly by inverting the characteristic function of Q_r (Imhof
1961; Davies 1980) with the trapezoid rule, to an error below 1e-10, and
solves for r to a relative 1e-10.  The result is deterministic, needs O(n)
memory and has no Monte Carlo error.  ``RadiusSpec.mc_draws`` and ``seed``
are read by the tests' seeded Monte Carlo check of it and by
``perfbench/layertrace.py``, not by the library.  The empirical credible ball
has center at the fit and radius sigma_hat * L * r_n(lambda_hat, q_hat).
``sample_posterior`` draws whole curves from the fitted posterior (a
multivariate t realized as a Gaussian scale mixture in the spectral domain).
The coverage experiments that use the ball live in ``simlab``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtri

from .errors import EbsplinesError
from .selection import FitResult
from .spectral import SpectralModel, rms_norm, smoother_weights


@dataclass(frozen=True)
class RadiusSpec:
    """Settings of the posterior-quantile radius.

    ``alpha`` sets the level.  The exact ``radius`` does not read
    ``mc_draws`` or ``seed``: the tests' seeded Monte Carlo check of it and
    ``perfbench/layertrace.py`` do.
    """

    alpha: float = 0.05
    mc_draws: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise EbsplinesError(f"need 0 < alpha < 1, got {self.alpha}")
        if self.mc_draws < 1000:
            raise EbsplinesError("need at least 1000 draws for a stable quantile")


# Deviation level x of the Laurent-Massart chi-square bounds: Q_r leaves
# E Q_r +- (2 sqrt(x) (|w|_2 + r sqrt(n)) + 2 x max(w_max, r)) with probability
# below 4 e^-x ~ 1e-15, which sets the node step; the integral is truncated
# where the modulus exceeds e^x.
_TAIL = 36.0
# Weights with w * u below this on every node enter through sum w and sum w^2
# (arctan(x) ~ x, log1p(x^2) ~ x^2): with thousands of weights just below it,
# the probability moved by less than 4e-14 against summing them in full.
_FOLD = 1e-3
# The weight sums run over blocks of _FIRST_NODES nodes, then of as many as all
# before, up to _MAX_NODES nodes and _BLOCK node x weight entries.  A block is
# cut at the truncation point before its arctan sums: the law keeps exactly the
# nodes up to it and sums log moduli over at most twice as many (or _FIRST_NODES).
_FIRST_NODES = 32
_BLOCK = 1 << 16
_MAX_NODES = 1024
_RTOL = 1e-10


class _DistanceLaw:
    """P(Q_r <= 0) for r in [r_lo, r_hi], on one trapezoid grid u_k = k h.

    Imhof's form is P(Q_r <= 0) = 1/2 - (1/pi) int_0^inf sin th(u) / (u rho(u)) du
    with th(u) = (1/2) sum arctan(w_i u) - (n/2) arctan(r u) and
    log rho(u) = (1/4) sum log1p(w_i^2 u^2) + (n/4) log1p(r^2 u^2).  The weight
    parts do not depend on r and are summed once; each ``cdf`` is then O(nodes).
    The last node is the first where the modulus at r_lo passes e^_TAIL (or u_max).
    The integrand is even and analytic, so the trapezoid rule's only error is
    aliasing, bounded by the mass of Q_r beyond 4 pi / h: below 4 e^-36 for
    this step.
    """

    def __init__(self, w: np.ndarray, n: int, r_lo: float, r_hi: float):
        ones = int(np.count_nonzero(w == 1.0))  # null space; all of it at lam = 0
        rest = w[(w != 1.0) & (w > 0.0)]
        self.n = n
        self.s1 = ones + float(np.sum(rest))
        s2 = ones + float(np.dot(rest, rest))
        w_max = 1.0 if ones else float(np.max(rest))
        mean_gap = max(abs(self.s1 - n * r_lo), abs(self.s1 - n * r_hi))
        span = (mean_gap + 2.0 * math.sqrt(_TAIL) * (math.sqrt(s2) + r_hi * math.sqrt(n))
                + 2.0 * _TAIL * max(w_max, r_hi))
        # Imhof's u is twice the characteristic-function argument
        self.h = 4.0 * math.pi / span
        # the chi^2_n factor alone pushes the modulus past e^_TAIL here
        u_max = math.sqrt(math.expm1(4.0 * _TAIL / n)) / r_lo
        small = rest * u_max < _FOLD
        p1, p2 = float(np.sum(rest[small])), float(np.dot(rest[small], rest[small]))
        active = rest[~small]
        cap = max(1, min(_MAX_NODES, _BLOCK // max(1, active.size)))
        phase, log_mod = [], []
        k = 1
        while True:
            size = min(max(_FIRST_NODES, k - 1), cap)  # the nodes so far double
            u = self.h * np.arange(k, k + size, dtype=float)
            u = u[:np.searchsorted(u, u_max, side="right")]
            wu = np.multiply.outer(u, active)
            u2 = u * u
            lm = 0.25 * (ones * np.log1p(u2) + np.log1p(wu * wu).sum(axis=1) + p2 * u2)
            stop = np.flatnonzero(lm + 0.25 * n * np.log1p((r_lo * u) ** 2) >= _TAIL)
            end = int(stop[0]) + 1 if stop.size else u.size
            u, wu = u[:end], wu[:end]
            phase.append(0.5 * (ones * np.arctan(u) + np.arctan(wu).sum(axis=1) + p1 * u))
            log_mod.append(lm[:end])
            k += end
            if stop.size or end < size:
                break
        self.u = self.h * np.arange(1, k, dtype=float)
        self.phase = np.concatenate(phase)
        self.log_mod = np.concatenate(log_mod)

    def cdf(self, r: float) -> float:
        ru = r * self.u
        th = self.phase - 0.5 * self.n * np.arctan(ru)
        log_rho = self.log_mod + 0.25 * self.n * np.log1p(ru * ru)
        tail = float(np.sum(np.sin(th) * np.exp(-log_rho) / self.u))
        # the u = 0 node carries half of th'(0) = (s1 - n r) / 2
        return 0.5 - self.h / math.pi * (0.25 * (self.s1 - self.n * r) + tail)


def _illinois(f, a: float, b: float, fa: float, fb: float, rtol: float) -> float:
    """Root of an increasing f bracketed by fa <= 0 <= fb (Illinois variant of
    regula falsi), to a relative bracket width rtol.  The radius needs no
    scale invariance, so it does not use the sign-only log-lambda bisection,
    which takes about 33 CDF evaluations where Illinois takes 11."""
    side = 0
    for _ in range(200):
        if b - a <= rtol * b:
            break
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if fc < 0.0:
            a, fa = c, fc
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side > 0:
                fa *= 0.5
            side = 1
    return 0.5 * (a + b)


def radius(model: SpectralModel, lam: float, spec: RadiusSpec) -> float:
    """r_n(lam, q): square root of the exact (1-alpha) quantile of the
    posterior distance law.

    The distribution function is inverted from the characteristic function
    with an error below 1e-10 and the quantile is solved to a relative 1e-10,
    so the radius depends on (n, lam, q, alpha) only, not on
    ``spec.mc_draws`` or ``spec.seed``.  The search starts from a bracket of
    +-25% around the Satterthwaite approximation (sum w_i chi^2_1 as a scaled
    chi-square with matched mean and variance, an F quantile) and widens it
    by doubling when needed.  Memory is O(n).
    """
    if not lam >= 0:
        raise EbsplinesError(f"need lambda >= 0, got {lam}")
    w = smoother_weights(model.eigen, lam)
    n = model.n
    s1 = float(np.sum(w))
    if s1 == 0.0:
        return 0.0
    p = 1.0 - spec.alpha
    r0 = s1 / n * float(fdtri(s1 * s1 / float(np.dot(w, w)), n, p))
    if not (math.isfinite(r0) and r0 > 0.0):
        r0 = s1 / n
    lo, hi = r0 / 1.25, r0 * 1.25
    for _ in range(64):
        law = _DistanceLaw(w, n, lo, hi)
        f_lo, f_hi = law.cdf(lo) - p, law.cdf(hi) - p
        if f_lo > 0.0:
            lo, hi = 0.5 * lo, lo
        elif f_hi < 0.0:
            lo, hi = hi, 2.0 * hi
        else:
            break
    else:
        raise ArithmeticError(f"no bracket for the radius quantile near {r0:.3g}")
    r = _illinois(lambda x: law.cdf(x) - p, lo, hi, f_lo, f_hi, _RTOL)
    return math.sqrt(r)


@dataclass(frozen=True)
class CredibleBall:
    """l2 ball (rms norm) around the adaptive fit."""

    center: np.ndarray
    radius: float
    L: float
    alpha: float
    lambda_hat: float
    q_hat: float

    def contains(self, f) -> bool:
        return rms_norm(np.asarray(f, dtype=float) - self.center) <= self.radius

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "radius": self.radius,
            "L": self.L,
            "alpha": self.alpha,
            "lambda_hat": self.lambda_hat,
            "q_hat": self.q_hat,
            "n": int(len(self.center)),
        }


def _check_inflation(L: float) -> None:
    if not 1 <= L < math.inf:
        raise EbsplinesError(f"need L >= 1 and L < inf, got {L}")


def credible_ball(result: FitResult, L: float = 2.0,
                  spec: RadiusSpec = RadiusSpec()) -> CredibleBall:
    """Empirical credible ball with radius sigma_hat * L * r_n(lambda_hat, q_hat).

    1 <= L < inf; L = 2 dominates 1 + sqrt((2q-1)/(2q)) uniformly in q.
    """
    _check_inflation(L)
    r = radius(result.model, result.lambda_hat, spec)
    return CredibleBall(center=result.fitted,
                        radius=math.sqrt(result.sigma2_hat) * L * r,
                        L=L, alpha=spec.alpha,
                        lambda_hat=result.lambda_hat, q_hat=result.q_hat)


def sample_posterior(result: FitResult, draws: int, seed: int = 0) -> np.ndarray:
    """Draws from the fitted marginal posterior of the function values.

    The multivariate t with scale sigma2_hat * S is realized in the spectral
    domain as a Gaussian with diagonal covariance sigma2_hat * w divided by
    sqrt(chi^2_n / n), then transformed back.  Returns (draws, n).
    """
    if draws < 1:
        raise EbsplinesError(f"need draws >= 1, got {draws}")
    model = result.model
    n = model.n
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, n))
    u = rng.chisquare(n, size=draws) / n
    scale = math.sqrt(max(result.sigma2_hat, 0.0)) * np.sqrt(
        smoother_weights(model.eigen, result.lambda_hat))
    curves = model.basis.inverse(z * scale) / np.sqrt(u)[:, None]
    return result.fitted + curves
