"""Closed-form constants and expectation-level (oracle) quantities.

The trace of smoother powers obeys

    tr{(I-S)^m S^l} = sum_i (u_i)^m / (1+u_i)^(m+l)
                    = lam^(-1/(2q)) kappa_q(m, l) {1+o(1)},
    kappa_q(m, l)   = Gamma(m + 1/(2q)) Gamma(l - 1/(2q)) / (2 pi q Gamma(l+m)),

with u_i = lam * n*eta_{q,i}.  These constants drive the closed-form oracle
smoothing parameter and the asymptotic variances of the empirical-Bayes and
GCV selectors.  The expected estimating equations and the numeric oracle
lambda run the selector's own kernel and lambda solve on the row
E X^2 = B^2 + sigma^2 of the production model: T_lam and T_q are linear in
X^2, so that is their exact expectation under Y = f + sigma eps.
``polished_tail_check`` verifies the tail-regularity condition under which
order selection is consistent, with blocks [j, 2j] (rho = 2 in Szabo, van der
Vaart and van Zanten 2015).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import EbsplinesError
from .selection import _solve_lambdas, _t_at, _tails, _unit_scale
from .spectral import eigenvalues, penalty_eigenvalues


def kappa(q: float, m: int, l: int) -> float:
    """Trace constant kappa_q(m, l); log-Gamma evaluation avoids overflow."""
    if not 0.5 < q < math.inf:
        raise EbsplinesError(f"need 1/2 < q < inf, got {q}")
    if l < 1:
        raise EbsplinesError(f"need l >= 1, got l = {l}")
    if m < 0:
        raise EbsplinesError(f"need m >= 0, got m = {m}")
    h = 0.5 / q  # 1/(2q), and not 0 where 2q overflows
    lg = gammaln(m + h) + gammaln(l - h) - gammaln(l + m)
    if 2.0 * math.pi * q < math.inf:  # then lg < 709 too: exp(lg) is finite
        return float(math.exp(lg) / (2.0 * math.pi * q))
    # near q's top: Gamma(m + h) = Gamma(m + 1 + h)/(m + h), 2q (m + h) = q (2m + 1/q)
    return math.exp(gammaln(m + 1 + h) + gammaln(l - h) - gammaln(l + m)
                    - math.log(2.0 * m + 1.0 / q) - math.log(q)) / math.pi


@dataclass(frozen=True)
class TraceCheck:
    exact_sum: float
    approx: float
    rel_err: float


def trace_approx_check(q: float, lam: float, n: int, m: int, l: int) -> TraceCheck:
    """Direct trace sum against its lam^(-1/(2q)) kappa_q(m,l) approximation.

    This checks the paper's lemma on the paper's own sequence
    pi^(2q) (i-q)^(2q) (``eigenvalues`` at its default phase), not on the
    penalty-phase sequence the production models use.  The lemma holds up to
    a 1+o(1) factor: for m = 0 the first-order error is
    (floor(q) - 1/2) / (lam^(-1/(2q)) kappa_q(0, l)), about +13% at q = 2,
    lam = 1e-6 (under the penalty phase it would be q/2 over the same
    denominator).
    """
    if not (0 < lam <= 1):
        raise EbsplinesError(f"need 0 < lambda <= 1, got {lam}")
    approx = lam ** (-1.0 / (2.0 * q)) * kappa(q, m, l)  # which checks q, m and l first
    u = lam * eigenvalues(q, n).values
    term = u ** m / (1.0 + u) ** (m + l)  # 0^0 = 1 covers the null space
    exact = float(np.sum(term))
    return TraceCheck(exact_sum=exact, approx=approx,
                      rel_err=(exact - approx) / approx)


@dataclass(frozen=True)
class SignalSpectrum:
    """Noiseless spectral coefficients B = Phi^T f of a regression function."""

    B: np.ndarray

    @property
    def n(self) -> int:
        return len(self.B)

    def derivative_energy(self, q: float) -> float:
        """(1/n) sum B_i^2 n*eta_{q,i} -- the computable surrogate for the
        squared q-th derivative norm, on the production (penalty-phase)
        eigenvalues; ``_energy`` of B / 2^k (``_unit_scale``)."""
        b, (k,) = _unit_scale(self.B[None], "B")
        return _energy(b[0] ** 2, penalty_eigenvalues(q, self.n).values, k)[1]


def _energy(b2: np.ndarray, values: np.ndarray, k: int) -> tuple[float, float]:
    """(1/n) sum b2 n*eta of b2 = (B / 2^k)^2, and it times 4^k (``inf`` past floats)."""
    energy = float(np.dot(b2, values)) / len(b2)
    with np.errstate(over="ignore"):
        return energy, float(np.ldexp(energy, 2 * k))


def _sigma2(sigma2: float) -> float:
    if not 0 <= sigma2 < math.inf:
        raise EbsplinesError(f"need 0 <= sigma2 < inf, got {sigma2}")
    return sigma2


def _expected_x2(spectrum: SignalSpectrum, sigma2: float, q: float):
    """Order-q production eigenvalues and E X^2 = B^2 + sigma^2 past their null space."""
    eig = penalty_eigenvalues(q, spectrum.n)
    return eig, _tails(eig, spectrum.B)[0] + _sigma2(sigma2)


def expected_t_lambda(spectrum: SignalSpectrum, sigma2: float, lam: float,
                      q: float) -> float:
    """Expected estimating equation for lambda under Y = f + sigma eps: the
    selector's T_lam on the row E X^2 = B^2 + sigma^2 (T_lam is linear in X^2)."""
    return _t_at(*_expected_x2(spectrum, sigma2, q), lam)


def expected_t_q(spectrum: SignalSpectrum, sigma2: float, lam: float,
                 q: float) -> float:
    """Expected estimating equation for q: the selector's T_q on the row
    E X^2 = B^2 + sigma^2, exact for the same reason as ``expected_t_lambda``."""
    return _t_at(*_expected_x2(spectrum, sigma2, q), lam, tq=True)


@dataclass(frozen=True)
class OracleResult:
    lambda_q: float
    derivative_energy: float


def oracle_lambda(spectrum: SignalSpectrum, sigma2: float, q: float,
                  method: str = "closed-form") -> OracleResult:
    """Oracle smoothing parameter for a fixed order.

    closed-form: [ n ||f^(q)||^2 / (sigma^2 kappa_q(0,2)) ]^(-2q/(2q+1)),
    with the derivative energy estimated from the spectrum; a vanishing
    energy (signal inside the null space) yields the infinity sentinel.
    numeric-root: the root of E T_lam, by the selector's own lambda solve
    (``selection.solve_lambda``: scan, bisection, tolerance and multi-root
    rule) on the row E X^2 = B^2 + sigma^2; a boundary solve (no interior root,
    see ``selection``) yields the infinity sentinel.  Both run on B / 2^k and
    sigma^2 / 4^k, k from ``_unit_scale`` of (B, sigma): lambda is free of the
    scale of B and sigma, and the energy, scaled back by 4^k, is ``inf`` past
    the float range.  sigma2 must be finite and >= 0 (> 0 for the closed form).
    """
    b, (k,) = _unit_scale(np.append(spectrum.B, math.sqrt(_sigma2(sigma2)))[None], "B")
    b2, s2 = b[0, :-1] ** 2, float(np.ldexp(sigma2, -2 * k))
    eig = penalty_eigenvalues(q, spectrum.n)
    energy, scaled = _energy(b2, eig.values, k)
    if method == "closed-form":
        if sigma2 == 0:
            raise EbsplinesError("need sigma2 > 0 for the closed form, got 0")
        den = s2 * kappa(q, 0, 2)  # 0 only for a sigma negligible next to B: lambda -> 0
        vanishing = energy <= 0 or energy < 1e-26 * float(np.sum(b2))
        lam = math.inf if vanishing else (
            spectrum.n * energy / den if den else math.inf) ** (-2.0 * q / (2.0 * q + 1.0))
    elif method == "numeric-root":
        (sol,), = _solve_lambdas([(eig, (b2[eig.null_dim:] + s2)[None])])
        lam = math.inf if sol.boundary else sol.lam
    else:
        raise EbsplinesError(f"unknown oracle method {method!r}")
    return OracleResult(lambda_q=lam, derivative_energy=scaled)


@dataclass(frozen=True)
class PolishedTailResult:
    holds: bool
    worst_j: int
    worst_ratio: float


def polished_tail_check(B, L: float = 2.0, N: int = 10) -> PolishedTailResult:
    """Check the polished-tail condition on spectral coefficients (rho = 2):

        (1/n) sum_{i=j..n} B_i^2 <= (L/n) sum_{i=j..2j} B_i^2
                                    for all N <= j <= n/2.

    Indices are 1-based as in the defining inequality.  Returns the worst
    ratio of tail mass to block mass and where it occurs; scale-invariant in B.
    """
    b = np.asarray(B, dtype=float)
    if not np.isfinite(b).all():
        raise EbsplinesError("need coefficients with finite squares")
    b2 = _unit_scale(b[None], "B")[0][0] ** 2  # squares of B / 2^k: exact at any scale
    n = len(b2)
    jmax = n // 2
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or not 1 <= N <= jmax:
        raise EbsplinesError(f"need an integer 1 <= N <= n/2 = {jmax}, got N = {N!r}")
    if not 1 <= L < math.inf:  # a tail over its block is >= 1: L < 1 never holds
        raise EbsplinesError(f"need a finite L >= 1, got L = {L}")
    # suffix sums accumulate from the small end, so block masses deep in the
    # tail stay representable (a forward cumsum would lose them to rounding)
    suffix = np.concatenate([np.cumsum(b2[::-1])[::-1], [0.0]])
    j = np.arange(N, jmax + 1)
    tail = suffix[j - 1]
    block = tail - suffix[np.minimum(2 * j, n)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tail == 0.0, 0.0, np.where(block == 0.0, math.inf, tail / block))
    i = int(np.argmax(ratio))  # the first worst j; N when every ratio is 0
    return PolishedTailResult(holds=not np.any(ratio > L), worst_j=int(j[i]),
                              worst_ratio=float(ratio[i]))


@dataclass(frozen=True)
class SelectorVariances:
    eb: float
    gcv: float
    ratio: float


def asymptotic_variances(q: float) -> SelectorVariances:
    """Scaled asymptotic variances of lambda_hat/lambda - 1 for the
    empirical-Bayes and GCV selectors, and their ratio gcv/eb."""
    eb = 2.0 * kappa(q, 2, 2) / (3.0 * kappa(q, 0, 2) - 2.0 * kappa(q, 0, 3)) ** 2
    gcv = 2.0 * kappa(q, 4, 2) / (4.0 * kappa(q, 1, 2) - 3.0 * kappa(q, 1, 3)) ** 2
    return SelectorVariances(eb=eb, gcv=gcv, ratio=gcv / eb)

