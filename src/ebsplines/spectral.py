"""Spectral machinery for penalized smoothing on an equidistant design.

The smoother of order ``q`` diagonalizes in an orthonormal basis ``Phi`` with
eigenvalue sequence ``n*eta_{q,i}``: the first ``floor(q)`` eigenvalues vanish
(the null space) and the rest grow like ``pi^(2q) * (i - c)^(2q)``.  The
paper's asymptotic formula takes the phase ``c = q``; it is right only up to a
``1+o(1)`` factor, and at the low indices that decide the fit it is off by a
factor of 5 (q = 2) to 1474 (q = 4) at the first non-null index.  The
assembled order-q difference penalty follows ``c = (q+1)/2`` instead: its
first ten non-null eigenvalues agree with that phase within 2% at q = 1, 2
and 3, and both phases coincide at q = 1.  ``eigenvalues`` keeps the paper's
phase by default; ``penalty_eigenvalues`` gives the corrected sequence, and
every production model uses it.  The phase is recorded as
``EigenSequence.offset``.

Every model pairs the orthonormal cosine transform (DCT-II) with the
eigenvalue formula at the phase ``(q+1)/2`` (``spectral_model``).  All
selection criteria downstream depend on the data only through the
transformed coefficients and the eigenvalue sequence, so this one model
family serves every order.

The package-wide norm convention is ``rms_norm``: ``||v||^2 = mean(v_i^2)``,
so spectral and design-domain computations coincide under the orthonormal
transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct

from .errors import EbsplinesError

DESIGN_CONVENTIONS = ("midpoint", "right")


def rms_norm(v) -> float:
    """Root-mean-square norm, ||v||^2 = (1/n) sum v_i^2.

    This is the single norm convention used for fitted-value errors, credible
    ball radii and coverage checks throughout the package.
    """
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(np.mean(v * v)))


@dataclass(frozen=True)
class DesignGrid:
    """Equidistant design sites on (0, 1]."""

    n: int
    x: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise EbsplinesError(f"need n >= 1, got {self.n}")
        if len(self.x) != self.n:
            raise EbsplinesError("grid length mismatch")
        if not (np.all(np.diff(self.x) > 0) and self.x[0] > 0 and self.x[-1] <= 1):
            raise EbsplinesError("design sites must be increasing and in (0, 1]")


def design_grid(n: int, convention: str = "midpoint") -> DesignGrid:
    """Build the design grid: midpoint x_i = (2i-1)/(2n) or right x_i = i/n."""
    i = np.arange(1, n + 1, dtype=float)
    if convention == "midpoint":
        x = (2.0 * i - 1.0) / (2.0 * n)
    elif convention == "right":
        x = i / n
    else:
        raise EbsplinesError(f"unknown design convention {convention!r}")
    return DesignGrid(n=n, x=x)


@dataclass(frozen=True)
class EigenSequence:
    """Eigenvalues n*eta_{q, 1..n} of the order-q penalty, ascending.

    ``offset`` is the phase c of the formula pi^(2q) (i - c)^(2q) the values
    were built from.
    """

    q: float
    n: int
    values: np.ndarray
    offset: float

    @property
    def null_dim(self) -> int:
        return int(math.floor(self.q))

    @property
    def tail(self) -> np.ndarray:
        """Eigenvalues beyond the null space."""
        return self.values[self.null_dim:]

    @property
    def log_tail(self) -> np.ndarray:
        """log(n*eta) beyond the null space: the weight of T_q (``selection``)."""
        return np.log(self.tail)


def eigenvalues(q: float, n: int, offset: float | None = None) -> EigenSequence:
    """Eigenvalue sequence n*eta_{q,i} = pi^(2q) (i - c)^(2q), c = ``offset``.

    The default c = q is the paper's asymptotic formula, exact only up to a
    1+o(1) factor; it is kept for the trace lemma and the unit tests that pin
    the formula.  The production models use ``penalty_eigenvalues``, the phase
    the assembled penalty actually has at the low indices that decide a fit.

    The first floor(q) entries are exactly zero.  Non-integer q uses the same
    formula with a real exponent and offset.
    """
    if not 0.5 < q < math.inf:
        raise EbsplinesError(f"penalty order must be finite and exceed 1/2, got {q}")
    if n < 4:
        raise EbsplinesError(f"need n >= 4, got {n}")
    d = int(math.floor(q))
    if n <= 2 * d:
        raise EbsplinesError(f"n = {n} too small for order q = {q}")
    c = float(q) if offset is None else float(offset)
    i = np.arange(1, n + 1, dtype=float)
    if not i[d] > c:
        raise EbsplinesError(
            f"offset {c} must lie below the first non-null index {d + 1}")
    vals = np.zeros(n)
    vals[d:] = np.pi ** (2.0 * q) * (i[d:] - c) ** (2.0 * q)
    return EigenSequence(q=float(q), n=n, values=vals, offset=c)


def penalty_eigenvalues(q: float, n: int) -> EigenSequence:
    """The production sequence: ``eigenvalues`` at the phase c = (q+1)/2.

    With it, pi^(2q) (i - c)^(2q) matches the exact eigenvalues of the
    assembled order-q difference penalty within 2% over the first ten
    non-null indices at q = 1, 2 and 3 (n = 128); the paper's phase c = q is
    off there by a factor of 5, 64 and 1474 at the first non-null index for
    q = 2, 3 and 4.
    """
    return eigenvalues(q, n, offset=0.5 * (float(q) + 1.0))


@dataclass(frozen=True, eq=False)
class BasisHandle:
    """The orthonormal cosine transform Phi on n sites.

    ``forward`` applies Phi^T (analysis), ``inverse`` applies Phi (synthesis).
    The handle holds only n; its dense matrix is built on each request.
    """

    n: int

    @property
    def matrix(self) -> np.ndarray:
        """Dense Phi (n x n): column k is the orthonormal cosine of frequency k-1."""
        return dct(np.eye(self.n), type=2, norm="ortho", axis=0).T

    def forward(self, y) -> np.ndarray:
        """Spectral coefficients X = Phi^T y.  Accepts (..., n) arrays."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.n:
            raise EbsplinesError(f"expected length {self.n}, got {y.shape[-1]}")
        return dct(y, type=2, norm="ortho", axis=-1)

    def inverse(self, coeffs) -> np.ndarray:
        """Design values Phi @ coeffs.  Accepts (..., n) arrays."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape[-1] != self.n:
            raise EbsplinesError(f"expected length {self.n}, got {c.shape[-1]}")
        return idct(c, type=2, norm="ortho", axis=-1)


def make_basis(grid: DesignGrid, q: float) -> BasisHandle:
    """The orthonormal cosine transform on the grid, for any admissible q:
    the transform does not depend on the order."""
    return BasisHandle(n=grid.n)


def forward(basis: BasisHandle, y) -> np.ndarray:
    """X = Phi^T y (energy preserving)."""
    return basis.forward(y)


def inverse(basis: BasisHandle, coeffs) -> np.ndarray:
    """y = Phi @ coeffs (round trip of forward)."""
    return basis.inverse(coeffs)


def smoother_weights(eigen: EigenSequence, lam: float) -> np.ndarray:
    """Diagonal smoother weights w_i = 1 / (1 + lam * n*eta_i).

    lam = 0 is the interpolation limit (all ones); lam = inf keeps only the
    null space.
    """
    if not lam >= 0:
        raise EbsplinesError(f"smoothing parameter must be >= 0, got {lam}")
    if lam == 0:
        return np.ones(eigen.n)
    if math.isinf(lam):
        return (eigen.values == 0).astype(float)
    return 1.0 / (1.0 + lam * eigen.values)


@dataclass(frozen=True)
class SpectralModel:
    """Grid + order + eigenvalues + transform, immutable and shareable."""

    grid: DesignGrid
    q: float
    eigen: EigenSequence
    basis: BasisHandle

    def __post_init__(self):
        if self.eigen.n != self.grid.n or self.basis.n != self.grid.n:
            raise EbsplinesError("dimension mismatch between grid, eigenvalues and basis")

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def null_dim(self) -> int:
        return self.eigen.null_dim


def spectral_model(grid: DesignGrid, q: float) -> SpectralModel:
    """The production model: the cosine basis with the penalty's phase."""
    return SpectralModel(grid=grid, q=float(q), eigen=penalty_eigenvalues(q, grid.n),
                         basis=make_basis(grid, q))
