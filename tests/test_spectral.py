import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ebsplines as e
from ebsplines.errors import EbsplinesError

PI2 = math.pi ** 2
PI4 = math.pi ** 4


class TestDesignGrid:
    def test_midpoint_values(self):
        g = e.design_grid(10, "midpoint")
        assert np.allclose(g.x, (2 * np.arange(1, 11) - 1) / 20.0, atol=0, rtol=0)

    def test_right_values(self):
        g = e.design_grid(10, "right")
        assert np.allclose(g.x, np.arange(1, 11) / 10.0, atol=0, rtol=0)
        assert g.x[-1] == 1.0

    def test_unknown_convention(self):
        with pytest.raises(EbsplinesError):
            e.design_grid(10, "left")


class TestEigenvalues:
    def test_first_order_second_entry_is_pi_squared(self):
        eig = e.eigenvalues(1.0, 10)
        assert eig.values[1] == pytest.approx(PI2, rel=1e-12)

    def test_null_space_entries(self):
        eig = e.eigenvalues(2.0, 10)
        assert eig.values[0] == 0.0 and eig.values[1] == 0.0
        assert eig.null_dim == 2

    def test_second_order_third_entry(self):
        # direct evaluation of pi^(2q) (i-q)^(2q) at q=2, i=3
        eig = e.eigenvalues(2.0, 10)
        assert eig.values[2] == pytest.approx(PI4, rel=1e-12)
        assert eig.values[2] == pytest.approx(97.40909103400243, rel=1e-10)

    def test_strictly_increasing_beyond_null(self):
        eig = e.eigenvalues(2.5, 50)
        assert eig.null_dim == 2
        assert np.all(np.diff(eig.values[2:]) > 0)

    @pytest.mark.parametrize("q,n", [(0.5, 20), (0.3, 20), (2.0, 3), (3.0, 6), (math.inf, 20)])
    def test_rejects_bad_domain(self, q, n):
        with pytest.raises(EbsplinesError):
            e.eigenvalues(q, n)

    @pytest.mark.parametrize("q", [60.0, 400.0])
    def test_rejects_a_sequence_past_the_float_range(self, q):
        # pi^(2q) (n - c)^(2q) overflows at n = 1000 (at q = 400 so does pi^(2q))
        with pytest.raises(EbsplinesError,
                           match=f"order-{q} eigenvalues overflow the float range at n = 1000"):
            e.penalty_eigenvalues(q, 1000)
        assert math.isfinite(e.penalty_eigenvalues(40.0, 1000).values[-1])


class TestAnalyticBasis:
    @pytest.mark.parametrize("n", [16, 64, 257, 512])
    def test_orthonormality(self, n):
        Phi = e.make_basis(e.design_grid(n), 1.0).matrix
        eye = np.eye(n)
        assert np.abs(Phi.T @ Phi - eye).max() < 1e-10
        assert np.abs(Phi @ Phi.T - eye).max() < 1e-10

    def test_forward_energy_preserved(self):
        g = e.design_grid(200)
        b = e.make_basis(g, 2.0)
        y = np.random.default_rng(0).standard_normal(200)
        x = e.forward(b, y)
        assert np.sum(x * x) == pytest.approx(np.sum(y * y), rel=1e-10)

    def test_zero_maps_to_zero(self):
        b = e.make_basis(e.design_grid(32), 1.0)
        assert np.all(e.forward(b, np.zeros(32)) == 0)
        assert np.all(e.inverse(b, np.zeros(32)) == 0)

    def test_unit_coefficient_gives_first_column(self):
        n = 32
        b = e.make_basis(e.design_grid(n), 1.0)
        e1 = np.zeros(n)
        e1[0] = 1.0
        col = e.inverse(b, e1)
        assert np.allclose(col, b.matrix[:, 0], atol=1e-12)
        # frequency-zero column is the normalized constant
        assert np.allclose(col, 1.0 / math.sqrt(n), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=16, max_size=16))
    def test_round_trip(self, vals):
        y = np.asarray(vals)
        b = e.make_basis(e.design_grid(16), 1.0)
        scale = max(np.abs(y).max(), 1.0)
        assert np.abs(e.inverse(b, e.forward(b, y)) - y).max() <= 1e-10 * scale
        assert np.abs(e.forward(b, e.inverse(b, y)) - y).max() <= 1e-10 * scale

    def test_length_mismatch(self):
        b = e.make_basis(e.design_grid(16), 1.0)
        with pytest.raises(EbsplinesError):
            e.forward(b, np.zeros(17))
        with pytest.raises(EbsplinesError):
            e.inverse(b, np.zeros(15))


@pytest.mark.parametrize("n", [997, 1000, 2000, 4096])
def test_stacked_transforms_equal_row_by_row(n):
    # the experiments transform and smooth a stack of replicates in one call;
    # each row must come out as it does alone, bit for bit
    b = e.make_basis(e.design_grid(n), 1.0)
    y = np.random.default_rng(n).standard_normal((37, n))
    for rows in (1, 2, 3, 4, 5, 8, 16, 37):
        for stacked, single in ((b.forward(y[:rows]), b.forward),
                                (b.inverse(y[:rows]), b.inverse)):
            assert all(stacked[k].tobytes() == single(y[k]).tobytes() for k in range(rows))


def _penalty(q, n):
    """The assembled order-q difference penalty n^(2q-1) D_q^T D_q, whose
    quadratic form approximates the integral of (f^(q))^2."""
    D = np.diff(np.eye(n), q, axis=0)
    return float(n) ** (2 * q - 1) * (D.T @ D)


def _penalty_eigenvalues(q, n):
    """n*eta of the assembled order-q penalty, by a dense symmetric eigensolve."""
    return n * np.linalg.eigvalsh(_penalty(q, n))


def _first_difference_eigenvalues(n):
    """The closed form n^2 * 4 sin^2(pi (i-1) / (2n)) of n*eta at q = 1."""
    i = np.arange(1, n + 1, dtype=float)
    return n * n * 4.0 * np.sin(np.pi * (i - 1.0) / (2.0 * n)) ** 2


class TestFirstDifferencePenalty:
    """At q = 1 the cosine basis is the exact eigenbasis of the assembled
    penalty, so its eigenvalues have a closed form."""

    @pytest.mark.parametrize("n", [64, 128, 512])
    def test_cosine_basis_diagonalizes_the_penalty(self, n):
        Phi = e.make_basis(e.design_grid(n), 1.0).matrix
        exact = _first_difference_eigenvalues(n)
        err = np.abs(Phi.T @ (n * _penalty(1, n)) @ Phi - np.diag(exact)).max()
        assert err <= 1e-14 * exact.max()

    def test_first_order_eigenvalue_window(self):
        # agreement window reflects the 1+o(1) factor
        n = 64
        exact = _first_difference_eigenvalues(n)
        i = np.arange(1, n + 1)
        ratio = exact[1:n // 4] / (PI2 * (i[1:n // 4] - 1.0) ** 2)
        assert np.all((ratio > 0.9) & (ratio < 1.1))

    @pytest.mark.parametrize("n", [64, 128])
    def test_first_order_agreement_in_uniformity_range(self, n):
        asym = e.eigenvalues(1.0, n).values
        top = int(n ** (2.0 / 3.0))
        ratio = _first_difference_eigenvalues(n)[1:top] / asym[1:top]
        assert np.all(np.abs(ratio - 1.0) < 0.1)


class TestPenaltyPhase:
    """The production sequence pi^(2q) (i - (q+1)/2)^(2q) against the
    eigenvalues of the assembled order-q difference penalty."""

    @pytest.mark.parametrize("q,n", [(1.0, 128), (1.0, 512), (2.0, 128), (2.0, 512),
                                     (3.0, 128)])
    def test_analytic_tail_matches_exact_eigen(self, q, n):
        # at q = 2, n = 512 the first value checked (~500) is tiny next to the
        # largest (~1e12) but genuine
        d = int(q)
        analytic = e.spectral_model(e.design_grid(n), q).eigen.values
        exact = _penalty_eigenvalues(d, n)
        ratio = exact[d:d + 10] / analytic[d:d + 10]
        assert np.all(np.abs(ratio - 1.0) < 0.02)

    @pytest.mark.parametrize("n", [64, 128])
    def test_second_order_matches_phase_shifted_rates(self, n):
        # the assembled second-order penalty follows pi^4 (i - 3/2)^4 at small
        # i (free-boundary phase), converging to pi^4 (i - 2)^4 only at large i
        exact = _penalty_eigenvalues(2, n)
        i = np.arange(1, n + 1, dtype=float)
        shifted = PI4 * (i - 1.5) ** 4
        ratio = exact[2:12] / shifted[2:12]
        assert np.all(np.abs(ratio - 1.0) < 0.1)
        asym = e.eigenvalues(2.0, n).values
        j = n // 4
        assert exact[j] / asym[j] == pytest.approx(1.0, abs=0.35)

    def test_exact_null_space_is_q_dimensional_at_the_size_limit(self):
        # the third eigenvalue (~500) is tiny next to the largest (~1e12) but
        # genuine; only the first q sit at roundoff, and only q are zeroed
        exact = _penalty_eigenvalues(2, 512)
        assert int(np.sum(np.abs(exact) < 1e-12 * exact.max())) == 2
        assert exact[2] == pytest.approx(PI4 * 1.5 ** 4, rel=0.02)
        analytic = e.spectral_model(e.design_grid(512), 2.0).eigen.values
        assert int(np.sum(analytic == 0.0)) == 2

    def test_phase_is_recorded(self):
        g = e.design_grid(64)
        assert e.spectral_model(g, 2.0).eigen.offset == 1.5
        assert e.ModelFamily(g).model(2.5).eigen.offset == 1.75
        assert e.eigenvalues(2.0, 64).offset == 2.0

    def test_offset_must_stay_below_first_non_null_index(self):
        with pytest.raises(EbsplinesError):
            e.eigenvalues(2.0, 64, offset=3.0)


class TestSmootherWeights:
    def test_zero_lambda_is_identity(self):
        eig = e.eigenvalues(2.0, 12)
        assert np.all(e.smoother_weights(eig, 0.0) == 1.0)

    def test_half_weight_at_reciprocal_eigenvalue(self):
        # q=1, i=2: n*eta = pi^2, so lam = 1/pi^2 gives weight 1/2
        eig = e.eigenvalues(1.0, 12)
        w = e.smoother_weights(eig, 1.0 / PI2)
        assert w[1] == pytest.approx(0.5, rel=1e-12)

    def test_null_space_weights_stay_one(self):
        eig = e.eigenvalues(3.0, 12)
        for lam in (1e-6, 1.0, 1e6):
            assert np.all(e.smoother_weights(eig, lam)[:3] == 1.0)

    def test_monotone_in_index_and_lambda(self):
        eig = e.eigenvalues(2.0, 40)
        w1 = e.smoother_weights(eig, 0.01)
        w2 = e.smoother_weights(eig, 0.1)
        assert np.all(np.diff(w1[2:]) < 0)
        assert np.all(w2[2:] < w1[2:])

    def test_infinite_lambda_keeps_null_space(self):
        eig = e.eigenvalues(2.0, 12)
        w = e.smoother_weights(eig, math.inf)
        assert np.all(w[:2] == 1.0) and np.all(w[2:] == 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(EbsplinesError):
            e.smoother_weights(e.eigenvalues(1.0, 12), -0.1)


def test_rms_norm_convention():
    v = np.array([3.0, -4.0])
    assert e.rms_norm(v) == pytest.approx(math.sqrt(12.5), rel=1e-14)


def test_spectral_model_dimension_check():
    g = e.design_grid(16)
    eig = e.eigenvalues(1.0, 20)
    b = e.make_basis(g, 1.0)
    with pytest.raises(EbsplinesError):
        e.SpectralModel(grid=g, q=1.0, eigen=eig, basis=b)
