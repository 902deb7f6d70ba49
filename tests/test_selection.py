import math

import numpy as np
import pytest

import ebsplines as e
from ebsplines.errors import DegenerateDataError, EbsplinesError

PI2 = math.pi ** 2


def _model(n, q, convention="midpoint"):
    return e.ModelFamily(e.design_grid(n, convention)).model(q)


class TestTLambda:
    def test_hand_summation_n4(self):
        # independent loop oracle at n=4, q=1, lam=0.1, X=(1,1,1,1) with
        # n*eta = (0, pi^2, (2 pi)^2, (3 pi)^2)
        m = _model(4, 1.0)
        neta = [0.0, PI2, (2 * math.pi) ** 2, (3 * math.pi) ** 2]
        assert np.allclose(m.eigen.values, neta, rtol=1e-12)
        lam, n = 0.1, 4
        a = b1 = b2 = 0.0
        for i in range(1, 4):  # beyond the one-dimensional null space
            u = lam * neta[i]
            a += 1.0 * u / (1.0 + u) ** 2
            b1 += 1.0 * u / (1.0 + u)
            b2 += 1.0 / (1.0 + u)
        expected = a / n - b1 * b2 / n ** 2
        assert e.t_lambda(m, np.ones(4), lam) == pytest.approx(expected, rel=1e-12)

    def test_zero_tail_gives_zero(self):
        m = _model(32, 2.0)
        x = np.zeros(32)
        x[:2] = 5.0  # null-space content only
        assert e.t_lambda(m, x, 0.3) == 0.0
        assert e.t_q(m, x, 0.3) == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(EbsplinesError, match=r"expected 32 coefficients, got shape \(31,\)"):
            e.t_lambda(_model(32, 2.0), np.ones(31), 0.3)

    def test_matches_loglik_derivative_at_example_point(self):
        # central finite difference of the marginal log-likelihood at
        # lam = 0.01, step 1e-7 * lam
        n, lam = 128, 0.01
        m = _model(n, 2.0)
        x = np.random.default_rng(1).standard_normal(n) * 2.0
        h = 1e-7 * lam
        fd = (e.marginal_loglik(m, x, lam + h) - e.marginal_loglik(m, x, lam - h)) / (2 * h)
        resid = n * e.sigma2_hat(m, x, lam)
        pred = -e.t_lambda(m, x, lam) * n * n / (2 * lam * resid)
        assert fd == pytest.approx(pred, rel=1e-5)

    def test_gradient_consistency_twenty_random_points(self):
        n = 128
        rng = np.random.default_rng(3)
        fam = e.ModelFamily(e.design_grid(n))
        for trial in range(20):
            q = [1.0, 2.0, 3.0][trial % 3]
            m = fam.model(q)
            x = rng.standard_normal(n) * (1.0 + np.abs(rng.standard_normal(n)))
            lam = 10 ** rng.uniform(-4, -0.3)
            h = 1e-6 * lam
            fd = (e.marginal_loglik(m, x, lam + h)
                  - e.marginal_loglik(m, x, lam - h)) / (2 * h)
            pred = -e.t_lambda(m, x, lam) * n * n / (2 * lam * n * e.sigma2_hat(m, x, lam))
            assert fd == pytest.approx(pred, rel=1e-4)


class TestTq:
    def test_recombination_identity(self, family1000, f1_values):
        # exact algebraic identity: T_q equals the lam-centered statistic
        # (log(lam n eta) in both sums) plus log(1/lam) T_lam
        m = family1000.model(3.0)
        y = f1_values + 0.01 * np.random.default_rng(7).standard_normal(1000)
        x = m.basis.forward(y)
        lam = e.solve_lambda(m, x).lam
        n, d = 1000, m.null_dim
        u = lam * m.eigen.values[d:]
        x2 = x[d:] ** 2
        r = u / (1.0 + u)
        lu = np.log(u)
        centered = float(x2 @ (r * lu / (1.0 + u))) / n \
            - float(x2 @ r) * float(np.sum(lu / (1.0 + u))) / n ** 2
        ident = centered + math.log(1.0 / lam) * e.t_lambda(m, x, lam)
        assert abs(e.t_q(m, x, lam) - ident) <= 1e-8
        assert abs(e.t_lambda(m, x, lam)) <= 1e-3 / n

    def test_sign_pattern_on_decaying_coefficients(self, family1000, f1_values):
        # deterministic variance-corrected proxy X^2 = B^2 + sigma^2 on
        # (i+1)^-3 coefficients: effective smoothness is 2.5, so the
        # criterion is negative through q = 2 and positive from q = 3 on
        sigma2 = 1e-4
        signs = {}
        for q in (1.0, 2.0, 3.0, 4.0):
            m = family1000.model(q)
            b = m.basis.forward(f1_values)
            x = np.sqrt(b ** 2 + sigma2)
            lam = e.solve_lambda(m, x).lam
            signs[q] = e.t_q(m, x, lam)
        assert signs[1.0] < 0
        assert signs[2.0] < 0
        assert signs[3.0] > 0
        assert signs[4.0] > 0


class TestMarginalLoglik:
    def test_degenerate_data(self):
        m = _model(16, 1.0)
        x = np.zeros(16)
        x[0] = 3.0
        with pytest.raises(DegenerateDataError):
            e.marginal_loglik(m, x, 0.1)

    def test_finite_on_random_data(self):
        n = 64
        m = _model(n, 2.0)
        x = np.random.default_rng(5).standard_normal(n)
        for lam in (1.0 / n, 0.1, 1.0):
            assert math.isfinite(e.marginal_loglik(m, x, lam))

    def test_differences_match_the_full_likelihood(self):
        # only the lambda-independent -(n/2) log(sum X^2) is left out
        n = 64
        m = _model(n, 2.0)
        x = np.random.default_rng(6).standard_normal(n)

        def full(lam):
            u = lam * m.eigen.values[2:]
            r = u / (1.0 + u)
            return -0.5 * n * math.log(float(x[2:] ** 2 @ r)) \
                + 0.5 * float(np.sum(np.log(r)))

        # (1e-12, 1e-9) puts the residual share below 1/2 (2.6e-4 and 0.15),
        # where it takes the plain log, as on signal data at lambda_hat
        for lam1, lam2 in ((1e-6, 1e-3), (1e-3, 0.5), (1e-12, 1e-9)):
            got = e.marginal_loglik(m, x, lam1) - e.marginal_loglik(m, x, lam2)
            assert got == pytest.approx(full(lam1) - full(lam2), rel=1e-10)

    def test_rejects_nonpositive_lambda(self):
        m = _model(16, 1.0)
        with pytest.raises(EbsplinesError):
            e.marginal_loglik(m, np.ones(16), 0.0)


class TestSolveLambda:
    def test_interior_root_satisfies_tolerance(self):
        n = 256
        m = _model(n, 2.0)
        rng = np.random.default_rng(11)
        f = np.sin(2 * np.pi * m.grid.x)
        x = m.basis.forward(f + 0.1 * rng.standard_normal(n))
        sol = e.solve_lambda(m, x)
        assert not sol.boundary
        assert abs(sol.t_value) <= 1e-3 / n
        assert abs(e.t_lambda(m, x, sol.lam)) <= 1e-3 / n

    def test_zero_data_flags_boundary(self):
        m = _model(32, 1.0)
        x = np.zeros(32)
        sol = e.solve_lambda(m, x)
        assert sol.boundary and sol.t_value == 0.0

    def test_variance_corrected_solve_near_expected_root(self, family1000, f1_spectrum):
        # the data-level equation replaces the noise trace by a residual
        # estimate, so its root sits within ~30% of the expectation-level root
        m = family1000.model(3.0)
        x = np.sqrt(f1_spectrum.B ** 2 + 1e-4)
        sol = e.solve_lambda(m, x)
        lam_oracle = e.oracle_lambda(f1_spectrum, 1e-4, 3.0, "numeric-root").lambda_q
        assert sol.lam == pytest.approx(lam_oracle, rel=0.35)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_a_negative_or_non_finite_tol(self, tol, family1000, f1_values):
        # a negative tol made the bounds' slack negative, which settled
        # midpoints on the wrong side (tol = -1 gave lambda = 7.50e-14 with
        # T_lam = -2.7e-6 here); a NaN slack settled none
        x = family1000.basis.forward(
            f1_values + 0.01 * np.random.default_rng(1).standard_normal(1000))
        with pytest.raises(EbsplinesError, match="need a finite tol >= 0"):
            e.solve_lambda(family1000.model(3.0), x, tol)
        sol = e.solve_lambda(family1000.model(3.0), x, 0.0)
        assert sol.lam == pytest.approx(2.797e-13, rel=1e-3) and not sol.boundary

    def test_scale_equivariance(self):
        n = 128
        m = _model(n, 2.0)
        rng = np.random.default_rng(2)
        y = np.cos(3 * np.pi * m.grid.x) + 0.05 * rng.standard_normal(n)
        x = m.basis.forward(y)
        lam1 = e.solve_lambda(m, x).lam
        lam2 = e.solve_lambda(m, 7.3 * x).lam
        assert lam1 == lam2

    def test_bit_identical_under_rescaled_data(self):
        # the bisection follows only the sign of T_lam, so rescaling the data
        # moves no midpoint: 6 orders x 5 scales x 20 data sets; at 2^-520 and
        # 2^510 the squared coefficients leave the float range unless the
        # solve brings the data to unit scale first
        n = 500
        fam = e.ModelFamily(e.design_grid(n))
        signals = [e.Generator(kind=k).values(fam.grid)
                   for k in ("f1-spectral", "f2-cosine")]
        mismatches = []
        for seed in range(10):
            noise = 0.01 * np.random.default_rng(seed).standard_normal(n)
            for f in signals:
                y = f + noise
                for q in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
                    m = fam.model(q)
                    lam = e.solve_lambda(m, m.basis.forward(y)).lam
                    for c in (3.0, 1e-3, 2.0 ** -40, 2.0 ** -520, 2.0 ** 510):
                        if e.solve_lambda(m, m.basis.forward(c * y)).lam != lam:
                            mismatches.append((seed, q, c))
        assert mismatches == []

    def test_residual_past_the_float_range_overflows_to_inf(self):
        # at data scale 2^1000 lambda is still the unit-scale root, while
        # T_lam there, quadratic in the data, is past the float range
        m = _model(500, 3.0)
        x = m.basis.forward(e.Generator(kind="f1-spectral").values(m.grid)
                            + 0.01 * np.random.default_rng(1).standard_normal(500))
        ref = e.solve_lambda(m, x)
        with pytest.warns(RuntimeWarning, match="overflow"):
            sol = e.solve_lambda(m, 2.0 ** 1000 * x)
        assert sol.lam == ref.lam and math.isinf(sol.t_value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected_with_index(self, bad):
        m = _model(64, 2.0)
        x = m.basis.forward(np.cos(3 * np.pi * m.grid.x))
        x[[5, 9]] = bad
        with pytest.raises(EbsplinesError, match=rf"coeffs\[5\] = {bad} is not finite"):
            e.solve_lambda(m, x)


class TestSigma2Hat:
    def test_limits(self):
        m = _model(32, 2.0)
        x = np.random.default_rng(0).standard_normal(32)
        assert e.sigma2_hat(m, x, 0.0) == 0.0
        tail_energy = float(np.sum(x[2:] ** 2)) / 32
        assert e.sigma2_hat(m, x, math.inf) == pytest.approx(tail_energy, rel=1e-12)

    def test_monotone_in_lambda(self):
        m = _model(64, 1.0)
        x = np.random.default_rng(4).standard_normal(64)
        lams = np.logspace(-8, 0, 25)
        vals = [e.sigma2_hat(m, x, l) for l in lams]
        assert np.all(np.diff(vals) >= 0)
        assert all(v >= 0 for v in vals)

    def test_noise_level_recovered(self):
        # residual quadratic form at the selected lambda is consistent
        n, sigma = 1000, 0.3
        fam = e.ModelFamily(e.design_grid(n))
        m = fam.model(2.0)
        y = sigma * np.random.default_rng(8).standard_normal(n)
        x = m.basis.forward(y)
        sol = e.solve_lambda(m, x)
        s2 = e.sigma2_hat(m, x, sol.lam)
        assert s2 == pytest.approx(sigma ** 2, rel=0.10)


class TestSelectQ:
    # the order selection, as ``fit`` reports it in its ``selection``
    def test_zero_crossing_interpolation(self, family1000, f1_values):
        y = f1_values + 0.01 * np.random.default_rng(12).standard_normal(1000)
        sel = e.fit(family1000, y, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)).selection
        tq = [d.t_q_value for d in sel.per_q]
        j = next(i for i in range(1, 6) if tq[i] > 0 and tq[i - 1] <= 0)
        expected = sel.per_q[j - 1].q + (0.0 - tq[j - 1]) / (tq[j] - tq[j - 1])
        assert sel.q_star == pytest.approx(expected, rel=1e-12)
        assert sel.q_hat == math.floor(sel.q_star + 0.5)

    def test_scale_invariance_of_selection(self, family1000, f1_values):
        y = f1_values + 0.01 * np.random.default_rng(13).standard_normal(1000)
        s1 = e.fit(family1000, y, (1.0, 2.0, 3.0)).selection
        s2 = e.fit(family1000, 11.0 * y, (1.0, 2.0, 3.0)).selection
        assert s1.q_hat == s2.q_hat
        assert s1.q_star == pytest.approx(s2.q_star, rel=1e-9)

    def test_refined_real_order_grid(self, family1000, f1_values):
        # theory-faithful mode: real-valued orders on the shared cosine basis;
        # the refined crossing lands near the integer-grid one
        y = f1_values + 0.01 * np.random.default_rng(21).standard_normal(1000)
        coarse = e.fit(family1000, y, e.default_q_grid(1000)).selection
        fine = e.fit(family1000, y, e.default_q_grid(1000, refine=0.5)).selection
        assert abs(fine.q_star - coarse.q_star) < 1.0
        assert fine.q_hat == math.floor(fine.q_star + 0.5)

    def test_q_hat_is_a_float_where_the_grid_clamps_it(self, family1000, f1_values):
        # q* = 1.2 rounds to 1, below the grid: q_hat is clamped up to ceil(1.2)
        y = f1_values + 3.0 * np.random.default_rng(0).standard_normal(1000)
        res = e.fit(family1000, y, (1.2, 1.7, 2.2, 2.7, 3.2))
        assert res.q_star == 1.2
        assert repr(res.q_hat) == repr(res.selection.q_hat) == "2.0"

    def test_empty_grid_rejected(self, family1000, f1_values):
        with pytest.raises(EbsplinesError, match="empty q grid"):
            e.fit(family1000, f1_values, ())

    @pytest.mark.parametrize("qgrid,message", [
        ((2.0, 1.0), "q grid must be strictly increasing"),
        ((0.5, 1.0), "q grid values must exceed 1/2"),
        # an order whose eigenvalues overflow returned sigma2_hat = nan
        ((3.0, 60.0), "order-60.0 eigenvalues overflow the float range at n = 1000"),
    ], ids=["decreasing", "at-one-half", "past-the-float-range"])
    def test_malformed_grid_rejected(self, family1000, f1_values, qgrid, message):
        with pytest.raises(EbsplinesError, match=message):
            e.fit(family1000, f1_values, qgrid)

    @pytest.mark.filterwarnings("error")
    def test_an_order_near_the_float_range_fits_without_overflow(self, family1000, f1_values):
        # at q = 44 the eigenvalues reach 7.6e306: the bounds of a column
        # with an empty head took 1 - lam nz[0] for its factor, whose square
        # overflowed (RuntimeWarning) and left the bound NaN
        y = f1_values + 0.01 * np.random.default_rng(1).standard_normal(1000)
        res = e.fit(family1000, y, (44.0,))
        assert res.boundary and res.lambda_hat == 1.0

    def test_t_q_weight_has_one_definition(self, family1000, f1_values, f1_spectrum,
                                           monkeypatch):
        # T_q is linear in its weight, and doubling is exact: t_q, the
        # expected equation and fit's diagnostics all double with the weight,
        # and the crossing does not move
        y = f1_values + 0.01 * np.random.default_rng(14).standard_normal(1000)
        m = family1000.model(3.0)
        x = m.basis.forward(y)

        def values():
            res = e.fit(family1000, y)
            return (e.t_q(m, x, 1e-10), e.expected_t_q(f1_spectrum, 1e-4, 1e-10, 3.0),
                    [d.t_q_value for d in res.selection.per_q], res.q_star)

        t, et, diags, q_star = values()
        log_tail = e.EigenSequence.log_tail
        monkeypatch.setattr(e.EigenSequence, "log_tail",
                            property(lambda self: 2.0 * log_tail.fget(self)))
        assert values() == (2.0 * t, 2.0 * et, [2.0 * d for d in diags], q_star)


class TestFit:
    # the smoother at the lambda limits, as fit applies it (Phi diag(w) Phi^T y)
    def test_lambda_zero_interpolates(self):
        n = 64
        m = e.ModelFamily(e.design_grid(n)).model(2.0)
        y = np.random.default_rng(0).standard_normal(n)
        x = m.basis.forward(y)
        fitted = m.basis.inverse(e.smoother_weights(m.eigen, 0.0) * x)
        assert np.abs(fitted - y).max() <= 1e-10
        assert e.sigma2_hat(m, x, 0.0) == 0.0

    def test_lambda_inf_projects_onto_null_space(self):
        n = 64
        m = e.ModelFamily(e.design_grid(n)).model(2.0)
        y = np.random.default_rng(1).standard_normal(n)
        fitted = m.basis.inverse(e.smoother_weights(m.eigen, math.inf) * m.basis.forward(y))
        basis = m.basis.matrix
        proj = basis[:, :2] @ (basis[:, :2].T @ y)
        assert np.abs(fitted - proj).max() <= 1e-10

    def test_small_n_rejected(self):
        fam = e.ModelFamily(e.design_grid(6))
        with pytest.raises(EbsplinesError):
            e.fit(fam, np.zeros(6))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected_with_index(self, bad):
        n = 200
        fam = e.ModelFamily(e.design_grid(n))
        y = np.random.default_rng(2).standard_normal(n)
        y[[37, 120]] = bad
        with pytest.raises(EbsplinesError, match=r"y\[37\]"):
            e.fit(fam, y)

    def test_wrong_length_rejected(self):
        fam = e.ModelFamily(e.design_grid(200))
        with pytest.raises(EbsplinesError, match="200"):
            e.fit(fam, np.random.default_rng(3).standard_normal(199))

    @pytest.mark.parametrize("level", [0.0, 3.25, -1e-200, 1e200])
    def test_constant_data_raise_degenerate(self, level):
        fam = e.ModelFamily(e.design_grid(200))
        with pytest.raises(DegenerateDataError):
            e.fit(fam, np.full(200, level))

    def test_nearly_constant_data_still_fit(self):
        # a relative spread of 1e-12 is far above rounding
        n = 200
        g = e.design_grid(n)
        y = 5.0 + 1e-12 * np.cos(2 * np.pi * g.x)
        res = e.fit(e.ModelFamily(g), y)
        assert res.sigma2_hat >= 0.0

    @pytest.mark.parametrize("c", [1e-150, 1e150])
    def test_fit_is_equivariant_at_extreme_scales(self, c):
        n = 200
        fam = e.ModelFamily(e.design_grid(n))
        for kind in ("f1-spectral", "f2-cosine"):
            y = (e.Generator(kind=kind).values(fam.grid)
                 + 0.01 * np.random.default_rng(4).standard_normal(n))
            ref, res = e.fit(fam, y), e.fit(fam, c * y)
            assert (res.lambda_hat, res.q_hat) == (ref.lambda_hat, ref.q_hat)
            assert res.sigma2_hat / c ** 2 == pytest.approx(ref.sigma2_hat, rel=1e-12)
            assert np.allclose(res.fitted / c, ref.fitted, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_unstorable_noise_variance_raises(self, c):
        # sigma2_hat ~ c^2 * 1e-4 leaves the float range beyond about 1e+-154
        n = 200
        fam = e.ModelFamily(e.design_grid(n))
        y = (e.Generator(kind="f1-spectral").values(fam.grid)
             + 0.01 * np.random.default_rng(4).standard_normal(n))
        with pytest.raises(EbsplinesError, match="float range"):
            e.fit(fam, c * y)

    def test_one_forward_transform_per_fit(self, monkeypatch):
        # every analytic order shares one basis, so selecting q over six
        # orders and smoothing at the chosen one transform the data once
        calls = []
        forward = e.BasisHandle.forward
        monkeypatch.setattr(e.BasisHandle, "forward",
                            lambda self, y: calls.append(1) or forward(self, y))
        fam = e.ModelFamily(e.design_grid(1000))
        y = (np.cos(3 * np.pi * fam.grid.x)
             + 0.01 * np.random.default_rng(5).standard_normal(1000))
        e.fit(fam, y)
        assert len(calls) == 1


class TestQGrid:
    def test_default_integer_grid(self):
        assert e.default_q_grid(1000) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_small_n_cap(self):
        assert e.default_q_grid(64)[-1] == 4.0

    def test_refined_grid_spacing(self):
        g = e.default_q_grid(1000, q_max=3, refine=0.25)
        assert g[0] == 1.0 and g[-1] == 3.0
        assert np.allclose(np.diff(g), 0.25)

    def test_refined_grid_is_one_plus_k_h(self):
        # 1 + k h holds every integer order exactly at h = 0.1 (a running
        # sum drifted to 2.000000000000001, ..., 6.000000000000004), and the
        # grid stops at q_max (at h = 0.3 a running sum reached 6.1)
        g = e.default_q_grid(1000, refine=0.1)
        assert g == tuple(1.0 + 0.1 * k for k in range(51))
        assert g[::10] == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        g = e.default_q_grid(1000, refine=0.3)
        assert g == tuple(1.0 + 0.3 * k for k in range(17)) and g[-1] <= 6.0

    def test_q_max_above_log_n_rejected(self):
        with pytest.raises(EbsplinesError):
            e.default_q_grid(100, q_max=6)

    def test_q_max_below_one_rejected(self):
        with pytest.raises(EbsplinesError, match="q_max must be >= 1"):
            e.default_q_grid(1000, q_max=0)


def test_model_family_real_order():
    fam = e.ModelFamily(e.design_grid(64))
    m = fam.model(2.5)
    assert m.null_dim == 2
    assert m.eigen.q == 2.5
    assert fam.model(2.5) is m  # cached


@pytest.mark.parametrize("call", [
    e.t_lambda, e.t_q, e.marginal_loglik, e.gcv_criterion, e.sigma2_hat,
    lambda m, x, lam: e.smoother_weights(m.eigen, lam),
    lambda m, x, lam: e.radius(m, lam, e.RadiusSpec()),
], ids=["t_lambda", "t_q", "marginal_loglik", "gcv_criterion", "sigma2_hat",
        "smoother_weights", "radius"])
def test_nan_lambda_rejected_naming_the_value(call):
    m = _model(64, 2.0)
    x = m.basis.forward(np.cos(3 * np.pi * m.grid.x))
    with pytest.raises(EbsplinesError, match="got nan"):
        call(m, x, math.nan)


@pytest.mark.parametrize("call", [e.t_lambda, e.t_q, e.gcv_criterion, e.marginal_loglik],
                         ids=["t_lambda", "t_q", "gcv_criterion", "marginal_loglik"])
def test_inf_lambda_rejected_by_the_row_kernel_criteria(call):
    # at u = inf the kernels' r = u/(1+u) is nan, which must not come back;
    # the marginal likelihood forms the same ratio
    m = _model(64, 2.0)
    x = m.basis.forward(np.cos(3 * np.pi * m.grid.x))
    with pytest.raises(EbsplinesError, match="got inf"):
        call(m, x, math.inf)
