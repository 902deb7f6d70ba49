import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import gammaln

import ebsplines as e
from ebsplines.errors import EbsplinesError


class TestKappa:
    def test_closed_forms(self):
        # reflection-formula identities at half-integer Gamma arguments
        assert e.kappa(1.0, 0, 1) == pytest.approx(0.5, abs=1e-12)
        assert e.kappa(1.0, 0, 2) == pytest.approx(0.25, abs=1e-12)
        assert e.kappa(2.0, 0, 1) == pytest.approx(0.35355339, abs=1e-8)

    @pytest.mark.parametrize("q", [0.75, 1.0, 1.5, 2.0, 3.0, 6.0])
    def test_reflection_identity(self, q):
        # kappa_q(0,1) = 1 / (2 q sin(pi/(2q))) via Gamma(x) Gamma(1-x)
        assert e.kappa(q, 0, 1) == pytest.approx(
            1.0 / (2.0 * q * math.sin(math.pi / (2.0 * q))), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(EbsplinesError):
            e.kappa(1.0, 0, 0)
        with pytest.raises(EbsplinesError):
            e.kappa(1.0, -1, 2)
        with pytest.raises(EbsplinesError):
            e.kappa(0.4, 0, 1)
        with pytest.raises(EbsplinesError):
            e.kappa(math.inf, 0, 1)

    @pytest.mark.parametrize("q", [5e307, 1e308, 1.79e308])
    def test_orders_near_the_top_of_the_float_range(self, q):
        # kappa_q(0, 1) -> 1/pi as q grows, and kappa_q(m, l) -> Gamma(m) Gamma(l) /
        # (2 pi q Gamma(l + m)) for m >= 1, a subnormal here: exp(lg) and 2 pi q
        # leave the float range, their ratio does not
        assert e.kappa(q, 0, 1) == pytest.approx(1.0 / math.pi, abs=1e-12)
        assert e.kappa(q, 2, 2) == pytest.approx(1.0 / (12.0 * math.pi * q), rel=1e-9)

    def test_keeps_its_bits_below_the_top_of_the_float_range(self):
        # below q = 2.86e307, 2 pi q is finite and kappa is exp(lg) / (2 pi q) as ever
        for q in (2.0, 2e307, 2.86e307):
            h = 1.0 / (2.0 * q)
            lg = gammaln(h) + gammaln(1.0 - h) - gammaln(1.0)
            assert e.kappa(q, 0, 1) == math.exp(lg) / (2.0 * math.pi * q)


class TestTraceApproximation:
    @pytest.mark.parametrize("q,lam", [(1.0, 1e-4), (2.0, 1e-6), (3.0, 1e-8)])
    @pytest.mark.parametrize("m,l", [(1, 2), (2, 2)])
    def test_positive_power_pairs_are_sharp(self, q, lam, m, l):
        # for m >= 1 the summand vanishes at the origin and the Riemann sum
        # matches the Gamma-constant integral almost exactly
        tc = e.trace_approx_check(q, lam, 10 ** 5, m, l)
        assert abs(tc.rel_err) < 0.02

    def test_pure_smoother_traces_converge_deep(self):
        # m = 0 pairs carry the null space plus a half-spacing offset of
        # relative size ~ (q - 1/2) / (lam^(-1/(2q)) kappa); they need much
        # smaller lambda to reach 2%
        errs = [abs(e.trace_approx_check(2.0, lam, 10 ** 5, 0, 1).rel_err)
                for lam in (1e-6, 1e-9, 1e-12)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.02

    def test_known_offset_at_moderate_lambda(self):
        # frozen measured value: + (q - 1/2) / (lam^(-1/4) kappa_2(0,1)) at
        # q = 2, lam = 1e-6 puts the error near +13%
        tc = e.trace_approx_check(2.0, 1e-6, 10 ** 5, 0, 1)
        assert tc.rel_err == pytest.approx(0.134, abs=0.01)

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_lambda_outside_the_unit_interval_rejected(self, lam):
        with pytest.raises(EbsplinesError, match=f"need 0 < lambda <= 1, got {lam}"):
            e.trace_approx_check(2.0, lam, 1000, 0, 1)

    def test_a_negative_power_is_refused_before_the_terms(self):
        # kappa's check comes first: the terms u^m would divide by the null
        # space's zeros (a RuntimeWarning, an error under the test settings)
        with pytest.raises(EbsplinesError, match="need m >= 0, got m = -1"):
            e.trace_approx_check(2.0, 1e-6, 1000, -1, 2)

    def test_exact_sum_monotone_in_lambda_for_m0(self):
        vals = [e.trace_approx_check(1.0, lam, 2000, 0, 1).exact_sum
                for lam in np.logspace(-6, 0, 10)]
        assert np.all(np.diff(vals) < 0)
        # approximation degrades toward lambda = 1
        errs = [abs(e.trace_approx_check(1.0, lam, 2000, 0, 1).rel_err)
                for lam in (1e-5, 1e-2, 1.0)]
        assert errs[0] < errs[1] < errs[2]


class TestExpectedEquations:
    def test_noise_only_matches_the_data_mean(self):
        # pure noise: E T_lam is negative at small lambda and +1.1e-8 at
        # lambda = 1, inside the spread of the data T_lam there (Monte Carlo
        # mean +6.4e-8, standard error 4.8e-7); a mean of M draws of an
        # equation linear in X^2 has standard error sd / sqrt(M)
        m = e.ModelFamily(e.design_grid(500)).model(2.0)
        spec = e.SignalSpectrum(B=np.zeros(500))
        x = m.basis.forward(np.random.default_rng(3).standard_normal((200, 500)))
        for lam in (1e-6, 1e-3, 1.0):
            t = np.array([e.t_lambda(m, xk, lam) for xk in x])
            expected = e.expected_t_lambda(spec, 1.0, lam, 2.0)
            assert abs(t.mean() - expected) <= 4 * t.std(ddof=1) / math.sqrt(len(t))
            if lam < 1:
                assert expected < 0

    def test_signal_only_is_positive(self):
        B = np.zeros(500)
        B[5:] = 1.0 / np.arange(6, 501) ** 2
        spec = e.SignalSpectrum(B=B)
        for lam in (1e-6, 1e-3, 1.0):
            assert e.expected_t_lambda(spec, 0.0, lam, 2.0) > 0

    def test_sign_structure_in_signal_and_noise(self, f1_spectrum):
        lam = 1e-10
        base = e.expected_t_lambda(f1_spectrum, 1e-4, lam, 3.0)
        stronger = e.SignalSpectrum(B=2.0 * f1_spectrum.B)
        assert e.expected_t_lambda(stronger, 1e-4, lam, 3.0) > base
        assert e.expected_t_lambda(f1_spectrum, 4e-4, lam, 3.0) < base

    def test_null_space_signal_with_zero_noise_vanishes(self):
        B = np.zeros(200)
        B[:2] = 3.0  # polynomial content only
        spec = e.SignalSpectrum(B=B)
        for lam in (1e-8, 1e-3, 0.5):
            assert e.expected_t_q(spec, 0.0, lam, 2.0) == 0.0

    def test_oracle_root_zeroes_the_expected_equation(self, f1_spectrum, family1000):
        # the numeric root is the selector's solve on E X^2, so it stops where
        # |E T_lam| is within the solve's default tolerance (1e-3/n) mean E X^2
        s2 = 1e-4
        for q in (1.0, 2.0, 3.0, 4.0):
            lam = e.oracle_lambda(f1_spectrum, s2, q, "numeric-root").lambda_q
            d = family1000.model(q).null_dim
            tol = 1e-3 / f1_spectrum.n * float(np.mean(f1_spectrum.B[d:] ** 2 + s2))
            assert abs(e.expected_t_lambda(f1_spectrum, s2, lam, q)) <= tol

    def test_sign_changes_between_orders_2_and_3(self, f1_spectrum):
        # E T_q at the oracle root is -7.88e-5, -1.14e-5, +6.64e-6, +1.73e-5
        # at q = 1..4, the signs of the data T_q means there (-7.84e-5,
        # -1.20e-5, +6.71e-6, +1.75e-5; M = 200): f1's low coefficients look
        # rougher than order 3 (README, c01), so the crossing is below 3
        signs = [e.expected_t_q(f1_spectrum, 1e-4, e.oracle_lambda(
            f1_spectrum, 1e-4, q, "numeric-root").lambda_q, q) > 0
            for q in (1.0, 2.0, 3.0, 4.0)]
        assert signs == [False, False, True, True]

    def test_matches_the_monte_carlo_mean_of_the_data_equations(
            self, family1000, f1_values, f1_spectrum):
        # T_lam and T_q are linear in X^2 at fixed lambda, so E T is the
        # kernel at E X^2 exactly, and the mean of M = 200 data values is
        # within 4 standard errors sd / sqrt(M) of it (8 checks: a false
        # failure has probability about 5e-4; measured |z| <= 1.03); the
        # known-sigma^2 E T_q of earlier versions was off by z = 27 at q = 3
        M, sigma = 200, 0.01
        rng = np.random.default_rng(11)
        x = family1000.basis.forward(f1_values + sigma * rng.standard_normal((M, 1000)))
        for q, lam in ((1.0, 8.5e-7), (2.0, 6.3e-10), (3.0, 1.9e-13), (4.0, 4.5e-17)):
            m = family1000.model(q)
            for data, expected in ((e.t_lambda, e.expected_t_lambda),
                                   (e.t_q, e.expected_t_q)):
                t = np.array([data(m, xk, lam) for xk in x])
                se = t.std(ddof=1) / math.sqrt(M)
                assert abs(t.mean() - expected(f1_spectrum, sigma ** 2, lam, q)) <= 4 * se

    @pytest.mark.parametrize("fn", [e.expected_t_lambda, e.expected_t_q],
                             ids=["t_lambda", "t_q"])
    @pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf])
    def test_sigma2_must_be_finite_and_non_negative(self, f1_spectrum, fn, sigma2):
        with pytest.raises(EbsplinesError, match=f"need 0 <= sigma2 < inf, got {sigma2}"):
            fn(f1_spectrum, sigma2, 1e-10, 3.0)

    @pytest.mark.parametrize("fn", [e.expected_t_lambda, e.expected_t_q],
                             ids=["t_lambda", "t_q"])
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lambda_must_be_positive_and_finite(self, f1_spectrum, fn, lam):
        with pytest.raises(EbsplinesError, match=f"need 0 < lambda < inf, got {lam}"):
            fn(f1_spectrum, 1e-4, lam, 3.0)


class TestOracleLambda:
    def test_polynomial_signal_gives_infinity(self):
        B = np.zeros(100)
        B[0] = 4.0
        spec = e.SignalSpectrum(B=B)
        assert math.isinf(e.oracle_lambda(spec, 1.0, 1.0, "closed-form").lambda_q)
        assert math.isinf(e.oracle_lambda(spec, 1.0, 1.0, "numeric-root").lambda_q)

    @pytest.mark.parametrize("n, finite", [(128, False), (300, False), (400, True)])
    def test_first_order_root_needs_an_interior_dip(self, n, finite):
        # as lambda -> 0, T_lam -> (d/n^2) sum X^2 u > 0 (see ``selection``), so
        # a root needs a dip below zero; at q = 1 and sigma = 0.01 the f1 signal
        # gives E T_lam none for n <= 300 (the sentinel) and a root of 6.61e-7
        # at n = 400
        fam = e.ModelFamily(e.design_grid(n))
        spec = e.SignalSpectrum(B=fam.basis.forward(
            e.Generator(kind="f1-spectral").values(fam.grid)))
        lam = e.oracle_lambda(spec, 1e-4, 1.0, "numeric-root").lambda_q
        assert math.isfinite(lam) == finite

    def test_noise_scaling_of_closed_form(self, f1_spectrum):
        q = 3.0
        l1 = e.oracle_lambda(f1_spectrum, 1e-4, q).lambda_q
        l2 = e.oracle_lambda(f1_spectrum, 2e-4, q).lambda_q
        assert l2 / l1 == pytest.approx(2.0 ** (2 * q / (2 * q + 1)), rel=1e-10)

    def test_numeric_root_bit_identical_under_rescaling(self):
        # B -> c B with sigma^2 -> c^2 sigma^2 rescales E T_lam; the bisection
        # follows only its sign: 6 orders x 3 scales x 8 spectra
        mismatches = []
        for n in (200, 1000):
            fam = e.ModelFamily(e.design_grid(n))
            for kind in ("f1-spectral", "f2-cosine"):
                f = e.Generator(kind=kind).values(fam.grid)
                for q in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
                    B = fam.model(q).basis.forward(f)
                    for s2 in (1e-4, 1e-2):
                        ref = e.oracle_lambda(e.SignalSpectrum(B=B), s2, q,
                                              "numeric-root").lambda_q
                        for c in (3.0, 1e-3, 2.0 ** -40):
                            lam = e.oracle_lambda(e.SignalSpectrum(B=c * B), c * c * s2,
                                                  q, "numeric-root").lambda_q
                            if lam != ref:
                                mismatches.append((n, kind, q, s2, c))
        assert mismatches == []

    @staticmethod
    def _f1_at_scales(method):
        # B 2^k with sigma^2 4^k, f1 at n = 400, q = 3
        fam = e.ModelFamily(e.design_grid(400))
        B = fam.model(3.0).basis.forward(e.Generator(kind="f1-spectral").values(fam.grid))
        return [e.oracle_lambda(e.SignalSpectrum(B=np.ldexp(B, k)), math.ldexp(1e-4, 2 * k),
                                3.0, method) for k in (0, 400, 500, 510, -500)]

    def test_numeric_root_at_the_ends_of_the_float_range(self):
        # on the raw E X^2 = B^2 + sigma^2 the squares overflowed at 2^510
        # (the infinity sentinel) and lost digits at 2^-500 (1.5399e-12); the
        # raw derivative energy overflowed at 2^500 with a RuntimeWarning
        lams = [r.lambda_q for r in self._f1_at_scales("numeric-root")]
        assert lams == [lams[0]] * 5 and lams[0] == pytest.approx(5.8033e-13, rel=1e-4)

    def test_closed_form_at_the_ends_of_the_float_range(self):
        # on the raw squares the derivative energy overflowed at 2^500 and
        # 2^510 (lambda 0.0) and the last digit moved at 2^-500; the energy
        # is reported scaled back by 4^k, inf past the float range
        res = self._f1_at_scales("closed-form")
        lams = [r.lambda_q for r in res]
        assert lams == [lams[0]] * 5 and lams[0] == pytest.approx(2.7924e-14, rel=1e-4)
        energy = res[0].derivative_energy
        assert [r.derivative_energy for r in res] == [
            energy, math.ldexp(energy, 800), math.inf, math.inf, math.ldexp(energy, -1000)]

    def test_public_energy_equals_the_oracles_at_the_ends_of_the_float_range(self):
        # ``SignalSpectrum.derivative_energy`` forms the energy on B / 2^k as
        # the oracle does; on the raw squares it went subnormal at 2^-530
        # (2.717e-312 against 3.655e-311) and overflowed at 2^500 with a
        # RuntimeWarning
        fam = e.ModelFamily(e.design_grid(400))
        B = fam.model(3.0).basis.forward(e.Generator(kind="f1-spectral").values(fam.grid))
        for k in (-530, 0, 500):
            spec = e.SignalSpectrum(B=np.ldexp(B, k))
            want = e.oracle_lambda(spec, math.ldexp(1e-4, 2 * k), 3.0).derivative_energy
            assert spec.derivative_energy(3.0).hex() == want.hex()

    def test_negligible_noise_gives_a_vanishing_closed_form(self, f1_spectrum):
        # sigma^2 / 4^k underflows next to B = 1e10 B_f1: n energy / sigma^2
        # is past the float range and lambda its limit 0 (at 5e-324 the
        # closed form divided by zero on the raw sigma^2 too)
        spec = e.SignalSpectrum(B=1e10 * f1_spectrum.B)
        for s2 in (1e-300, 1e-310, 5e-324):
            assert e.oracle_lambda(spec, s2, 3.0, "closed-form").lambda_q == 0.0

    def test_closed_form_vs_numeric_root_on_log_scale(self, f1_spectrum):
        lc = e.oracle_lambda(f1_spectrum, 1e-4, 3.0, "closed-form").lambda_q
        ln = e.oracle_lambda(f1_spectrum, 1e-4, 3.0, "numeric-root").lambda_q
        assert abs(math.log(lc) / math.log(ln) - 1.0) <= 0.15

    @pytest.mark.parametrize("method", ["closed-form", "numeric-root"])
    @pytest.mark.parametrize("sigma2", [-1e-4, math.nan, math.inf])
    def test_sigma2_must_be_finite_and_non_negative(self, f1_spectrum, method, sigma2):
        with pytest.raises(EbsplinesError, match=f"need 0 <= sigma2 < inf, got {sigma2}"):
            e.oracle_lambda(f1_spectrum, sigma2, 3.0, method)

    def test_zero_sigma2(self, f1_spectrum):
        # the closed form would divide by it; E T_lam > 0 leaves the root's sentinel
        with pytest.raises(EbsplinesError, match="need sigma2 > 0 for the closed form"):
            e.oracle_lambda(f1_spectrum, 0.0, 3.0, "closed-form")
        assert math.isinf(e.oracle_lambda(f1_spectrum, 0.0, 3.0, "numeric-root").lambda_q)

    def test_unknown_method(self, f1_spectrum):
        with pytest.raises(EbsplinesError):
            e.oracle_lambda(f1_spectrum, 1e-4, 3.0, "guess")


class TestPolishedTail:
    def test_truncated_sequence_holds(self):
        B = np.zeros(256)
        B[:8] = np.random.default_rng(0).standard_normal(8)
        res = e.polished_tail_check(B, L=2.0, N=10)
        assert res.holds and res.worst_ratio == 0.0

    def test_square_decay_holds(self):
        B = np.arange(1, 1025.0) ** -2.0
        res = e.polished_tail_check(B, L=2.0, N=10)
        assert res.holds
        # geometric tail mass dominated by the first dyadic block:
        # ratio -> 1/(1 - 2^-3) ~ 1.14
        assert res.worst_ratio == pytest.approx(1.14, abs=0.05)

    def test_terminal_spike_fails_for_any_L(self):
        B = np.zeros(1024)
        B[-1] = 1.0
        res = e.polished_tail_check(B, L=1e12, N=10)
        assert not res.holds
        assert math.isinf(res.worst_ratio)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1e-6, 1e6), st.integers(0, 2 ** 31 - 1))
    def test_scale_invariance(self, c, seed):
        B = np.random.default_rng(seed).standard_normal(128)
        r1 = e.polished_tail_check(B, L=2.0, N=5)
        r2 = e.polished_tail_check(c * B, L=2.0, N=5)
        assert r1.holds == r2.holds and r1.worst_j == r2.worst_j
        assert r1.worst_ratio == pytest.approx(r2.worst_ratio, rel=1e-9)

    def test_scale_invariance_at_the_ends_of_the_float_range(self):
        # on the raw squares B 2^520 overflowed (an error) and B 2^-560
        # underflowed (every mass 0: holds, ratio 0)
        B = np.random.default_rng(0).standard_normal(256)
        res = [e.polished_tail_check(np.ldexp(B, k), L=2.0, N=5) for k in (0, 520, -520, -560)]
        assert res == [res[0]] * 4
        assert (res[0].holds, res[0].worst_j) == (False, 5)
        assert res[0].worst_ratio == pytest.approx(51.18, abs=0.01)

    def test_N_validation(self):
        # j runs over N..n/2 and indexes suffix sums from 1; N is an integer
        for N in (60, 33, 0, -5, 2.5, 10.0, True, None):
            with pytest.raises(EbsplinesError, match="1 <= N <= n/2"):
                e.polished_tail_check(np.ones(64), N=N)
        B = np.ones(64)
        assert e.polished_tail_check(B, N=np.int64(10)) == e.polished_tail_check(B, N=10)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0, -1.0, 0.999])
    def test_L_must_be_finite_and_at_least_1(self, L):
        # a tail over its block is >= 1, so L < 1 never holds, and a nan or
        # infinite L would always hold
        with pytest.raises(EbsplinesError, match="need a finite L >= 1"):
            e.polished_tail_check(np.ones(64), L=L)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_squares_rejected(self, bad):
        # a nan or inf mass would otherwise pass as a tail that holds
        B = np.ones(64)
        B[40] = bad
        with pytest.raises(EbsplinesError, match="finite squares"):
            e.polished_tail_check(B)

    def test_N_at_the_ends_of_its_range(self):
        B = np.ones(64)
        for N in (1, 32):
            res = e.polished_tail_check(B, L=2.0, N=N)
            assert type(res.worst_ratio) is float and type(res.worst_j) is int
        # j = n/2: the tail from 32 is 33 ones, its block [32, 64] as many
        res = e.polished_tail_check(B, N=32)
        assert (res.holds, res.worst_j, res.worst_ratio) == (True, 32, 1.0)

    def test_matches_the_defining_inequality_per_j(self):
        # the worst j and its ratio, from the inequality at each j
        rng = np.random.default_rng(5)
        for n, N in ((64, 1), (101, 7), (256, 10)):
            B = rng.standard_normal(n) * rng.integers(0, 2, n) * np.arange(1, n + 1.0) ** -1.5
            b2, ratios = B ** 2, []
            for j in range(N, n // 2 + 1):
                tail, block = b2[j - 1:].sum(), b2[j - 1:min(2 * j, n)].sum()
                ratios.append(0.0 if tail == 0 else math.inf if block == 0 else tail / block)
            res = e.polished_tail_check(B, L=2.0, N=N)
            assert res.worst_ratio == pytest.approx(max(ratios), rel=1e-12)
            assert ratios[res.worst_j - N] == pytest.approx(max(ratios), rel=1e-12)
            assert res.holds == (max(ratios) <= 2.0)


class TestSelectorVariances:
    def test_exact_rational_values_at_first_order(self):
        # hand evaluation with half-integer Gamma values gives eb = 4/9 and
        # gcv = 28/25 at q = 1
        v = e.asymptotic_variances(1.0)
        assert v.eb == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert v.gcv == pytest.approx(28.0 / 25.0, rel=1e-12)
        assert v.ratio == pytest.approx(63.0 / 25.0, rel=1e-12)

    def test_gcv_variance_dominates(self):
        assert e.asymptotic_variances(2.0).ratio > 1.0

    @pytest.mark.parametrize("q", [1.0, 3.0])
    def test_finite_positive(self, q):
        v = e.asymptotic_variances(q)
        assert v.eb > 0 and v.gcv > 0 and math.isfinite(v.ratio)

    def test_smooth_in_q(self):
        qs = np.linspace(1.0, 6.0, 21)
        ratios = np.array([e.asymptotic_variances(q).ratio for q in qs])
        assert np.all(np.diff(ratios) > 0)  # monotone over this range
        assert np.all(np.abs(np.diff(np.log(ratios))) < 0.5)


def test_signal_spectrum_energy(f1_spectrum):
    # smooth-order energy is finite and the generator's nominal-order energy
    # reflects the i^-3 coefficient decay
    e2 = f1_spectrum.derivative_energy(2.0)
    assert math.isfinite(e2) and e2 > 0
