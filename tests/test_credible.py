import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import f as f_dist

import ebsplines as e
from ebsplines.errors import EbsplinesError

# Draws per block of the Monte Carlo distance law: bounds its memory at
# _MC_BLOCK * n floats instead of mc_draws * n.
_MC_BLOCK = 500


def _mc_distances(model, lam, spec):
    """``spec.mc_draws`` seeded draws of the posterior distance law
    (1/N) sum_i w_i eps_i^2, eps ~ N(0, I_n), N ~ chi^2_n: the independent
    check of the exact ``radius``.

    The normals are drawn row by row in blocks and the chi-squares after all
    of them, so the draws are those of one (mc_draws x n) bank from
    ``default_rng(spec.seed)``.
    """
    w = e.smoother_weights(model.eigen, lam)
    n = model.n
    rng = np.random.default_rng(spec.seed)
    num = np.empty(spec.mc_draws)
    for start in range(0, spec.mc_draws, _MC_BLOCK):
        z = rng.standard_normal((min(_MC_BLOCK, spec.mc_draws - start), n))
        num[start:start + len(z)] = (z * z) @ w
    return num / rng.chisquare(n, size=spec.mc_draws)


def _mc_radius(model, lam, spec):
    """Monte Carlo r_n(lam, q): square root of the empirical (1-alpha)
    quantile of ``_mc_distances``.  Deterministic given (n, lam, q, spec)."""
    return math.sqrt(float(np.quantile(_mc_distances(model, lam, spec),
                                       1.0 - spec.alpha)))


def _fit_smooth(n=64, sigma=0.05, seed=0):
    g = e.design_grid(n)
    f = np.cos(np.pi * g.x)
    y = f + sigma * np.random.default_rng(seed).standard_normal(n)
    return f, e.fit(e.ModelFamily(g), y)


class TestRadius:
    def test_deterministic_given_spec(self):
        m = e.spectral_model(e.design_grid(128), 2.0)
        spec = e.RadiusSpec(mc_draws=2000, seed=4)
        assert e.radius(m, 1e-4, spec) == e.radius(m, 1e-4, spec)

    def test_monotone_decreasing_in_lambda(self):
        m = e.spectral_model(e.design_grid(128), 2.0)
        spec = e.RadiusSpec(mc_draws=2000, seed=4)
        rr = [e.radius(m, lam, spec) for lam in np.logspace(-8, 0, 9)]
        assert np.all(np.diff(rr) < 0)

    def test_heavy_smoothing_limit_matches_independent_oracle(self):
        # only null-space weights survive: the statistic becomes
        # chi2_q / chi2_n; oracle sampled with an unrelated stream
        n, q = 400, 2
        m = e.spectral_model(e.design_grid(n), float(q))
        r = e.radius(m, 1e18, e.RadiusSpec(mc_draws=20000, seed=7))
        rng = np.random.default_rng(991)
        oracle = np.quantile(rng.chisquare(q, 200000) / rng.chisquare(n, 200000), 0.95)
        assert r * r == pytest.approx(oracle, rel=0.05)

    def test_asymptotic_law_in_the_deep_smoothing_regime(self):
        # r_n^2 ~ kappa_q(0,1) lam^(-1/(2q)) / n once the effective dimension
        # lam^(-1/(2q)) is large (the quantile-vs-mean gap is o(1) there)
        n, lam = 2000, 1e-12
        m = e.spectral_model(e.design_grid(n), 2.0)
        r = e.radius(m, lam, e.RadiusSpec(mc_draws=10000, seed=3))
        approx = e.kappa(2.0, 0, 1) * lam ** -0.25 / n
        assert r * r == pytest.approx(approx, rel=0.15)

    def test_small_draw_count_rejected(self):
        with pytest.raises(EbsplinesError):
            e.RadiusSpec(mc_draws=10)

    def test_no_null_space_at_infinite_lambda_gives_zero(self):
        # below order 1 every weight vanishes at lambda = inf, so s1 = 0
        m = e.spectral_model(e.design_grid(64), 0.75)
        assert e.radius(m, math.inf, e.RadiusSpec()) == 0.0


def _fitted_lambdas(n, seed=0):
    """Per-order lambda_hat of a fit to the noisy f1 signal."""
    g = e.design_grid(n)
    fam = e.ModelFamily(g)
    y = e.Generator(kind="f1-spectral").values(g) \
        + 0.01 * np.random.default_rng(seed).standard_normal(n)
    res = e.fit(fam, y)
    return fam, res, {d.q: d.lambda_hat for d in res.selection.per_q}


class TestExactRadius:
    @pytest.mark.parametrize("n", [500, 2000])
    def test_agrees_with_monte_carlo_oracle(self, n):
        # within 3 standard errors of the 10,000-draw Monte Carlo quantile;
        # the standard error comes from the order statistics s = sqrt(Np(1-p))
        # ranks either side of the quantile
        fam, _, lams = _fitted_lambdas(n)
        spec = e.RadiusSpec(mc_draws=10_000, seed=17)
        p = 1.0 - spec.alpha
        s = math.sqrt(spec.mc_draws * p * (1.0 - p))
        for q in (2.0, 3.0):
            m = fam.model(q)
            for lam in (lams[q], 1e-4):
                t = np.sort(_mc_distances(m, lam, spec))
                k = spec.mc_draws * p
                se = 0.5 * (t[math.ceil(k + s)] - t[math.floor(k - s)])
                r2_mc = float(np.quantile(t, p))  # _mc_radius(m, lam, spec) ** 2
                r2 = e.radius(m, lam, spec) ** 2
                assert abs(r2 - r2_mc) <= 3.0 * se, (q, lam, r2, r2_mc, se)

    def test_monte_carlo_oracle_is_the_quantile_of_its_draws(self):
        m = e.spectral_model(e.design_grid(128), 2.0)
        spec = e.RadiusSpec(mc_draws=2000, seed=4)
        r = _mc_radius(m, 1e-4, spec)
        assert r == _mc_radius(m, 1e-4, spec)
        assert r * r == float(np.quantile(_mc_distances(m, 1e-4, spec), 0.95))

    @pytest.mark.parametrize("n", [64, 500, 2000])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_null_space_limit_is_an_f_quantile(self, n, q):
        # lambda = inf keeps the q null-space weights: chi2_q / chi2_n
        m = e.spectral_model(e.design_grid(n), float(q))
        for alpha in (0.05, 0.5):
            exact = q / n * f_dist.ppf(1.0 - alpha, q, n)
            for lam in (math.inf, 1e18):
                r = e.radius(m, lam, e.RadiusSpec(alpha=alpha))
                assert r * r == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_monotone_in_lambda_and_alpha(self):
        m = e.spectral_model(e.design_grid(500), 2.0)
        rr = [e.radius(m, lam, e.RadiusSpec()) for lam in np.logspace(-12, 2, 15)]
        assert np.all(np.diff(rr) < 0)
        ra = [e.radius(m, 1e-6, e.RadiusSpec(alpha=a))
              for a in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9)]
        assert np.all(np.diff(ra) < 0)

    def test_independent_of_monte_carlo_settings(self):
        m = e.spectral_model(e.design_grid(300), 3.0)
        radii = {e.radius(m, 1e-7, e.RadiusSpec(mc_draws=d, seed=s))
                 for d, s in ((1000, 0), (10_000, 5), (50_000, 123))}
        assert len(radii) == 1

    def test_interpolation_limit_groups_equal_weights(self):
        # lambda = 0: all n weights are 1, the law is chi2_n / chi2_n
        n = 1000
        m = e.spectral_model(e.design_grid(n), 1.0)
        r = e.radius(m, 0.0, e.RadiusSpec())
        assert r * r == pytest.approx(f_dist.ppf(0.95, n, n), rel=1e-10)

    @pytest.mark.parametrize("ones", [1, 3, 10])
    def test_folded_small_weights_match_the_full_sum(self, ones, monkeypatch):
        # thousands of weights just under the fold threshold: the law with
        # them folded into power sums equals the law with every arctan and
        # log1p evaluated
        from ebsplines import credible
        n = 2000
        lo = 1.5 * (ones + 1.0) / n
        hi = 1.25 * lo
        u_max = math.sqrt(math.expm1(4.0 * credible._TAIL / n)) / lo
        w = np.concatenate([np.ones(ones),
                            np.full(n - ones, 0.99 * credible._FOLD / u_max)])
        folded = credible._DistanceLaw(w, n, lo, hi)
        monkeypatch.setattr(credible, "_FOLD", 0.0)
        full = credible._DistanceLaw(w, n, lo, hi)
        for r in np.linspace(lo, hi, 7):
            assert folded.cdf(r) == pytest.approx(full.cdf(r), abs=1e-12)

    def test_bracket_widens_upward_to_the_quantile(self, monkeypatch):
        # at n = 64, q = 1, lambda = 1 and alpha = 0.9 the +-25% start around
        # the Satterthwaite value lies below the quantile: the bracket moves
        # up twice, a law per bracket, and the radius still lands in the
        # 3-standard-error band of the 40,000-draw Monte Carlo order statistics
        from ebsplines import credible
        brackets = []
        law = credible._DistanceLaw
        monkeypatch.setattr(credible, "_DistanceLaw",
                            lambda w, n, lo, hi: brackets.append((lo, hi)) or law(w, n, lo, hi))
        m = e.spectral_model(e.design_grid(64), 1.0)
        spec = e.RadiusSpec(alpha=0.9, mc_draws=40_000, seed=3)
        r = e.radius(m, 1.0, spec)
        assert len(brackets) > 1
        assert all(b[0] == a[1] for a, b in zip(brackets, brackets[1:]))
        p = 1.0 - spec.alpha
        k, s = spec.mc_draws * p, math.sqrt(spec.mc_draws * p * (1.0 - p))
        t = np.sort(_mc_distances(m, 1.0, spec))
        assert t[math.floor(k - 3.0 * s)] <= r * r <= t[math.ceil(k + 3.0 * s)]

    @staticmethod
    def _fitted_law(kind, n):
        """The law that brackets the radius at a fitted lambda_hat, with its
        weights and the r range it serves."""
        from ebsplines import credible
        g = e.design_grid(n)
        y = e.Generator(kind=kind).values(g) \
            + 0.01 * np.random.default_rng(1).standard_normal(n)
        res = e.fit(e.ModelFamily(g), y)
        w = e.smoother_weights(res.model.eigen, res.lambda_hat)
        r = e.radius(res.model, res.lambda_hat, e.RadiusSpec()) ** 2
        lo, hi = r / 1.25, r * 1.25
        return credible._DistanceLaw(w, n, lo, hi), w, lo, hi

    @pytest.mark.parametrize("n", [500, 2000])
    @pytest.mark.parametrize("kind", ["f1-spectral", "f2-cosine"])
    def test_cdf_matches_the_unfolded_imhof_sum(self, kind, n):
        # Imhof's trapezoid sum written out: every weight, no fold, and every
        # node u_k = k h up to the point where the chi^2_n factor alone
        # pushes the modulus past e^36
        from ebsplines import credible
        law, w, lo, hi = self._fitted_law(kind, n)
        u_max = math.sqrt(math.expm1(4.0 * credible._TAIL / n)) / lo
        u = law.h * np.arange(1, int(u_max / law.h) + 1)
        th_w = np.array([0.5 * np.sum(np.arctan(w * t)) for t in u])
        log_rho_w = np.array([0.25 * np.sum(np.log1p((w * t) ** 2)) for t in u])
        for r in np.linspace(lo, hi, 7):
            th = th_w - 0.5 * n * np.arctan(r * u)
            log_rho = log_rho_w + 0.25 * n * np.log1p((r * u) ** 2)
            tail = np.sum(np.sin(th) * np.exp(-log_rho) / u)
            p = 0.5 - law.h / math.pi * (0.25 * (np.sum(w) - n * r) + tail)
            assert law.cdf(r) == pytest.approx(p, abs=1e-13), (r, law.cdf(r), p)

    @pytest.mark.parametrize("n", [1000, 2000, 16_000])
    @pytest.mark.parametrize("kind", ["f1-spectral", "f2-cosine"])
    def test_nodes_end_at_the_truncation_point(self, kind, n):
        # the last node is the first that meets the stop rule, or the last
        # one with u <= u_max; no node past it is kept
        from ebsplines import credible
        law, _, lo, _ = self._fitted_law(kind, n)
        u_max = math.sqrt(math.expm1(4.0 * credible._TAIL / n)) / lo
        stop = law.log_mod + 0.25 * n * np.log1p((lo * law.u) ** 2) >= credible._TAIL
        assert len(law.u) == len(law.phase) == len(law.log_mod)
        assert not stop[:-1].any()
        assert law.u[-1] <= u_max
        assert stop[-1] or law.u[-1] + law.h > u_max

    @pytest.mark.parametrize("case", ["f1-fitted", "f2-fitted", "q1-interpolation"])
    def test_memory_is_linear_at_64k(self, case):
        n = 64_000
        g = e.design_grid(n)
        if case == "q1-interpolation":
            m, lam = e.spectral_model(g, 1.0), 1e-12  # every weight near 1
        else:
            fam = e.ModelFamily(g)
            kind = "f1-spectral" if case == "f1-fitted" else "f2-cosine"
            y = e.Generator(kind=kind).values(g) \
                + 0.01 * np.random.default_rng(5).standard_normal(n)
            res = e.fit(fam, y)
            m, lam = res.model, res.lambda_hat
        tracemalloc.start()
        try:
            r = e.radius(m, lam, e.RadiusSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r > 0
        assert peak < 50e6


class TestCredibleBall:
    def test_contains_center(self):
        _, res = _fit_smooth()
        ball = e.credible_ball(res, spec=e.RadiusSpec(mc_draws=2000, seed=1))
        assert ball.contains(ball.center)
        assert ball.radius > 0

    def test_doubling_L_doubles_radius(self):
        _, res = _fit_smooth()
        spec = e.RadiusSpec(mc_draws=2000, seed=1)
        b1 = e.credible_ball(res, L=1.0, spec=spec)
        b2 = e.credible_ball(res, L=2.0, spec=spec)
        assert b2.radius == pytest.approx(2.0 * b1.radius, rel=1e-12)
        assert np.all(b1.center == b2.center)

    def test_L_below_one_rejected(self):
        _, res = _fit_smooth()
        with pytest.raises(EbsplinesError):
            e.credible_ball(res, L=0.5)

    def test_nan_L_rejected(self):
        # a nan radius would leave the ball without its own center
        _, res = _fit_smooth()
        with pytest.raises(EbsplinesError, match="L >= 1"):
            e.credible_ball(res, L=math.nan)

    def test_inf_L_rejected(self):
        # an infinite radius has no JSON form
        _, res = _fit_smooth()
        with pytest.raises(EbsplinesError, match="L < inf, got inf"):
            e.credible_ball(res, L=math.inf)


class TestSamplePosterior:
    def test_zero_variance_collapses_to_center(self):
        n = 32
        fam = e.ModelFamily(e.design_grid(n))
        y = np.random.default_rng(0).standard_normal(n)
        res = dataclasses.replace(e.fit(fam, y), sigma2_hat=0.0)
        curves = e.sample_posterior(res, 50, seed=3)
        assert np.abs(curves - res.fitted).max() == 0.0

    def test_no_draws_rejected(self):
        _, res = _fit_smooth()
        with pytest.raises(EbsplinesError, match="need draws >= 1, got 0"):
            e.sample_posterior(res, 0)

    def test_sample_mean_matches_center(self):
        _, res = _fit_smooth()
        curves = e.sample_posterior(res, 10_000, seed=11)
        se = curves.std(axis=0) / math.sqrt(10_000)
        assert np.all(np.abs(curves.mean(axis=0) - res.fitted) <= 3.0 * se + 1e-12)

    def test_posterior_mass_of_ball_matches_level(self):
        _, res = _fit_smooth()
        spec = e.RadiusSpec(mc_draws=10_000, seed=5)
        ball = e.credible_ball(res, L=1.0, spec=spec)
        curves = e.sample_posterior(res, 10_000, seed=12)
        inside = np.mean([e.rms_norm(c - res.fitted) <= ball.radius for c in curves])
        assert inside == pytest.approx(0.95, abs=0.02)

    def test_posterior_mass_at_least_level_for_larger_L(self):
        _, res = _fit_smooth()
        spec = e.RadiusSpec(mc_draws=5_000, seed=5)
        curves = e.sample_posterior(res, 5_000, seed=13)
        for L in (1.0, 1.5, 2.0):
            ball = e.credible_ball(res, L=L, spec=spec)
            inside = np.mean([e.rms_norm(c - res.fitted) <= ball.radius for c in curves])
            assert inside >= 0.95 - 0.02


class TestCoverageExperiment:
    def test_replay_is_deterministic(self):
        gen = e.Generator(kind="f2-cosine")
        kw = dict(n=64, replicates=10, L=2.0,
                  spec=e.RadiusSpec(mc_draws=1000, seed=2), sigma=0.05, seed=9)
        r1 = e.coverage_experiment(gen, **kw)
        r2 = e.coverage_experiment(gen, **kw)
        assert r1.to_dict() == r2.to_dict()

    def test_smooth_signal_is_covered(self):
        gen = e.Generator(kind="f2-cosine")
        rep = e.coverage_experiment(gen, n=128, replicates=50, L=2.0,
                                    spec=e.RadiusSpec(mc_draws=4000, seed=2),
                                    sigma=0.05, seed=31)
        assert rep.coverage >= 0.9
        assert sum(rep.q_hat_counts.values()) == 50

    def test_accepts_raw_values(self):
        g = e.design_grid(64)
        f = np.sin(np.pi * g.x)
        rep = e.coverage_experiment(f, n=64, replicates=5,
                                    spec=e.RadiusSpec(mc_draws=1000, seed=2),
                                    sigma=0.05, seed=1)
        assert rep.generator == "custom-values"
        assert 0.0 <= rep.coverage <= 1.0

    def test_no_replicates_rejected(self):
        with pytest.raises(EbsplinesError, match="need at least one replicate"):
            e.coverage_experiment(e.Generator(kind="f2-cosine"), n=64, replicates=0)

    def test_truth_of_the_wrong_length_rejected(self):
        with pytest.raises(EbsplinesError, match="true function length does not match n"):
            e.coverage_experiment(np.zeros(63), n=64, replicates=3)

    def test_report_schema(self):
        g = e.design_grid(64)
        rep = e.coverage_experiment(np.sin(np.pi * g.x), n=64, replicates=3,
                                    spec=e.RadiusSpec(mc_draws=1000, seed=2),
                                    sigma=0.05, seed=1)
        d = rep.to_dict()
        for key in ("schema_version", "generator", "n", "replicates", "L",
                    "alpha", "coverage", "radius_quantiles"):
            assert key in d
        assert d["schema_version"] == 1
