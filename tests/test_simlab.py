import collections
import dataclasses
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import ebsplines as e
from ebsplines import credible, simlab
from ebsplines.errors import EbsplinesError
from ebsplines.selection import _smooth
from ebsplines.simlab import _compare_kwargs

F1 = e.Generator(kind="f1-spectral")


class TestGenerators:
    def test_f2_exact_zero_before_scaling(self):
        # cos(5 pi x) vanishes at x = 0.1, which is a grid point of the
        # right-endpoint design with n = 10
        gen = e.Generator(kind="f2-cosine", scale_by_range=False)
        v = gen.values(e.design_grid(10, "right"))
        assert abs(v[0]) < 1e-12

    def test_range_scaling_spans_one(self):
        for kind in ("f1-spectral", "f2-cosine"):
            v = e.Generator(kind=kind).values(e.design_grid(400))
            assert v.max() - v.min() == pytest.approx(1.0, rel=1e-12)

    def test_constant_data_raise_degenerate(self):
        # no coefficient beyond the constant, so the marginal likelihood is
        # undefined and fit refuses the data
        g = e.design_grid(256)
        with pytest.raises(e.DegenerateDataError):
            e.fit(e.ModelFamily(g), np.ones(256))

    def test_f1_energy_stable_within_its_smoothness_class(self):
        # at order 2 the spectral energy of the signal converges with n
        es = []
        for n in (500, 1000, 2000):
            g = e.design_grid(n)
            f = e.Generator(kind="f1-spectral").values(g)
            B = e.ModelFamily(g).model(2.0).basis.forward(f)
            es.append(e.SignalSpectrum(B=B).derivative_energy(2.0))
        assert max(es) / min(es) < 1.10

    def test_f1_energy_diverges_at_nominal_order(self):
        # i^-3 coefficients sit just outside order 3: the order-3 energy
        # grows roughly linearly with n
        es = []
        for n in (500, 2000):
            g = e.design_grid(n)
            f = e.Generator(kind="f1-spectral").values(g)
            B = e.ModelFamily(g).model(3.0).basis.forward(f)
            es.append(e.SignalSpectrum(B=B).derivative_energy(3.0))
        assert es[1] / es[0] > 2.5

    def test_custom_spectrum_round_trip(self):
        n = 64
        coeffs = np.zeros(n)
        coeffs[5] = 2.0
        gen = e.Generator(kind="custom-spectrum",
                          params={"coeffs": coeffs, "degree": 1},
                          scale_by_range=False)
        g = e.design_grid(n)
        v = gen.values(g)
        back = e.make_basis(g, 1).forward(v)
        assert np.abs(back - coeffs).max() < 1e-10

    def test_unknown_kind_rejected(self):
        with pytest.raises(EbsplinesError):
            e.Generator(kind="mystery")

    @pytest.mark.parametrize("kind,params,what", [
        ("custom-spectrum", {}, "'coeffs': missing"),
        ("custom-spectrum", {"coeffs": 2.0}, "'coeffs': 2.0 is not a list of numbers"),
        ("custom-spectrum", {"coeffs": [1.0, "x"]}, "'coeffs': 'x' is not a number"),
        ("custom-spectrum", {"coeffs": np.ones(8), "degree": [1]},
         "'degree': [1] is not a number"),
        ("f2-cosine", {"half_periods": np.array([1.0, 2.0])}, "'half_periods': array("),
        ("f1-spectral", {"beta": [3]}, "'beta': [3] is not a number"),
        ("f1-spectral", {"beta": True}, "'beta': True is not a number"),
        ("f1-spectral", {"beta": -1}, "'beta': -1 is not an order"),
        ("f1-spectral", {"beta": 0.5}, "'beta': 0.5 is not an order"),
        ("f1-spectral", {"beta": math.inf}, "'beta': inf is not an order"),
        ("f1-spectral", {"beta": math.nan}, "'beta': nan is not an order"),
    ], ids=["coeffs-missing", "coeffs-scalar", "coeffs-string", "degree-list",
            "half-periods-array", "beta-list", "beta-bool", "beta-negative", "beta-half",
            "beta-inf", "beta-nan"])
    def test_params_are_checked_where_the_generator_is_made(self, kind, params, what):
        # the library's Generator takes the checks a config's does
        with pytest.raises(EbsplinesError, match=re.escape(f"generator params {what}")):
            e.Generator(kind=kind, params=params)

    def test_custom_spectrum_length_mismatch(self):
        gen = e.Generator(kind="custom-spectrum", params={"coeffs": np.ones(8)})
        with pytest.raises(EbsplinesError):
            gen.values(e.design_grid(16))


class TestStudyHarness:
    def test_single_replicate_equals_direct_fit(self):
        gen = e.Generator(kind="f2-cosine")
        cfg = e.StudyConfig(generator=gen, n=64, replicates=1, sigma=0.05,
                            seed=17, gcv_orders=(2.0,))
        rep = e.run_study(cfg)
        grid = e.design_grid(64)
        f = gen.values(grid)
        rng = np.random.default_rng(np.random.SeedSequence(17).spawn(1)[0])
        y = f + 0.05 * rng.standard_normal(64)
        res = e.fit(e.ModelFamily(grid), y)
        assert rep.eb.mean_lambda == res.lambda_hat
        assert rep.eb.amse == float(np.mean((res.fitted - f) ** 2))
        assert rep.eb.var_lambda == 0.0
        assert rep.q_hat_counts == {res.q_hat: 1}

    def test_a_study_does_not_depend_on_the_data_scale(self):
        # f1's coefficients and sigma scaled by 2^510 or 2^-500: GCV on the raw
        # coefficients fell to the bottom of its grid at q = 2 (R 7.58 for 0.94)
        n = 400
        g = e.design_grid(n)
        B = e.make_basis(g, 1.0).forward(F1.values(g))

        def study(k):
            gen = e.Generator(kind="custom-spectrum", params={"coeffs": np.ldexp(B, k)},
                              scale_by_range=False)
            rep = e.run_study(e.StudyConfig(generator=gen, n=n, replicates=6,
                                            sigma=math.ldexp(0.01, k), seed=3))
            rows = [(r.q, r.mean_lambda, r.var_lambda, math.ldexp(r.amse, -2 * k), r.ratio)
                    for r in (rep.eb, *rep.gcv)]
            return rows, rep.q_hat_counts, rep.eb_lambda_by_q

        assert study(510) == study(0) == study(-500)

    @pytest.mark.parametrize("samples", [1, 2])
    def test_record_rows_equal_separate_fits_across_blocks(self, samples):
        # at n = 4096 replicates run in blocks of 8: 12 replicates span two
        n, orders = 4096, (2.0, 3.0)
        family = e.ModelFamily(e.design_grid(n))
        f = F1.values(family.grid)
        rec = simlab._record(family, f, 0.01, 7, 12, samples, orders)
        assert len(rec) == 12
        for row, stream in zip(rec, np.random.SeedSequence(7).spawn(12)):
            rng = np.random.default_rng(stream)
            y = [f + 0.01 * rng.standard_normal(n) for _ in range(samples)]
            res = e.fit(e.ModelFamily(e.design_grid(n)), y[0])
            assert row["q_hat"] == res.q_hat and row["lambda_hat"] == res.lambda_hat
            assert row["sigma2_hat"] == res.sigma2_hat
            assert row["mse"] == np.mean((res.fitted - f) ** 2)
            assert row["lambda_q"].tolist() == [d.lambda_hat for d in res.selection.per_q]
            for j, q in enumerate(orders):
                m = family.model(q)
                lam = e.select_lambda_gcv(m, y[-1]).lambda_f_hat
                assert row["gcv_lambda"][j] == lam
                assert row["gcv_mse"][j] == np.mean(
                    (_smooth(m, m.basis.forward(y[0]), lam) - f) ** 2)

    def test_one_forward_transform_per_replicate(self, monkeypatch):
        # the GCV arms select and smooth from the fit's own coefficients
        calls = []
        forward = e.BasisHandle.forward
        monkeypatch.setattr(e.BasisHandle, "forward",
                            lambda self, y: calls.append(np.size(y) // self.n)
                            or forward(self, y))
        cfg = e.StudyConfig(generator=e.Generator(kind="f1-spectral"), n=64,
                            replicates=3, sigma=0.05, seed=21)
        e.run_study(cfg)
        assert sum(calls) == 3  # rows transformed, a stack of rows at a time

    @pytest.mark.parametrize("experiment", [
        lambda m: e.run_study(e.StudyConfig(generator=F1, n=4000, replicates=m, sigma=0.01,
                                            seed=3, q_grid=(2.0, 3.0), gcv_orders=(2.0,))),
        lambda m: e.coverage_experiment(F1, 4000, m, sigma=0.01, seed=3),
        lambda m: e.gcv_ball_experiment(F1, 4000, (2.0,), m, sigma=0.01, seed=3),
    ], ids=["run_study", "coverage_experiment", "gcv_ball_experiment"])
    def test_study_memory_does_not_grow_with_replicates(self, experiment):
        # replicates run in blocks of 2^15 // n = 8 at n = 4000, so twelve
        # blocks peak like one: memory O(n), not O(replicates * n)
        def peak(replicates):
            tracemalloc.start()
            try:
                experiment(replicates)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(96) < 1.25 * peak(8)

    def test_eb_ball_arm_fits_the_coverage_experiments_sample(self):
        # the GCV-ball experiment's EB arm fits the first of each replicate's
        # two samples, which is the one sample the coverage experiment draws
        got = e.gcv_ball_experiment(F1, 300, (2.0,), 40, sigma=0.01, seed=5)
        ref = e.coverage_experiment(F1, 300, 40, sigma=0.01, seed=5)
        assert got.coverage_eb_ball == ref.coverage
        assert 0 < ref.coverage < 1  # at 0 or 1, fits of other samples could agree

    def test_replay_identical(self):
        cfg = e.StudyConfig(generator=e.Generator(kind="f2-cosine"), n=64,
                            replicates=5, sigma=0.05, seed=21, gcv_orders=(2.0, 3.0))
        assert e.run_study(cfg).to_dict() == e.run_study(cfg).to_dict()

    def test_ratio_definition(self):
        cfg = e.StudyConfig(generator=e.Generator(kind="f2-cosine"), n=64,
                            replicates=4, sigma=0.05, seed=5, gcv_orders=(2.0,))
        rep = e.run_study(cfg)
        assert rep.gcv[0].ratio == pytest.approx(rep.gcv[0].amse / rep.eb.amse, rel=1e-12)
        assert sum(rep.q_hat_counts.values()) == 4
        # fixed-order smoothing parameters tracked for every grid order
        assert set(rep.eb_lambda_by_q) == set(cfg.resolved_q_grid())

    def test_table_layout(self):
        cfg = e.StudyConfig(generator=e.Generator(kind="f2-cosine"), n=64,
                            replicates=2, sigma=0.05, seed=5, gcv_orders=(2.0, 3.0))
        table = e.run_study(cfg).table_csv()
        lines = table.strip().splitlines()
        assert lines[0] == "metric,EB,GCV q=2,GCV q=3"
        assert [row.split(",")[0] for row in lines[1:]] == \
            ["mean_lambda", "var_lambda", "amse", "ratio"]

    def test_config_json_round_trip(self):
        cfg = e.StudyConfig(generator=e.Generator(kind="f1-spectral"),
                            n=500, replicates=7, sigma=0.02, seed=9,
                            design_convention="right")
        d = cfg.to_dict()
        back = e.StudyConfig.from_dict(d)
        assert back.to_dict() == d


# f1 at n = 1000, sigma = 0.01: the 80 fits (blocks of 2^15 // 1000 = 32) share
# about 20 (q_hat, lambda_hat), fewer than the per-block counts add up to
EXPERIMENTS = {
    "coverage": lambda: e.coverage_experiment(
        e.Generator(kind="f1-spectral"), 1000, 80, sigma=0.01, seed=5),
    "gcv-ball": lambda: e.gcv_ball_experiment(
        e.Generator(kind="f1-spectral"), 1000, (2.0,), 80, sigma=0.01, seed=5),
}


@functools.cache
def _reference_balls():
    """One ``fit`` and ``credible_ball`` per replicate of ``EXPERIMENTS``, on
    the first sample of each replicate's seeded stream, and the truth."""
    family = e.ModelFamily(e.design_grid(1000))
    f = F1.values(family.grid)
    balls = []
    for stream in np.random.SeedSequence(5).spawn(80):
        y = f + 0.01 * np.random.default_rng(stream).standard_normal(1000)
        balls.append(e.credible_ball(e.fit(family, y), L=2.0))
    return balls, f


class TestOneRadiusPerDistinctFit:
    # gcv_ball_experiment computes one more radius, at its oracle lambda
    @pytest.mark.parametrize("name,own", [("coverage", 0), ("gcv-ball", 1)])
    def test_radius_runs_once_per_distinct_q_hat_and_lambda_hat(self, monkeypatch,
                                                                name, own):
        records, calls = [], []
        record, exact = simlab._record, credible.radius
        monkeypatch.setattr(simlab, "_record",
                            lambda *a: records.append(record(*a)) or records[-1])

        def counted(*args, **kwargs):
            calls.append(args)
            return exact(*args, **kwargs)

        monkeypatch.setattr(credible, "radius", counted)
        monkeypatch.setattr(simlab, "radius", counted)
        EXPERIMENTS[name]()
        [rec] = records
        keys = list(zip(rec["q_hat"].tolist(), rec["lambda_hat"].tolist()))
        assert len(keys) == 80
        assert len(calls) == len(set(keys)) + own
        # one dict per block of replicates would compute more
        assert sum(len(set(keys[i:i + 32])) for i in range(0, 80, 32)) > len(set(keys))

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_reports_equal_one_credible_ball_per_replicate(self, name):
        got = EXPERIMENTS[name]()
        balls, f = _reference_balls()
        covered = sum(b.contains(f) for b in balls) / 80
        if name == "coverage":
            radii = [b.radius for b in balls]
            counts = collections.Counter(b.q_hat for b in balls)
            ref = e.CoverageReport(
                generator="f1-spectral", n=1000, replicates=80, L=2.0, alpha=0.05,
                sigma=0.01, coverage=covered,
                radius_quantiles={str(p): float(np.quantile(radii, p))
                                  for p in (0.1, 0.25, 0.5, 0.75, 0.9)},
                q_hat_counts={str(k): v for k, v in sorted(counts.items())}, seed=5)
        else:  # the GCV arm is checked against separate fits in TestStudyHarness
            ref = dataclasses.replace(got, coverage_eb_ball=covered)
        assert repr(got) == repr(ref)
        assert json.dumps(got.to_dict()) == json.dumps(ref.to_dict())

    def test_shared_radii_tell_orders_apart(self, monkeypatch):
        family = e.ModelFamily(e.design_grid(256))
        f = e.Generator(kind="f2-cosine").values(family.grid)
        res = e.fit(family, f + 0.05 * np.random.default_rng(8).standard_normal(256))
        q = res.q_hat + 1.0
        fits = (res, dataclasses.replace(res, model=family.model(q), q_hat=q), res)
        rec = np.zeros(3, [(name, float) for name in ("q_hat", "lambda_hat", "sigma2_hat", "mse")])
        for name in ("q_hat", "lambda_hat", "sigma2_hat"):
            rec[name] = [getattr(r, name) for r in fits]
        rec["mse"] = [np.mean((r.fitted - f) ** 2) for r in fits]
        spec = e.RadiusSpec(alpha=0.1)
        calls = []
        exact = simlab.radius
        monkeypatch.setattr(simlab, "radius", lambda *a: calls.append(a) or exact(*a))
        radii, hits = simlab._eb_balls(family, rec, 2.0, spec)
        ref = [e.credible_ball(r, L=2.0, spec=spec) for r in fits]
        assert radii.tolist() == [b.radius for b in ref]
        assert hits == sum(b.contains(f) for b in ref)
        assert radii[0] != radii[1] and len(calls) == 2


# each experiment on two replicates with the keyword arguments given, every
# other argument valid
TWO_REPLICATES = {
    "run_study": lambda **kw: e.run_study(e.StudyConfig(generator=F1, n=64, replicates=2, **kw)),
    "coverage_experiment": lambda **kw: e.coverage_experiment(F1, 64, 2, **kw),
    "gcv_ball_experiment": lambda **kw: e.gcv_ball_experiment(F1, 64, (2.0,), 2, **kw),
}


class TestExperimentArguments:
    @pytest.fixture
    def work(self, monkeypatch):
        """The calls of the replicate fits and of the oracle lambda."""
        calls = []
        monkeypatch.setattr(simlab, "_fits", lambda *a: calls.append("_fits"))
        monkeypatch.setattr(simlab, "oracle_lambda", lambda *a, **k: calls.append("oracle"))
        return calls

    @pytest.mark.parametrize("sigma", [-0.01, math.nan])
    @pytest.mark.parametrize("name", TWO_REPLICATES)
    def test_noise_level_is_checked_before_any_work(self, work, name, sigma):
        with pytest.raises(EbsplinesError) as exc:
            TWO_REPLICATES[name](sigma=sigma)
        assert str(exc.value) == f"sigma must be finite and >= 0, got {sigma}"
        assert work == []

    @pytest.mark.parametrize("name", TWO_REPLICATES)
    def test_negative_seed_is_refused_before_any_replicate(self, work, name):
        # np.random.SeedSequence would raise a bare ValueError on it; the GCV
        # ball experiment solves its oracle lambda before any replicate
        with pytest.raises(EbsplinesError) as exc:
            TWO_REPLICATES[name](seed=-3)
        assert str(exc.value) == "seed must be >= 0, got -3"
        assert work == []

    @pytest.mark.parametrize("L", [0.5, math.inf, math.nan])
    def test_inflation_is_checked_before_any_replicate(self, work, L):
        with pytest.raises(EbsplinesError) as exc:
            e.coverage_experiment(F1, 1000, 64, L=L)
        assert str(exc.value) == f"need L >= 1 and L < inf, got {L}"
        assert work == []


class TestConfigReaders:
    BASE = {"generator": {"kind": "f1-spectral"}, "n": 64}

    @pytest.mark.parametrize("alpha,what", [
        ("0.1", "alpha: '0.1' is not a number"),
        (True, "alpha: True is not a number"),
        (1.5, "need 0 < alpha < 1, got 1.5"),
        (math.nan, "need 0 < alpha < 1, got nan"),
    ], ids=["string", "bool", "above-one", "nan"])
    def test_compare_alpha_must_be_a_level(self, alpha, what):
        with pytest.raises(EbsplinesError) as exc:
            _compare_kwargs({**self.BASE, "alpha": alpha})
        assert str(exc.value) == what

    def test_compare_alpha_sets_the_radius_level(self):
        assert _compare_kwargs(self.BASE)["spec"].alpha == 0.05
        assert _compare_kwargs({**self.BASE, "alpha": 0.1})["spec"].alpha == 0.1

    @pytest.mark.parametrize("read", [e.StudyConfig.from_dict, _compare_kwargs],
                             ids=["study", "compare"])
    @pytest.mark.parametrize("convention", [5, "left", None])
    def test_unknown_design_convention_is_refused_when_read(self, read, convention):
        with pytest.raises(EbsplinesError) as exc:
            read({**self.BASE, "design_convention": convention})
        assert str(exc.value) == f"unknown design convention {convention!r}"
