import math

import numpy as np
import pytest

import ebsplines as e
from ebsplines import gcv, selection
from ebsplines.errors import EbsplinesError


def _model(n, q):
    return e.ModelFamily(e.design_grid(n)).model(q)


class TestGcvCriterion:
    def test_zero_signal_gives_zero(self):
        m = _model(64, 2.0)
        x = np.zeros(64)
        x[:2] = 3.0
        for lam in (1e-4, 0.1, 1.0):
            assert e.gcv_criterion(m, x, lam) == 0.0

    def test_quadratic_homogeneity(self):
        m = _model(64, 2.0)
        x = np.random.default_rng(0).standard_normal(64)
        for lam in (1e-4, 0.3):
            assert e.gcv_criterion(m, 5.0 * x, lam) == pytest.approx(
                25.0 * e.gcv_criterion(m, x, lam), rel=1e-12)

    def test_rejects_zero_lambda(self):
        m = _model(64, 2.0)
        with pytest.raises(EbsplinesError):
            e.gcv_criterion(m, np.ones(64), 0.0)


class TestSelectLambdaGcv:
    def test_deterministic(self):
        m = _model(128, 2.0)
        y = np.cos(2 * np.pi * m.grid.x) + 0.05 * np.random.default_rng(1).standard_normal(128)
        r1 = e.select_lambda_gcv(m, y)
        r2 = e.select_lambda_gcv(m, y)
        assert r1 == r2

    def test_argmin_scale_invariance(self):
        # at 2^-520 and 2^510 the squared coefficients leave the float range
        # unless the search brings the data to unit scale first
        m = _model(128, 2.0)
        y = np.cos(2 * np.pi * m.grid.x) + 0.05 * np.random.default_rng(2).standard_normal(128)
        r1 = e.select_lambda_gcv(m, y)
        for c in (3.0, 9.0, 2.0 ** -520, 2.0 ** 510):
            r2 = e.select_lambda_gcv(m, c * y)
            assert r1.lambda_f_hat == r2.lambda_f_hat, c
        x = m.basis.forward(y)
        assert e.gcv_criterion(m, 9.0 * x, r1.lambda_f_hat) == pytest.approx(
            81.0 * e.gcv_criterion(m, x, r1.lambda_f_hat), rel=1e-10)

    def test_a_few_evaluations_per_lane(self, monkeypatch):
        # the lambdas the GCV scans get after the 60-point grid, on the stacks
        # of a simulate block; golden section on the bracket took about 16
        count = [0]
        scan = gcv._scan

        def counted(rows, x2s, nz, lams, lanes=None, buf=None):
            count[0] += 0 if lanes is None else len(lams)
            return scan(rows, x2s, nz, lams, lanes, buf)

        monkeypatch.setattr(gcv, "_scan", counted)
        fam = e.ModelFamily(e.design_grid(1000, "right"))
        for kind in ("f1-spectral", "f2-cosine"):
            f = e.Generator(kind=kind).values(fam.grid)
            y = f + 0.01 * np.random.default_rng(11).standard_normal((32, 1000))
            x = selection._unit_scale(fam.basis.forward(y), "x")[0]
            count[0] = 0
            for q in (2.0, 3.0, 4.0, 5.0, 6.0):
                gcv._select_gcvs(fam.model(q), x)
            assert count[0] / (5 * 32) <= 8, kind

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected_with_index(self, bad):
        m = _model(64, 2.0)
        y = np.cos(3 * np.pi * m.grid.x)
        y[[5, 9]] = bad
        with pytest.raises(EbsplinesError, match=rf"y\[5\] = {bad} is not finite"):
            e.select_lambda_gcv(m, y)


@pytest.fixture(scope="module")
def report():
    gen = e.Generator(kind="f1-spectral")
    return e.gcv_ball_experiment(
        gen, n=500, q_choices=(2.0,), replicates=40,
        spec=e.RadiusSpec(mc_draws=4000, seed=2), sigma=0.01, seed=77)


class TestGcvBallExperiment:
    def test_gcv_ball_loses_coverage_against_eb_ball(self, report):
        assert report.coverage_gcv_ball["2.0"] < report.coverage_eb_ball

    def test_radius_positive_and_schema(self, report):
        assert report.gcv_ball_radius > 0
        d = report.to_dict()
        for key in ("schema_version", "coverage_gcv_ball", "coverage_eb_ball",
                    "n", "replicates", "beta"):
            assert key in d

    def test_replay_determinism(self):
        gen = e.Generator(kind="f1-spectral")
        kw = dict(n=128, q_choices=(2.0,), replicates=5,
                  spec=e.RadiusSpec(mc_draws=1000, seed=2), sigma=0.01, seed=3)
        assert e.gcv_ball_experiment(gen, **kw).to_dict() == \
            e.gcv_ball_experiment(gen, **kw).to_dict()

    def test_beta_required_for_raw_values(self):
        with pytest.raises(EbsplinesError):
            e.gcv_ball_experiment(np.zeros(64), n=64, q_choices=(2.0,),
                                  replicates=2,
                                  spec=e.RadiusSpec(mc_draws=1000, seed=2))
