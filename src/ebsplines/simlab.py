"""Signal generators, the seeded Monte Carlo experiments and their configs.

Two reference mean functions drive the comparisons: a spectrally defined
signal with polynomially decaying coefficients ``(i+1)^(-beta) cos(2i)`` on
the cosine basis (beta = 3), and the analytic ``cos(5 pi x)``.  Both are
scaled by their range.  Three experiments draw i.i.d. Gaussian noise around
the true function, one seeded substream per replicate (so results do not
depend on the order in which replicates run).  One replicate loop,
``_record``, returns one row per replicate: the adaptive fit of the first
sample and, per GCV order, the lambda GCV selects on the last sample and the
error of its fit of the first, all bit for bit as one replicate at a time.
Each report is a reduction of that record:

* ``run_study`` fits the adaptive empirical-Bayes spline and the GCV
  comparator at fixed orders and aggregates smoothing-parameter moments,
  average mean squared errors and the GCV-to-EB error ratio R (R > 1 means
  the adaptive fit wins);
* ``coverage_experiment`` measures how often the adaptive credible ball
  captures the true function;
* ``gcv_ball_experiment`` replaces the center of the calibrated credible
  ball with the GCV fit and measures the resulting loss of coverage against
  the empirical-Bayes ball on matched data.

Both coverage experiments build the adaptive credible balls with one
reduction of the record, ``_eb_balls``, which computes the exact radius once
per distinct (q_hat, lambda_hat) of the call: lambda_hat is a midpoint of the
log-lambda bisection, so a few dozen radii serve hundreds of replicates, and
the balls are the same bits as one ``credible_ball`` per replicate.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .credible import RadiusSpec, _check_inflation, radius
from .errors import EbsplinesError
from .gcv import _select_gcvs
from .oracles import SignalSpectrum, oracle_lambda
from .selection import ModelFamily, _fits, _shrink, _unit_scale, default_q_grid
from .spectral import DESIGN_CONVENTIONS, DesignGrid, design_grid, make_basis

GENERATOR_KINDS = ("f1-spectral", "f2-cosine", "custom-spectrum")


@dataclass(frozen=True)
class Generator:
    """Deterministic mean-function generator."""

    kind: str
    params: dict = field(default_factory=dict)
    scale_by_range: bool = True

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise EbsplinesError(f"unknown generator kind {self.kind!r}")
        # custom-spectrum's coeffs is a list of numbers, every other param one
        # number; all finite (beta's own check below names a non-finite beta)
        for key, v in self.params.items():
            what = f"generator params {key!r}"
            vals = v if (self.kind, key) == ("custom-spectrum", "coeffs") else [v]
            if not isinstance(vals, (list, tuple, np.ndarray)):
                raise EbsplinesError(f"{what}: {v!r} is not a list of numbers")
            _numbers(what, vals)
            bad = [x for x in vals if not math.isfinite(x)]
            if bad and key != "beta":
                raise EbsplinesError(f"{what}: {bad[0]!r} is not finite")
        if self.kind == "custom-spectrum" and "coeffs" not in self.params:
            raise EbsplinesError("generator params 'coeffs': missing, custom-spectrum needs it")
        if self.beta is not None and not 0.5 < self.beta < math.inf:
            raise EbsplinesError(f"generator params 'beta': {self.params['beta']!r} is not "
                                 "an order: need 1/2 < beta < inf")

    @property
    def beta(self) -> float | None:
        """Nominal smoothness, where the generator has one."""
        if self.kind == "f1-spectral":
            return float(self.params.get("beta", 3.0))
        return None

    def values(self, grid: DesignGrid) -> np.ndarray:
        n = grid.n
        if self.kind == "f1-spectral":
            beta = self.beta
            d = int(math.floor(beta))
            i = np.arange(1, n + 1, dtype=float)
            coeffs = np.zeros(n)
            coeffs[d:] = (i[d:] + 1.0) ** (-beta) * np.cos(2.0 * i[d:])
            v = make_basis(grid, d).inverse(coeffs)
        elif self.kind == "f2-cosine":
            freq = float(self.params.get("half_periods", 5.0))
            v = np.cos(freq * np.pi * grid.x)
        else:  # custom-spectrum; __post_init__ admits no other kind
            coeffs = np.asarray(self.params["coeffs"], dtype=float)
            if len(coeffs) != n:
                raise EbsplinesError("custom spectrum length must equal n")
            # the cosine basis ignores the order, so a "degree" is inert
            v = make_basis(grid, 1.0).inverse(coeffs)
        if self.scale_by_range:
            rng_span = float(v.max() - v.min())
            if rng_span > 0:
                v = v / rng_span
        return v

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params),
                "scale_by_range": self.scale_by_range}

    @staticmethod
    def from_dict(d: dict) -> "Generator":
        if not isinstance(d, dict):
            raise EbsplinesError(f"generator: {d!r} is not an object")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise EbsplinesError(f"generator params: {params!r} is not an object")
        scale = d.get("scale_by_range", True)
        if not isinstance(scale, bool):
            raise EbsplinesError(f"generator scale_by_range: {scale!r} is not a boolean")
        return Generator(kind=d["kind"], params=dict(params), scale_by_range=scale)


def _numbers(what: str, values) -> None:
    """Reject a config entry that is not all numbers (booleans are not), or
    that holds an integer past the float range."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise EbsplinesError(f"{what}: {v!r} is not a number")
        _float(what, v)


def _float(what: str, v) -> float:
    """float(v), or an error naming ``what`` for an integer past the float range."""
    try:
        return float(v)
    except OverflowError:
        raise EbsplinesError(f"{what}: an integer near 10^{int(math.log10(abs(v)))} "
                             "is past the float range") from None


def _integer(d: dict, key: str, default: int) -> int:
    """A config's integer entry (booleans, floats and strings are not)."""
    v = d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise EbsplinesError(f"{key}: {v!r} is not an integer")
    return int(v)


def _noise_level(sigma) -> float:
    """A config's sigma, which must be finite and >= 0 (a boolean is not)."""
    if isinstance(sigma, bool):
        raise EbsplinesError(f"sigma: {sigma!r} is not a number")
    sigma = _float("sigma", sigma)
    if not 0 <= sigma < math.inf:
        raise EbsplinesError(f"sigma must be finite and >= 0, got {sigma}")
    return sigma


def _seed(seed: int) -> int:
    """A seed, which must be >= 0 (``np.random.SeedSequence`` takes no other)."""
    if seed < 0:
        raise EbsplinesError(f"seed must be >= 0, got {seed}")
    return seed


def _shared_keys(d: dict) -> dict:
    """The entries that study and compare configs share, checked, by their
    ``StudyConfig`` names."""
    convention = d.get("design_convention", "midpoint")
    if convention not in DESIGN_CONVENTIONS:
        raise EbsplinesError(f"unknown design convention {convention!r}")
    return dict(generator=Generator.from_dict(d["generator"]),
                n=_integer(d, "n", 1000), replicates=_integer(d, "replicates", 200),
                sigma=_noise_level(d.get("sigma", 0.01)), seed=_seed(_integer(d, "seed", 0)),
                design_convention=convention)


@dataclass(frozen=True)
class StudyConfig:
    generator: Generator
    n: int = 1000
    replicates: int = 200
    sigma: float = 0.01
    q_grid: tuple = ()
    gcv_orders: tuple = (2.0, 3.0, 4.0, 5.0, 6.0)
    seed: int = 0
    design_convention: str = "midpoint"

    def resolved_q_grid(self) -> tuple:
        return self.q_grid if self.q_grid else default_q_grid(self.n)

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "generator": self.generator.to_dict(),
            "n": self.n,
            "replicates": self.replicates,
            "sigma": self.sigma,
            "q_grid": list(self.resolved_q_grid()),
            "gcv_orders": list(self.gcv_orders),
            "seed": self.seed,
            "design_convention": self.design_convention,
        }

    @staticmethod
    def from_dict(d: dict) -> "StudyConfig":
        # orders stay as given, so the report's config echoes them unchanged
        orders = {key: tuple(d.get(key, default)) for key, default in
                  (("q_grid", ()), ("gcv_orders", (2.0, 3.0, 4.0, 5.0, 6.0)))}
        for key, values in orders.items():
            _numbers(key, values)
        return StudyConfig(**_shared_keys(d), **orders)


def _compare_kwargs(d: dict) -> dict:
    """Keyword arguments of ``gcv_ball_experiment`` from a compare config.
    Only ``alpha`` (a number in (0, 1)) sets the exact radius: the Monte Carlo
    oracle's ``mc_draws`` and ``radius_seed`` are not read, like unknown keys."""
    kw = _shared_keys(d)
    kw["convention"] = kw.pop("design_convention")
    q_choices, beta = tuple(d.get("q_choices", (2.0,))), d.get("beta")
    alpha = d.get("alpha", 0.05)
    _numbers("q_choices", q_choices)
    _numbers("alpha", [alpha])
    # an absent or null beta leaves gcv_ball_experiment the generator's own
    _numbers("beta", [] if beta is None else [beta])
    return dict(kw, q_choices=tuple(map(float, q_choices)), beta=beta,
                spec=RadiusSpec(alpha=float(alpha)))


@dataclass(frozen=True)
class MethodRow:
    method: str
    q: float | None
    mean_lambda: float
    var_lambda: float
    amse: float
    ratio: float | None  # A(gcv)/A(eb); None for the EB row


@dataclass(frozen=True)
class SimulationReport:
    config: StudyConfig
    eb: MethodRow
    gcv: tuple
    q_hat_counts: dict
    eb_lambda_by_q: dict  # order -> (mean, var) of the fixed-order EB lambda

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config.to_dict(),
            "eb": asdict(self.eb),
            "gcv": [asdict(r) for r in self.gcv],
            "q_hat_counts": {str(k): v for k, v in sorted(self.q_hat_counts.items())},
            "eb_lambda_by_q": {str(q): {"mean": m, "var": v}
                               for q, (m, v) in sorted(self.eb_lambda_by_q.items())},
        }

    def table_csv(self) -> str:
        """Comparison table: one column per method, rows for the lambda
        moments, the average MSE and the error ratio."""
        out = io.StringIO()
        w = csv.writer(out)
        headers = ["metric", "EB"] + [f"GCV q={r.q:g}" for r in self.gcv]
        w.writerow(headers)
        w.writerow(["mean_lambda", f"{self.eb.mean_lambda:.6e}"]
                   + [f"{r.mean_lambda:.6e}" for r in self.gcv])
        w.writerow(["var_lambda", f"{self.eb.var_lambda:.6e}"]
                   + [f"{r.var_lambda:.6e}" for r in self.gcv])
        w.writerow(["amse", f"{self.eb.amse:.6e}"]
                   + [f"{r.amse:.6e}" for r in self.gcv])
        w.writerow(["ratio", "-"] + [f"{r.ratio:.6f}" for r in self.gcv])
        return out.getvalue()


def _moments(a: np.ndarray) -> tuple[float, float]:
    if len(a) > 1:
        return float(np.mean(a)), float(np.var(a, ddof=1))
    return float(np.mean(a)), 0.0


def _design(generator, n: int, sigma, seed: int, convention: str = "midpoint"):
    """The model family on the design of n points, the true function values
    on it and their name: ``generator`` is an object with a ``values(grid)``
    method or the n values themselves.  Checks sigma and the seed as the
    config readers do, before any work."""
    _noise_level(sigma)
    _seed(seed)
    family = ModelFamily(design_grid(n, convention))
    if hasattr(generator, "values"):
        f_true = np.asarray(generator.values(family.grid), dtype=float)
        name = getattr(generator, "kind", type(generator).__name__)
    else:
        f_true = np.asarray(generator, dtype=float)
        name = "custom-values"
    if len(f_true) != n:
        raise EbsplinesError("true function length does not match n")
    return family, f_true, str(name)


def _record(family: ModelFamily, f_true: np.ndarray, sigma: float, seed: int,
            count: int, samples: int = 1, gcv_orders=(), qgrid=None) -> np.ndarray:
    """The experiments' one replicate loop: a structured array with one row per
    replicate.  Its columns are the adaptive fit of the first sample (``q_hat``,
    ``lambda_hat``, ``sigma2_hat``, its ``mse`` against f_true and ``lambda_q``,
    the lambda of each grid order) and, one entry per GCV order q,
    ``gcv_lambda``, the lambda GCV selects on the last sample, and ``gcv_mse``,
    the error of the order-q fit of the first sample at that lambda, taken in
    coefficient space against Phi^T f_true (the basis is orthonormal, so it
    equals the error of the fitted values up to rounding).

    Replicate k draws its ``samples`` vectors f_true + sigma * eps, in order,
    from ``default_rng`` on the k-th child of the seed's ``SeedSequence``, so
    every row replays bit for bit whatever runs before it.  Rows are fitted in
    blocks of at most max(1, 2^15 // n) replicates (256 KB per sample), each
    sample is transformed once, and only the rows outlive a block: memory is
    O(n) plus the record.
    """
    if count < 1:
        raise EbsplinesError("need at least one replicate")
    n = len(f_true)
    width = len(default_q_grid(n) if qgrid is None else qgrid)
    rec = np.empty(count, [("q_hat", float), ("lambda_hat", float), ("sigma2_hat", float),
                           ("mse", float), ("lambda_q", float, (width,)),
                           ("gcv_lambda", float, (len(gcv_orders),)),
                           ("gcv_mse", float, (len(gcv_orders),))])
    streams = np.random.SeedSequence(seed).spawn(count)
    theta = family.basis.forward(f_true)
    size = max(1, 2**15 // n)
    for s in range(0, count, size):
        rngs = map(np.random.default_rng, streams[s:s + size])
        y = f_true + sigma * np.stack(
            [[rng.standard_normal(n) for _ in range(samples)] for rng in rngs], axis=1)
        fits = _fits(family, y[0], qgrid)
        # res.coeffs is Phi^T y on the basis all orders share (see ``fit``)
        x = [np.array([res.coeffs for res in fits]), *map(family.basis.forward, y[1:])]
        del y
        rows = rec[s:s + size]
        for name in ("q_hat", "lambda_hat", "sigma2_hat"):
            rows[name] = [getattr(res, name) for res in fits]
        rows["mse"] = [np.mean((res.fitted - f_true) ** 2) for res in fits]
        rows["lambda_q"] = [[dg.lambda_hat for dg in res.selection.per_q] for res in fits]
        # GCV on the last sample's coefficients at unit scale, as ``select_lambda_gcv``
        gx = _unit_scale(x[-1], "coeffs")[0]
        for j, q in enumerate(gcv_orders):
            m = family.model(q)
            lams = [g.lambda_f_hat for g in _select_gcvs(m, gx)]
            rows["gcv_lambda"][:, j] = lams
            rows["gcv_mse"][:, j] = np.mean((_shrink(m, x[0], lams) - theta) ** 2, axis=-1)
        del fits, x  # before the next block: memory stays O(n)
    return rec


def run_study(config: StudyConfig) -> SimulationReport:
    """Monte Carlo comparison of the adaptive EB fit and fixed-order GCV fits.

    All methods see identical data streams; aggregates are invariant to the
    order in which replicates run.
    """
    family, gen_values, _ = _design(config.generator, config.n, config.sigma, config.seed,
                                    config.design_convention)
    qgrid = config.resolved_q_grid()
    rec = _record(family, gen_values, config.sigma, config.seed, config.replicates, 1,
                  config.gcv_orders, qgrid)
    mean_eb, var_eb = _moments(rec["lambda_hat"])
    amse_eb = float(np.mean(rec["mse"]))
    eb_row = MethodRow(method="EB", q=None, mean_lambda=mean_eb,
                       var_lambda=var_eb, amse=amse_eb, ratio=None)
    gcv_rows = []
    for j, q in enumerate(config.gcv_orders):
        m_l, v_l = _moments(rec["gcv_lambda"][:, j])
        amse = float(np.mean(rec["gcv_mse"][:, j]))
        gcv_rows.append(MethodRow(method="GCV", q=float(q), mean_lambda=m_l, var_lambda=v_l,
                                  amse=amse, ratio=amse / amse_eb))
    lam_by_q = {float(q): _moments(rec["lambda_q"][:, j]) for j, q in enumerate(qgrid)}
    return SimulationReport(config=config, eb=eb_row, gcv=tuple(gcv_rows),
                            q_hat_counts=_q_hat_counts(rec), eb_lambda_by_q=lam_by_q)


def _q_hat_counts(rec: np.ndarray) -> dict:
    """How many replicates chose each q_hat, by increasing q_hat."""
    return {float(v): int(c) for v, c in zip(*np.unique(rec["q_hat"], return_counts=True))}


def _eb_balls(family: ModelFamily, rec: np.ndarray, L: float,
              spec: RadiusSpec) -> tuple[np.ndarray, int]:
    """The credible ball of each record row, as its radius
    sigma_hat * L * r_n(lambda_hat, q_hat), and how many of the balls hold the
    truth (sqrt(mse) <= radius), the same bits as one ``credible_ball`` and
    ``contains`` per row.  r_n depends on (n, q, lambda, alpha) only and
    lambda_hat takes few values (a midpoint of the log-lambda bisection), so
    r_n is computed once per distinct (q_hat, lambda_hat) of the record."""
    keys = list(zip(rec["q_hat"].tolist(), rec["lambda_hat"].tolist()))
    r_n = {k: radius(family.model(k[0]), k[1], spec) for k in dict.fromkeys(keys)}
    radii = np.array([math.sqrt(s2) * L * r_n[k]
                      for s2, k in zip(rec["sigma2_hat"].tolist(), keys)])
    return radii, int(np.count_nonzero(np.sqrt(rec["mse"]) <= radii))


@dataclass(frozen=True)
class CoverageReport:
    generator: str
    n: int
    replicates: int
    L: float
    alpha: float
    sigma: float
    coverage: float
    radius_quantiles: dict
    q_hat_counts: dict
    seed: int

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def coverage_experiment(generator, n: int, replicates: int, L: float = 2.0,
                        spec: RadiusSpec = RadiusSpec(), sigma: float = 0.01,
                        seed: int = 0) -> CoverageReport:
    """Empirical coverage of the adaptive credible ball over replicates.

    ``generator`` is either a vector of true function values of length n or an
    object with a ``values(grid)`` method.  Each replicate fits one noisy
    sample on the midpoint design, builds the ball and records membership of
    the truth plus the realized radius.
    """
    _check_inflation(L)
    family, f_true, gen_name = _design(generator, n, sigma, seed)
    rec = _record(family, f_true, sigma, seed, replicates)
    radii, hits = _eb_balls(family, rec, L, spec)
    quants = {str(p): float(np.quantile(radii, p)) for p in (0.1, 0.25, 0.5, 0.75, 0.9)}
    return CoverageReport(generator=gen_name, n=n, replicates=replicates,
                          L=L, alpha=spec.alpha, sigma=sigma,
                          coverage=hits / replicates,
                          radius_quantiles=quants,
                          q_hat_counts={str(k): v for k, v in _q_hat_counts(rec).items()},
                          seed=seed)


@dataclass(frozen=True)
class GcvBallReport:
    generator: str
    n: int
    replicates: int
    beta: float
    alpha: float
    sigma: float
    coverage_gcv_ball: dict
    coverage_eb_ball: float
    gcv_ball_radius: float
    seed: int

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self)}


def gcv_ball_experiment(generator, n: int, q_choices, replicates: int,
                        spec: RadiusSpec = RadiusSpec(), sigma: float = 0.01,
                        beta: float | None = None, convention: str = "midpoint",
                        seed: int = 0) -> GcvBallReport:
    """Coverage of a ball centered at the GCV fit with the radius calibrated
    for the empirical-Bayes posterior ball (true sigma, oracle lambda at the
    generator's nominal order beta).

    Each replicate draws two independent samples at the same design: the GCV
    smoothing parameter comes from one sample and the fit uses the other.  A
    matched empirical-Bayes arm fits the first sample and builds its own ball
    with L = 2 for contrast.
    """
    family, f_true, gen_name = _design(generator, n, sigma, seed, convention)
    if beta is None:
        beta = getattr(generator, "beta", None)
    if beta is None:
        raise EbsplinesError("nominal smoothness beta is required")

    model_beta = family.model(float(beta))
    spectrum = SignalSpectrum(B=model_beta.basis.forward(f_true))
    lam_beta = oracle_lambda(spectrum, sigma * sigma, float(beta),
                             method="numeric-root").lambda_q
    ball_radius = sigma * radius(model_beta, lam_beta, spec)

    orders = tuple(dict.fromkeys(map(float, q_choices)))
    rec = _record(family, f_true, sigma, seed, replicates, 2, orders)
    hits_gcv = np.count_nonzero(np.sqrt(rec["gcv_mse"]) <= ball_radius, axis=0)
    hits_eb = _eb_balls(family, rec, 2.0, spec)[1]
    return GcvBallReport(
        generator=gen_name, n=n, replicates=replicates, beta=float(beta),
        alpha=spec.alpha, sigma=sigma,
        coverage_gcv_ball={str(q): int(h) / replicates for q, h in zip(orders, hits_gcv)},
        coverage_eb_ball=hits_eb / replicates,
        gcv_ball_radius=float(ball_radius), seed=seed)
