"""The blocked log-lambda scans (``selection._scan``) against the public
criteria, against this file's own loop formulas and against the
one-lambda-at-a-time solvers built from them, a block of replicates
against batches of one, fits on a warm family against fits on a fresh one,
bit for bit, the bracketing scan's signs from rows built on a band
(``selection._grid_signs``) against full rows, and the bounds of T_lam
(``selection._t_bounds``) against the loop formula."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

import ebsplines as e
from ebsplines import gcv, selection

CASES = [(n, q) for n in (8, 200, 1000, 2000, 16385) for q in (1.0, 1.5, 3.0, 6.0)
         if n > 2 * math.floor(q)]


def _data(n, q, seed=0, kind="f2-cosine", sigma=0.01):
    m = e.ModelFamily(e.design_grid(n)).model(q)
    f = e.Generator(kind=kind).values(m.grid)
    return m, f + sigma * np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("n,q", CASES)
def test_blocked_grids_equal_scalar_criteria(n, q):
    m, y = _data(n, q)
    x = m.basis.forward(y)
    x2, nz = selection._tails(m.eigen, x)
    rows = max(1, selection._BLOCK_ENTRIES // len(nz))
    # the production grids, and a random set of 2 * rows + 3 lambdas, so the
    # last block is a partial one whenever a block holds more than one row
    lams = [np.exp(np.linspace(math.log(1e-28), 0.0, k)) for k in (33, 60)]
    lams.append(np.sort(10.0 ** np.random.default_rng(n).uniform(-28, 0, 2 * rows + 3)))
    for grid in lams:
        t, = selection._scan(functools.partial(selection._t_rows, n, None), x2[None], nz, grid)
        g, = selection._scan(functools.partial(gcv._crit_rows, n), x2[None], nz, grid)
        assert np.array_equal(t, [e.t_lambda(m, x, l) for l in grid])
        assert np.array_equal(g, [e.gcv_criterion(m, x, l) for l in grid])
        # the public criteria share the scan's kernel, so the independent
        # reference is the loop formulas below
        assert np.array_equal(t, [_loop_t_lam(x2, nz, n, l) for l in grid])
        assert np.array_equal(g, [_loop_gcv(m, x, l) for l in grid])
    # T_q runs on the same kernel with the model's T_q weight
    ln = m.eigen.log_tail
    for grid in lams[:2]:
        tq, = selection._scan(functools.partial(selection._t_rows, n, ln), x2[None], nz, grid)
        assert np.array_equal(tq, [e.t_q(m, x, l) for l in grid])
        assert np.array_equal(tq, [_loop_t_q(x2, nz, ln, n, l) for l in grid])


# -- the solvers as they were before the blocked scans: one lambda per call --

def _loop_t_lam(x2, nz, n, lam):
    u = lam * nz
    r = u / (1.0 + u)
    a = float(np.dot(x2, r / (1.0 + u))) / n
    b = float(np.dot(x2, r)) * float(np.sum(1.0 / (1.0 + u))) / (n * n)
    return a - b


def _loop_t_q(x2, nz, ln, n, lam):
    u = lam * nz
    r = u / (1.0 + u)
    a = float(np.dot(x2, r * ln / (1.0 + u))) / n
    b = float(np.dot(x2, r)) * float(np.sum(ln / (1.0 + u))) / (n * n)
    return a - b


def _loop_bisect_log(f, a, b, rtol, tol):
    for _ in range(200):
        m = math.sqrt(a * b)
        fm = f(m)
        if abs(fm) <= tol or b / a < 1.0 + rtol:
            return m, fm
        if fm >= 0:
            b = m
        else:
            a = m
    m = math.sqrt(a * b)
    return m, f(m)


def _loop_solve_lambda(model, coeffs):
    lo, hi = selection.LAMBDA_MIN, selection.LAMBDA_MAX
    x2, nz = selection._tails(model.eigen, coeffs)
    n = model.n
    tol = (1e-3 / n) * max(float(np.mean(x2)), 1e-300)
    tval = functools.partial(_loop_t_lam, x2, nz, n)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), 33))
    tv = [tval(l) for l in grid]
    brackets = [(grid[j], grid[j + 1]) for j in range(32) if tv[j] < 0 < tv[j + 1]]
    if not brackets:
        lo_t = min(max(1.0 / n, lo), hi)
        cand = [(abs(tval(hi)), hi), (abs(tval(lo_t)), lo_t)]
        _, lam_b = min(cand, key=lambda c: c[0])
        return e.LambdaSolve(lam=float(lam_b), t_value=tval(lam_b), boundary=True)
    roots = [_loop_bisect_log(tval, a, b, 1e-14, tol) for a, b in brackets]
    if len(roots) > 1:
        roots.sort(key=lambda rf: -e.marginal_loglik(model, coeffs, rf[0]))
    lam, t_at = roots[0]
    return e.LambdaSolve(lam=float(lam), t_value=float(t_at), boundary=False)


def _loop_gcv(model, x, lam):
    d = model.null_dim
    u = lam * model.eigen.values[d:]
    r = u / (1.0 + u)
    den = float(np.sum(r))
    return model.n * float(np.dot(x[d:] ** 2, r * r)) / (den * den)


def _loop_select_lambda_gcv(model, y):
    # the 60-point grid, then the lattice t = k 2^-9 in log lambda on the
    # bracket around the best grid point: parabolas propose points (through
    # the best point and the two nearest it, else through the best point and
    # its neighbours, else the best point itself), rounded to the lattice; a
    # proposal met before gives way to an unevaluated neighbour of the best
    # lattice point, and the search ends at a best lattice point whose
    # neighbours are both evaluated; a parabola whose values rise by no more
    # than rounding proposes nothing
    x = model.basis.forward(np.asarray(y, dtype=float))
    crit = functools.partial(_loop_gcv, model, x)
    grid = np.exp(np.linspace(math.log(selection.LAMBDA_MIN),
                              math.log(selection.LAMBDA_MAX), 60))
    vals = [crit(l) for l in grid]
    j = int(np.argmin(vals))
    h = 2.0 ** -9
    lo = math.ceil(math.log(grid[max(j - 1, 0)]) / h)
    hi = math.floor(math.log(grid[min(j + 1, 59)]) / h)
    i = min(max(j - 1, 0), 57)
    pts = [(math.log(grid[s]), vals[s]) for s in range(i, i + 3)]  # (t, GCV) in order of t
    on = {}  # GCV at each lattice index evaluated
    while True:
        ts = [t for t, _ in pts]
        m = min(range(len(pts)), key=lambda s: pts[s][1])  # the first best point
        a = ts[m - 1] if m > 0 else -math.inf
        b = ts[m + 1] if m + 1 < len(pts) else math.inf
        l, r = m - 1, m + 1  # take the nearer of l and r twice, r on a tie
        for _ in range(2):
            if r == len(pts) or (l >= 0 and ts[m] - ts[l] < ts[r] - ts[m]):
                l -= 1
            else:
                r += 1
        u = ts[m]
        for w in (l + 1, m - 1):
            if 0 <= w and w + 2 < len(pts):
                (t0, f0), (t1, f1), (t2, f2) = pts[w:w + 3]
                den = (t1 - t0) * (f1 - f2) - (t1 - t2) * (f1 - f0)
                if den < -2.0 ** -46 * f1 * (t2 - t0):  # convex by more than rounding
                    v = t1 - 0.5 * ((t1 - t0) ** 2 * (f1 - f2) - (t1 - t2) ** 2 * (f1 - f0)) / den
                    if a < v < b:
                        u = v
                        break
        k = min(max(round(u / h), lo), hi)
        if k in on:
            c = min(on, key=on.get)  # the first best lattice point
            s = 1 if u > c * h else -1
            free = [n for n in (c + s, c - s) if lo <= n <= hi and n not in on]
            if not free:
                return e.GcvResult(lambda_f_hat=math.exp(c * h), boundary_flag=j in (0, 59))
            k = free[0]
        on[k] = crit(math.exp(k * h))
        pts.append((k * h, on[k]))
        pts.sort(key=lambda p: p[0])


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["f1-spectral", "f2-cosine"])
def test_solvers_equal_the_loop_solvers(kind, seed):
    # n and the noise level cycle so that pure-noise boundary solves and
    # GCV minima at the grid ends are among the 20 data sets
    n = (200, 1000, 2000)[seed % 3]
    sigma = (0.001, 0.01, 0.3, 3.0)[seed % 4]
    fam = e.ModelFamily(e.design_grid(n))
    _, y = _data(n, 3.0, seed, kind, sigma)
    for q in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0):
        m = fam.model(q)
        x = m.basis.forward(y)
        assert e.solve_lambda(m, x) == _loop_solve_lambda(m, x)
        assert e.select_lambda_gcv(m, y) == _loop_select_lambda_gcv(m, y)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["f1-spectral", "f2-cosine"])
def test_gcv_lambda_is_a_lattice_minimum(kind, seed):
    # the data sets above: the result lies on the lattice log lambda = k 2^-9,
    # no lattice neighbour in the bracket has a smaller GCV, and at low noise
    # none of the bracket's lattice points has (the scan's values equal the
    # loop formula's, see above), unless GCV is flat to rounding across the
    # bracket, as it is towards either end of the lambda range (6 of 84
    # cases here), where hundreds of lattice points tie
    n = (200, 1000, 2000)[seed % 3]
    sigma = (0.001, 0.01, 0.3, 3.0)[seed % 4]
    fam = e.ModelFamily(e.design_grid(n))
    _, y = _data(n, 3.0, seed, kind, sigma)
    grid = np.exp(np.linspace(math.log(1e-28), 0.0, 60))
    h = 2.0 ** -9
    for q in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0):
        m = fam.model(q)
        x = m.basis.forward(y)
        lam = e.select_lambda_gcv(m, y).lambda_f_hat
        k = round(math.log(lam) / h)
        assert lam == math.exp(k * h)
        j = int(np.argmin([_loop_gcv(m, x, l) for l in grid]))
        lo = math.ceil(math.log(grid[max(j - 1, 0)]) / h)
        hi = math.floor(math.log(grid[min(j + 1, 59)]) / h)
        assert lo <= k <= hi
        for nb in (k - 1, k + 1):
            if lo <= nb <= hi:
                assert _loop_gcv(m, x, lam) <= _loop_gcv(m, x, math.exp(nb * h))
        if sigma <= 0.01:
            x2, nz = selection._tails(m.eigen, x)
            ks = np.arange(lo, hi + 1)
            g, = selection._scan(functools.partial(gcv._crit_rows, n), x2[None], nz,
                                 np.array([math.exp(c * h) for c in ks.tolist()]))
            assert ks[np.argmin(g)] == k or g.max() - g.min() < 1e-12 * g.min()


def test_scans_stay_within_a_few_rows_of_memory_at_large_n():
    # a (33 or 60) x n broadcast would take 16.9 / 30.7 MB at n = 64,000;
    # the blocks keep the two selections below 4 MB
    m, y = _data(64000, 3.0)
    x = m.basis.forward(y)
    tracemalloc.start()
    try:
        e.solve_lambda(m, x)
        e.select_lambda_gcv(m, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_warm_stack_of_fits_stays_within_three_mb():
    # 32 rows at n = 1000, the block ``simulate`` selects together: x and x^2
    # (0.5 MB), the scratch buffer and the bracket parts (0.66 MB each) and
    # the scan buffers, about 2.5 MB; a copy of x^2 per order took it to 4 MB
    fam = e.ModelFamily(e.design_grid(1000))
    f = e.Generator(kind="f1-spectral").values(fam.grid)
    y = f + 0.01 * np.random.default_rng(0).standard_normal((32, 1000))
    selection._fits(fam, y)
    tracemalloc.start()
    try:
        selection._fits(fam, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# -- a block of replicates against batches of one ----------------------------

def _same(a, b):
    """Equal field by field, arrays byte for byte."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a) and not isinstance(a, e.SpectralModel):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a is b or (a == b and type(a) is type(b))


def _multi_root_replicate(f):
    # replicate 84 of the f2 study with seed 5678 (right design, n = 1000,
    # sigma = 0.01): T_lam changes sign upwards twice at q = 6, and the
    # second root has the higher marginal likelihood
    rng = np.random.default_rng(np.random.SeedSequence(5678).spawn(85)[84])
    return f + 0.01 * rng.standard_normal(len(f))


@pytest.mark.parametrize("sigma", [0.001, 0.01, 0.3, 3.0])
@pytest.mark.parametrize("kind", ["f1-spectral", "f2-cosine"])
def test_a_block_of_replicates_equals_batches_of_one(kind, sigma):
    # 37 replicates fill no whole number of blocks: the scans and lanes hold
    # 16 rows of n = 1000, and the experiments hand out 32 replicates at a time
    fam = e.ModelFamily(e.design_grid(1000, "right"))
    f = e.Generator(kind=kind).values(fam.grid)
    y = f + sigma * np.random.default_rng(7).standard_normal((37, 1000))
    if kind == "f2-cosine":
        y[5] = _multi_root_replicate(f)
    x = fam.basis.forward(y)

    fits = selection._fits(fam, y)
    assert len(fits) == 37
    for yk, res in zip(y, fits):
        assert _same(res, e.fit(fam, yk))
    # 1.3, 1.6, ..., 5.8 holds 4 but no other integer order: a q_hat off the
    # grid takes a fresh lambda solve, in a block as in a fit of its own
    qgrid = e.default_q_grid(1000, refine=0.3)[1:]
    fits = selection._fits(fam, y, qgrid)
    assert any(res.q_hat not in qgrid for res in fits)
    for yk, res in zip(y, fits):
        assert _same(res, e.fit(fam, yk, qgrid))
    for q in (1.0, 6.0):  # fit covers every order; these two span the null spaces
        m = fam.model(q)
        sols, = selection._solve_lambdas([(m.eigen, selection._tails(m.eigen, x)[0])])
        gcvs = gcv._select_gcvs(m, x)
        for k in range(37):
            assert _same(sols[k], e.solve_lambda(m, x[k]))
            assert _same(gcvs[k], e.select_lambda_gcv(m, y[k]))
        # and against this file's own loop formulas and solvers, for the
        # first, two middle and the last replicate (in a partial block)
        x2s, nz = selection._tails(m.eigen, x)
        grid = np.exp(np.linspace(math.log(1e-28), 0.0, 33))
        tv = selection._scan(functools.partial(selection._t_rows, 1000, None), x2s, nz, grid)
        for k in (0, 5, 18, 36):
            assert np.array_equal(tv[k], [_loop_t_lam(x2s[k], nz, 1000, l) for l in grid])
            assert _same(sols[k], _loop_solve_lambda(m, x[k]))
            assert _same(gcvs[k], _loop_select_lambda_gcv(m, y[k]))

    if kind == "f2-cosine":
        m = fam.model(6.0)
        x2, nz = selection._tails(m.eigen, x[5])
        tv = [_loop_t_lam(x2, nz, 1000, l) for l in np.exp(np.linspace(math.log(1e-28), 0.0, 33))]
        assert sum(a < 0 < b for a, b in zip(tv, tv[1:])) == 2


# -- fits on a warm family, against a fresh family -----------------------------

_SCAN, _GRID_SIGNS = selection._scan, selection._grid_signs


def _fit_bits(monkeypatch, family, y, qgrid):
    """What a fit reports, as exact reprs, and the bytes of its fitted values,
    of every scan it ran and of the T_lam signs of its bracketing scans."""
    scans = []

    def recording(f, signs=lambda vals: vals):
        def call(*args, **kwargs):
            vals = f(*args, **kwargs)
            scans.append(signs(vals).tobytes())
            return vals
        return call

    monkeypatch.setattr(selection, "_scan", recording(_SCAN))
    monkeypatch.setattr(selection, "_grid_signs", recording(_GRID_SIGNS, lambda out: out[0]))
    res = e.fit(family, y, qgrid)
    return res, (repr((res.lambda_hat, res.q_hat, res.q_star, res.sigma2_hat, res.boundary,
                       [(d.q, d.lambda_hat, d.t_q_value, d.boundary)
                        for d in res.selection.per_q])), res.fitted.tobytes(), scans)


# 16,385 scans in one-row blocks; a spacing of 0.3 leaves q_hat off the grid,
# so fit solves that order afresh
@pytest.mark.parametrize("n,spacing", [(1000, 0.3), (1000, 0.5), (16385, 0.5)])
def test_fits_on_a_warm_family_equal_fits_on_a_fresh_one(n, spacing, monkeypatch):
    grid = e.design_grid(n)
    warm = e.ModelFamily(grid)
    rng = np.random.default_rng(n)
    cases = [(kind, sigma, qgrid) for qgrid in (None, e.default_q_grid(n, refine=spacing))
             for kind, sigma in (("f1-spectral", 0.01), ("f2-cosine", 0.01),
                                 ("f2-cosine", 3.0))]
    boundary = off_grid = 0
    for kind, sigma, qgrid in cases:
        y = e.Generator(kind=kind).values(grid) + sigma * rng.standard_normal(n)
        res, bits = _fit_bits(monkeypatch, warm, y, qgrid)
        assert bits == _fit_bits(monkeypatch, e.ModelFamily(grid), y, qgrid)[1]
        boundary += any(d.boundary for d in res.selection.per_q)
        off_grid += all(d.q != res.q_hat for d in res.selection.per_q)
    assert boundary  # sigma = 3 reaches the boundary solves
    assert off_grid or spacing == 0.5


@pytest.mark.parametrize("n", [200, 1000, 16385])
def test_t_lam_lies_within_its_bounds(n):
    # the loop formula's T_lam lies within the bounds, widened by their
    # slack: at each scan lambda, from the sums at its block's cuts, and at a
    # lambda inside each bracket, from the sums at the upper end's block's
    # head cut and the lower end's block's tail cut (the band's sums by the
    # loop formula too); a family keeps its models and one scan plan per
    # model, which has no part of length n and sees no data: it is the same
    # after fits on two data sets and the same as a plan built afresh
    fam = e.ModelFamily(e.design_grid(n))
    rng = np.random.default_rng(n)
    ys = [e.Generator(kind=kind).values(fam.grid) + sigma * rng.standard_normal(n)
          for kind in ("f1-spectral", "f2-cosine") for sigma in (0.01, 1.0)]
    x = fam.basis.forward(selection._unit_scale(np.array(ys), "y")[0])
    grid = selection._SCAN_GRID
    mids = np.exp(rng.uniform(np.log(grid[:-1]), np.log(grid[1:])))
    for q in e.default_q_grid(n):
        m = fam.model(q)
        x2s, nz = selection._tails(m.eigen, x)
        _, parts = selection._grid_signs([(m.eigen, x2s)])
        assert parts.shape == (13, len(x2s), len(grid))
        lo, hi, slack = selection._t_bounds(n, grid, *parts[10:], parts[:10:2], parts[1:10:2])
        t = np.array([[_loop_t_lam(x2, nz, n, lam) for lam in grid] for x2 in x2s])
        assert (lo - slack <= t).all() and (t <= hi + slack).all()
        for x2, ends in zip(x2s, parts[:10].transpose(1, 0, 2)):
            sums = []
            for j, lam in enumerate(mids):
                band = slice(int(ends[0, j + 1]), int(ends[1, j]))
                u = lam * nz[band]
                r = u / (1.0 + u)
                sums.append((x2[band] @ (r / (1.0 + u)), x2[band] @ r, np.sum(1.0 / (1.0 + u))))
            lo, hi, slack = selection._t_bounds(n, mids, *np.array(sums).T, ends[::2, 1:],
                                                ends[1::2, :-1])
            t = np.array([_loop_t_lam(x2, nz, n, lam) for lam in mids])
            assert (lo - slack <= t).all() and (t <= hi + slack).all()
    e.fit(fam, ys[0])
    kept = {q: _plan_parts(plan) for q, plan in fam._plans.items()}
    e.fit(fam, ys[3])
    assert vars(fam).keys() == {"grid", "basis", "_models", "_plans"}
    assert all(type(v) is e.SpectralModel for v in fam._models.values())
    assert fam._plans.keys() == fam._models.keys() == kept.keys()
    for q, plan in fam._plans.items():
        parts = _plan_parts(plan)
        assert max(p.size for p in parts) <= 6 * len(grid)
        assert all(n not in p.shape for p in parts)
        assert _same_parts(parts, kept[q])
        assert _same_parts(parts, _plan_parts(selection._scan_plan(fam.model(q).eigen.tail)))


def _plan_parts(plan):
    """The parts of a scan plan (``selection._scan_plan``), as arrays."""
    blocks, (hs, ts, *offsets), fixed = plan
    return [np.array(blocks, dtype=int).reshape(-1, 4), np.array(hs, dtype=int),
            np.array(ts, dtype=int), *(np.array(a) for a in offsets), np.array(fixed)]


def _same_parts(a, b):
    return len(a) == len(b) and all(x.dtype == y.dtype and x.shape == y.shape
                                    and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_a_family_plans_each_order_once(monkeypatch):
    # three fits on one family plan each order of the default grid once, at
    # its first fit; a solve on a model of no family plans on the call
    fam = e.ModelFamily(e.design_grid(1000))
    f = e.Generator(kind="f2-cosine").values(fam.grid)
    rng = np.random.default_rng(7)
    plan, planned = selection._scan_plan, []

    def counting(nz):
        planned.append(len(nz))
        return plan(nz)

    monkeypatch.setattr(selection, "_scan_plan", counting)
    for _ in range(3):
        e.fit(fam, f + 0.01 * rng.standard_normal(1000))
    assert sorted(planned) == [1000 - q for q in range(6, 0, -1)]
    m = e.spectral_model(fam.grid, 2.0)
    e.solve_lambda(m, m.basis.forward(f))
    assert planned[6:] == [998]


def test_a_familys_first_fit_keeps_under_64_kb():
    # what a family keeps past its models from its first fit, at n = 64,000:
    # six plans of a few hundred numbers each, about 21 KB
    fam = e.ModelFamily(e.design_grid(64000))
    for q in e.default_q_grid(64000):
        fam.model(q)
    y = e.Generator(kind="f1-spectral").values(fam.grid) \
        + 0.01 * np.random.default_rng(5).standard_normal(64000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        e.fit(fam, y)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fam._plans) == 6 and grown < 64 * 2**10


def test_a_model_comes_with_its_plan():
    # the family plans an order when it builds its model, before any fit
    fam = e.ModelFamily(e.design_grid(1000))
    assert fam._plans == {}
    m = fam.model(2)
    assert fam._plans.keys() == fam._models.keys() == {2.0}
    assert _same_parts(_plan_parts(fam._plans[2.0]),
                       _plan_parts(selection._scan_plan(m.eigen.tail)))
    assert fam.model(2.0) is m and fam._plans.keys() == {2.0}


@pytest.mark.parametrize("n,q", [(n, q) for n in (8, 1000, 16385, 64000)
                                 for q in (1.0, 2.2, 3.0, 6.0) if n > 2 * math.floor(q)])
def test_plan_sums_match_exact_sums(n, q):
    # the plan's sum nz over each scan lambda's head i < H and sum 1/nz over
    # its tail i >= K, within (entries) eps of the exactly rounded sum
    nz = e.ModelFamily(e.design_grid(n)).model(q).eigen.tail
    fixed = selection._scan_plan(nz)[2]  # H, K, nz[H - 1], nz[K] and the two sums
    for (h, k), (head, tail) in zip(fixed[:2].T.astype(int).tolist(), fixed[4:].T.tolist()):
        for got, terms in ((head, nz[:h]), (tail, 1.0 / nz[k:])):
            exact = math.fsum(terms)
            assert abs(got - exact) <= len(terms) * 2.0 ** -53 * exact


def test_stand_alone_model_solve_equals_the_familys():
    # a family keeps no sum that sees the data, only data-free scan plans:
    # after a fit on a production family, a model of no family solves as the
    # family's model of its order and as the loop solver
    grid = e.design_grid(256)
    y = e.Generator(kind="f1-spectral").values(grid) \
        + 0.01 * np.random.default_rng(3).standard_normal(256)
    fam = e.ModelFamily(grid)
    e.fit(fam, y)
    m = e.spectral_model(grid, 2.0)
    x = m.basis.forward(y)
    assert e.solve_lambda(m, x) == e.solve_lambda(fam.model(2.0), x) == _loop_solve_lambda(m, x)


# -- the bracketing scan's signs, from rows built on a band -------------------

def _loop_signs(x2s, nz, n):
    return np.sign([[_loop_t_lam(x2, nz, n, lam) for lam in selection._SCAN_GRID]
                    for x2 in x2s])


def _recording_heads(monkeypatch):
    """The length of the rows of each block built from here on."""
    heads = []
    outer = selection._outer

    def record(lams, nz, out):
        heads.append(len(nz))
        outer(lams, nz, out)

    monkeypatch.setattr(selection, "_outer", record)
    return heads


def _recording_scans(monkeypatch):
    """The lambdas of the full rows ``_scan`` builds from here on."""
    lams = []

    def scan(rows_fn, x2s, nz, at, *rest):
        lams.extend(at.tolist())
        return _SCAN(rows_fn, x2s, nz, at, *rest)

    monkeypatch.setattr(selection, "_scan", scan)
    return lams


@pytest.mark.parametrize("n", [8, 1000, 16385])
def test_bracket_signs_equal_the_full_rows_signs(n, monkeypatch):
    # f1 and f2 at four noise levels, two of them at data scales whose
    # squares leave the float range, and the oracle rows E X^2 = B^2 + sigma^2,
    # order by order and all orders in one scan.  Each order has lambdas whose
    # band 1e-3 <= u < 1e3 is empty, which build nothing, and bands cut at one
    # end or both; at q = 1 and 2 and n = 16,385 some rows are all head
    # (u < 1e-3 across the row).  One row per block makes each band a block
    fam = e.ModelFamily(e.design_grid(n))
    rng = np.random.default_rng(n)
    ys, oracle = [], []
    for kind in ("f1-spectral", "f2-cosine"):
        f = e.Generator(kind=kind).values(fam.grid)
        ys += [f + sigma * rng.standard_normal(n) for sigma in (0.001, 0.01, 1.0, 3.0)]
        oracle.append(fam.basis.forward(f) ** 2 + 0.01 ** 2)
    ys += [2.0 ** -520 * ys[1], 2.0 ** 510 * ys[5]]
    x = fam.basis.forward(selection._unit_scale(np.array(ys), "y")[0])
    entries = selection._BLOCK_ENTRIES
    problems, wants = [], []
    for q in e.default_q_grid(n):
        m = fam.model(q)
        nz = m.eigen.tail
        x2s = np.vstack([selection._tails(m.eigen, x)[0], np.array(oracle)[:, m.null_dim:]])
        want = _loop_signs(x2s, nz, n)
        head, cut = np.split(np.searchsorted(nz, selection._BAND_ENDS), 2)
        bands = [int(c - h) for h, c in zip(head, cut) if h < c]
        assert (head == cut).any() and ((head < cut) & ((head > 0) | (cut < len(nz)))).any()
        if n == 16385 and q <= 2:
            assert (head == len(nz)).any()
        for block in (entries, 1):
            monkeypatch.setattr(selection, "_BLOCK_ENTRIES", block)
            heads, full = _recording_heads(monkeypatch), _recording_scans(monkeypatch)
            assert np.array_equal(selection._grid_signs([(m.eigen, x2s)])[0], want)
            # all-head rows are settled: there T_lam is about (d/n^2) B, which
            # only the head's identities keep from the bounds' width
            assert not set(selection._SCAN_GRID[head == len(nz)].tolist()) & set(full)
            if block == 1:
                assert heads[:len(bands)] == bands
            for k in (0, 9, len(x2s) - 1):  # a stack of one row
                assert np.array_equal(selection._grid_signs([(m.eigen, x2s[k:k + 1])])[0],
                                      want[k:k + 1])
        monkeypatch.setattr(selection, "_BLOCK_ENTRIES", entries)
        problems.append((m.eigen, x2s))
        wants.append(want)
    assert np.array_equal(selection._grid_signs(problems)[0], np.vstack(wants))


def test_a_sign_within_the_slack_takes_the_full_row(monkeypatch):
    # T_lam is linear in x2, so between two rows whose signs differ at a
    # grid lambda lies a row on which it is 0 to rounding.  Where the band
    # 1e-3 <= u < 1e3 holds the whole row (n = 200, q = 1), nothing is bound
    # in closed form and the bounds meet at the band's sums, which round
    # otherwise than the full row's: only the slack keeps the full row's sign
    # (with no slack, some of these rows change sign)
    n = 200
    fam = e.ModelFamily(e.design_grid(n))
    m = fam.model(1.0)
    nz = m.eigen.tail
    f = e.Generator(kind="f1-spectral").values(fam.grid)
    noise = np.random.default_rng(5).standard_normal(n)
    a, b = selection._tails(m.eigen, fam.basis.forward(
        selection._unit_scale(np.array([f + 0.01 * noise, f + noise]), "y")[0]))[0]
    head, cut = np.split(np.searchsorted(nz, selection._BAND_ENDS), 2)
    lams = selection._SCAN_GRID
    j = next(j for j in np.flatnonzero((head == 0) & (cut == len(nz)))
             if _loop_t_lam(a, nz, n, lams[j]) * _loop_t_lam(b, nz, n, lams[j]) < 0)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        t_mid = _loop_t_lam((1 - mid) * a + mid * b, nz, n, lams[j])
        lo, hi = (mid, hi) if (t_mid > 0) == (_loop_t_lam(a, nz, n, lams[j]) > 0) else (lo, mid)
    rows = ((1 - lo) * a + lo * b) * (1 + np.random.default_rng(1).integers(
        -4, 5, (256, len(nz))) * 2.0 ** -52)
    want = np.sign(selection._scan(functools.partial(selection._t_rows, n, None),
                                   rows, nz, lams))
    assert {-1.0, 1.0} <= set(want[:, j])
    full = []

    def scan(rows_fn, x2s, nz, lams, *rest):
        full.append((len(nz), lams.tolist()))
        return _SCAN(rows_fn, x2s, nz, lams, *rest)

    monkeypatch.setattr(selection, "_scan", scan)
    rebuilt = 0
    for row, signs in zip(rows, want):  # one row at a time
        del full[:]
        assert np.array_equal(selection._grid_signs([(m.eigen, row[None])])[0][0], signs)
        assert all(size == len(nz) for size, _ in full)  # each lambda left open, in full
        rebuilt += any(lams[j] in built for _, built in full)
    assert rebuilt > 32


@pytest.mark.parametrize("n", [1000, 16385])
def test_fresh_families_and_stand_alone_solves_cut_their_rows(n, monkeypatch):
    # a family keeps no rows for its later fits, only data-free plans: the
    # first fit on a new family builds the rows a later fit builds, bracket
    # rows on their bands, and a solve on a model of no family cuts its rows too
    grid = e.design_grid(n)
    y = e.Generator(kind="f1-spectral").values(grid) \
        + 0.01 * np.random.default_rng(n).standard_normal(n)
    fam = e.ModelFamily(grid)
    heads = _recording_heads(monkeypatch)
    res = e.fit(fam, y)
    fresh = list(heads)
    del heads[:]
    e.fit(fam, y)
    assert heads == fresh
    assert min(heads) < n - 6  # every order's tail holds n - 6 entries at least
    for d in res.selection.per_q:
        assert d.lambda_hat == _loop_solve_lambda(fam.model(d.q), res.coeffs).lam
    m = e.spectral_model(grid, 3.0)
    x = m.basis.forward(y)
    del heads[:]
    assert e.solve_lambda(m, x) == _loop_solve_lambda(m, x)
    assert min(heads) < len(m.eigen.tail)


# -- the bisection rounds, on rows built on a band ------------------------------

@pytest.mark.parametrize("n", [16385, 64000])
def test_large_solves_equal_the_loop_solver(n, monkeypatch):
    # lambda and t_value of solve_lambda against the loop solver at q = 1 to
    # 6, f1 and f2 at sigma = 0.01 and 1.  At q >= 2 every round's band row
    # is shorter than the row, and the bounds settle most midpoints on it
    # (the last round of a solve that stops at |T_lam| <= tol is not); each
    # solve's last round builds its full row
    fam = e.ModelFamily(e.design_grid(n))
    band_rows, full = [], set()
    rows_of = selection._band_rows

    def rows(lams, bands, buf):
        band_rows.extend(zip(lams.tolist(), (len(nz) for nz, _ in bands)))
        return rows_of(lams, bands, buf)

    def scan(rows_fn, x2s, nz, lams, *rest):
        full.update(lams.tolist())
        return _SCAN(rows_fn, x2s, nz, lams, *rest)

    monkeypatch.setattr(selection, "_band_rows", rows)
    monkeypatch.setattr(selection, "_scan", scan)
    rng, settled = np.random.default_rng(n), []
    for kind in ("f1-spectral", "f2-cosine"):
        f = e.Generator(kind=kind).values(fam.grid)
        for sigma in (0.01, 1.0):
            y = f + sigma * rng.standard_normal(n)
            for q in e.default_q_grid(n):
                m = fam.model(q)
                x = m.basis.forward(y)
                del band_rows[:]
                full.clear()
                sol = e.solve_lambda(m, x)
                assert sol == _loop_solve_lambda(m, x)
                assert sol.boundary or sol.lam in full
                if q >= 2 and not sol.boundary:
                    assert all(size < len(m.eigen.tail) for _, size in band_rows)
                    settled += [lam not in full for lam, _ in band_rows]
    assert sum(settled) > 0.8 * len(settled) > 100


# -- lanes at one lambda share its row -----------------------------------------

def _counting(rows_fn, built):
    """``rows_fn``, adding the number of rows each call builds to built[0]."""
    def rows(u, v, w):
        built[0] += len(u)
        return rows_fn(u, v, w)
    return rows


@pytest.mark.parametrize("n,stack", [(1000, 32), (1000, 1), (8192, 5)])
def test_lanes_that_share_rows_equal_lanes_scanned_alone(n, stack):
    # each of 3 blocks' worth of distinct lambdas serves 3 lanes in shuffled
    # order; at n = 8192 a block holds 2 rows, so the shared rows span 3
    # blocks, and a stack of one row serves every lane uncopied
    m, y = _data(n, 3.0)
    rng = np.random.default_rng(n + stack)
    x2s, nz = selection._tails(m.eigen, m.basis.forward(
        y + 0.01 * rng.standard_normal((stack, n))))
    step = selection._BLOCK_ENTRIES // len(nz)
    assert step == (16 if n == 1000 else 2)
    distinct = 10.0 ** rng.uniform(-28, 0, 3 * step)
    lams = rng.permutation(np.repeat(distinct, 3))
    lanes = rng.integers(0, stack, len(lams))
    for rows_fn in (functools.partial(selection._t_rows, n, None),
                    functools.partial(selection._t_rows, n, m.eigen.log_tail),
                    functools.partial(gcv._crit_rows, n)):
        built = [0]
        vals = selection._scan(_counting(rows_fn, built), x2s, nz, lams, lanes)
        assert built[0] == len(distinct)
        alone = [selection._scan(rows_fn, x2s, nz, lams[k:k + 1], lanes[k:k + 1])
                 for k in range(len(lams))]
        assert vals.tobytes() == np.concatenate(alone).tobytes()


def test_lanes_at_three_lambdas_build_three_rows():
    m, y = _data(1000, 2.0)
    x2s, nz = selection._tails(m.eigen, m.basis.forward(
        y + 0.01 * np.random.default_rng(1).standard_normal((32, 1000))))
    lams = np.array([1e-12, 1e-9, 1e-6])[np.arange(32) % 3]
    built = [0]
    rows_fn = _counting(functools.partial(selection._t_rows, 1000, None), built)
    selection._scan(rows_fn, x2s, nz, lams, np.arange(32))
    assert built[0] == 3
