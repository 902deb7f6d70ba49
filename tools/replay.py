"""Write the package's seeded outputs into a directory, to compare two trees.

    PYTHONPATH=<tree>/src python tools/replay.py OUTDIR

    PYTHONPATH=<tree>/src python tools/replay.py OUTDIR --check OTHER/MANIFEST

Run it once per source tree and compare the directories with ``diff -r``:
a change that keeps every seeded output shows no difference.  Each run also
writes ``OUTDIR/MANIFEST``: a header line naming the environment (NumPy,
SciPy, the BLAS build and ``OPENBLAS_NUM_THREADS``) and one ``sha256  file``
line per output.  With ``--check`` the run compares its manifest with another
one: it refuses (exit 2) when the headers differ, since the outputs are only
comparable under one environment, and otherwise names each output that
moved, appeared or went missing (exit 1 if any did, 0 if none).  The outputs
are the ``simulate`` report and table of the two acceptance studies and of
seven more studies (boundary solves at large noise, an odd n, a real-valued
order grid, one that holds no integer order, so that every q_hat takes a
fresh lambda solve, small n, a generator not scaled by its range, and one
block of 8 replicates at n = 4096, where a block of scan rows holds 4 rows
and the lanes at one lambda share its row), two ``compare``
reports (one at alpha = 0.1 whose config also carries the Monte Carlo
oracle's ``mc_draws`` and ``radius_seed``), ``fit --out --fitted-csv`` with
and without ``--qstep 0.3`` and ``credible`` (ball JSON and samples CSV) on
four data files, a ``credible`` request of the benchmark's shape (n = 2000,
``--draws 20``), ``fit --fitted-csv`` on f1 data scaled by 2^-60 (every y and
fitted value below 1e-13, so each CSV block takes the one-``%`` format), the
``oracle`` payloads of both generators at q = 1 to 4 and one ``kappa``
payload, and the reports of ``coverage_experiment`` and
``gcv_ball_experiment`` (JSON and ``repr``, so float bits show), the
``repr`` of q_hat, q* and lambda_hat of five library fits on the grid
(1.2, 1.7, 2.2, 2.7, 3.2) whose q* rounds below it (f1 at n = 128,
sigma = 0.01 and at n = 1000, sigma = 3), so that the grid clamps q_hat, and a
sequence of library fits on one warm ``ModelFamily`` per size (6 at
n = 16,385, 2 at n = 64,000, f1 and f2 in turn): the ``repr`` of lambda_hat,
q_hat, q*, sigma2_hat and the per-order lambda_hat and T_q, and the sha256 of
the fitted values, the same of two fits at sigma = 1 on a warm family at
n = 64,000 (roots at large lambda, where the bracketing scan builds its
shortest rows), the same of 32 replicates at n = 4096 selected together
(``selection._fits``; a scan of their lanes builds more than one block of
shared rows) with their GCV lambdas at q = 3, the ``repr`` of lambda and
t_value of stand-alone ``solve_lambda`` calls at n = 64,000 (f1 at
sigma = 0.001, 0.01 and 1, q = 1, 2 and 3), and the ``repr`` of the
lambda_hat of ``solve_lambda`` and ``select_lambda_gcv`` (q = 3) and of
``fit`` on one f1 data set (n = 1000, sigma = 0.01) at the data scales
2^-520, 1 and 2^510 (or of the error a call raises).  It takes 4 to 12
seconds on two cores.

The run needs a fixed BLAS thread count: at large n (measured at n = 16,000
and 64,000) OpenBLAS splits ``np.dot`` and ``np.vecdot`` across threads and
the last digit of a result can depend on how many, so the warm-family outputs
would differ between two trees replayed under different defaults.  The tool
therefore sets ``OPENBLAS_NUM_THREADS`` to 1 before NumPy loads, unless the
environment already sets it; set the same value for both trees.
"""

import argparse
import hashlib
import json
import os
import sys

# OpenBLAS reads the thread count once, when NumPy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import scipy

import ebsplines as e
from ebsplines import cli, gcv, selection


def main(out: str) -> None:
    os.makedirs(out, exist_ok=True)

    def path(name):
        return os.path.join(out, name)

    def report(name, d):
        with open(path(name), "w") as fh:
            fh.write(json.dumps(d, sort_keys=True) + "\n" + repr(d) + "\n")

    def simulate(tag, cfg):
        with open(path(f"{tag}.cfg.json"), "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["simulate", path(f"{tag}.cfg.json"), "--out",
                         path(f"{tag}.report.json"), "--table", path(f"{tag}.table.csv")]) == 0

    for kind, seed in (("f1-spectral", 1234), ("f2-cosine", 5678)):
        simulate(kind, {"generator": {"kind": kind}, "n": 1000, "replicates": 200,
                        "sigma": 0.01, "seed": seed, "design_convention": "right"})
    simulate("f2-sigma3", {"generator": {"kind": "f2-cosine"}, "n": 997, "replicates": 37,
                           "sigma": 3.0, "seed": 11})
    simulate("f1-qgrid", {"generator": {"kind": "f1-spectral"}, "n": 2000, "replicates": 40,
                          "sigma": 0.3, "seed": 12, "q_grid": [1, 1.5, 2, 3, 4]})
    simulate("f1-offgrid", {"generator": {"kind": "f1-spectral"}, "n": 1000, "replicates": 40,
                            "sigma": 0.01, "seed": 16, "q_grid": [1.2, 1.7, 2.2, 2.7, 3.2]})
    simulate("f2-n300", {"generator": {"kind": "f2-cosine"}, "n": 300, "replicates": 70,
                         "sigma": 0.001, "seed": 13, "gcv_orders": [1, 2, 3]})
    simulate("f1-n64", {"generator": {"kind": "f1-spectral"}, "n": 64, "replicates": 9,
                        "sigma": 0.05, "seed": 14})
    simulate("f2-unscaled", {"generator": {"kind": "f2-cosine", "scale_by_range": False},
                             "n": 500, "replicates": 20, "sigma": 0.05, "seed": 15})
    simulate("f1-n4096", {"generator": {"kind": "f1-spectral"}, "n": 4096, "replicates": 8,
                          "sigma": 0.01, "seed": 17})

    def compare(tag, cfg):
        with open(path(f"{tag}.cfg.json"), "w") as fh:
            json.dump(cfg, fh)
        assert cli.main(["compare", path(f"{tag}.cfg.json"),
                         "--out", path(f"{tag}.json")]) == 0

    compare("compare", {"generator": {"kind": "f1-spectral"}, "n": 1000,
                        "q_choices": [2.0, 3.0], "replicates": 60, "sigma": 0.01, "seed": 99})
    compare("compare-mc-keys", {"generator": {"kind": "f1-spectral"}, "n": 500,
                                "q_choices": [2.0], "replicates": 30, "sigma": 0.01,
                                "seed": 98, "alpha": 0.1, "mc_draws": 10000,
                                "radius_seed": 5})

    rng = np.random.default_rng(2024)
    for kind, n, sigma in (("f1-spectral", 1000, 0.01), ("f2-cosine", 2000, 0.3),
                           ("f2-cosine", 500, 3.0), ("f1-spectral", 4096, 0.001)):
        grid = e.design_grid(n)
        y = e.Generator(kind=kind).values(grid) + sigma * rng.standard_normal(n)
        tag = f"{kind}-{n}-{sigma}"
        data = path(f"{tag}.csv")
        np.savetxt(data, np.column_stack([grid.x, y]), delimiter=",", header="x,y",
                   comments="", fmt="%.17g")
        for extra, sfx in (((), ""), (("--qstep", "0.3"), "-qstep0.3")):
            assert cli.main(["fit", data, "--out", path(f"{tag}{sfx}.fit.json"),
                             "--fitted-csv", path(f"{tag}{sfx}.fitted.csv"), *extra]) == 0
        assert cli.main(["credible", data, "--out", path(f"{tag}.ball.json"),
                         "--samples-csv", path(f"{tag}.samples.csv"), "--draws", "5",
                         "--seed", "3"]) == 0

    # the benchmark's request: n = 2000, 20 posterior curves
    grid = e.design_grid(2000)
    y = e.Generator(kind="f2-cosine").values(grid) + 0.01 * rng.standard_normal(2000)
    with open(path("request.csv"), "w") as fh:
        fh.write("y\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    assert cli.main(["credible", path("request.csv"), "--seed", "7", "--draws", "20",
                     "--mc-draws", "10000", "--samples-csv", path("request.samples.csv"),
                     "--out", path("request.ball.json")]) == 0
    # data far below 1e-13: every block of the fitted CSV takes the one-% format
    y = 2.0 ** -60 * (e.Generator(kind="f1-spectral").values(grid)
                      + 0.01 * rng.standard_normal(2000))
    with open(path("tiny.csv"), "w") as fh:
        fh.write("y\n" + "".join(f"{v!r}\n" for v in y.tolist()))
    assert cli.main(["fit", path("tiny.csv"), "--out", path("tiny.fit.json"),
                     "--fitted-csv", path("tiny.fitted.csv")]) == 0

    for kind in ("f1-spectral", "f2-cosine"):
        for q in ("1", "2", "3", "4"):
            assert cli.main(["oracle", "--generator", kind, "--q", q,
                             "--out", path(f"oracle-{kind}-q{q}.json")]) == 0
    assert cli.main(["kappa", "--q", "2.5", "--m", "1", "--l", "2",
                     "--out", path("kappa.json")]) == 0

    f1 = e.Generator(kind="f1-spectral")
    for n in (500, 1000, 2000):
        report(f"coverage-{n}.txt", e.coverage_experiment(
            f1, n=n, replicates=100, L=2.0, sigma=0.01, seed=4000 + n).to_dict())
        report(f"gcv-ball-{n}.txt", e.gcv_ball_experiment(
            f1, n=n, q_choices=(1.0, 2.0, 3.0), replicates=60, sigma=0.01,
            seed=8000 + n).to_dict())
    report("coverage-f2.txt", e.coverage_experiment(
        e.Generator(kind="f2-cosine"), n=777, replicates=50, sigma=0.3, seed=5).to_dict())

    # a refined grid below whose first order q* rounds, so the grid clamps q_hat
    with open(path("fit-clamp.txt"), "w") as fh:
        for n, sigma, seeds in ((128, 0.01, range(4)), (1000, 3.0, range(1))):
            family = e.ModelFamily(e.design_grid(n))
            for seed in seeds:
                y = f1.values(family.grid) + sigma * np.random.default_rng(seed).standard_normal(n)
                res = e.fit(family, y, (1.2, 1.7, 2.2, 2.7, 3.2))
                fh.write(repr((n, sigma, seed, res.q_hat, res.selection.q_hat, res.q_star,
                               res.lambda_hat)) + "\n")

    # later fits on a family reuse what its earlier fits left in it
    rng = np.random.default_rng(2025)
    for n, fits in ((16385, 6), (64000, 2)):
        family = e.ModelFamily(e.design_grid(n))
        with open(path(f"warm-family-{n}.txt"), "w") as fh:
            for i in range(fits):
                kind = ("f1-spectral", "f2-cosine")[i % 2]
                y = e.Generator(kind=kind).values(family.grid) + 0.01 * rng.standard_normal(n)
                res = e.fit(family, y)
                fh.write(repr((kind, res.lambda_hat, res.q_hat, res.q_star, res.sigma2_hat,
                               [(d.q, d.lambda_hat, d.t_q_value)
                                for d in res.selection.per_q])) + "\n")
                fh.write(hashlib.sha256(res.fitted.tobytes()).hexdigest() + "\n")

    # sigma = 1 on a warm family at n = 64,000: the roots sit at large lambda,
    # where the bracketing scan builds its shortest rows
    family = e.ModelFamily(e.design_grid(64000))
    with open(path("warm-family-64000-sigma1.txt"), "w") as fh:
        for seed in (1, 2):  # a fit on a fresh family, then one on the same family
            y = f1.values(family.grid) + np.random.default_rng(seed).standard_normal(64000)
            res = e.fit(family, y)
            fh.write(repr((res.lambda_hat, res.q_hat, res.q_star, res.sigma2_hat,
                           [(d.lambda_hat, d.t_q_value) for d in res.selection.per_q]))
                     + "\n" + hashlib.sha256(res.fitted.tobytes()).hexdigest() + "\n")

    # 32 replicates selected together at n = 4096 (4 rows per block of scan
    # rows): an experiment's block of 8 replicates seldom hands a scan more
    # than 8 lanes, whose shared rows then fit one block; 32 lanes' span several
    family = e.ModelFamily(e.design_grid(4096))
    y = f1.values(family.grid) + 0.01 * np.random.default_rng(3).standard_normal((32, 4096))
    with open(path("batch-4096.txt"), "w") as fh:
        for res in selection._fits(family, y):
            fh.write(repr((res.lambda_hat, res.q_hat, res.q_star, res.sigma2_hat,
                           [(d.lambda_hat, d.t_q_value) for d in res.selection.per_q]))
                     + "\n" + hashlib.sha256(res.fitted.tobytes()).hexdigest() + "\n")
        m = family.model(3.0)
        fh.write(repr([g.lambda_f_hat for g in gcv._select_gcvs(m, m.basis.forward(y))]) + "\n")

    # stand-alone lambda solves at n = 64,000, whose bisection rounds bound
    # their midpoints on the band 1e-3 <= lam n eta < 1e3 of each row
    family = e.ModelFamily(e.design_grid(64000))
    with open(path("solve-64000.txt"), "w") as fh:
        for sigma in (0.001, 0.01, 1.0):
            y = f1.values(family.grid) + sigma * np.random.default_rng(4).standard_normal(64000)
            for q in (1.0, 2.0, 3.0):
                m = family.model(q)
                sol = e.solve_lambda(m, m.basis.forward(y))
                fh.write(repr((sigma, q, sol.lam, sol.t_value)) + "\n")

    # the selectors at unit scale and at scales whose squares leave the float range
    family = e.ModelFamily(e.design_grid(1000))
    m = family.model(3.0)
    y1 = f1.values(family.grid) + 0.01 * np.random.default_rng(1).standard_normal(1000)
    selectors = (("solve_lambda", lambda y: e.solve_lambda(m, m.basis.forward(y)).lam),
                 ("select_lambda_gcv", lambda y: e.select_lambda_gcv(m, y).lambda_f_hat),
                 ("fit", lambda y: e.fit(family, y).lambda_hat))
    with open(path("selector-scales.txt"), "w") as fh:
        for c in (2.0 ** -520, 1.0, 2.0 ** 510):
            for name, select in selectors:
                try:
                    got = select(c * y1)
                except e.EbsplinesError as exc:
                    got = exc
                fh.write(f"{name} {c!r}: {got!r}\n")


def manifest(out: str) -> list[str]:
    """The environment header and one ``sha256  file`` line per output."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [f"# numpy {np.__version__}, scipy {scipy.__version__}, blas {blas['name']} "
             f"{blas['version']}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"]
    for name in sorted(os.listdir(out)):
        if name != "MANIFEST":
            with open(os.path.join(out, name), "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")
    return lines


def check(lines: list[str], other: list[str]) -> int:
    """Compare a manifest with another: 2 if their environments differ, else
    1 if any output moved, appeared or went missing, else 0."""
    if lines[0] != other[0]:
        print(f"refused: this run's environment\n  {lines[0]}\nis not the other manifest's\n"
              f"  {other[0]}")
        return 2
    new, old = (dict(line.split("  ", 1)[::-1] for line in m[1:]) for m in (lines, other))
    moved = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    for name in moved:
        print("moved:" if name in new and name in old else
              "new:" if name in new else "missing:", name)
    print(f"{len(new.keys() | old.keys()) - len(moved)} of {len(new)} outputs unchanged")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--check", metavar="MANIFEST",
                        help="compare this run's manifest with MANIFEST")
    args = parser.parse_args()
    if args.check:
        with open(args.check) as fh:  # before the run, which may overwrite it
            other = fh.read().splitlines()
    main(args.outdir)
    lines = manifest(args.outdir)
    with open(os.path.join(args.outdir, "MANIFEST"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    sys.exit(check(lines, other) if args.check else 0)
