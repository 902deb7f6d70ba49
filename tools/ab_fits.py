"""Time ``selection._fits`` and ``gcv._select_gcvs`` of two source trees against
each other, in one process.

    python tools/ab_fits.py OLD_SRC NEW_SRC [--rounds R]

OLD_SRC and NEW_SRC are the ``src`` directories of two trees (or the trees
themselves).  Each is loaded under its own package name (``ebsplines_old``,
``ebsplines_new``), so both run side by side on the same data.  The cases are
f1 at sigma = 0.01 (noise ``default_rng(3)``, the default order grid, a warm
``ModelFamily`` per tree): single rows at n = 1000, 16,000 and 64,000, and
the stacks ``simlab._record`` hands ``_fits`` (a block of max(1, 2^15 // n)
replicates): 32 rows at n = 1000 and 16 at n = 2000, which ``simulate`` and
``compare`` select together, and 8 rows at n = 4096 and 2 at n = 16,000,
where the stacks' rows are long.  Two GCV cases time ``gcv._select_gcvs``
over a block's orders, on the block's coefficients at unit scale, as
``simlab._record`` runs it: the ``simulate`` block (32 rows at n = 1000,
orders 2 to 6) and the ``compare`` block (16 rows at n = 2000, order 2).

For every case the tool first checks that both trees give the same
lambda_hat, q_hat, q* and per-order diagnostics (q, lambda_hat, T_q and the
boundary flag, compared by ``repr``, so bit for bit), on fresh families and
again on the same families, now warm (what a family keeps shows only on its
next fit), and exits 1 where they differ.  A GCV case prints how many of the
trees' GCV lambdas differ and the largest |log ratio| of two, and each
tree's GCV evaluations per lane after the coarse grid; GCV differences do
not fail the run.  Then it times the two trees in alternation, one call
each per round with the order swapped every round,
and prints the median of each tree, their ratio (new / old) and the share
of rounds in which the new tree was faster.  A last line predicts ``perfbench``'s ``fit-ladder`` workload:
the old and new time of one of its rounds (16 fits at n = 1000, 4 at 16,000
and 1 at 64,000) from the single-row medians, and their ratio.  R rounds per
case default to 1000 / 100 / 30 for the single rows at n = 1000 / 16,000 /
64,000, 300 for the stacks at n = 1000 and 2000, 100 for the two longer
ones and 100 for the GCV cases, about 45 seconds in all on two cores.  A
first line gives each tree's ``src/ebsplines/*.py`` line count
(``cat src/ebsplines/*.py | wc -l``).

The BLAS thread count is set to 1 before NumPy loads (unless the environment
sets it), so a timing does not depend on how OpenBLAS splits a product.
"""

import argparse
import glob
import importlib.util
import math
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# (label, n, rows, default rounds)
CASES = [("single", 1000, 1, 1000), ("single", 16000, 1, 100), ("single", 64000, 1, 30),
         ("stack", 1000, 32, 300), ("stack", 2000, 16, 300), ("stack", 4096, 8, 100),
         ("stack", 16000, 2, 100), ("gcv", 1000, 32, 100), ("gcv", 2000, 16, 100)]
# the GCV orders of the ``simulate`` and ``compare`` blocks, by n
GCV_ORDERS = {1000: (2.0, 3.0, 4.0, 5.0, 6.0), 2000: (2.0,)}
# fits per round of ``perfbench``'s ``fit-ladder`` workload, by n
LADDER = {1000: 16, 16000: 4, 64000: 1}


def package(src: str) -> str:
    """The ``ebsplines`` directory of a tree's ``src`` directory (or of the tree)."""
    root = src if os.path.isdir(os.path.join(src, "ebsplines")) else os.path.join(src, "src")
    return os.path.join(root, "ebsplines")


def lines(src: str) -> int:
    """The lines of the package's modules, as ``cat *.py | wc -l`` counts them."""
    files = sorted(glob.glob(os.path.join(package(src), "*.py")))
    return sum(open(f, "rb").read().count(b"\n") for f in files)


def load(src: str, name: str):
    """The package ``ebsplines`` of a tree's ``src`` directory (or of the
    tree), imported under the package name ``name``."""
    pkg = package(src)
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def outputs(fits) -> str:
    """What the fits select, as exact reprs."""
    return repr([(r.lambda_hat, r.q_hat, r.q_star, r.boundary,
                  [(d.q, d.lambda_hat, d.t_q_value, d.boundary) for d in r.selection.per_q])
                 for r in fits])


def gcv_run(tree, fam, y):
    """A call that runs GCV on the rows of y at each order of the block."""
    x = tree.selection._unit_scale(fam.basis.forward(y), "x")[0]
    models = [fam.model(q) for q in GCV_ORDERS[fam.grid.n]]
    return lambda: [g.lambda_f_hat for m in models for g in tree.gcv._select_gcvs(m, x)]


def gcv_evals(tree, run) -> int:
    """The lambdas ``run`` hands the GCV scans after the coarse grid."""
    scan, count = tree.gcv._scan, [0]

    def counted(rows, x2s, nz, lams, lanes=None, buf=None):
        count[0] += 0 if lanes is None else len(lams)
        return scan(rows, x2s, nz, lams, lanes, buf)

    tree.gcv._scan = counted
    try:
        run()
    finally:
        tree.gcv._scan = scan
    return count[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=None, help="rounds per case")
    args = ap.parse_args(argv)
    trees = [load(args.old, "ebsplines_old"), load(args.new, "ebsplines_new")]
    print(f"src/ebsplines lines: old {lines(args.old)}, new {lines(args.new)}")
    print(f"{'case':<8} {'n':>6} {'rows':>4} {'old ms':>9} {'new ms':>9} {'new/old':>8} "
          f"{'new faster':>10}")
    ladder = [0.0, 0.0]  # old, new: ms per fit-ladder round
    for label, n, rows, rounds in CASES:
        pkg = trees[1]
        grid = pkg.design_grid(n)
        f = pkg.Generator(kind="f1-spectral").values(grid)
        y = f + 0.01 * np.random.default_rng(3).standard_normal((rows, n))
        fams = [t.ModelFamily(t.design_grid(n)) for t in trees]
        if label == "gcv":
            runs = [gcv_run(t, fam, y) for t, fam in zip(trees, fams)]
            old, new = (run() for run in runs)
            logs = [abs(math.log(b / a)) for a, b in zip(old, new) if a != b]
            per_lane = [gcv_evals(t, run) / len(old) for t, run in zip(trees, runs)]
            print(f"gcv n = {n}: {len(logs)} of {len(old)} lambdas differ, largest |log "
                  f"ratio| {max(logs, default=0.0):.3g}; evaluations per lane old "
                  f"{per_lane[0]:.2f}, new {per_lane[1]:.2f}")
        else:
            runs = [lambda t=t, fam=fam: t.selection._fits(fam, y) for t, fam in zip(trees, fams)]
        for state in ("fresh", "warm") if label != "gcv" else ():
            old, new = (outputs(run()) for run in runs)
            if old != new:
                print(f"{label} n = {n}, {rows} rows: the trees select differently on "
                      f"{state} families", file=sys.stderr)
                return 1
        times = ([], [])
        for r in range(args.rounds or rounds):
            for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                runs[k]()
                times[k].append(time.perf_counter() - t0)
        mo, mn = (1e3 * statistics.median(t) for t in times)
        faster = np.mean(np.array(times[1]) < np.array(times[0]))
        print(f"{label:<8} {n:>6} {rows:>4} {mo:>9.3f} {mn:>9.3f} {mn / mo:>8.3f} {faster:>10.2f}")
        if label == "single":
            ladder[0] += LADDER[n] * mo
            ladder[1] += LADDER[n] * mn
    print(f"fit-ladder round {ladder[0]:.3f} -> {ladder[1]:.3f} ms, "
          f"new/old {ladder[1] / ladder[0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
