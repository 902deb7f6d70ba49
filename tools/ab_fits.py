"""Time ``selection._fits`` of two source trees against each other, in one process.

    python tools/ab_fits.py OLD_SRC NEW_SRC [--rounds R]

OLD_SRC and NEW_SRC are the ``src`` directories of two trees (or the trees
themselves).  Each is loaded under its own package name (``ebsplines_old``,
``ebsplines_new``), so both run side by side on the same data.  The cases are
f1 at sigma = 0.01 (noise ``default_rng(3)``, the default order grid, a warm
``ModelFamily`` per tree): single rows at n = 1000, 16,000 and 64,000, a
stack of 32 rows at n = 1000 and one of 16 rows at n = 2000, the stacks
``simulate`` and ``compare`` select together.

For every case the tool first checks that both trees give the same
lambda_hat, q_hat, q* and per-order diagnostics (q, lambda_hat, T_q and the
boundary flag, compared by ``repr``, so bit for bit), and exits 1 where they
differ.  Then it times the two
trees in alternation, one call each per round with the order swapped every
round, and prints the median of each tree, their ratio (new / old) and the
share of rounds in which the new tree was faster.  R rounds per case default
to 1000 / 100 / 30 at n = 1000 / 16,000 / 64,000 and 300 for the stacks, about
20 seconds in all on two cores.

The BLAS thread count is set to 1 before NumPy loads (unless the environment
sets it), so a timing does not depend on how OpenBLAS splits a product.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# (label, n, rows, default rounds)
CASES = [("single", 1000, 1, 1000), ("single", 16000, 1, 100), ("single", 64000, 1, 30),
         ("stack", 1000, 32, 300), ("stack", 2000, 16, 300)]


def load(src: str, name: str):
    """The package ``ebsplines`` of a tree's ``src`` directory (or of the
    tree), imported under the package name ``name``."""
    root = src if os.path.isdir(os.path.join(src, "ebsplines")) else os.path.join(src, "src")
    pkg = os.path.join(root, "ebsplines")
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--rounds", type=int, default=None, help="rounds per case")
    args = ap.parse_args(argv)
    trees = [load(args.old, "ebsplines_old"), load(args.new, "ebsplines_new")]
    print(f"{'case':<8} {'n':>6} {'rows':>4} {'old ms':>9} {'new ms':>9} {'new/old':>8} "
          f"{'new faster':>10}")
    for label, n, rows, rounds in CASES:
        pkg = trees[1]
        grid = pkg.design_grid(n)
        f = pkg.Generator(kind="f1-spectral").values(grid)
        y = f + 0.01 * np.random.default_rng(3).standard_normal((rows, n))
        fams = [t.ModelFamily(t.design_grid(n)) for t in trees]
        runs = [lambda t=t, fam=fam: t.selection._fits(fam, y) for t, fam in zip(trees, fams)]
        old, new = (outputs(run()) for run in runs)
        if old != new:
            print(f"{label} n = {n}, {rows} rows: the trees select differently", file=sys.stderr)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
