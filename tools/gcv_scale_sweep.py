"""Count the data sets whose GCV lambda moves when the data are rescaled.

    PYTHONPATH=<tree>/src python tools/gcv_scale_sweep.py

The sweep: n = 200 and 1000 (midpoint design), f1 and f2, 40 seeds with
sigma = 0.001, 0.01, 0.3, 3 in turn (noise ``default_rng(seed)``), orders
q = 1, 2, 3, 4.5 and 6, and scales c = 3, 9, 0.1 and 7: 3,200 cases, each
``select_lambda_gcv(model, c * y)`` against ``select_lambda_gcv(model, y)``.
A power-of-two scale moves no bit of the search (``selection._unit_scale``),
so these scales are the ones that can.  Prints the count of cases whose
lambdas differ, by n and sigma, and in all.
"""

import collections

import numpy as np

import ebsplines as e

SIGMAS = (0.001, 0.01, 0.3, 3.0)


def main() -> None:
    moved, cases = collections.Counter(), 0
    for n in (200, 1000):
        fam = e.ModelFamily(e.design_grid(n))
        for kind in ("f1-spectral", "f2-cosine"):
            f = e.Generator(kind=kind).values(fam.grid)
            for seed in range(40):
                sigma = SIGMAS[seed % 4]
                y = f + sigma * np.random.default_rng(seed).standard_normal(n)
                for q in (1.0, 2.0, 3.0, 4.5, 6.0):
                    m = fam.model(q)
                    lam = e.select_lambda_gcv(m, y).lambda_f_hat
                    for c in (3.0, 9.0, 0.1, 7.0):
                        cases += 1
                        if e.select_lambda_gcv(m, c * y).lambda_f_hat != lam:
                            moved[n, sigma] += 1
    for (n, sigma), count in sorted(moved.items()):
        print(f"n = {n}, sigma = {sigma}: {count}")
    print(f"{sum(moved.values())} of {cases} cases differ")


if __name__ == "__main__":
    main()
