"""The four benchmark workloads.

Every workload is a closed loop with one caller in one process.  It is cut
into rounds; a round is a fixed list of operations, each timed on its own.
Inputs (study and compare configs, data CSVs, noise) are derived from the
workload seed and the round index only, so a given (seed, round) always
feeds the program the same data.  Preparing inputs and checking outputs
happen outside the timed calls.

- ``simulate``: in-process ``ebsplines simulate`` on the two acceptance study
  configs (f1-spectral and f2-cosine, n=1000, M=200, sigma=0.01, GCV orders
  2-6, design ``right``).  A round is one study of each.  Time goes to GCV
  selection and the lambda solve; the radius is never used.
- ``compare``: in-process ``ebsplines compare`` on the acceptance compare
  config at n=2000 (f1-spectral, q_choices [2], 10,000 Monte Carlo draws,
  M=200).  Each round passes a new ``--seed``, so it builds its radius bank
  cold, as every CLI invocation does.
- ``credible-requests``: independent ``ebsplines credible`` requests on
  f1/f2 + noise CSVs at n=2000 written during set-up, 20 posterior curves
  each.  Each request has its own ``--seed`` and so builds its own bank.
- ``fit-ladder``: library ``fit`` on fresh noisy data at n = 1000, 16000 and
  64000, one ``ModelFamily`` per size built and warmed up during set-up.
  A round is 16, 4 and 1 fits at those sizes (roughly equal time shares).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Calls go through module attributes (cli.main, e.fit) at call time, so a
# traced run reaches the tracer's wrappers.
import ebsplines as e
from ebsplines import cli

import checks

SIGMA = 0.01


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` and ``digest`` are not."""

    label: str
    replicates: int
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes]


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _repr_bytes(outputs) -> bytes:
    return repr(outputs).encode()


def _cli_gate(outputs: tuple, gate: Callable[..., list]) -> list:
    rc, *texts = outputs
    if rc != 0:
        return [f"CLI exited with code {rc}"]
    return gate(*texts)


class Simulate:
    name = "simulate"
    kinds = ("f1-spectral", "f2-cosine")

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.n, self.replicates = (200, 4) if tiny else (1000, 200)

    def setup(self) -> None:
        self.configs = {}
        for kind in self.kinds:
            path = os.path.join(self.workdir, f"{kind}.json")
            cfg = {"generator": {"kind": kind, "params": {}, "scale_by_range": True},
                   "n": self.n, "replicates": self.replicates, "sigma": SIGMA,
                   "gcv_orders": [2, 3, 4, 5, 6],
                   "seed": _derived_seed(self.seed, len(self.configs)),
                   "design_convention": "right"}
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs[kind] = path

    def round(self, k: int) -> list[Op]:
        ops = []
        for j, kind in enumerate(self.kinds):
            out = os.path.join(self.workdir, f"{kind}-report.json")
            table = os.path.join(self.workdir, f"{kind}-table.csv")
            argv = ["simulate", self.configs[kind], "--out", out, "--table", table,
                    "--seed", str(_derived_seed(self.seed, k, j))]

            def run(argv=argv, out=out, table=table):
                rc = cli.main(argv)
                return rc, _read(out), _read(table)

            ops.append(Op(kind, self.replicates, run,
                          lambda o: _cli_gate(o, lambda r, t: checks.check_study(
                              r, t, self.replicates)),
                          _repr_bytes))
        return ops


class Compare:
    name = "compare"

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.n, self.replicates, self.mc_draws = ((200, 3, 1000) if tiny
                                                  else (2000, 200, 10_000))

    def setup(self) -> None:
        self.config = os.path.join(self.workdir, "compare.json")
        cfg = {"generator": {"kind": "f1-spectral", "params": {}, "scale_by_range": True},
               "n": self.n, "q_choices": [2.0], "replicates": self.replicates,
               "mc_draws": self.mc_draws, "alpha": 0.05, "sigma": SIGMA,
               "seed": _derived_seed(self.seed)}
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)

    def round(self, k: int) -> list[Op]:
        out = os.path.join(self.workdir, "compare-report.json")
        # a new seed per round: new noise and a cold radius bank
        argv = ["compare", self.config, "--out", out,
                "--seed", str(_derived_seed(self.seed, k))]

        def run():
            rc = cli.main(argv)
            return rc, _read(out)

        return [Op("compare", self.replicates, run,
                   lambda o: _cli_gate(o, lambda r: checks.check_compare(
                       r, self.replicates)),
                   _repr_bytes)]


class CredibleRequests:
    name = "credible-requests"
    kinds = ("f1-spectral", "f2-cosine")
    datasets = 8

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.n, self.draws, self.mc_draws = (200, 5, 1000) if tiny else (2000, 20, 10_000)

    def setup(self) -> None:
        grid = e.design_grid(self.n)
        self.family = e.ModelFamily(grid)
        signals = [e.Generator(kind=k).values(grid) for k in self.kinds]
        rng = np.random.default_rng(_derived_seed(self.seed))
        self.data = []
        for i in range(self.datasets):
            y = signals[i % len(signals)] + SIGMA * rng.standard_normal(self.n)
            path = os.path.join(self.workdir, f"data{i}.csv")
            with open(path, "w") as fh:
                fh.write("y\n" + "".join(f"{v!r}\n" for v in y.tolist()))
            self.data.append((path, y))

    def round(self, k: int) -> list[Op]:
        path, y = self.data[k % self.datasets]
        out = os.path.join(self.workdir, "ball.json")
        samples = os.path.join(self.workdir, "curves.csv")
        argv = ["credible", path, "--seed", str(_derived_seed(self.seed, k)),
                "--draws", str(self.draws), "--mc-draws", str(self.mc_draws),
                "--samples-csv", samples, "--out", out]

        def run():
            rc = cli.main(argv)
            return rc, _read(out), _read(samples)

        return [Op("request", 1, run,
                   lambda o: _cli_gate(o, lambda b, s: checks.check_credible(
                       self.family, y, b, s, self.draws)),
                   _repr_bytes)]


class FitLadder:
    name = "fit-ladder"
    kinds = ("f1-spectral", "f2-cosine")

    def __init__(self, seed: int, workdir: str, tiny: bool):
        self.seed = seed
        self.ladder = (((100, 2), (200, 1), (400, 1)) if tiny
                       else ((1000, 16), (16000, 4), (64000, 1)))

    def setup(self) -> None:
        self.sizes = {}
        for n, _ in self.ladder:
            grid = e.design_grid(n)
            family = e.ModelFamily(grid)
            signals = [e.Generator(kind=k).values(grid) for k in self.kinds]
            # the first fit at a size pays one-off costs no later fit repeats
            warm = np.random.default_rng(_derived_seed(self.seed, n))
            e.fit(family, signals[0] + SIGMA * warm.standard_normal(n))
            self.sizes[n] = (family, signals)

    def round(self, k: int) -> list[Op]:
        ops = []
        for n, count in self.ladder:
            family, signals = self.sizes[n]
            rng = np.random.default_rng(_derived_seed(self.seed, k, n))
            for j in range(count):
                y = signals[j % len(signals)] + SIGMA * rng.standard_normal(n)
                ops.append(Op(f"n{n}", 1,
                              lambda family=family, y=y: e.fit(family, y),
                              lambda res, family=family, y=y: checks.check_fit(
                                  family, y, res),
                              lambda res: np.asarray(
                                  [res.lambda_hat, res.q_hat, res.sigma2_hat]).tobytes()
                              + res.fitted.tobytes()))
        return ops


WORKLOADS = {w.name: w for w in (Simulate, Compare, CredibleRequests, FitLadder)}


def digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]
