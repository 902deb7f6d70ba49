"""Correctness gates for every operation the benchmark times.

Each gate returns a list of problems; an empty list means the output passed.
A failed gate marks its operation failed; the operation stays in the timings.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import ebsplines as e
from ebsplines.selection import LAMBDA_MAX, LAMBDA_MIN


def _finite_positive(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and v > 0


def check_orders(family: e.ModelFamily, y: np.ndarray, per_q) -> list[str]:
    """Each order's lambda_hat lies in the search range and, unless the solve
    hit the boundary, is a root of T_lam to the solver's own default
    tolerance (1e-3/n) * mean(X_tail^2), checked through the public t_lambda.

    ``per_q`` holds (q, lambda_hat, boundary) triples.
    """
    problems = []
    n = len(y)
    coeffs: dict[int, np.ndarray] = {}
    for q, lam, boundary in per_q:
        if not LAMBDA_MIN <= lam <= LAMBDA_MAX:
            problems.append(f"q={q}: lambda_hat {lam!r} outside "
                            f"[{LAMBDA_MIN}, {LAMBDA_MAX}]")
            continue
        if boundary:
            continue
        model = family.model(q)
        d = model.null_dim
        if d not in coeffs:
            coeffs[d] = model.basis.forward(y)
        x = coeffs[d]
        tol = (1e-3 / n) * max(float(np.mean(x[d:] ** 2)), 1e-300)
        t = e.t_lambda(model, x, lam)
        if not abs(t) <= tol:
            problems.append(f"q={q}: |T_lam(lambda_hat)| = {abs(t):.3e} > tol {tol:.3e}")
    return problems


def check_fit(family: e.ModelFamily, y: np.ndarray, res) -> list[str]:
    """Gate for one library fit."""
    problems = []
    if not LAMBDA_MIN <= res.lambda_hat <= LAMBDA_MAX:
        problems.append(f"lambda_hat {res.lambda_hat!r} out of range")
    if not np.all(np.isfinite(res.fitted)):
        problems.append("non-finite fitted values")
    if not _finite_positive(res.sigma2_hat):
        problems.append(f"sigma2_hat {res.sigma2_hat!r} not finite and positive")
    problems += check_orders(family, y, [(d.q, d.lambda_hat, d.boundary)
                                         for d in res.selection.per_q])
    return problems


def _load_json(text: str, what: str):
    try:
        return json.loads(text), []
    except (TypeError, ValueError) as exc:
        return None, [f"{what} is not valid JSON: {exc}"]


def check_credible(family: e.ModelFamily, y: np.ndarray, ball_text: str,
                   samples_text: str, draws: int) -> list[str]:
    """Gate for one ``ebsplines credible`` request: the ball, its fit and the
    posterior curves written to the samples CSV."""
    ball, problems = _load_json(ball_text, "ball JSON")
    if ball is None:
        return problems
    if not _finite_positive(ball.get("radius")):
        problems.append(f"radius {ball.get('radius')!r} not finite and positive")
    if ball.get("center_inside") is not True:
        problems.append("ball does not contain its own centre")
    fit = ball.get("fit", {})
    lam = fit.get("lambda_hat")
    if not (isinstance(lam, float) and LAMBDA_MIN <= lam <= LAMBDA_MAX):
        problems.append(f"lambda_hat {lam!r} out of range")
    if not _finite_positive(fit.get("sigma2_hat")):
        problems.append(f"sigma2_hat {fit.get('sigma2_hat')!r} not finite and positive")
    problems += check_orders(family, y, [(d["q"], d["lambda_hat"], d["boundary"])
                                         for d in fit.get("per_q", [])])
    rows = list(csv.reader(io.StringIO(samples_text or "")))
    if len(rows) != len(y) + 1 or any(len(r) != draws + 1 for r in rows):
        problems.append(f"samples CSV is not {len(y)} x {draws + 1} plus a header")
    else:
        try:
            vals = np.array(rows[1:], dtype=float)
        except ValueError:
            problems.append("samples CSV holds non-numeric values")
        else:
            if not np.all(np.isfinite(vals)):
                problems.append("samples CSV holds non-finite values")
    return problems


def check_study(report_text: str, table_text: str, replicates: int) -> list[str]:
    """Gate for one ``ebsplines simulate`` report and its comparison table."""
    rep, problems = _load_json(report_text, "study report")
    if rep is None:
        return problems
    counts = sum(rep.get("q_hat_counts", {}).values())
    if counts != replicates:
        problems.append(f"q_hat counts sum to {counts}, not {replicates}")
    rows = [rep.get("eb", {})] + rep.get("gcv", [])
    for row in rows:
        if not _finite_positive(row.get("amse")):
            problems.append(f"{row.get('method')} q={row.get('q')}: AMSE "
                            f"{row.get('amse')!r} not finite and positive")
    for row in rep.get("gcv", []):
        if not _finite_positive(row.get("ratio")):
            problems.append(f"GCV q={row.get('q')}: R {row.get('ratio')!r} "
                            "not finite and positive")
    table = list(csv.reader(io.StringIO(table_text or "")))
    if len(table) != 5 or any(len(r) != len(rows) + 1 for r in table):
        problems.append("comparison table is not 5 rows of one column per method")
    return problems


def check_compare(report_text: str, replicates: int) -> list[str]:
    """Gate for one ``ebsplines compare`` report."""
    rep, problems = _load_json(report_text, "compare report")
    if rep is None:
        return problems
    if rep.get("replicates") != replicates:
        problems.append(f"report covers {rep.get('replicates')!r} replicates, "
                        f"not {replicates}")
    coverages = list(rep.get("coverage_gcv_ball", {}).values())
    coverages.append(rep.get("coverage_eb_ball"))
    for c in coverages:
        if not (isinstance(c, (int, float)) and 0.0 <= c <= 1.0):
            problems.append(f"coverage {c!r} outside [0, 1]")
    if not _finite_positive(rep.get("gcv_ball_radius")):
        problems.append(f"GCV ball radius {rep.get('gcv_ball_radius')!r} "
                        "not finite and positive")
    return problems
