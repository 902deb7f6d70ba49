"""Module layering, read from the import statements of the sources, and the
public surface the package exports."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import ebsplines
from ebsplines import cli, oracles, selection, simlab, spectral

SRC = Path(ebsplines.__file__).parent


def _siblings(module: str) -> set[str]:
    """Package modules that ``module`` imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            path = [a.name.split(".") for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from .x import y / from . import x
            path = [["ebsplines", *(node.module or a.name).split(".")]
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            path = [[*node.module.split("."), a.name] for a in node.names]
        else:
            continue
        found.update(p[1] for p in path if p[0] == "ebsplines" and len(p) > 1)
    return found


@pytest.mark.parametrize("module", ["gcv", "credible"])
def test_criteria_and_balls_import_no_experiment_code(module):
    assert not _siblings(module) & {"oracles", "simlab"}


def test_spectral_imports_only_errors():
    assert _siblings("spectral") <= {"errors"}


def test_oracles_hold_no_monte_carlo_radius():
    # the seeded Monte Carlo radius is the tests' check of the exact radius
    # (tests/test_credible.py), so oracles needs nothing from credible
    assert "credible" not in _siblings("oracles")
    assert not {"mc_distances", "mc_radius"} & set(dir(oracles))


def test_basis_matrix_is_not_cached():
    # BasisHandle.matrix builds its n x n matrix per call; no module-level
    # cache keeps such matrices for the life of the process
    assert not hasattr(spectral, "_dct_matrix")


def test_parser_sees_the_imports():
    assert {"credible", "gcv", "oracles", "selection", "spectral"} <= _siblings("simlab")


def test_selection_imports_only_errors_and_spectral():
    # gcv imports the shared criterion helpers from selection; this keeps
    # the dependency one-way
    assert _siblings("selection") <= {"errors", "spectral"}


def test_public_surface_has_no_unused_options():
    # C_p, the rounding policy, fit's override hooks, fit_design, the
    # single-sample compare arm, the basis backend switch, the lambda search
    # range, the polynomial generator, fit's --qmin, the Sobolev-ball and rho
    # options of the oracles, the log-power trace variant, the GCV minimum
    # value, the backend error, select_q (a second, unguarded way into fit's
    # order selection) and the dense eigenvector backend (exact_model and
    # the basis matrix it carried) were removed; no workflow set or read them
    assert not {"mallows_cp", "fit_design", "ANALYTIC", "EXACT",
                "UnsupportedBackendError", "select_q",
                "exact_model"} & set(dir(ebsplines))
    assert not hasattr(selection, "select_q")
    fields = {c: [f.name for f in dataclasses.fields(c)]
              for c in (ebsplines.SignalSpectrum, ebsplines.GcvResult,
                        ebsplines.BasisHandle)}
    assert fields == {ebsplines.SignalSpectrum: ["B"],
                      ebsplines.GcvResult: ["lambda_f_hat", "q", "boundary_flag"],
                      ebsplines.BasisHandle: ["n"]}
    params = {f: list(inspect.signature(f).parameters) for f in (
        ebsplines.fit, ebsplines.select_lambda_gcv,
        ebsplines.solve_lambda, ebsplines.make_basis, ebsplines.spectral_model,
        ebsplines.gcv_ball_experiment, ebsplines.trace_approx_check,
        ebsplines.polished_tail_check)}
    assert params == {
        ebsplines.fit: ["family", "y", "qgrid"],
        ebsplines.select_lambda_gcv: ["model", "y"],
        ebsplines.solve_lambda: ["model", "coeffs", "tol"],
        ebsplines.make_basis: ["grid", "q"],
        ebsplines.spectral_model: ["grid", "q"],
        ebsplines.gcv_ball_experiment: ["generator", "n", "q_choices", "replicates",
                                        "spec", "sigma", "beta", "convention", "seed"],
        ebsplines.trace_approx_check: ["q", "lam", "n", "m", "l"],
        ebsplines.polished_tail_check: ["B", "L", "N"],
    }
    assert "polynomial" not in simlab.GENERATOR_KINDS
    fit_args = vars(cli._build_parser().parse_args(["fit", "data.csv"]))
    assert "qmax" in fit_args and "qmin" not in fit_args


def test_config_schema_lives_in_simlab():
    # simlab reads the experiment configs; cli keeps argv handling and files
    assert not hasattr(cli, "_compare_args")
    imported = {a.name for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not {"_numbers", "_noise_level"} & imported
