"""Command-line front end.

Subcommands: ``fit`` and ``credible`` operate on CSV data files; ``simulate``
and ``compare`` run seeded Monte Carlo experiments from JSON configs, whose
schema ``simlab`` reads; ``oracle`` and ``kappa`` expose the closed-form
constants.  This module holds only argv handling and file I/O.  Exit codes:
0 success, 2 input error, 3 numeric failure.  Diagnostics go to stderr;
every subcommand writes its JSON payload to ``--out``, or to stdout without
it.  All file outputs are written atomically (temp file + rename), with the
mode ``open(path, "w")`` gives a new file; a path that cannot be written is
an input error, found before any input is read or experiment run.  CSV
outputs hold each value as ``"%.10g" % x`` would, byte for byte: vectorised
in blocks of about 8k values, the blocks with nan, inf or a nonzero |x|
outside [1e-13, 1e31) through that one ``%``.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .credible import RadiusSpec, credible_ball, sample_posterior
from .errors import EbsplinesError
from .oracles import SignalSpectrum, asymptotic_variances, kappa, oracle_lambda
from .selection import ModelFamily, default_q_grid, fit
from .simlab import Generator, StudyConfig, _compare_kwargs, gcv_ball_experiment, run_study
from .spectral import DESIGN_CONVENTIONS, design_grid

EXIT_INPUT = 2
EXIT_NUMERIC = 3

# Largest relative deviation of an x step from the mean step.  The %.10g x
# column of ``fit --fitted-csv`` moves an x in [0.1, 1] by up to 5e-11, so a
# step 1/n by up to 1e-10 * n of it (6.4e-6 at n = 64,000): it reads back.
_SPACING_RTOL = 1e-4


def _new_file_beside(path: str) -> tuple[int, str]:
    """Create a temp file beside ``path``, named from ``os.urandom``, with the
    mode ``open(path, "w")`` gives a new file; return its descriptor and name."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-ebs-{os.urandom(8).hex()}")
    return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp


def _atomic_write(path: str, chunks) -> None:
    """Write the bytes objects ``chunks`` to a temp file beside ``path``, then
    rename it to ``path``."""
    tmp = None
    try:
        fd, tmp = _new_file_beside(path)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        raise EbsplinesError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:  # gone after the rename
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    print(f"wrote {path}", file=sys.stderr)


def _check_outputs(paths) -> None:
    """Fail on each given output path as ``_atomic_write`` would, before any
    work is done: the path is a directory, or no temp file can be made beside it."""
    for path in filter(None, paths):
        try:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = _new_file_beside(path)
            os.close(fd)
            os.unlink(tmp)
        except OSError as exc:
            raise EbsplinesError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _read_xy_csv(path: str) -> tuple[np.ndarray | None, np.ndarray]:
    """UTF-8 CSV with header ``x,y`` or ``y``; raises EbsplinesError with the
    offending line number on malformed or non-finite input, and on x that is
    not strictly increasing and equally spaced (the fit assumes an
    equidistant design)."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a leading BOM is not data
    except OSError as exc:
        raise EbsplinesError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header, records = next(reader), list(reader)
        except StopIteration:
            raise EbsplinesError(f"{path}: empty file") from None
        except UnicodeDecodeError:
            raise EbsplinesError(f"{path}: not UTF-8 text") from None
    cols = [c.strip().lower() for c in header]
    if cols not in (["x", "y"], ["y"]):
        raise EbsplinesError(f"{path}: line 1: header must be 'x,y' or 'y'")
    rows = [row for row in records if row]
    try:  # every field in one pass
        a = np.fromiter(map(float, itertools.chain.from_iterable(rows)), float)
        good = (np.fromiter(map(len, rows), int, len(rows)) == len(cols)).all() \
            and np.isfinite(a).all()
    except ValueError:
        good = False
    if not good:  # walk the rows to name the first bad line
        for lineno, row in enumerate(records, start=2):
            if len(row) not in (0, len(cols)):  # blank lines are skipped
                raise EbsplinesError(f"{path}: line {lineno}: expected {len(cols)} fields")
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise EbsplinesError(f"{path}: line {lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in vals):
                raise EbsplinesError(f"{path}: line {lineno}: non-finite value")
    if not rows:
        raise EbsplinesError(f"{path}: no data rows")
    a = a.reshape(len(rows), len(cols))
    if len(cols) == 1:
        return None, a[:, 0]
    x = a[:, 0]
    dx = np.diff(x)
    h = (x[-1] - x[0]) / max(len(x) - 1, 1)
    for bad, what in ((dx <= 0, "not strictly increasing"),
                      (np.abs(dx - h) > _SPACING_RTOL * h, "not equally spaced")):
        if bad.any():
            j = int(np.argmax(bad)) + 1
            line = [i for i, row in enumerate(records, start=2) if row][j]
            raise EbsplinesError(f"{path}: line {line}: x = {x[j]!r} is {what}")
    return x, a[:, 1]


_U64 = np.uint64
_P10 = np.array([float(10 ** k) if k >= 0 else 1 / 10 ** -k for k in range(-22, 23)])  # at k + 22
_D1 = _U64(48) + np.arange(10, dtype=_U64)  # ASCII digits; a string is a little-endian word
_D2 = (_D1[:, None] | _D1 << _U64(8)).ravel()
_D4 = (_D2[:, None] | _D2 << _U64(16)).ravel()  # 0000-9999
_ZEROS = np.array([b"0" * 8, b"00"], "S8").view(_U64)[:, None]  # "0000000000" as (lo, hi)
# per decade X = -13..31 (at X + 13): the digit block's point, the sign and
# "0.000" before it, and the exponent and separator after it
_POINT_AT = np.array([max(x + 1, 0) if -4 <= x <= 9 else 1 for x in range(-13, 32)])
_PREFIX = np.array([(sign + "0." + "0" * (-x - 1) if -4 <= x < 0 else sign).encode()
                    for sign in "\0-" for x in range(-13, 32)], "S8").view(_U64)
_SUFFIX = np.array([("\0\0\0" + ("" if -4 <= x <= 9 else "e%+03d" % x) + sep).encode()
                    for x in range(-13, 32) for sep in ",\n"], "S8").view(_U64)
# (lo, hi) words of 16 bytes: the first k set, and a point at byte k > 0
_MASK = np.array([b"\xff" * k for k in range(17)], "S16").view(_U64).reshape(-1, 2).T
_DOT = np.array([b"\0" * k + b"."[:k] for k in range(11)], "S16").view(_U64).reshape(-1, 2).T


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 10 significant digits d of each a in [1e-13, 1e31), rounded half
    even on a's exact binary value, and its decade X: a ~ d * 10^(X - 9)."""
    X = np.clip(np.floor(np.log10(a)), -13, 31).astype(np.intp)
    # a * 10^(9 - X), or a / 10^(X - 9) for X > 9: the power of ten is exact
    # either way (|9 - X| <= 22), so hi is one rounding, by at most 2^-20
    # below 2^34
    hi = a * _P10[31 - X]
    big = np.flatnonzero(X > 9)
    hi[big] = a[big] / _P10[X[big] + 13]
    d = np.rint(hi)
    # exact where hi may round across a half-integer and where hi nears
    # 10^9 or 10^10: a carry, or log10 one off next to a power of ten,
    # which then rounds to 10^9 at either decade
    r = np.flatnonzero((np.abs(hi - np.floor(hi) - 0.5) <= 2.0 ** -18)
                       | (hi < 1e9 + 1) | (hi > 1e10 - 1))
    if len(r):  # "%.9e" rounds half even as "%.10g" does, to 15 bytes "d.ddddddddde+XX"
        t = np.frombuffer(("%.9e" * len(r) % tuple(a[r].tolist())).encode(), np.uint8) - 48.0
        d[r] = t.reshape(-1, 15)[:, [0, *range(2, 11)]] @ 10.0 ** np.arange(9, -1, -1)
        X[r] = -(t[12::15] + 4) * (10 * t[13::15] + t[14::15])  # t is bytes less "0": "+" is -5
    return d, X


def _render(v: np.ndarray, last: np.ndarray) -> bytes:
    """``"%.10g" % x`` of each x in v, then "\\n" where ``last`` is set and ","
    elsewhere; each x is 0 or of magnitude in [1e-13, 1e31).  A value is three
    words: sign and prefix, the digits with their point, then exponent and
    separator; the zero bytes between them are dropped."""
    zero = v == 0
    d, X = _digits(np.where(zero, 1.0, np.abs(v)))
    d[zero], X[zero] = 0, 0  # "0": one digit, before the point
    q, g = np.floor(d / 1e4), np.floor(d / 1e8)
    w = _D4[np.stack([g, q - 1e4 * g, d - 1e4 * q]).astype(np.intp)]  # 2 + 4 + 4 digits
    # the 10 digits as bytes 0-9 of (lo, hi), and how many up to the last nonzero one
    lo, hi = w[0] >> _U64(16) | w[1] << _U64(16) | w[2] << _U64(48), w[2] >> _U64(16)
    sig = (np.frexp((np.stack([lo, hi]) ^ _ZEROS).astype(float))[1] + 7) // 8
    digits = np.where(sig[1] > 0, 8 + sig[1], sig[0])
    point = _POINT_AT[X + 13]
    keep = np.where(digits > point, digits + 1, point)  # bytes kept of the block
    m_lo, m_hi = _MASK[0][point], _MASK[1][point]  # 1-D gathers: 2-D ones cost 3x
    tail = lo & ~m_lo  # the digits after the point move up a byte
    lo = (lo & m_lo | tail << _U64(8) | _DOT[0][point]) & _MASK[0][keep]
    hi = (hi & m_hi | (hi & ~m_hi) << _U64(8) | tail >> _U64(56) | _DOT[1][point]) & _MASK[1][keep]
    return np.stack([_PREFIX[np.signbit(v) * 45 + X + 13], lo, hi | _SUFFIX[2 * X + 26 + last]],
                    1).tobytes().translate(None, b"\0")


def _write_csv(path: str, header: str, columns) -> None:
    """Columns of numbers as CSV, each value as ``"%.10g" % x`` writes it, in
    blocks of about 8k values: ``_render`` takes a block whose values are all
    0 or of magnitude in [1e-13, 1e31), one ``%`` any other block."""
    a = np.column_stack(columns)
    rows, k = max(1, 8192 // a.shape[1]), a.shape[1]
    last, row = np.arange(rows * k) % k == k - 1, ",".join(["%.10g"] * k) + "\n"

    def block(v: np.ndarray) -> bytes:
        m = np.abs(v)
        if ((m == 0) | (m >= 1e-13) & (m < 1e31)).all():  # nan fails both
            return _render(v, last[:len(v)])
        return (row * (len(v) // k) % tuple(v.tolist())).encode()

    # formatted as the file is written, so one block's text is held at a time
    _atomic_write(path, itertools.chain([header.encode() + b"\n"], (
        block(a[i:i + rows].ravel()) for i in range(0, len(a), rows))))


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _atomic_write(args.out, [(text + "\n").encode()])
    else:
        print(text)


def _fit_from_args(x: np.ndarray | None, y: np.ndarray, args):
    """The x column to write (the design's sites when x is absent) and the fit."""
    grid = design_grid(len(y), args.design)
    qgrid = default_q_grid(len(y), q_max=args.qmax, refine=args.qstep)
    return (grid.x if x is None else x), fit(ModelFamily(grid), y, qgrid=qgrid)


def _fit_payload(res) -> dict:
    return {
        "schema_version": 1,
        "lambda_hat": res.lambda_hat,
        "q_hat": res.q_hat,
        "q_star": res.q_star,
        "sigma2_hat": res.sigma2_hat,
        "boundary": bool(res.boundary),
        "all_nonpositive": res.selection.branch == "all_nonpositive",
        "all_positive_warning": res.selection.branch == "all_positive_warning",
        "per_q": [{"q": d.q, "lambda_hat": d.lambda_hat,
                   "t_q": d.t_q_value, "boundary": bool(d.boundary)}
                  for d in res.selection.per_q],
    }


def _cmd_fit(args) -> int:
    x, y = _read_xy_csv(args.input)
    xs, res = _fit_from_args(x, y, args)
    _emit(_fit_payload(res), args)
    if args.fitted_csv:
        _write_csv(args.fitted_csv, "x,y,fitted", (xs, y, res.fitted))
    return 0


def _cmd_credible(args) -> int:
    for flag, value in (("--draws", args.draws), ("--seed", args.seed)):
        if value < 0:
            raise EbsplinesError(f"{flag} must be >= 0, got {value}")
    if (args.draws > 0) != bool(args.samples_csv):
        raise EbsplinesError("--draws >= 1 and --samples-csv must be given together")
    x, y = _read_xy_csv(args.input)
    xs, res = _fit_from_args(x, y, args)
    spec = RadiusSpec(alpha=args.alpha, mc_draws=args.mc_draws, seed=args.seed)
    ball = credible_ball(res, L=args.L, spec=spec)
    payload = ball.to_dict()
    payload["fit"] = _fit_payload(res)
    payload["center_inside"] = bool(ball.contains(ball.center))
    _emit(payload, args)
    if args.draws:
        # a child stream of --seed (spawn key 1), so curves replay unchanged
        curve_seed = np.random.SeedSequence(entropy=args.seed, spawn_key=(1,))
        curves = sample_posterior(res, args.draws, seed=curve_seed)
        header = "x," + ",".join(f"s{j+1}" for j in range(args.draws))
        _write_csv(args.samples_csv, header, (xs, curves.T))
    return 0


def _parse_config(path: str, overrides: dict, parse):
    """``parse`` of the JSON config at ``path`` after the non-None
    ``overrides``; a missing key or a bad value is an input error naming the
    file (parsing runs before the experiment, so the experiment's own errors
    keep their message)."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise EbsplinesError(f"cannot open {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise EbsplinesError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise EbsplinesError(f"{path}: config must be a JSON object")
    d.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return parse(d)
    except KeyError as exc:
        raise EbsplinesError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise EbsplinesError(f"{path}: {exc}") from exc


def _cmd_simulate(args) -> int:
    cfg = _parse_config(args.config, {"seed": args.seed}, StudyConfig.from_dict)
    report = run_study(cfg)
    _emit(report.to_dict(), args)
    if args.table:
        _atomic_write(args.table, [report.table_csv().encode()])
    return 0


def _cmd_compare(args) -> int:
    kw = _parse_config(args.config, {"seed": args.seed}, _compare_kwargs)
    _emit(gcv_ball_experiment(**kw).to_dict(), args)
    return 0


def _cmd_oracle(args) -> int:
    if not 0 <= args.sigma < math.inf:  # squaring would hide a negative sigma
        raise EbsplinesError(f"--sigma must be finite and >= 0, got {args.sigma}")
    gen = Generator(kind=args.generator)
    grid = design_grid(args.n, args.design)
    f = gen.values(grid)
    family = ModelFamily(grid)
    model = family.model(float(args.q))
    spectrum = SignalSpectrum(B=model.basis.forward(f))
    closed = oracle_lambda(spectrum, args.sigma ** 2, float(args.q), "closed-form")
    numeric = oracle_lambda(spectrum, args.sigma ** 2, float(args.q), "numeric-root")
    var = asymptotic_variances(float(args.q))
    payload = {
        "schema_version": 1,
        "generator": args.generator,
        "n": args.n,
        "q": args.q,
        "sigma": args.sigma,
        "lambda_closed_form": closed.lambda_q,
        "lambda_numeric_root": numeric.lambda_q,
        "derivative_energy": closed.derivative_energy,
        "selector_variance_eb": var.eb,
        "selector_variance_gcv": var.gcv,
        "selector_variance_ratio": var.ratio,
    }
    _emit(payload, args)
    return 0


def _cmd_kappa(args) -> int:
    payload = {
        "schema_version": 1,
        "q": args.q,
        "m": args.m,
        "l": args.l,
        "kappa": kappa(args.q, args.m, args.l),
    }
    _emit(payload, args)
    return 0


@functools.cache  # built on the first request, kept for the process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ebsplines",
        description="Adaptive empirical Bayesian smoothing splines")
    sub = p.add_subparsers(dest="command", required=True)
    # the JSON payload's destination, the same for every subcommand
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="JSON payload path (default: stdout)")

    def add_fit_args(sp):
        sp.add_argument("input")
        sp.add_argument("--qmax", type=int, default=None,
                        help="largest order (default: 6, capped at log n)")
        sp.add_argument("--qstep", type=float, default=None,
                        help="refined real-valued order grid spacing")
        sp.add_argument("--design", choices=DESIGN_CONVENTIONS, default="midpoint")

    sp = sub.add_parser("fit", parents=[output], help="fit a data file")
    sp.add_argument("--fitted-csv", default=None)
    add_fit_args(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("credible", parents=[output], help="fit and build the credible ball")
    sp.add_argument("--samples-csv", default=None,
                    help="posterior curves CSV path (needs --draws >= 1)")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--L", type=float, default=2.0)
    sp.add_argument("--mc-draws", type=int, default=10_000,
                    help="draws of the Monte Carlo radius oracle (>= 1000); "
                         "the exact radius does not use them")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the posterior curves")
    sp.add_argument("--draws", type=int, default=0,
                    help="posterior curves written to --samples-csv")
    add_fit_args(sp)
    sp.set_defaults(func=_cmd_credible)

    # the config file of an experiment and its seed override
    experiment = argparse.ArgumentParser(add_help=False, parents=[output])
    experiment.add_argument("config")
    experiment.add_argument("--seed", type=int, default=None, help="override config seed")

    sp = sub.add_parser("simulate", parents=[experiment],
                        help="run a Monte Carlo study from a JSON config")
    sp.add_argument("--table", default=None, help="comparison table CSV path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("compare", parents=[experiment],
                        help="GCV-centered vs EB credible-ball coverage")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("oracle", parents=[output],
                        help="oracle smoothing parameter for a generator")
    sp.add_argument("--generator", choices=("f1-spectral", "f2-cosine"),
                    default="f1-spectral")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--q", type=float, default=3.0)
    sp.add_argument("--sigma", type=float, default=0.01)
    sp.add_argument("--design", choices=DESIGN_CONVENTIONS, default="midpoint")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("kappa", parents=[output], help="trace constant kappa_q(m, l)")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.set_defaults(func=_cmd_kappa)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(getattr(args, flag, None)
                       for flag in ("out", "fitted_csv", "samples_csv", "table"))
        return args.func(args)
    except EbsplinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
