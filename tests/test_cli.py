import io
import json
import math
import os
import stat

import numpy as np
import pytest

import ebsplines as e
from ebsplines import cli, simlab
from ebsplines.cli import main


def _write_y_csv(path, y, x=None):
    with open(path, "w") as fh:
        if x is None:
            fh.write("y\n")
            for v in y:
                fh.write(f"{v}\n")
        else:
            fh.write("x,y\n")
            for a, b in zip(x, y):
                fh.write(f"{a},{b}\n")


@pytest.fixture()
def sample_csv(tmp_path):
    g = e.design_grid(128)
    y = np.cos(2 * np.pi * g.x) + 0.05 * np.random.default_rng(0).standard_normal(128)
    p = tmp_path / "data.csv"
    _write_y_csv(p, y)
    return p


class TestFitCommand:
    def test_fit_writes_json_and_csv(self, tmp_path, sample_csv):
        out = tmp_path / "fit.json"
        fitted = tmp_path / "fitted.csv"
        rc = main(["fit", str(sample_csv), "--out", str(out),
                   "--fitted-csv", str(fitted)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        for key in ("lambda_hat", "q_hat", "q_star", "sigma2_hat", "per_q"):
            assert key in payload
        lines = fitted.read_text().strip().splitlines()
        assert lines[0] == "x,y,fitted"
        assert len(lines) == 129

    def test_fit_with_x_column(self, tmp_path):
        g = e.design_grid(64, "right")
        y = np.sin(np.pi * g.x)
        p = tmp_path / "xy.csv"
        _write_y_csv(p, y, x=g.x)
        out = tmp_path / "fit.json"
        assert main(["fit", str(p), "--design", "right", "--out", str(out)]) == 0

    def test_unsorted_x_exits_2(self, tmp_path, capsys):
        g = e.design_grid(64)
        x = g.x.copy()
        x[[10, 11]] = x[[11, 10]]
        p = tmp_path / "xy.csv"
        _write_y_csv(p, np.sin(np.pi * g.x), x=x)
        assert main(["fit", str(p)]) == 2
        # site 11 sits on line 13 (header, then site 0 on line 2)
        assert "line 13" in capsys.readouterr().err

    def test_irregular_x_exits_2(self, tmp_path, capsys):
        g = e.design_grid(64)
        x = g.x.copy()
        x[20] += 0.1 / 64
        p = tmp_path / "xy.csv"
        _write_y_csv(p, np.sin(np.pi * g.x), x=x)
        assert main(["fit", str(p)]) == 2
        assert "line 22" in capsys.readouterr().err

    def test_fitted_csv_round_trip(self, tmp_path):
        # the %.10g x column that --fitted-csv writes reads back as an
        # equidistant design; at n = 63,000 its rounding moves a step by up
        # to 5.3e-6 of it (multiples of 1/64,000 print exactly)
        n = 63000
        g = e.design_grid(n)
        y = np.cos(2 * np.pi * g.x) + 0.05 * np.random.default_rng(3).standard_normal(n)
        p = tmp_path / "y.csv"
        _write_y_csv(p, y)
        fitted = tmp_path / "fitted.csv"
        assert main(["fit", str(p), "--fitted-csv", str(fitted),
                     "--out", str(tmp_path / "a.json")]) == 0
        xy = tmp_path / "xy.csv"
        xy.write_text("x,y\n" + "".join(
            ",".join(line.split(",")[:2]) + "\n"
            for line in fitted.read_text().splitlines()[1:]))
        assert main(["fit", str(xy), "--out", str(tmp_path / "b.json")]) == 0

    def test_constant_column_exits_2(self, tmp_path, capsys):
        # nothing beyond the constant: DegenerateDataError, not a fit
        p = tmp_path / "const.csv"
        _write_y_csv(p, np.full(128, 3.25))
        out = tmp_path / "fit.json"
        assert main(["fit", str(p), "--out", str(out)]) == 2
        assert "constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("signal, flag", [
        # pure noise: T_q <= 0 at every order, q_hat is the grid maximum
        (lambda x: 0.0 * x, "all_nonpositive"),
        # a square wave: T_q > 0 already at q = 1
        (lambda x: np.sign(np.sin(6 * np.pi * x)), "all_positive_warning"),
    ])
    def test_selection_branch_flags_reported(self, tmp_path, signal, flag):
        g = e.design_grid(128)
        y = signal(g.x) + 0.05 * np.random.default_rng(1).standard_normal(128)
        p = tmp_path / "d.csv"
        _write_y_csv(p, y)
        out = tmp_path / "fit.json"
        assert main(["fit", str(p), "--qmax", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload[flag] is True
        assert payload["q_hat"] == (3.0 if flag == "all_nonpositive" else 1.0)

    @pytest.mark.parametrize("command", ["fit", "credible"])
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_qstep_exits_2(self, tmp_path, sample_csv, capsys, command, step):
        out = tmp_path / "out.json"
        assert main([command, str(sample_csv), "--qstep", step, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: refinement spacing must be positive and finite, got {step}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "credible"])
    def test_a_qstep_of_more_than_n_orders_exits_2(self, tmp_path, sample_csv, capsys, command):
        # n = 128, q_max = 4: 3e300 orders, which np.arange refused with a ValueError (exit 1)
        out = tmp_path / "out.json"
        assert main([command, str(sample_csv), "--qstep", "1e-300", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: refinement spacing 1e-300 gives 3e+300 orders, more than n = 128\n")
        assert not out.exists()

    def test_empty_file_exits_2(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert main(["fit", str(p)]) == 2

    @pytest.mark.parametrize("edits,what", [
        ({1500: "0.75,abc"}, "line 1500: non-numeric value"),
        ({1500: "0.75,inf"}, "line 1500: non-finite value"),
        ({1500: "0.75"}, "line 1500: expected 2 fields"),
        # the first bad line is named, whatever is wrong further down
        ({1499: "0.75,1,2", 1500: "nan,1", 1501: "x,y"}, "line 1499: expected 2 fields"),
        # the byte 0xff, in the header and far down the file
        ({1: "x,\udcffy"}, "not UTF-8 text"),
        ({1500: "0.75,\udcff"}, "not UTF-8 text"),
    ], ids=["bad-field", "non-finite", "short-row", "first-of-three", "non-utf8-header",
            "non-utf8-row"])
    def test_bad_line_is_named(self, tmp_path, capsys, edits, what):
        g = e.design_grid(2000)
        lines = ["x,y"] + [f"{x!r},{math.cos(x)!r}" for x in g.x.tolist()]
        for lineno, text in edits.items():
            lines[lineno - 1] = text
        p = tmp_path / "xy.csv"
        p.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        out = tmp_path / "fit.json"
        assert main(["fit", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {p}: {what}\n"
        assert not out.exists()

    @pytest.mark.parametrize("header", ["y", "x,y"])
    def test_byte_order_mark_is_not_data(self, tmp_path, header):
        # spreadsheet tools often start a UTF-8 export with U+FEFF
        g = e.design_grid(200)
        y = np.cos(3 * g.x) + 0.05 * np.random.default_rng(2).standard_normal(200)
        lines = [header] + [f"{a!r},{b!r}" if header == "x,y" else repr(b)
                            for a, b in zip(g.x.tolist(), y.tolist())]
        files = {"": tmp_path / "plain.csv", "\ufeff": tmp_path / "marked.csv"}

        def write():
            for bom, p in files.items():
                p.write_text(bom + "\n".join(lines) + "\n", encoding="utf-8")

        write()
        outs = []
        for p in files.values():
            out = tmp_path / f"{p.stem}.json"
            assert main(["fit", str(p), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines[100] += ",oops"
        write()
        for p in files.values():
            with pytest.raises(e.EbsplinesError, match="line 101: expected"):
                cli._read_xy_csv(str(p))

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        g = e.design_grid(64)
        y = np.sin(np.pi * g.x)
        p = tmp_path / "xy.csv"
        p.write_text("x,y\n\n" + "".join(f"{a!r},{b!r}\n\n"
                                         for a, b in zip(g.x.tolist(), y.tolist())))
        x, yy = cli._read_xy_csv(str(p))
        assert np.array_equal(x, g.x) and np.array_equal(yy, y)
        x = g.x.copy()
        x[[10, 11]] = x[[11, 10]]
        p.write_text("x,y\n\n" + "".join(f"{a!r},{b!r}\n\n"
                                         for a, b in zip(x.tolist(), y.tolist())))
        # site 11 sits on line 25: header, a blank line, then two lines a site
        with pytest.raises(e.EbsplinesError, match="line 25: x = "):
            cli._read_xy_csv(str(p))

    def test_header_only_exits_2(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("y\n")
        assert main(["fit", str(p)]) == 2

    def test_bad_header_exits_2(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("value\n1.0\n")
        assert main(["fit", str(p)]) == 2

    def test_non_numeric_exits_2(self, tmp_path):
        p = tmp_path / "nn.csv"
        p.write_text("y\n1.0\noops\n")
        assert main(["fit", str(p)]) == 2

    def test_non_finite_exits_2(self, tmp_path):
        p = tmp_path / "nf.csv"
        p.write_text("y\n1.0\nnan\n")
        assert main(["fit", str(p)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 2


class TestCsvOutput:
    """The CSV files hold every value as %.10g: -0 stays signed, subnormals
    and large values keep their exponent."""

    X = "0.0625 0.1875 0.3125 0.4375 0.5625 0.6875 0.8125 0.9375".split()
    Y = "-0 4.940656458e-324 1e+11 0.1 -2.5 3 123456789.1 7e-05".split()

    def test_fitted_csv_bytes(self, tmp_path):
        y = [-0.0, 5e-324, 1e11, 0.1, -2.5, 3.0, 123456789.123, 7e-5]
        p = tmp_path / "xy.csv"
        _write_y_csv(p, y, x=[float(v) for v in self.X])
        fitted = tmp_path / "fitted.csv"
        assert main(["fit", str(p), "--fitted-csv", str(fitted)]) == 0
        f = e.fit(e.ModelFamily(e.design_grid(8)), y).fitted
        expected = "x,y,fitted\n" + "".join(
            f"{a},{b},{v:.10g}\n" for a, b, v in zip(self.X, self.Y, f))
        assert fitted.read_bytes() == expected.encode()

    def test_samples_csv_bytes(self, tmp_path):
        g = e.design_grid(16)
        y = np.cos(2 * np.pi * g.x) + 0.05 * np.random.default_rng(6).standard_normal(16)
        p = tmp_path / "y.csv"
        _write_y_csv(p, y)
        samples = tmp_path / "curves.csv"
        assert main(["credible", str(p), "--seed", "4", "--draws", "3",
                     "--samples-csv", str(samples),
                     "--out", str(tmp_path / "b.json")]) == 0
        curves = e.sample_posterior(
            e.fit(e.ModelFamily(g), y), 3, seed=np.random.SeedSequence(entropy=4, spawn_key=(1,)))
        expected = "x,s1,s2,s3\n" + "".join(
            f"{g.x[i]:.10g}," + ",".join(f"{c:.10g}" for c in curves[:, i]) + "\n"
            for i in range(16))
        assert samples.read_bytes() == expected.encode()

    def test_bulk_writer_matches_savetxt(self, tmp_path):
        # 2,000 rows of 21 values, edge values included, against the bytes
        # np.savetxt writes for the same format
        a = np.random.default_rng(8).standard_normal((2000, 21)) * 10.0 ** np.arange(-10, 11)
        a[:8, 0] = [-0.0, 5e-324, 1e11, 1e-300, -1e300, np.inf, np.nan, 0.0]
        header = "x," + ",".join(f"s{j+1}" for j in range(20))
        out = tmp_path / "big.csv"
        cli._write_csv(str(out), header, (a[:, 0], a[:, 1:]))
        buf = io.StringIO()
        np.savetxt(buf, a, fmt="%.10g", delimiter=",", header=header, comments="")
        assert out.read_bytes() == buf.getvalue().encode()

    @staticmethod
    def _per_value(a):
        """The CSV bytes of a 2-D array, one ``"%.10g" % x`` per value."""
        return ("v\n" + "".join(",".join("%.10g" % x for x in row) + "\n"
                                for row in a.tolist())).encode()

    @staticmethod
    def _fast_values(case, rng):
        """Values of the vectorised writer's range: 0 or |x| in [1e-13, 1e31)."""
        if case == "bits":  # random bit patterns, the ones in range
            v = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(float)
            return v[(np.abs(v) >= 1e-13) & (np.abs(v) < 1e31)]
        if case == "binades":  # 40 values of each binade 2^-43 .. 2^102, both signs
            v = ((1 + rng.random((146, 40))) * 2.0 ** np.arange(-43, 103)[:, None]).ravel()
            return v[v < 1e31] * rng.choice([-1.0, 1.0], np.count_nonzero(v < 1e31))
        if case == "dyadic":
            # odd m / 2^j has j decimals ending in 5: at i integer digits and
            # j = 11 - i it is an exact tie at the 10th digit
            ties = [rng.integers(10 ** (i - 1) << (11 - i), 10 ** i << (11 - i), 300) | 1
                    for i in range(1, 11)]
            v = np.concatenate([t / 2.0 ** (11 - i) for i, t in zip(range(1, 11), ties)])
            many = (rng.integers(1, 2 ** 45, 20_000) | 1) / 2.0 ** rng.integers(1, 60, 20_000)
            k = np.arange(3000.0)
            return np.concatenate([v, many[many >= 1e-13], 1e10 + k, 1e10 + k + 0.5,
                                   (10 * rng.integers(10 ** 9, 10 ** 10, 300) + 5) * 1e3])
        if case == "near-ties":  # the doubles next to d + 1/2 at the 10th digit
            x = rng.integers(-13, 31, 3000)
            t = (rng.integers(10 ** 9, 10 ** 10, 3000) + 0.5) * 10.0 ** (x - 9)
            return np.concatenate([t, np.nextafter(t, 0), np.nextafter(t, np.inf)])
        if case == "powers-of-ten":  # 3 neighbours each side of 10^k and 10^k (1 - 5e-11)
            p = 10.0 ** np.arange(-12, 31)
            v = [np.concatenate([p, p * (1 - 5e-11)])]
            for direction in (0, np.inf):
                w = v[0]
                for _ in range(3):
                    w = np.nextafter(w, direction)
                    v.append(w)
            return np.concatenate(v)
        assert case == "zeros"
        v = rng.standard_normal(2000)
        v[::7], v[3::7] = 0.0, -0.0
        return v

    @pytest.mark.parametrize("case", ["bits", "binades", "dyadic", "near-ties",
                                      "powers-of-ten", "zeros"])
    def test_vectorised_blocks_match_per_value_format(self, tmp_path, case):
        v = self._fast_values(case, np.random.default_rng(9))
        v = np.concatenate([v, -v[: len(v) // 3]])
        m = np.abs(v)
        assert ((m == 0) | (m >= 1e-13) & (m < 1e31)).all() and len(v) > 500
        a = np.resize(v, (-(-len(v) // 21), 21))  # rows of 21, as the samples CSV
        out = tmp_path / "v.csv"
        cli._write_csv(str(out), "v", (a,))
        assert out.read_bytes() == self._per_value(a)

    def test_blocks_mix_fallback_and_vectorised_rows(self, tmp_path):
        # blocks of 8192 // 21 = 390 rows: only the first and third hold values
        # that the vectorised path leaves to the one-% format
        a = np.random.default_rng(10).standard_normal((2000, 21)) * 10.0 ** np.arange(-10, 11)
        a[0, :7] = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, -1e31, 9.999e-14]
        a[800, 3] = 2e300
        out = tmp_path / "mixed.csv"
        cli._write_csv(str(out), "v", (a[:, :1], a[:, 1:]))
        assert out.read_bytes() == self._per_value(a)

    def test_large_magnitudes_render_as_per_value_format(self):
        # [1e10, 1e31): the digits come from a / 10^(X - 9), an exact power
        # of ten, so these values take the vectorised digits too
        rng = np.random.default_rng(11)
        x = rng.integers(10, 31, 4000)
        d = rng.integers(10 ** 9, 10 ** 10, 4000)
        ties = (d + 0.5) * 10.0 ** (x - 9)  # half-way digit strings, to rounding
        exact = [(10 * int(k) + 5) * 10 ** j for k, j in zip(d[:600], x[:600] % 6)]
        exact = np.array([float(v) for v in exact if float(v) == v])  # exact ties
        p = 10.0 ** np.arange(10, 31)
        near = [p, p * (1 - 5e-11), p * (1 + 5e-11)]
        for direction in (0, np.inf):
            w = p
            for _ in range(3):
                w = np.nextafter(w, direction)
                near.append(w)
        v = np.concatenate([10.0 ** rng.uniform(10, 31, 20_000), ties,
                            np.nextafter(ties, 0), np.nextafter(ties, np.inf), exact, *near])
        v = v[(v >= 1e10) & (v < 1e31)]
        v[::3] = -v[::3]
        assert len(exact) > 300
        got = cli._render(v, np.ones(len(v), bool))
        assert got == "".join("%.10g\n" % t for t in v.tolist()).encode()


class TestUnwritableOutput:
    """A path that cannot be written exits 2 naming it, with no traceback
    and no temp file left behind."""

    @staticmethod
    def _argv(flag, data, config, bad):
        return {"fit --out": ["fit", data, "--out", bad],
                "fit --fitted-csv": ["fit", data, "--fitted-csv", bad],
                "credible --samples-csv": ["credible", data, "--draws", "2",
                                           "--samples-csv", bad],
                "simulate --table": ["simulate", config, "--table", bad]}[flag]

    @pytest.mark.parametrize("flag", ["fit --out", "fit --fitted-csv",
                                      "credible --samples-csv", "simulate --table"])
    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_exits_2_and_leaves_no_temp_file(self, tmp_path, sample_csv, capsys, flag, where):
        config = TestSimulateCommand()._config(tmp_path)
        bad = tmp_path / ("missing/out.x" if where == "missing-directory" else "a-directory")
        if where == "a-directory":
            bad.mkdir()
        before = set(tmp_path.iterdir())
        assert main(self._argv(flag, str(sample_csv), str(config), str(bad))) == 2
        assert f"error: cannot write {bad}: " in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before  # the temp file sits beside the target

    @pytest.mark.parametrize("flag", ["fit --fitted-csv", "simulate --table"])
    def test_nothing_is_written_before_a_bad_path_is_found(self, tmp_path, sample_csv,
                                                           capsys, flag):
        # the JSON payload comes first: to --out for fit, to stdout for simulate
        config = TestSimulateCommand()._config(tmp_path)
        bad = tmp_path / "missing" / "out.csv"
        argv = self._argv(flag, str(sample_csv), str(config), str(bad))
        if flag.startswith("fit"):
            argv += ["--out", str(tmp_path / "a.json")]
        before = set(tmp_path.iterdir())
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write {bad}: No such file or directory\n"
        assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_mode_a_new_file_gets(tmp_path, sample_csv, umask, mode):
    out, fitted = tmp_path / "fit.json", tmp_path / "fitted.csv"
    old = os.umask(umask)
    try:
        assert main(["fit", str(sample_csv), "--out", str(out), "--fitted-csv", str(fitted)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert stat.S_IMODE(fitted.stat().st_mode) == mode


@pytest.mark.parametrize("command", ["fit", "credible"])
def test_outputs_leave_the_umask_alone(tmp_path, sample_csv, monkeypatch, command):
    # the temp file takes its mode from os.open, not from a round trip through
    # the process's umask (the benchmark and the tests run main in-process)
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    extra = (["--fitted-csv", str(csv)] if command == "fit"
             else ["--draws", "2", "--samples-csv", str(csv)])
    assert main([command, str(sample_csv), "--out", str(out), *extra]) == 0
    assert out.exists() and csv.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out.csv", "out.json"]


class TestCredibleCommand:
    def test_ball_and_samples(self, tmp_path, sample_csv):
        out = tmp_path / "ball.json"
        samples = tmp_path / "samples.csv"
        rc = main(["credible", str(sample_csv), "--out", str(out),
                   "--samples-csv", str(samples), "--draws", "5",
                   "--mc-draws", "1000", "--seed", "3"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["radius"] > 0
        assert payload["center_inside"] is True
        header = samples.read_text().splitlines()[0]
        assert header == "x,s1,s2,s3,s4,s5"

    def test_constant_column_exits_2(self, tmp_path):
        p = tmp_path / "const.csv"
        _write_y_csv(p, np.full(200, -1.5))
        out = tmp_path / "ball.json"
        assert main(["credible", str(p), "--out", str(out)]) == 2
        assert not out.exists()

    def test_nan_L_exits_2(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "ball.json"
        assert main(["credible", str(sample_csv), "--L", "nan", "--out", str(out)]) == 2
        assert "need L >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_inf_L_exits_2(self, tmp_path, sample_csv, capsys):
        out = tmp_path / "ball.json"
        assert main(["credible", str(sample_csv), "--L", "inf", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: need L >= 1 and L < inf, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags,what", [
        (["--draws", "3"], "--samples-csv"),
        (["--samples-csv", "curves.csv"], "--draws >= 1"),
        (["--samples-csv", "curves.csv", "--draws", "0"], "--draws >= 1"),
        (["--draws", "-3"], "--draws must be >= 0, got -3"),
        (["--samples-csv", "curves.csv", "--draws", "-3"], "--draws must be >= 0, got -3"),
    ], ids=["draws-alone", "csv-alone", "csv-zero-draws", "negative", "csv-negative"])
    def test_draws_it_cannot_deliver_exit_2(self, tmp_path, sample_csv, capsys, flags, what):
        out = tmp_path / "ball.json"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main(["credible", str(sample_csv), "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and what in err
        assert not out.exists() and not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize("flags", [["--draws", "2", "--samples-csv", "s.csv"], []],
                             ids=["with-curves", "ball-only"])
    def test_negative_seed_exits_2_before_reading(self, tmp_path, capsys, flags):
        # the data file does not exist: the seed is refused before it is read
        out = tmp_path / "ball.json"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main(["credible", str(tmp_path / "absent.csv"), "--seed", "-3",
                     "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -3\n"
        assert list(tmp_path.iterdir()) == []

    def test_selection_flags_in_fit_payload(self, tmp_path, sample_csv):
        out = tmp_path / "ball.json"
        assert main(["credible", str(sample_csv), "--out", str(out)]) == 0
        fit = json.loads(out.read_text())["fit"]
        assert fit["all_nonpositive"] is True
        assert fit["all_positive_warning"] is False

    def test_seed_replay_identical(self, tmp_path, sample_csv):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"ball-{tag}.json"
            rc = main(["credible", str(sample_csv), "--out", str(out),
                       "--mc-draws", "1000", "--seed", "11"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_radius_shrinks_when_n_doubles(self, tmp_path):
        radii = {}
        for n in (250, 500):
            g = e.design_grid(n)
            y = np.cos(2 * np.pi * g.x) \
                + 0.05 * np.random.default_rng(4).standard_normal(n)
            p = tmp_path / f"d{n}.csv"
            _write_y_csv(p, y)
            out = tmp_path / f"ball{n}.json"
            assert main(["credible", str(p), "--out", str(out),
                         "--mc-draws", "2000", "--seed", "3"]) == 0
            radii[n] = json.loads(out.read_text())["radius"]
        assert radii[500] < radii[250]


class TestSimulateCommand:
    def _config(self, tmp_path, seed=5):
        cfg = {
            "generator": {"kind": "f2-cosine"},
            "n": 64, "replicates": 3, "sigma": 0.05,
            "gcv_orders": [2.0], "seed": seed,
            "design_convention": "right",
        }
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        return p

    def test_simulate_outputs(self, tmp_path):
        cfgp = self._config(tmp_path)
        out = tmp_path / "report.json"
        table = tmp_path / "table.csv"
        rc = main(["simulate", str(cfgp), "--out", str(out), "--table", str(table)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["schema_version"] == 1
        assert rep["config"]["n"] == 64
        assert table.read_text().startswith("metric,EB,GCV q=2")

    def test_simulate_replay_byte_identical(self, tmp_path):
        cfgp = self._config(tmp_path)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep-{tag}.json"
            assert main(["simulate", str(cfgp), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["simulate", str(p)]) == 2


class TestCompareCommand:
    def test_compare_runs_and_reports(self, tmp_path):
        cfg = {
            "generator": {"kind": "f1-spectral"},
            "n": 128, "replicates": 4, "sigma": 0.01,
            "q_choices": [2.0], "mc_draws": 1000, "seed": 8,
        }
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "cmp-report.json"
        rc = main(["compare", str(p), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert set(rep["coverage_gcv_ball"]) == {"2.0"}
        assert 0.0 <= rep["coverage_eb_ball"] <= 1.0


class TestBadConfigs:
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("cfg,what", [
        ({}, "missing key 'generator'"),
        ({"generator": {"kind": "f1-spectral"}, "n": "abc"}, "'abc'"),
        ([1, 2], "config must be a JSON object"),
        ({"generator": {"kind": "f1-spectral", "params": {"beta": "abc"}}},
         "generator params 'beta': 'abc' is not a number"),
        ({"generator": {"kind": "f1-spectral"}, "sigma": -1},
         "sigma must be finite and >= 0, got -1.0"),
        ({"generator": {"kind": "f1-spectral"}, "sigma": "nan"},
         "sigma must be finite and >= 0, got nan"),
        # the keys both commands share are strict: no value is coerced into
        # another that runs
        ({"generator": {"kind": "f1-spectral"}, "n": 64.9}, "n: 64.9 is not an integer"),
        ({"generator": {"kind": "f1-spectral"}, "n": 64, "replicates": True},
         "replicates: True is not an integer"),
        ({"generator": {"kind": "f1-spectral"}, "n": 64, "seed": "7"},
         "seed: '7' is not an integer"),
        ({"generator": {"kind": "f1-spectral"}, "n": 64, "sigma": True},
         "sigma: True is not a number"),
        ({"generator": {"kind": "f1-spectral", "scale_by_range": "false"}, "n": 64},
         "generator scale_by_range: 'false' is not a boolean"),
        # checked when the config is read, before the experiment builds its grid
        ({"generator": {"kind": "f1-spectral"}, "n": 64, "design_convention": 5},
         "unknown design convention 5"),
        # np.random.SeedSequence takes no negative seed
        ({"generator": {"kind": "f1-spectral"}, "n": 64, "seed": -3},
         "seed must be >= 0, got -3"),
        # the raw bytes of a config that is not UTF-8
        (b'{"generator": {"kind": "f1-spectral\xff"}}', "can't decode byte 0xff"),
        # generator params: custom-spectrum needs its coeffs, every other param
        # is one number, and f1's beta is an order
        ({"generator": {"kind": "custom-spectrum"}, "n": 64, "replicates": 2},
         "generator params 'coeffs': missing, custom-spectrum needs it"),
        ({"generator": {"kind": "custom-spectrum", "params": {"coeffs": 3}}, "n": 64},
         "generator params 'coeffs': 3 is not a list of numbers"),
        ({"generator": {"kind": "f2-cosine", "params": {"half_periods": [1, 2]}}, "n": 64,
          "replicates": 2}, "generator params 'half_periods': [1, 2] is not a number"),
        ({"generator": {"kind": "f1-spectral", "params": {"beta": [3]}}, "n": 64,
          "replicates": 2}, "generator params 'beta': [3] is not a number"),
        ({"generator": {"kind": "f1-spectral", "params": {"beta": -1}}, "n": 64,
          "replicates": 2}, "generator params 'beta': -1 is not an order"),
        ({"generator": "f1-spectral", "n": 64}, "generator: 'f1-spectral' is not an object"),
        ({"generator": {"kind": "f1-spectral", "params": [3]}, "n": 64},
         "generator params: [3] is not an object"),
    ], ids=["empty", "n-not-a-number", "not-an-object", "param-not-a-number",
            "negative-sigma", "nan-sigma", "n-float", "replicates-bool", "seed-string",
            "sigma-bool", "scale-string", "convention-int", "negative-seed", "non-utf8",
            "coeffs-missing", "coeffs-scalar", "half-periods-list", "beta-list",
            "beta-negative", "generator-string", "params-list"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, cfg, what):
        p = tmp_path / "cfg.json"
        p.write_bytes(cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode())
        assert main([command, str(p), "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and what in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_negative_seed_override_exits_2_before_any_replicate(self, tmp_path, capsys,
                                                                 monkeypatch, command):
        monkeypatch.setattr(simlab, "_fits", None)  # a replicate would fail otherwise
        p, out = tmp_path / "cfg.json", tmp_path / "out.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, "seed": 5}))
        assert main([command, str(p), "--seed", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {p}: seed must be >= 0, got -3\n"
        assert not out.exists()

    def test_compare_ignores_monte_carlo_keys(self, tmp_path):
        # mc_draws and radius_seed configure only the Monte Carlo oracle, which
        # compare does not run: even values RadiusSpec refuses load as unknown keys
        cfg = {"generator": {"kind": "f1-spectral"}, "n": 64, "replicates": 2,
               "q_choices": [2], "seed": 5}
        reports = []
        for tag, extra in (("plain", {}), ("mc", {"mc_draws": 5, "radius_seed": 3})):
            p, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}-report.json"
            p.write_text(json.dumps({**cfg, **extra}))
            assert main(["compare", str(p), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("key", ["gcv_orders", "q_grid"])
    def test_orders_must_be_numbers(self, tmp_path, capsys, key):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, key: [2, "x"]}))
        assert main(["simulate", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: {key}: 'x' is not a number\n"

    def test_infinite_order_in_the_grid_exits_2(self, tmp_path, capsys):
        p, out = tmp_path / "cfg.json", tmp_path / "out.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, "q_grid": [1, math.inf]}))
        assert main(["simulate", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: penalty order must be finite and exceed 1/2, got inf\n"
        assert not out.exists()

    def test_valid_orders_are_echoed_as_given(self, tmp_path):
        p, out = tmp_path / "cfg.json", tmp_path / "out.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral", "params": {"beta": 3}},
                                 "n": 64, "replicates": 2, "sigma": 0,
                                 "q_grid": [1, 2.5, 3], "gcv_orders": [2]}))
        assert main(["simulate", str(p), "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())["config"]
        assert (cfg["q_grid"], cfg["gcv_orders"], cfg["sigma"]) == ([1, 2.5, 3], [2], 0.0)
        assert cfg["generator"]["params"] == {"beta": 3}

    @pytest.mark.parametrize("entry,what", [
        ({"beta": "abc"}, "beta: 'abc' is not a number"),
        ({"beta": True}, "beta: True is not a number"),
        ({"q_choices": [True]}, "q_choices: True is not a number"),
        ({"q_choices": [2, "x"]}, "q_choices: 'x' is not a number"),
    ], ids=["beta-string", "beta-bool", "q-choice-bool", "q-choice-string"])
    def test_compare_beta_and_q_choices_must_be_numbers(self, tmp_path, capsys, entry, what):
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, **entry}))
        assert main(["compare", str(p), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"error: {p}: {what}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("alpha,what", [
        ("0.1", "alpha: '0.1' is not a number"),
        (True, "alpha: True is not a number"),
        (1.5, "need 0 < alpha < 1, got 1.5"),
    ], ids=["alpha-string", "alpha-bool", "alpha-above-one"])
    def test_compare_alpha_is_a_level(self, tmp_path, capsys, alpha, what):
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, "alpha": alpha}))
        assert main(["compare", str(p), "--out", str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err == f"error: {p}: {what}\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("entry,alpha", [({}, 0.05), ({"alpha": 0.1}, 0.1)],
                             ids=["alpha-default", "alpha-given"])
    def test_compare_report_echoes_alpha(self, tmp_path, entry, alpha):
        p, out = tmp_path / "cmp.json", tmp_path / "out.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, "q_choices": [2], **entry}))
        assert main(["compare", str(p), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["alpha"] == alpha

    @pytest.mark.parametrize("entry", [{}, {"beta": None}, {"beta": 3}],
                             ids=["beta-absent", "beta-null", "beta-number"])
    def test_compare_beta_may_be_absent_or_null(self, tmp_path, entry):
        p, out = tmp_path / "cmp.json", tmp_path / "out.json"
        p.write_text(json.dumps({"generator": {"kind": "f1-spectral"}, "n": 64,
                                 "replicates": 2, "q_choices": [2], **entry}))
        assert main(["compare", str(p), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["beta"] == 3.0

    def test_experiment_errors_keep_their_message(self, tmp_path, capsys):
        # the config parses; the experiment itself rejects a generator
        # without a nominal smoothness, and its message is not relabelled
        p = tmp_path / "cmp.json"
        p.write_text(json.dumps({"generator": {"kind": "f2-cosine"}, "n": 64,
                                 "replicates": 2}))
        assert main(["compare", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: nominal smoothness beta is required\n")


class TestOracleAndKappa:
    def test_kappa_payload(self, capsys):
        rc = main(["kappa", "--q", "1", "--m", "0", "--l", "1", "--stdout"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kappa"] == pytest.approx(0.5, abs=1e-12)

    def test_oracle_payload(self, tmp_path):
        out = tmp_path / "oracle.json"
        rc = main(["oracle", "--generator", "f1-spectral", "--n", "500",
                   "--q", "3", "--sigma", "0.01", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["lambda_numeric_root"] > 0
        assert payload["selector_variance_ratio"] > 1.0

    @pytest.mark.parametrize("sigma,what", [
        ("0", "need sigma2 > 0 for the closed form, got 0"),
        ("inf", "--sigma must be finite and >= 0, got inf"),
        ("-0.01", "--sigma must be finite and >= 0, got -0.01"),
        ("nan", "--sigma must be finite and >= 0, got nan"),
    ], ids=["zero", "inf", "negative", "nan"])
    def test_oracle_bad_sigma_exits_2(self, tmp_path, capsys, sigma, what):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--n", "200", "--sigma", sigma, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {what}\n"
        assert not out.exists()

    def test_kappa_domain_error_exits_2(self):
        assert main(["kappa", "--q", "1", "--m", "0", "--l", "0"]) == 2

    @pytest.mark.parametrize("argv,what", [
        (["kappa", "--q", "inf", "--m", "0", "--l", "1"], "need 1/2 < q < inf, got inf"),
        (["oracle", "--q", "inf", "--n", "200", "--sigma", "0.01"],
         "penalty order must be finite and exceed 1/2, got inf"),
    ], ids=["kappa", "oracle"])
    def test_infinite_order_exits_2(self, tmp_path, capsys, argv, what):
        # an infinite order is a usage error (2), not a numeric failure (3)
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {what}\n"
        assert not out.exists()

    def test_order_past_the_float_range_exits_2(self, tmp_path, capsys):
        # pi^120 (i - c)^120 overflows at n = 1000: the payload read
        # "lambda_closed_form": 0.0 and "derivative_energy": Infinity
        out = tmp_path / "out.json"
        assert main(["oracle", "--n", "1000", "--q", "60", "--sigma", "0.01",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the order-60.0 eigenvalues overflow the float range at n = 1000\n")
        assert not out.exists()
