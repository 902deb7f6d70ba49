"""Self-test of the benchmark harness at tiny problem sizes.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit by
every workload, in both the untraced and the traced run, and that the
correctness gates count corrupted outputs as failed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ebsplines as e  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, v in result["metrics"].items():
        assert np.isfinite(v["value"]), name
        if not trace:
            assert v["value"] > 0, name


@pytest.fixture(scope="module")
def fitted():
    family = e.ModelFamily(e.design_grid(200))
    f = e.Generator(kind="f1-spectral").values(family.grid)
    y = f + 0.01 * np.random.default_rng(0).standard_normal(200)
    return family, y, e.fit(family, y)


def test_good_fit_passes(fitted):
    family, y, res = fitted
    assert checks.check_fit(family, y, res) == []


def test_corrupted_operation_is_counted_and_kept(fitted):
    family, y, res = fitted
    bad = res.fitted.copy()
    bad[0] = np.nan
    corrupt = dataclasses.replace(res, fitted=bad)

    class Corrupted:
        name = "fit-ladder"

        def round(self, k):
            return [Op("n200", 1, lambda: corrupt,
                       lambda r: checks.check_fit(family, y, r), lambda r: b"")]

    out = worker.run_rounds(Corrupted(), None, rounds=2, seconds=0.0)
    assert (out["attempted"], out["failed"]) == (2, 2)
    assert len(out["op_ms"]["n200"]) == 2
    assert "non-finite fitted values" in out["problems"][0]


def test_host_speed_sampled_before_every_operation():
    class Trivial:
        name = "simulate"

        def round(self, k):
            return [Op("a", 1, lambda: 0, lambda r: [], lambda r: b"")] * 2

    out = worker.run_rounds(Trivial(), None, rounds=3, seconds=0.0, ref_units=3)
    assert out["ref_units"] == 3 * 2 * 2  # ceil(3 / 2) units before each of 6 ops
    assert out["host_speed"] > 0
    assert worker.run_rounds(Trivial(), None, rounds=1, seconds=0.0)["host_speed"] is None


def test_lambda_off_the_root_counts_as_failed(fitted):
    family, y, res = fitted
    per_q = [(d.q, d.lambda_hat * 10.0, False) for d in res.selection.per_q]
    assert checks.check_orders(family, y, per_q)


def test_corrupted_cli_outputs_count_as_failed(fitted):
    family, y, _ = fitted
    assert checks.check_credible(family, y, "{not json", "", 5)
    assert checks.check_study('{"q_hat_counts": {"3.0": 199}}', "", 200)
    assert checks.check_compare('{"replicates": 200, "coverage_gcv_ball": {"2.0": 1.5},'
                                ' "coverage_eb_ball": 0.9, "gcv_ball_radius": 0.01}', 200)
