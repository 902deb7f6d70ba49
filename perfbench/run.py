"""ebsplines benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload runs in processes of its own
(perfbench/worker.py), so set-up time and peak RSS belong to that workload.

--trace 0 measures the end-to-end metrics with tracing off: the set-up is
repeated in four set-up-only processes and once more in the measuring
process (``setup_s`` is the median of the five), then rounds run for --seconds.

--trace 1 gives the per-layer metrics: the same fixed number of rounds runs
once untraced and once traced, each in a fresh process; the ratio of their
busy times is the tracing overhead.

Human-readable lines (the per-operation latencies under the names used in
the ROADMAP, failures, the output digest and the environment) come first;
the last line of stdout is the JSON result.  Details, including the full
per-function trace table, go to .perfbench/results/ and the traced spans to
.perfbench/results/<workload>-spans.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "compare", "credible-requests", "fit-ladder")
SETUP_ONLY_RUNS = 4
# Nominal seconds per round on a 2-core box; sizes the traced runs' fixed work.
NOMINAL_ROUND_S = {"simulate": 5.5, "compare": 5.0, "credible-requests": 0.7,
                   "fit-ladder": 0.37}
# printed latency names: <prefix>_p50_ms, <prefix>_tail_ms, plus .<label>
# where a round mixes several kinds of operation
LATENCY_PREFIX = {"simulate": "study", "compare": "compare",
                  "credible-requests": "request", "fit-ladder": "fit"}
TIME_LIMIT_S = 170.0
# Set-up is mostly importing numpy and scipy, which takes 0.18-0.45 s on the
# same host depending on its load.  Each set-up is scaled by the host speed
# for imports: the nominal over the measured time of the same imports in a
# fresh interpreter started just before it.  Nothing in ebsplines moves it.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, scipy.fft; "
                "print(time.perf_counter() - t)")
IMPORT_NOMINAL_S = 0.2  # the probe took 0.18 s in the host's fast phase


class BenchError(Exception):
    pass


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None below twenty samples, where it would not reach
    the median."""
    s = sorted(samples)
    if len(s) < 20:
        return None
    return 100.0 * (len(s) - 10) / len(s), s[-11]


def worker(args, deadline: float, mode: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {args.workload} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {args.workload} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_speed(deadline: float) -> float:
    try:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("import probe ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"import probe exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return IMPORT_NOMINAL_S / float(proc.stdout)


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups, speeds = [], []
    for _ in range(SETUP_ONLY_RUNS):
        speeds.append(import_speed(deadline))
        setups.append(worker(args, deadline, "setup")["setup_s"])
    speeds.append(import_speed(deadline))
    res = worker(args, deadline, "timed", "--seconds", str(args.seconds))
    res["setup_timed_s"] = setups + [res["setup_s"]]
    res["setup_host_speed"] = speeds
    res["setup_samples_s"] = [t * v for t, v in zip(res["setup_timed_s"], speeds)]
    rate = res["replicates"] / res["busy_s"]
    res["timed_replicates_per_s"] = rate
    values = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        # at the reference host speed: see perfbench/reference.py
        "replicates_per_s": rate / res["host_speed"],
    }
    return values, res


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    rounds = max(1, round(args.seconds / 2 / NOMINAL_ROUND_S[args.workload]))
    base = worker(args, deadline, "fixed", "--rounds", str(rounds))
    spans = ROOT / ".perfbench" / "results" / f"{args.workload}-spans.json"
    res = worker(args, deadline, "fixed", "--rounds", str(rounds), "--trace",
                 "--spans", str(spans))
    values = dict(res["layers"])
    values["trace.overhead_ratio"] = res["busy_s"] / base["busy_s"]
    res["untraced_busy_s"] = base["busy_s"]
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    res["problems"] = base["problems"] + res["problems"]
    return values, res


def summary_lines(workload: str, values: dict, res: dict, traced: bool) -> list[str]:
    lines = [f"workload {workload}: {res['rounds']} rounds, {res['attempted']} "
             f"operations attempted, {res['failed']} failed"]
    lines.append(f"  failed_ratio = {res['failed'] / res['attempted']:.6g}")
    if not traced:
        for key, label in (("setup_samples_s", "setup_s samples"),
                           ("setup_timed_s", "set-up seconds as timed"),
                           ("setup_host_speed", "host speed for imports")):
            lines.append(f"  {label} = " + ", ".join(f"{v:.4f}" for v in res[key]))
        lines.append(f"  replicates per second as timed = {res['timed_replicates_per_s']:.6g} "
                     f"1/s at host speed {res['host_speed']:.4f} "
                     f"({res['ref_units']} reference units in {res['ref_s']:.3f} s)")
        labelled = len(res["op_ms"]) > 1
        for label, samples in sorted(res["op_ms"].items()):
            suffix = f".{label}" if labelled else ""
            prefix = LATENCY_PREFIX[workload]
            lines.append(f"  {prefix}_p50_ms{suffix} = "
                         f"{statistics.median(samples):.4f} ms ({len(samples)} samples)")
            t = tail(samples)
            if t is not None:
                lines.append(f"  {prefix}_tail_ms{suffix} = {t[1]:.4f} ms "
                             f"(p{t[0]:.1f}, {len(samples)} samples)")
    else:
        lines.append(f"  traced busy {res['busy_s']:.3f} s, untraced busy "
                     f"{res['untraced_busy_s']:.3f} s")
        for name, row in sorted(res["table"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"  layer {name}: calls {row['calls']}, total "
                         f"{row['total_s']:.4f} s, self {row['self_s']:.4f} s")
    for name, value in values.items():
        lines.append(f"  {name} = {value:.6g}")
    for p in res["problems"]:
        lines.append(f"  FAILED {p}")
    lines.append(f"  output digest (first {res['digest_ops']} passing operations) "
                 f"= {res['digest']}")
    lines.append("  env " + json.dumps(res["env"], sort_keys=True))
    return lines


def run_workload(args, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    traced = bool(args.trace)
    values, res = (per_layer if traced else end_to_end)(args, deadline)
    metric_list = spec["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in metric_list if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_list}
    for line in summary_lines(args.workload, values, res, traced):
        print(line)
    out = ROOT / ".perfbench" / "results" / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "metrics": metrics, "run": res}, indent=1))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes, for the harness self-test")
    args = p.parse_args()

    if not (ROOT / "src" / "ebsplines" / "__init__.py").is_file():
        print("error: src/ebsplines not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench" / "results").mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            result = run_workload(args, spec)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
