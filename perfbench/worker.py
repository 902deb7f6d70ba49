"""One workload in its own process; started by run.py.

Modes:
  setup  set up and exit, reporting the set-up time;
  timed  set up, then run rounds until --seconds have passed (and at least
         the workload's minimum number of rounds), untraced;
  fixed  set up, then run exactly --rounds rounds, traced with --trace.

The result is printed as one JSON object on the last line of stdout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Rounds that always run: enough for the radius-bank cache (two banks) to
# reach its steady size on compare and credible-requests, so peak RSS does
# not depend on how fast the rounds go.
MIN_ROUNDS = {"simulate": 1, "compare": 3, "credible-requests": 3, "fit-ladder": 1}
# Units of reference work per round (about a fifth of the round's time),
# split over the round's operations so the host's speed is sampled between
# them; run.py scales throughput by it.
REF_UNITS = {"simulate": 1200, "compare": 1200, "credible-requests": 160, "fit-ladder": 90}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def run_rounds(workload, tracer, rounds: int | None, seconds: float,
               ref_units: int = 0) -> dict:
    """Run rounds, timing each operation; gate every output outside the timer.

    Before each operation a share of ``ref_units`` units of reference work
    runs (untraced, outside ``busy_s``); ``host_speed`` is their nominal over
    their measured time.
    """
    import reference
    import workloads

    clock = time.perf_counter
    op_ms: dict[str, list[float]] = {}
    problems, digests = [], []
    attempted = failed = replicates = 0
    busy = ref_s = 0.0
    ref_done = 0
    min_rounds = MIN_ROUNDS[workload.name]
    start = clock()
    k = 0
    while (k < rounds) if rounds is not None else (k < min_rounds or clock() - start < seconds):
        ops = workload.round(k)
        per_op = -(-ref_units // len(ops)) if ref_units else 0
        for op in ops:
            ref_s += reference.run(per_op)
            ref_done += per_op
            if tracer is not None:
                tracer.op = attempted
                tracer.paused = False
            t0 = clock()
            try:
                out = op.run()
                err = None
            except Exception as exc:  # a crash is a failed operation, not a stop
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer is not None:
                tracer.paused = True
            busy += dt
            op_ms.setdefault(op.label, []).append(dt * 1e3)
            replicates += op.replicates
            attempted += 1
            found = [err] if err else op.check(out)
            if found:
                failed += 1
                problems.append(f"round {k} {op.label}: " + "; ".join(found))
            elif k < min_rounds:
                digests.append(op.digest(out))
        k += 1
    return {"wall_s": clock() - start, "busy_s": busy, "rounds": k,
            "replicates": replicates, "op_ms": op_ms,
            "ref_units": ref_done, "ref_s": ref_s,
            "host_speed": reference.UNIT_NOMINAL_S * ref_done / ref_s if ref_done else None,
            "attempted": attempted, "failed": failed, "problems": problems[:20],
            "digest": workloads.digest(digests), "digest_ops": len(digests)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans here")
    args = p.parse_args()

    import workloads

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir), args.tiny)
        workload.setup()
        result = {"setup_s": time.perf_counter() - T_START}
        if args.mode != "setup":
            tracer = None
            if args.trace:
                from layertrace import Tracer
                tracer = Tracer()
                tracer.install()
            if args.mode == "fixed":  # per-layer runs: no host speed needed
                result.update(run_rounds(workload, tracer, args.rounds, 0.0))
            else:
                result.update(run_rounds(workload, tracer, None, args.seconds,
                                         1 if args.tiny else REF_UNITS[args.workload]))
            if tracer is not None:
                result["layers"] = tracer.layer_metrics(result["busy_s"])
                result["table"] = tracer.table()
                if args.spans:
                    tracer.dump(args.spans)
            result["env"] = environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
