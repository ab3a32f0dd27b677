"""Benchmark for agnnseg: train, eval and coseg workloads, optionally traced.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details: environment, static counters, failures,
sample counts and the values that pin the arithmetic.  A traced run spends
the first half of its time untraced, to state the tracing overhead, and
writes its spans to ``.perfbench_out/<workload>-trace.npz``.
"""

import os

# fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Import agnnseg from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import agnnseg

    if not Path(agnnseg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"agnnseg imported from {agnnseg.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "eval", "coseg"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    import report
    from tracing import Tracer
    from workloads import WORKLOADS, Reference, Tally, check_eval_maps, set_up

    drive, unit = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        setup_s, setup_wall_s, setup = set_up(workdir, args.workload, args.seed)
        ref = Reference()
        segments = [(Tracer(enabled=False), Tally())]
        if args.trace:
            segments.append((Tracer(enabled=True), Tally()))
        seconds = args.seconds / len(segments)
        for tracer, tally in segments:
            deadline = time.perf_counter() + seconds
            drive(setup, deadline, tracer, tally, ref)
        checks = Tally()
        if args.workload == "eval":
            check_eval_maps(setup, checks, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = [tally for _, tally in segments] + [checks]
    problems = [p for t in tallies for p in t.problems]
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
    }
    untraced = segments[0][1]
    summary = None
    if args.trace:
        tracer, traced = segments[1]
        summary = tracer.summary()
        result["metrics"] = report.per_layer(summary, tracer, traced, untraced, args.workload)
        tracer.write(OUT_DIR / f"{args.workload}-trace.npz")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = report.end_to_end(untraced, setup_s, peak_mb)
    detail = report.details(args, unit, segments, ref, problems, ROOT, summary)
    detail["setup_wall_s"] = setup_wall_s
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
