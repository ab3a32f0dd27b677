"""Metrics, environment and static counters for one benchmark run."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

from agnnseg import engine
from tracing import LAYERS
from workloads import REFERENCE_MS, mean_j, percentile, quantiles


def end_to_end(tally, setup_s, peak_mb):
    """Throughput and latency per operation at reference speed, memory, set-up."""
    return {
        "units_per_s": {"value": tally.units / tally.busy_ref_s, "unit": "1/s"},
        "op_ms.p50": {"value": percentile(tally.op_ref_ms, 50), "unit": "ms"},
        "op_ms.p90": {"value": percentile(tally.op_ref_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _count(value):
    return {"value": value, "unit": "count"}


def _ms(value):
    return {"value": value, "unit": "ms"}


def per_layer(summary, tracer, traced, untraced, workload):
    """Calls and self ms per unit of work for every layer and op kind.

    A unit is a training iteration, an eval frame or a coseg image.
    """
    table = summary["all"]
    units = traced.units
    out = {}
    for layer in LAYERS:
        calls, self_s = table["layers"][layer]
        out[f"{layer}.calls"] = _count(calls / units)
        out[f"{layer}.ms"] = _ms(1e3 * self_s / units)
    out["other.ms"] = _ms(1e3 * table["layers"]["op"][1] / units)
    out["wall.ms"] = _ms(1e3 * table["wall_s"] / units)
    for kind in engine.op_kinds():
        calls, seconds = table["apply"].get(kind, (0, 0.0))
        out[f"engine.apply.{kind}.calls"] = _count(calls / units)
        out[f"engine.apply.{kind}.ms"] = _ms(1e3 * seconds / units)
    rounds = table["layers"]["graph.propagate_round"][0]
    out["graph.apply_calls_per_round"] = _count(summary["all"]["round_applies"] / rounds if rounds else 0.0)
    # each coseg operation encodes its whole group, so calls per image are
    # also calls per distinct image of a group pass
    out["coseg.encodes_per_image"] = (
        out["encoder.encode.calls"] if workload == "coseg" else _count(0.0))
    for kind in ("static", "dynamic"):
        tapes, records, saved = tracer.census.get(kind, (0, {}, 0))
        out[f"engine.tape.records.{kind}"] = _count(sum(records.values()) / tapes if tapes else 0.0)
        out[f"engine.tape.saved_mb.{kind}"] = {
            "value": saved / tapes / 2**20 if tapes else 0.0, "unit": "MB"}
    # both halves at reference speed, so a change of host speed between them cancels
    base = untraced.busy_ref_s / untraced.units
    out["trace.overhead_pct"] = {
        "value": 100.0 * (traced.busy_ref_s / traced.units - base) / base, "unit": "%"}
    return out


# ---------------------------------------------------------------------------
# environment


def _commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def _sources(root):
    files = sorted((root / "src" / "agnnseg").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()[:16]


def environment(root):
    lines, digest = _sources(root)
    blas, threads = _blas()
    env = {
        "commit": _commit(root),
        "source_sha256": digest,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    counters = {"source_lines": lines, "op_kinds": len(engine.op_kinds())}
    return env, counters


def _segment(tally):
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted if tally.attempted else None,
        "units": tally.units,
        "busy_s": tally.busy_s,
        "wall": {"units_per_s": tally.units / tally.busy_s, "op_ms": quantiles(tally.op_ms),
                 **{f"{k}_iteration_ms": quantiles(v) for k, v in tally.kind_ms.items()}},
        "at_reference_speed": {
            "reference_ms": REFERENCE_MS,
            "units_per_s": tally.units / tally.busy_ref_s,
            "op_ms": quantiles(tally.op_ref_ms),
            **{f"{k}_iteration_ms": quantiles(v) for k, v in tally.kind_ref_ms.items()}},
        "measured_reference_ms": quantiles(tally.refs_ms),
        "failures": dict(tally.failures),
        "first_failure": tally.first_failure or None,
    }


def details(args, unit, segments, ref, problems, root, summary=None):
    env, counters = environment(root)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "unit": unit,
        "environment": env,
        "counters": counters,
        "untraced": _segment(segments[0][1]),
        "problems": problems,
        "mean_j": mean_j(ref),
        "losses_head": ref.values.get("losses"),
        "loss_digest": ref.values.get("loss_digest"),
    }
    if summary is not None:
        tracer, traced = segments[1]
        out["traced"] = _segment(traced)
        out["by_tag"] = {
            tag: {"layers_ms": {k: 1e3 * v[1] for k, v in table["layers"].items() if v[0]},
                  "layer_calls": {k: v[0] for k, v in table["layers"].items() if v[0]},
                  "apply_calls": {k: v[0] for k, v in table["apply"].items()}}
            for tag, table in summary.items() if tag in ("static", "dynamic")
        }
        out["tape_records_by_kind"] = {
            tag: {"tapes": entry[0], "records": dict(entry[1])} for tag, entry in tracer.census.items()
        }
    return out
