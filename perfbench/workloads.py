"""The three workloads, each a closed loop with a single caller.

Every workload sets up from the seed (dataset, manifest and video load,
model init), then calls one public agnnseg function over and over until a
deadline, timing each operation from outside and checking every output.

* ``train``: ``pipeline.train`` with TrainConfig defaults, in calls of
  ``TRAIN_ITERATIONS`` iterations from ``init_model(seed)``.  An operation
  is an iteration; its boundaries are the returns of ``SGD.step``.
* ``eval``: ``pipeline.evaluate`` on one test video at a time.  An
  operation is a video; the units of work are its frames.
* ``coseg``: ``pipeline.iocs_infer`` for every image of same-class groups of
  ``COSEG_GROUP`` co-segmentation images.  An operation is an image.

A failed operation is counted, timed from its start to the exception, and
the caller goes on with the next one; nothing in agnnseg is patched.
"""

from __future__ import annotations

import hashlib
import importlib
import shutil
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from agnnseg import pipeline
from agnnseg.metrics import boundary_f, region_similarity
from agnnseg.model import init_model
from agnnseg.synthdata import (
    DatasetManifest,
    downsample_mask,
    generate_dataset,
    load_manifest,
    load_video,
)

SETUP_REPEATS = 5
TRAIN_ITERATIONS = 42  # 21 static/dynamic cycles; the first is warm-up
COSEG_GROUP = 10
WARMUP_OPS = 1  # eval and coseg; train skips the first cycle of each call
THRESHOLD = 0.5
SPLITS = {"train": "train", "eval": "test", "coseg": "coseg"}

# On a shared host the CPU's speed drifts by tens of percent within a
# minute, so every operation is also timed against a fixed numpy and Python
# kernel run right next to it, and the end-to-end times are scaled to the
# speed at which that kernel takes REFERENCE_MS.
REFERENCE_MS = 2.5
_REF_MATRIX = np.random.default_rng(0).random((128, 128))
_REF_VALUES = [float(v) for v in range(300)]


def reference_ms():
    """Wall ms of a fixed kernel: BLAS, elementwise numpy and bytecode."""
    start = time.perf_counter()
    for _ in range(20):
        _REF_MATRIX @ _REF_MATRIX
        np.exp(_REF_MATRIX)
        sum(v * v for v in _REF_VALUES)
    return 1e3 * (time.perf_counter() - start)


@dataclass
class Setup:
    manifest: DatasetManifest
    entries: list
    videos: list  # (frames, masks) per entry, in manifest order
    params: object  # init_model(seed); train starts each call from a fresh copy
    seed: int


def set_up(workdir, workload, seed):
    """Build the inputs SETUP_REPEATS times.

    Returns the median set-up seconds at reference speed, the median wall
    seconds, and the Setup.
    """
    scaled, walls = [], []
    setup = None
    for rep in range(SETUP_REPEATS):
        setup = videos = params = None  # release the previous copy first
        root = workdir / f"dataset-{rep}"
        before = reference_ms()
        start = time.perf_counter()
        generate_dataset(root, seed=seed)
        manifest = load_manifest(root)
        entries = manifest.split(SPLITS[workload])
        videos = [load_video(manifest, e) for e in entries]
        params = init_model(seed=seed)
        wall = time.perf_counter() - start
        walls.append(wall)
        scaled.append(wall * REFERENCE_MS / ((before + reference_ms()) / 2))
        setup = Setup(manifest, entries, videos, params, seed)
        if rep:
            shutil.rmtree(workdir / f"dataset-{rep - 1}")
    return statistics.median(scaled), statistics.median(walls), setup


# ---------------------------------------------------------------------------
# bookkeeping


def failure_site(exc):
    """The public function through which the failing call entered the
    innermost agnnseg module, e.g. ``engine.reshape``; plus the call chain."""
    frames = [
        (f.f_globals.get("__name__", ""), f.f_code.co_name)
        for f, _ in traceback.walk_tb(exc.__traceback__)
    ]
    chain = [(m, fn) for m, fn in frames if m.startswith("agnnseg.")]
    if not chain:
        return "outside agnnseg", []
    module = chain[-1][0]
    i = len(chain) - 1
    while i > 0 and chain[i - 1][0] == module:
        i -= 1
    entry = chain[i][1]
    package = module.rsplit(".", 1)[0]
    short = module
    if package != "agnnseg":
        pkg = importlib.import_module(package)
        if getattr(pkg, entry, None) is getattr(importlib.import_module(module), entry, None):
            short = package
    where = f"{short.removeprefix('agnnseg.')}.{entry}"
    return where, [f"{m.removeprefix('agnnseg.')}.{fn}" for m, fn in chain]


@dataclass
class Tally:
    """Counts, latency samples and check results of one measured segment."""

    attempted: int = 0
    failed: int = 0
    units: int = 0
    busy_s: float = 0.0       # wall time inside operations
    busy_ref_s: float = 0.0   # the same, scaled to reference speed
    op_ms: list = field(default_factory=list)
    op_ref_ms: list = field(default_factory=list)
    kind_ms: dict = field(default_factory=dict)
    kind_ref_ms: dict = field(default_factory=dict)
    refs_ms: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    first_failure: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def busy(self, wall_s, ref_ms):
        self.busy_s += wall_s
        self.busy_ref_s += wall_s * REFERENCE_MS / ref_ms

    def latency(self, wall_s, ref_ms, kind=None):
        raw, scaled = (self.op_ms, self.op_ref_ms) if kind is None else (
            self.kind_ms.setdefault(kind, []), self.kind_ref_ms.setdefault(kind, []))
        raw.append(1e3 * wall_s)
        scaled.append(1e3 * wall_s * REFERENCE_MS / ref_ms)

    def fail(self, exc):
        where, chain = failure_site(exc)
        self.failed += 1
        self.failures[f"{type(exc).__name__} in {where}"] += 1
        if not self.first_failure:
            self.first_failure = {"type": type(exc).__name__, "where": where,
                                  "message": str(exc), "chain": chain}

    def check(self, ok, message):
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


@dataclass
class Reference:
    """Values that must repeat exactly whenever the same input comes back."""

    values: dict = field(default_factory=dict)

    def same(self, key, value):
        previous = self.values.setdefault(key, value)
        return previous == value


def _in_unit_interval(arr):
    return bool(np.all(np.isfinite(arr)) and arr.min() >= 0.0 and arr.max() <= 1.0)


def _scores(prob, mask, downsample):
    pred = prob > THRESHOLD
    gt = downsample_mask(mask, downsample)
    return region_similarity(pred, gt), boundary_f(pred, gt)


# ---------------------------------------------------------------------------
# workloads


def run_train(setup, deadline, tracer, tally, ref):
    """Closed loop of train calls; latency samples are static+dynamic cycles.

    Boundary k is the return of SGD.step for iteration k - 1 (boundary 0 is
    the call).  The reference kernel runs at every even boundary, between
    cycles, and its time is excluded; it is skipped while tracing.
    """
    config = pipeline.TrainConfig(iterations=TRAIN_ITERATIONS, seed=setup.seed)
    returns, resumes, refs = [], [], {}

    def on_step():
        now = time.perf_counter()
        returns.append(now)
        k = len(returns) - 1
        if k % 2 == 0 and not tracer.enabled:
            refs[k] = reference_ms()
            now = time.perf_counter()
        resumes.append(now)
        tracer.tag = "static" if k % 2 == 0 else "dynamic"

    tracer.observe("pipeline.SGD.step", on_step)
    with tracer.installed():
        while True:
            params = init_model(seed=setup.seed)  # train updates it in place
            tracer.tag = "static"
            refs.clear()
            refs[0] = reference_ms()
            start = time.perf_counter()
            returns[:] = resumes[:] = [start]
            result = error = None
            try:
                with tracer.span("op"):
                    result = pipeline.train(setup.manifest, config, params=params)
            except Exception as exc:  # a failed iteration; the caller goes on
                error = exc
            end = time.perf_counter()
            tracer.tag = ""
            last_ref = reference_ms()
            done = len(returns) - 1
            tally.attempted += done + (error is not None)
            tally.units += done + (error is not None)
            cycles = [(2 * c, 2 * c + 2) for c in range(done // 2)]
            if error is not None:
                tally.fail(error)
                cycles.append((2 * (done // 2), None))
            for first, stop in cycles:
                # while tracing only the kernel runs around the whole call
                start_ref = refs.get(first, last_ref)
                cycle_ref = (start_ref + refs.get(stop, last_ref)) / 2
                wall = (end if stop is None else returns[stop]) - resumes[first]
                tally.refs_ms.append(start_ref)
                tally.busy(wall, cycle_ref)
                if first or stop is None:  # the first cycle of a call is warm-up
                    tally.latency(wall, cycle_ref)
                if first and stop is not None:
                    tally.latency(returns[first + 1] - resumes[first], cycle_ref, "static")
                    tally.latency(returns[stop] - resumes[first + 1], cycle_ref, "dynamic")
            if error is None:
                losses = np.array(result.losses)
                tally.check(len(losses) == TRAIN_ITERATIONS, f"train returned {len(losses)} losses")
                tally.check(bool(np.all(np.isfinite(losses))), "train loss not finite")
                digest = hashlib.sha256(losses.tobytes()).hexdigest()[:16]
                tally.check(ref.same("loss_digest", digest), "same-seed train losses differ")
                ref.same("losses", [float(v) for v in losses[:8]])
            if time.perf_counter() >= deadline:
                return


def _op_loop(deadline, tracer, tally, next_op):
    """Closed loop for eval and coseg.

    ``next_op(i)`` gives (call, units, check) for operation i; ``check``
    sees the result of every call that returned, outside the timing.  The
    first WARMUP_OPS operations run and are checked but not measured.
    """
    with tracer.installed():
        op = 0
        while True:
            call, units, check = next_op(op)
            before = reference_ms()
            start = time.perf_counter()
            result = error = None
            try:
                with tracer.span("op"):
                    result = call()
            except Exception as exc:  # a failed operation; the caller goes on
                error = exc
            end = time.perf_counter()
            op_ref = (before + reference_ms()) / 2
            op += 1
            if op == WARMUP_OPS:
                tracer.reset()
            elif op > WARMUP_OPS:
                tally.busy(end - start, op_ref)
                tally.latency(end - start, op_ref)
                tally.refs_ms.append(before)
                tally.attempted += 1
                tally.units += units
                if error is not None:
                    tally.fail(error)
            if error is None:
                check(result)
            if op > WARMUP_OPS and time.perf_counter() >= deadline:
                return


def run_eval(setup, deadline, tracer, tally, ref):
    """Single-video evaluate calls, cycling over the test split."""
    params = setup.params

    def check(report):
        (video_id, j, f), = report.rows
        tally.check(0.0 <= j <= 1.0 and 0.0 <= f <= 1.0, f"{video_id}: J={j} F={f}")
        tally.check(ref.same(("J", video_id), j), f"{video_id}: J changed on repeat")

    def next_op(op):
        entry = setup.entries[op % len(setup.entries)]
        one = DatasetManifest(setup.manifest.root, [entry])
        return (lambda: pipeline.evaluate(one, params)), entry.num_frames, check

    _op_loop(deadline, tracer, tally, next_op)


def check_eval_maps(setup, tally, ref):
    """Probability maps of the first test video against evaluate's own J."""
    key = ("J", setup.entries[0].video_id)
    if key not in ref.values:
        return  # no completed evaluation to compare with
    params = setup.params
    frames, masks = setup.videos[0]
    try:
        probs = pipeline.infer_video(list(frames), params)
    except Exception as exc:  # evaluate succeeded on this video, so this is wrong
        tally.check(False, f"infer_video raised {type(exc).__name__}: {exc}")
        return
    d = params.downsample
    grid = (frames.shape[1] // d, frames.shape[2] // d)
    tally.check(len(probs) == len(frames), "infer_video returned a wrong number of maps")
    js = []
    for prob, mask in zip(probs, masks):
        tally.check(prob.shape == grid and _in_unit_interval(prob), "eval map off grid or range")
        j, f = _scores(prob, mask, d)
        tally.check(0.0 <= f <= 1.0, "eval F outside [0, 1]")
        js.append(j)
    tally.check(float(np.mean(js)) == ref.values[key], "evaluate J differs from its maps")


def coseg_groups(setup):
    """Same-class groups of COSEG_GROUP (image, mask) pairs, in manifest order."""
    by_class = {}
    for entry, (frames, masks) in zip(setup.entries, setup.videos):
        by_class.setdefault(entry.shape_class, []).append((frames[0], masks[0]))
    groups = []
    for members in by_class.values():
        for k in range(0, len(members) - COSEG_GROUP + 1, COSEG_GROUP):
            groups.append(members[k:k + COSEG_GROUP])
    return groups


def run_coseg(setup, deadline, tracer, tally, ref):
    """iocs_infer for every image of every group in turn."""
    params = setup.params
    d = params.downsample
    groups = coseg_groups(setup)

    def next_op(op):
        g, target = divmod(op % (len(groups) * COSEG_GROUP), COSEG_GROUP)
        images = [image for image, _ in groups[g]]
        image, mask = groups[g][target]
        grid = (image.shape[0] // d, image.shape[1] // d)

        def check(prob):
            ok = prob.shape == grid and _in_unit_interval(prob)
            tally.check(ok, f"coseg group {g} image {target}: map off grid or range")
            if ok:
                j, f = _scores(prob, mask, d)
                tally.check(0.0 <= j <= 1.0 and 0.0 <= f <= 1.0, f"coseg J={j} F={f}")
                tally.check(ref.same(("J", g, target), j), "coseg J changed on repeat")

        return (lambda: pipeline.iocs_infer(images, target, params)), 1, check

    _op_loop(deadline, tracer, tally, next_op)


# workload -> (driver, unit of work)
WORKLOADS = {
    "train": (run_train, "iteration"),
    "eval": (run_eval, "frame"),
    "coseg": (run_coseg, "image"),
}


def percentile(samples, q):
    """Percentile q (0-100) by statistics.quantiles; one sample is its own."""
    if len(samples) == 1:
        return float(samples[0])
    return float(statistics.quantiles(samples, n=100)[q - 1])


def quantiles(samples, qs=(10, 50, 90)):
    return {"n": len(samples), **{f"p{q}": percentile(samples, q) for q in qs}} if samples else None


def mean_j(ref):
    js = [v for k, v in ref.values.items() if isinstance(k, tuple) and k[0] == "J"]
    return float(np.mean(js)) if js else None
