"""Spans around calls into agnnseg's public functions, taken from outside.

Each traced function is wrapped once, at the attribute its callers look it
up through (``agnnseg.model.encode``, ``agnnseg.graph.intra_attention``, ...),
and the original is put back when tracing ends.  Spans are kept in memory
and aggregated (and written out) only after the measured run.

Two views are kept apart:

* layer spans form a tree under each operation's root span; a layer's self
  time is its duration minus that of its child layer spans, so self times
  plus the root's own self time (``other``) add up to the traced wall time;
* ``engine.apply`` calls are timed per op kind as a cross-cutting view and
  are not subtracted from the layers that issue them.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT_SPAN = "op"

# (layer, module whose attribute callers look up, attribute path)
SITES = (
    ("synthdata.render_static_scene", "agnnseg.pipeline", "render_static_scene"),
    ("synthdata.load_video", "agnnseg.pipeline", "load_video"),
    ("encoder.encode", "agnnseg.model", "encode"),
    ("graph.run_graph", "agnnseg.pipeline", "run_graph"),
    ("graph.run_graph", "agnnseg.model", "run_graph"),
    ("graph.propagate_round", "agnnseg.graph", "propagate_round"),
    ("graph.intra_attention", "agnnseg.graph", "intra_attention"),
    ("graph.inter_attention", "agnnseg.graph", "inter_attention"),
    ("graph.neighbor_message", "agnnseg.graph", "neighbor_message"),
    ("graph.message_gate", "agnnseg.graph", "message_gate"),
    ("graph.aggregate_messages", "agnnseg.graph", "aggregate_messages"),
    ("graph.convgru_update", "agnnseg.graph", "convgru_update"),
    # pipeline.head_mod and model.head_mod are this same module object
    ("head.readout", "agnnseg.head", "readout"),
    ("head.aux_static_predict", "agnnseg.head", "aux_static_predict"),
    ("head.weighted_bce", "agnnseg.model", "weighted_bce"),
    ("engine.backward", "agnnseg.pipeline", "backward"),
    ("pipeline.SGD.step", "agnnseg.pipeline", "SGD.step"),
    ("metrics.region_similarity", "agnnseg.metrics", "region_similarity"),
    ("metrics.boundary_f", "agnnseg.metrics", "boundary_f"),
)
APPLY_SITE = ("agnnseg.engine.ops", "apply")
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SITES))
ROUND_LAYER = "graph.propagate_round"
CENSUS_LAYER = "engine.backward"


def _resolve(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _owner_array(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_census(tape):
    """Records per op kind, and bytes of the distinct arrays in ``saved``.

    Parameters and shared inputs appear in many records by reference, and
    some saved arrays are views, so bytes are counted once per owning array.
    """
    kinds = Counter(rec.kind for rec in tape.records)
    owners = {}
    for rec in tape.records:
        for value in rec.saved.values():
            if isinstance(value, np.ndarray):
                owner = _owner_array(value)
                owners[id(owner)] = owner.nbytes
    return kinds, sum(owners.values())


class Tracer:
    """Wraps the sites while installed; records spans only when enabled.

    Observers (callbacks run after a site returns normally) are installed
    in both modes, so an untraced run sees the same boundaries at the cost
    of one extra call.  ``tag`` labels the spans that start while it is set
    (the train workload tags static and dynamic iterations).
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.tag = ""
        self.names = [ROOT_SPAN, *LAYERS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans = []    # [name index, parent span, tag, start, end]
        self.applies = []  # (kind, parent span, tag, start, end)
        self.census = {}   # tag -> [tapes, records per kind, saved bytes]
        self._stack = []
        self._observers = {}

    def observe(self, layer, callback):
        self._observers[layer] = callback

    def reset(self):
        """Drop what was recorded so far (between operations only)."""
        self.spans.clear()
        self.applies.clear()
        self.census.clear()

    @contextmanager
    def span(self, layer):
        if not self.enabled:
            yield
            return
        rec = self._open(self._index[layer])
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, idx):
        rec = [idx, self._stack[-1] if self._stack else -1, self.tag, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _take_census(self, tape):
        kinds, saved = tape_census(tape)
        entry = self.census.setdefault(self.tag, [0, Counter(), 0])
        entry[0] += 1
        entry[1].update(kinds)
        entry[2] += saved

    def _wrap(self, layer, fn):
        after = self._observers.get(layer)
        if not self.enabled:
            def observed(*args, **kwargs):
                out = fn(*args, **kwargs)
                after()
                return out
            return observed

        idx = self._index[layer]
        census = self._take_census if layer == CENSUS_LAYER else None

        def traced(*args, **kwargs):
            if census is not None:
                census(args[0])
            rec = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after()
            return out

        return traced

    def _wrap_apply(self, fn):
        applies, stack, clock = self.applies, self._stack, time.perf_counter

        def traced_apply(kind, inputs, attrs=None):
            start = clock()
            try:
                return fn(kind, inputs, attrs)
            finally:
                applies.append((kind, stack[-1] if stack else -1, self.tag, start, clock()))

        return traced_apply

    @contextmanager
    def installed(self):
        """Wrap every site (only observed ones when disabled), then restore."""
        sites = [(layer, *_resolve(module, path)) for layer, module, path in SITES
                 if self.enabled or layer in self._observers]
        if self.enabled:
            sites.append((None, *_resolve(*APPLY_SITE)))
        keys = [(id(owner), attr) for _, owner, attr in sites]
        if len(set(keys)) != len(keys):
            raise RuntimeError("two trace sites resolve to one attribute")
        originals = []
        try:
            for layer, owner, attr in sites:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap_apply(fn) if layer is None else self._wrap(layer, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    # ------------------------------------------------------------------
    # aggregation, after the run

    def _arrays(self):
        n = len(self.spans)
        names = np.fromiter((r[0] for r in self.spans), dtype=np.int64, count=n)
        parents = np.fromiter((r[1] for r in self.spans), dtype=np.int64, count=n)
        dur = np.fromiter((r[4] - r[3] for r in self.spans), dtype=np.float64, count=n)
        return names, parents, dur

    def summary(self):
        """Per-layer calls and self seconds, per op kind calls and seconds.

        Everything is also broken down by tag.  ``round_applies`` counts the
        engine.apply calls made inside graph.propagate_round spans.
        """
        names, parents, dur = self._arrays()
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        tags = [r[2] for r in self.spans]

        def empty():
            return {"layers": {name: [0, 0.0] for name in self.names},
                    "apply": {}, "wall_s": 0.0}

        out = {"all": empty()}
        for i, idx in enumerate(names):
            for key in ("all", tags[i]):
                table = out.setdefault(key, empty())
                cell = table["layers"][self.names[idx]]
                cell[0] += 1
                cell[1] += float(self_time[i])
                if idx == 0:
                    table["wall_s"] += float(dur[i])

        round_idx = self._index[ROUND_LAYER]
        in_round = np.zeros(len(names), dtype=bool)
        for i in range(len(names)):  # parents precede children
            in_round[i] = names[i] == round_idx or (parents[i] >= 0 and in_round[parents[i]])
        round_applies = 0
        for kind, parent, tag, start, end in self.applies:
            for key in ("all", tag):
                table = out.setdefault(key, empty())
                cell = table["apply"].setdefault(kind, [0, 0.0])
                cell[0] += 1
                cell[1] += end - start
            if parent >= 0 and in_round[parent]:
                round_applies += 1
        out["all"]["round_applies"] = round_applies
        return out

    def write(self, path):
        """Dump the raw spans and apply calls (times in seconds)."""
        names, parents, _ = self._arrays()
        kinds = sorted({a[0] for a in self.applies})
        kind_index = {k: i for i, k in enumerate(kinds)}
        np.savez(
            path,
            layer_names=np.array(self.names),
            span_layer=names,
            span_parent=parents,
            span_tag=np.array([r[2] for r in self.spans]),
            span_start=np.array([r[3] for r in self.spans]),
            span_end=np.array([r[4] for r in self.spans]),
            apply_kinds=np.array(kinds),
            apply_kind=np.array([kind_index[a[0]] for a in self.applies], dtype=np.int64),
            apply_parent=np.array([a[1] for a in self.applies], dtype=np.int64),
            apply_tag=np.array([a[2] for a in self.applies]),
            apply_start=np.array([a[3] for a in self.applies]),
            apply_end=np.array([a[4] for a in self.applies]),
        )
