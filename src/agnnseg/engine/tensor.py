"""Core autodiff state: tensors, the recording tape, and gradient maps.

Every numeric quantity in the model is a :class:`Tensor` wrapping a dense
numpy array (row-major, rank <= 4, finite values).  Operations applied while
a :class:`Tape` is active are recorded in topological order, so a single
reverse sweep over the records yields exact gradients for everything on the
tape.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np


class EngineConfig:
    """Global numeric settings.

    ``dtype`` is float64 by default so finite-difference gradient checks have
    headroom; set to ``np.float32`` for half-memory runs where checks are not
    needed.  ``check_finite`` controls NaN/Inf rejection on op inputs and
    tensor creation.
    """

    def __init__(self):
        self.dtype = np.float64
        self.check_finite = True


config = EngineConfig()

_id_counter = itertools.count()
_local = threading.local()


class NonFiniteError(ValueError):
    """A tensor value left the finite range (NaN or Inf)."""


def all_finite(arr):
    """True when no element is NaN or Inf; one sum decides the common case."""
    with np.errstate(over="ignore", invalid="ignore"):
        # NaN and Inf propagate into the sum, but finite values can overflow it
        return bool(np.isfinite(arr.sum()) or np.isfinite(arr).all())


def _tape_stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def active_tape():
    """The innermost active tape for this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class suspend_taping:
    """Context manager that disables recording (used by finite differences)."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


class Tensor:
    """A dense value with an identity, usable as a leaf or an op output.

    Data must stay finite and is treated as immutable while any tape that
    references the tensor is still in use.  ``name`` is optional and only
    meaningful for learnable parameters (checkpointing, gradient reports).
    """

    __slots__ = ("data", "id", "name")

    def __init__(self, data, name=None):
        if type(data) is np.ndarray and data.dtype == config.dtype:
            arr = data
        else:
            arr = np.asarray(data, dtype=config.dtype)
        if arr.ndim > 4:
            raise ValueError(f"tensor rank {arr.ndim} exceeds 4 (shape {arr.shape})")
        if 0 in arr.shape:
            raise ValueError(f"tensor dims must be positive, got shape {arr.shape}")
        if config.check_finite and not all_finite(arr):
            raise NonFiniteError("tensor contains NaN or Inf")
        self.data = arr
        self.id = next(_id_counter)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor(id={self.id}{label}, shape={self.data.shape})"


@dataclass
class TapeRecord:
    """One applied operation: kind, operand ids, result id, and saved state."""

    kind: str
    input_ids: tuple
    output_id: int
    output_shape: tuple
    attrs: dict
    saved: dict


@dataclass
class Tape:
    """Ordered operation records forming a DAG in topological order.

    A tape is confined to one evaluation context: enter it, run the forward
    computation, and hand it to :func:`agnnseg.engine.ops.backward`.  Leaf
    values (tensors not produced on this tape) are captured by reference so
    the whole computation can be replayed deterministically.
    """

    records: list = field(default_factory=list)
    leaf_values: dict = field(default_factory=dict)
    _produced: set = field(default_factory=set)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack().pop()
        assert popped is self, "tape stack corrupted"
        return False

    def record(self, kind, inputs, output, attrs, saved):
        for t in inputs:
            if t.id not in self._produced and t.id not in self.leaf_values:
                self.leaf_values[t.id] = t.data
        self.records.append(
            TapeRecord(kind, tuple(t.id for t in inputs), output.id, output.shape, attrs, saved)
        )
        self._produced.add(output.id)

    def output_id(self):
        if not self.records:
            raise ValueError("tape is empty")
        return self.records[-1].output_id


class GradientMap:
    """Gradients keyed by tensor; tensors absent from the tape map to zeros."""

    def __init__(self, grads):
        self._grads = grads

    def __getitem__(self, tensor):
        g = self._grads.get(tensor.id)
        if g is None:
            return np.zeros_like(tensor.data)
        return g

    def __contains__(self, tensor):
        return tensor.id in self._grads

    def by_id(self, tensor_id):
        return self._grads.get(tensor_id)
