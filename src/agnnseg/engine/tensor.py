"""Core autodiff state: tensors, the recording tape, and gradient maps.

Every numeric quantity in the model is a :class:`Tensor` wrapping a dense
float64 numpy array (row-major, rank <= 4, finite values).  A value is
checked once, when it is created or assigned to ``Tensor.data``; ops read
their inputs unchecked, so writing into a tensor's array in place falls
outside the contract.  While a tape is in use such a write would also change
its gradients: a conv keeps its input array, not a patch matrix copied from
it, and rebuilds the matrix in its VJP.  The NaN/Inf scan is skipped in one
place only: the output of an op kind that always maps finite inputs to
finite outputs is wrapped by :func:`_finite_tensor`, which keeps every other
check.
Operations applied while a :class:`Tape` is active are recorded in
topological order, so a single reverse sweep over the records yields exact
gradients for everything on the tape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_id_counter = itertools.count()
_active_tapes = []  # entered tapes, innermost last; apply records on the last


class NonFiniteError(ValueError):
    """A tensor value left the finite range (NaN or Inf)."""


def all_finite(arr):
    """True when no element is NaN or Inf: one ``np.isfinite`` pass.

    This is the scan behind the rule that no tensor holds NaN or Inf.  It
    runs on every value given to :class:`Tensor` and on every op output
    except those of kinds that cannot create a NaN or Inf from finite inputs.
    """
    return bool(np.isfinite(arr).all())


def _as_tensor_array(value):
    """``value`` as a float64 array of rank <= 4 with positive dims; no scan."""
    if type(value) is np.ndarray and value.dtype == np.float64:
        arr = value
    else:
        arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 4:
        raise ValueError(f"tensor rank {arr.ndim} exceeds 4 (shape {arr.shape})")
    if 0 in arr.shape:
        raise ValueError(f"tensor dims must be positive, got shape {arr.shape}")
    return arr


def active_tape():
    """The innermost active tape, or None."""
    return _active_tapes[-1] if _active_tapes else None


class Tensor:
    """A dense value with an identity, usable as a leaf or an op output.

    Every value given to the constructor or assigned to ``data`` becomes a
    float64 array and is checked there: rank <= 4, positive dims, finite
    (:func:`all_finite`).  Only :func:`_finite_tensor`, for the outputs of
    op kinds that keep finite inputs finite, leaves out the finiteness scan;
    no public argument or setting does.  The array is treated as immutable
    while any tape that references the tensor is still in use, since the tape
    keeps op inputs by reference (a conv's VJP rebuilds its patch matrix from
    the input); an in-place write is neither checked nor recorded.  ``name``
    is optional and only meaningful for learnable parameters (checkpointing,
    gradient reports); a non-finite value is reported under the name, or else
    the id.
    """

    __slots__ = ("_data", "id", "name")

    def __init__(self, data, name=None):
        self.id = next(_id_counter)
        self.name = name
        self.data = data

    @property
    def data(self):
        return self._data

    @data.setter
    def data(self, value):
        arr = _as_tensor_array(value)
        if not all_finite(arr):
            raise NonFiniteError(f"tensor {self.name or self.id} contains NaN or Inf")
        self._data = arr

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor(id={self.id}{label}, shape={self.data.shape})"


def _finite_tensor(arr):
    """An unnamed tensor for an op output that is finite by construction.

    Keeps the float64, rank and positive-dims checks and skips only the
    NaN/Inf scan.  ``engine.ops.apply`` calls it for the op kinds registered
    as keeping finite inputs finite; no other caller may.
    """
    out = Tensor.__new__(Tensor)
    out.id = next(_id_counter)
    out.name = None
    out._data = _as_tensor_array(arr)
    return out


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
    computation, and hand it to :func:`agnnseg.engine.ops.backward`.  It keeps
    only what backward reads: per op, the kind, the operand and result ids,
    the result shape, the attrs and the forward's saved state.
    """

    records: list = field(default_factory=list)

    def __enter__(self):
        _active_tapes.append(self)
        return self

    def __exit__(self, *exc):
        popped = _active_tapes.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def record(self, kind, inputs, output, attrs, saved):
        self.records.append(
            TapeRecord(kind, tuple(t.id for t in inputs), output.id, output.shape, attrs, saved)
        )


def tensor_fields(obj):
    """(name, tensor) for each Tensor attribute of ``obj``, in assignment order."""
    return [(t.name, t) for t in vars(obj).values() if isinstance(t, Tensor)]


class GradientMap:
    """Gradients keyed by tensor; tensors absent from the tape map to zeros."""

    def __init__(self, grads):
        self._grads = grads

    def __getitem__(self, tensor):
        g = self._grads.get(tensor.id)
        if g is None:
            return np.zeros_like(tensor.data)
        return g
