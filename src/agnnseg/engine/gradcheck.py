"""Finite-difference validation of analytic gradients.

``grad_check`` compares the tape's reverse-mode gradients against central
differences, coordinate by coordinate.  The relative error uses a guarded
denominator ``max(|analytic|, |numeric|, 1)`` so near-zero gradients
are compared absolutely instead of blowing up the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import backward
from .tensor import Tape

EPS = 1e-5  # the first central-difference step of every coordinate
REFINE_EPS = (1e-6, 1e-7)  # the steps that re-estimate a coordinate disagreeing at EPS
AGREE = 1e-6  # two estimates agree when their relative error is at most this


@dataclass
class GradCheckReport:
    """Worst-coordinate summary of an analytic-vs-numeric comparison."""

    max_rel_err: float
    worst_input: int | None = None
    worst_coord: tuple | None = None
    analytic_at_worst: float = 0.0
    numeric_at_worst: float = 0.0

    def __str__(self):
        if self.worst_input is None:
            return "grad check: no coordinates"
        return (
            f"grad check: max rel err {self.max_rel_err:.3e} at input "
            f"{self.worst_input} coord {self.worst_coord} "
            f"(analytic {self.analytic_at_worst:.6e}, numeric {self.numeric_at_worst:.6e})"
        )


def central_difference(fn, inputs, index, coord, eps):
    """d fn / d inputs[index][coord] by symmetric perturbation.

    Each of the two runs gives the tensor a perturbed copy of its array, and
    ``finally`` gives it back the original array object, which is never
    written.
    """
    t = inputs[index]
    original = t.data
    values = []
    try:
        for step in (eps, -eps):
            perturbed = original.copy()
            perturbed[coord] += step
            t.data = perturbed
            values.append(float(fn(*inputs).data))
    finally:
        t.data = original
    f_plus, f_minus = values
    return (f_plus - f_minus) / (2.0 * eps)


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def grad_check(fn, inputs):
    """Check gradients of a scalar-valued ``fn`` w.r.t. every input coordinate.

    ``fn`` must map the given tensors to a one-element tensor; it is run once
    under a tape for the analytic gradients and twice per coordinate for the
    central difference at step EPS.  Raises for non-scalar outputs.  Call it
    with no tape active: the finite-difference runs record on any active tape.

    A coordinate whose analytic and EPS estimates disagree (relative error
    above AGREE) is estimated again at each step of REFINE_EPS, since a kink
    such as a ReLU input within EPS of zero spoils the EPS estimate.  The
    first of those estimates replaces the EPS one only when the two agree with
    each other; how close either is to the analytic value never picks one.
    """
    with Tape() as tape:
        out = fn(*inputs)
    if out.data.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    grads = backward(tape, np.ones_like(out.data))
    report = GradCheckReport(max_rel_err=0.0)
    for i, t in enumerate(inputs):
        analytic = grads[t]
        for coord in np.ndindex(t.data.shape):
            a = float(analytic[coord])
            numeric = central_difference(fn, inputs, i, coord, EPS)
            if _rel_err(a, numeric) > AGREE:
                fine, finer = (central_difference(fn, inputs, i, coord, eps) for eps in REFINE_EPS)
                if _rel_err(fine, finer) <= AGREE:
                    numeric = fine
            rel = _rel_err(a, numeric)
            if report.worst_input is None or rel > report.max_rel_err:
                report = GradCheckReport(rel, i, coord, a, numeric)
    return report
