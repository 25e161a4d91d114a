"""Host-speed calibration for the bounded end-to-end timings.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to a half within seconds and drifts over minutes (a ``trainer.step`` of the
same seed and code reads 10 ms in one run and 17 ms in the next).  A run-level median cannot remove that,
so every timed operation is followed by one run of a fixed reference loop
that does not touch hypalign and does the same kind of work: small numpy
vector products, float math and Python list traffic.  An operation's
normalised time is its measured time scaled by ``NOMINAL_REF_MS`` over the
median of the reference times around it; a program change moves it as much
as the measured time, a slower host does not.

The reference loop allocates no container that outlives it, so it neither
triggers nor postpones a garbage collection inside the next operation.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: The reference loop's median time on the 2-vCPU VM the benchmark was tuned
#: on; normalised times read in milliseconds at that speed.
NOMINAL_REF_MS = 0.5

#: Reference samples on each side of an operation that its scale uses.
WINDOW = 2

_V = np.linspace(-1.0, 1.0, 16)
_M = np.eye(16) * 0.5 + np.outer(_V, _V) * 0.01


def reference_loop() -> float:
    values = []
    x = _V
    for _ in range(60):
        y = _M @ x
        s = float(np.dot(y, y))
        for _ in range(12):
            s = math.tanh(s * 0.999 + 0.1)
            values.append(s)
        x = y * s + _V
    grad = 0.0
    for v in reversed(values):
        grad = grad * 0.5 + v
    return grad


def time_reference() -> float:
    """Milliseconds one run of the reference loop takes now."""
    t = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t) * 1e3


def scale(ref_ms: list, index: int) -> float:
    """Factor that brings a time measured next to reference sample ``index``
    to the nominal host speed."""
    window = ref_ms[max(0, index - WINDOW):index + WINDOW + 1]
    return NOMINAL_REF_MS / statistics.median(window)


def run_scale(ref_ms: list) -> float:
    """Factor for a time spread over the whole run."""
    return NOMINAL_REF_MS / statistics.median(ref_ms)


def nominal_ms(op_ms: list, op_ref: list, ref_ms: list) -> list:
    """Each operation's time at the nominal host speed."""
    return [ms * scale(ref_ms, i) for ms, i in zip(op_ms, op_ref)]


def nominal_busy_s(busy_s: float, call_ms: list, call_ref: list,
                   ref_ms: list) -> float:
    """``busy_s`` at the nominal host speed: each timed call scaled by the
    reference samples around it, the time between calls by the run's
    median reference time."""
    between = busy_s - sum(call_ms) / 1e3
    return (sum(nominal_ms(call_ms, call_ref, ref_ms)) / 1e3
            + between * run_scale(ref_ms))
