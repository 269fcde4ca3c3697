"""The machine's current speed, from a fixed calibration kernel.

The host the reference figures come from changes speed by up to 30% over
minutes, with CPU time equal to wall time: the same inputs take longer, the
program does not do more. Runs a few minutes apart then disagree by more
than any useful regression bound. The kernel below does the kind of work the
program does (small dense eigendecompositions, einsum, Kronecker lifts,
entropy sums, Python-level loops) and shares no code with it. Timed right
next to the program, its duration tells how fast the machine is running at
that moment, and `scale` turns a wall time into the wall time the same work
takes when the kernel runs in REFERENCE_PROBE_S.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's median duration on the reference machine (see README.md)
REFERENCE_PROBE_S = 0.0193
_REPEATS = 120

_rng = np.random.default_rng(20171017)
_g = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_RHO = _g @ _g.conj().T / np.trace(_g @ _g.conj().T).real
_KRAUS = (np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.array([[0.0, 1.0], [1.0, 0.0]]))
_EYE = np.eye(2)


def probe() -> float:
    """Wall seconds the calibration kernel takes now."""
    start = time.perf_counter()
    for i in range(_REPEATS):
        lam, _vec = np.linalg.eigh(_RHO)
        np.einsum("abcb->ac", _RHO.reshape(2, 2, 2, 2))
        sum(np.kron(k, _EYE) @ _RHO @ np.kron(k, _EYE).conj().T for k in _KRAUS)
        lam = np.clip(lam, 0.0, None)
        float(-(lam * np.log2(np.where(lam > 0.0, lam, 1.0))).sum())
        sum(j * j for j in range(i % 8))
    return time.perf_counter() - start


def scale(probe_times) -> float:
    """How many times slower than the reference the machine ran, from probes around a measurement.

    The median, because a single probe of a few tens of milliseconds can be
    hit by a short stall that the measurement around it did not see.
    """
    return float(np.median(probe_times)) / REFERENCE_PROBE_S
