"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a guest on a shared machine whose speed jumps by
up to a factor of 2 within a second (see README.md, "Steadiness").
Timing the same small kernel next to each measured trial gives the
host's speed at that moment, and dividing it out leaves the program's
own cost.

The kernel uses what the program uses: a Python loop over small complex
numpy operations (an eigendecomposition, products, a bisection), so host
contention slows it by about the factor it slows the program.  It imports
nothing from the program, so a change to the program cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds the kernel takes on the reference host in its slower, more
# common state (2-core Xeon guest, 2.0 GHz nominal; see README.md).
# Normalised times are wall times scaled to this speed.
NOMINAL_S = 1.7e-3

_RNG = np.random.default_rng(20250213)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_H = _A @ _A.conj().T
_B = _RNG.standard_normal((6, 3)) + 1j * _RNG.standard_normal((6, 3))
_EYE = np.eye(6)


def _kernel() -> float:
    acc = 0.0
    for i in range(15):
        lam, V = np.linalg.eigh(_H + i * _EYE)
        num = (np.abs(V.conj().T @ _B) ** 2).sum(axis=1)
        lo, hi = 0.0, 10.0
        for _ in range(12):
            mu = 0.5 * (lo + hi)
            if float((num / (lam + mu) ** 2).sum()) > 1.0:
                lo = mu
            else:
                hi = mu
        acc += mu
    return acc


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def warm() -> None:
    for _ in range(50):
        _kernel()
