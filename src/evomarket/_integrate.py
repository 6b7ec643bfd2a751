"""One step of the classical fourth-order Runge–Kutta scheme.

The step is an explicit parameter and no adaptivity is involved, so
repeated runs are bit-identical.  The state may be a float or an array;
callers keep their own loop and divergence check.
"""

from __future__ import annotations


def rk4_step(rhs, t: float, state, step: float):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * step, state + 0.5 * step * k1)
    k3 = rhs(t + 0.5 * step, state + 0.5 * step * k2)
    k4 = rhs(t + step, state + step * k3)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
