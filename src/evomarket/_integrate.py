"""One step of the classical fourth-order Runge–Kutta scheme.

The state is a list of Python floats, and ``rhs(t, state)`` returns its
derivative as a list of the same length.  Each component combines its
stages in the textbook order, so the step gives the same bits as the
same arithmetic on a float or a numpy array.  The step is an explicit
parameter and no adaptivity is involved, so repeated runs are
bit-identical.  Callers keep their own loop and divergence check:
``evodyn.micro_step`` steps the product stocks and the buyer pool.
``diffusion.bass_ode`` takes the same stages on its one scalar itself,
which is faster than a one-element list.
"""

from __future__ import annotations


def rk4_step(rhs, t: float, state: list, step: float) -> list:
    half = 0.5 * step
    k1 = rhs(t, state)
    k2 = rhs(t + half, [s + half * k for s, k in zip(state, k1)])
    k3 = rhs(t + half, [s + half * k for s, k in zip(state, k2)])
    k4 = rhs(t + step, [s + step * k for s, k in zip(state, k3)])
    sixth = step / 6.0
    return [
        s + sixth * (a + 2.0 * b + 2.0 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]
