"""Fixed-step classical fourth-order integrator.

Deterministic by construction: the step is an explicit parameter and no
adaptivity is involved, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def rk4_step(rhs, t: float, state: np.ndarray, step: float) -> np.ndarray:
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * step, state + 0.5 * step * k1)
    k3 = rhs(t + 0.5 * step, state + 0.5 * step * k2)
    k4 = rhs(t + step, state + step * k3)
    return state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_integrate(rhs, state0, t0: float, horizon: float, step: float):
    """Integrate ``d(state)/dt = rhs(t, state)`` on a fixed grid.

    Returns ``(times, states)`` where ``states[i]`` is the state at
    ``times[i]`` and ``times[0] == t0``.  Raises NumericError if the
    state stops being finite.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    n_steps = int(round(horizon / step))
    if n_steps < 1:
        raise ValueError("horizon must cover at least one step")
    state = np.atleast_1d(np.asarray(state0, dtype=float))
    times = t0 + step * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, state.size))
    states[0] = state
    for i in range(n_steps):
        state = rk4_step(rhs, times[i], state, step)
        if not np.isfinite(state).all():
            raise NumericError(f"integration diverged at t={times[i + 1]:g}")
        states[i + 1] = state
    return times, states
