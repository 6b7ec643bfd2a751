"""Reference kernels: fixed work apart from the program, timed beside it.

The reference machine shares its cores with other jobs, and for
stretches of tens of seconds it runs the same code up to 1.9 times
faster or slower.  How much faster depends on the kind of work: the
interpreter speeds up most, numpy loops over large arrays least.  So
each workload names the kernel whose work is most like its own, the
kernel is timed between the workload's operations, and the operations'
times are scaled by ``nominal / measured``.  A scaled time reads as on
a machine where the kernel takes its nominal time, which is about its
time on the reference machine in its slow phases.

The kernels import nothing from the program, so a change to the program
cannot move them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import least_squares

REPEATS = 3

_X = np.linspace(0.0, 1.0, 32)
_T = np.arange(30.0)
_Y = 0.8 / (1.0 + np.exp(-(_T - 12.0) / 3.0))
_RNG = np.random.default_rng(0)


def interpreter():
    """Small numpy calls and Python arithmetic, like the step loops and CSV code."""
    total = 0.0
    for i in range(150):
        total += float(np.exp(-_X * (i * 0.01)).sum())
        for j in range(40):
            total += j * j
    return total


def lm_fit():
    """A Levenberg-Marquardt fit of a logistic curve to 30 points, like one fit start."""

    def residuals(p):
        return p[0] / (1.0 + np.exp(-(_T - p[1]) / p[2])) - _Y

    return least_squares(residuals, [0.5, 8.0, 2.0], method="lm").x


def vector_steps():
    """Langevin-like steps over 20,000 paths: normal draws and array arithmetic."""
    x = np.zeros(20_000)
    for _ in range(200):
        x += -0.01 * np.sign(x) + 0.1 * _RNG.standard_normal(x.size)
    return x


# name -> (kernel, nominal seconds)
KERNELS = {
    "interpreter": (interpreter, 1.25e-3),
    "lm_fit": (lm_fit, 1.6e-3),
    "vector_steps": (vector_steps, 85e-3),
}


def scale(name):
    """Nominal over measured time of kernel ``name``: the median of ``REPEATS`` runs now."""
    kernel, nominal = KERNELS[name]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return nominal / statistics.median(times)
