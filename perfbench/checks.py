"""Independent correctness checks for the benchmark's operations.

Every check compares a program output against a computation made here,
from closed forms written out in this file, or against a property the
method must have.  Nothing here calls into ``evomarket``.  Each check
returns a list of failure messages; an empty list means the output
passed.  Tolerances are written here, not imported, so a change of a
library default cannot loosen them.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Round-trip tolerances on the per-good median relative error (the
# paper's table), and on the median VHS advantage error.
NOISY_MEDIAN_TOL = {
    "decline_rate": 0.10,
    "shape": 0.20,
    "evolutionary_plateau": 0.05,
    "innovation": 0.25,
    "imitation": 0.25,
    "spreading_plateau": 0.25,
}
ADVANTAGE_MEDIAN_TOL = 0.15
NOISELESS_REL_TOL = 1e-6
SSE_REL_TOL = 1e-9
ECHO_SUM_TOL = 1e-9  # share of peak sales
MICRO_MACRO_TOL = 1e-3
LOG_RATIO_TOL = 1e-6
SHARE_SUM_TOL = 1e-12
BASS_ODE_TOL = 1e-6

FITTED = tuple(NOISY_MEDIAN_TOL)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def bass_pen(t, a, b, plateau):
    decay = np.exp(-(a + b) * t)
    return plateau * (1.0 - decay) / (1.0 + (b / a) * decay)


def bass_rate(t, a, b, plateau):
    decay = np.exp(-(a + b) * t)
    return plateau * a * (a + b) ** 2 * decay / (a + b * decay) ** 2


def gomp_pen(t, plateau, shape, rate):
    with np.errstate(over="ignore"):
        return plateau * np.exp(-shape * np.exp(-2.0 * rate * t))


def gomp_rate(t, plateau, shape, rate):
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-2.0 * rate * t)
        pen = plateau * np.exp(-shape * decay)
        return np.where(pen > 0, 2.0 * rate * shape * decay * pen, 0.0)


def repurchase(good):
    """(multiple, replacement, lifetime) of the spreading and evolutionary waves."""

    def wave(q, r, lifetime):
        if r and lifetime is None:
            raise ValueError(f"{good.name}: replacement without a lifetime")
        return (q or 0.0, r or 0.0, lifetime)

    return (
        wave(good.spreading_multiple, good.spreading_replacement, good.spreading_lifetime),
        wave(
            good.evolutionary_multiple,
            good.evolutionary_replacement,
            good.evolutionary_lifetime,
        ),
    )


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def fit_model(params, good, t_pen, t_sales):
    """Penetration and sales of the fit's one-echo model at ``params``.

    This is the model ``fit_two_wave`` states it fits: one replacement
    echo per wave, the spreading echo starting at the lifetime and the
    evolutionary echo taken on the all-real Gompertz clock, so it is not
    cut off before the product's introduction.
    """
    a, b, n_s = params["innovation"], params["imitation"], params["spreading_plateau"]
    n_e, k, rate = params["evolutionary_plateau"], params["shape"], params["decline_rate"]
    (q_s, r_s, life_s), (q_e, r_e, life_e) = repurchase(good)
    onset = good.onset_delay
    pen = bass_pen(t_pen, a, b, n_s) + gomp_pen(t_pen - onset, n_e, k, rate)
    sales = bass_rate(t_sales, a, b, n_s) + q_s * bass_pen(t_sales, a, b, n_s)
    if r_s:
        lag = t_sales - life_s
        sales = sales + r_s * np.where(
            lag >= 0, bass_rate(np.maximum(lag, 0.0), a, b, n_s), 0.0
        )
    t_evo = t_sales - onset
    sales = sales + gomp_rate(t_evo, n_e, k, rate) + q_e * gomp_pen(t_evo, n_e, k, rate)
    if r_e:
        sales = sales + r_e * gomp_rate(t_evo - life_e, n_e, k, rate)
    return pen, sales


def check_fit(result, good, pen_obs, sales_obs, noiseless):
    """One ``fit_two_wave`` result.

    ``pen_obs`` and ``sales_obs`` are ``(years since introduction,
    values)`` pairs of the fitted series.
    """
    failures = []
    if not result.provenance.get("converged"):
        failures.append(f"{good.name}: fit did not report converged")
    params = {name: getattr(result, name) for name in FITTED}
    pen, sales = fit_model(params, good, pen_obs[0], sales_obs[0])
    for stage, model, obs in (("penetration", pen, pen_obs[1]), ("sales", sales, sales_obs[1])):
        own = float(((obs - model) ** 2).sum())
        reported = result.sse[stage]
        slack = SSE_REL_TOL * own + 1e-12 * float((obs**2).sum())
        if not abs(reported - own) <= slack:
            failures.append(
                f"{good.name}: sse[{stage}] {reported!r} differs from "
                f"the recomputed {own!r}"
            )
    if noiseless:
        for name in FITTED:
            error = abs(params[name] / getattr(good, name) - 1.0)
            if not error <= NOISELESS_REL_TOL:
                failures.append(
                    f"{good.name}: noiseless {name} off by {error:.2e} relative"
                )
    return failures


def relative_errors(result, good):
    return {name: getattr(result, name) / getattr(good, name) - 1.0 for name in FITTED}


def check_noisy_medians(errors_by_good):
    """Per-good median relative errors of the noisy fits of one run."""
    failures = []
    for good, errors in errors_by_good.items():
        for name, tol in NOISY_MEDIAN_TOL.items():
            median = float(np.median([e[name] for e in errors]))
            if not abs(median) <= tol:
                failures.append(f"{good}: median {name} error {median:+.3f} beyond {tol}")
    return failures


def logit_slope(t, shares):
    """Least-squares slope of the log share ratio on time."""
    logits = np.log(shares / (1.0 - shares))
    t_c = t - t.mean()
    return float((t_c * (logits - logits.mean())).sum() / (t_c**2).sum())


def check_share_fits(advantages, series, truth):
    """Logistic-substitution fits: each equals the OLS slope, median near truth."""
    failures = []
    for fitted, (t, shares) in zip(advantages, series):
        own = logit_slope(t, shares)
        if not abs(fitted - own) <= 1e-9 * abs(own):
            failures.append(f"share fit advantage {fitted!r} is not the slope {own!r}")
    median = float(np.median(np.asarray(advantages) / truth - 1.0))
    if not abs(median) <= ADVANTAGE_MEDIAN_TOL:
        failures.append(f"median advantage error {median:+.3f} beyond {ADVANTAGE_MEDIAN_TOL}")
    return failures


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

# Parameters the ``dist`` command runs with: unit restoring force and
# noise, 1.5e6 reproduction steps of 0.02 with compensation 10, jump
# 0.05, amortisation 100 and noise amplitude 0.05, burn-in 5 / compensation
# and 100 short windows of 10 / compensation.
DIST_RESTORING = 1.0
DIST_NOISE = 1.0
REPRO = dict(dt=0.02, steps=1_500_000, compensation=10.0, jump=0.05,
             amortization=100.0, noise_amp=0.05, windows=100)
DIST_SE_COUNT = 5.0  # "within a few standard errors"
LAPLACE_REL_TOL = 0.05
KS_MAX = 0.01
SKEW_MAX = 0.1
KURTOSIS_MAX = 0.25

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def parse_dist_report(text):
    """The numbers of a ``dist_report.txt`` as a dict of floats."""
    values = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if not sep:
            continue
        numbers = [float(x) for x in re.findall(_FLOAT, rest)]
        if key == "laplace fit location/scale":
            values["location"], values["scale"] = numbers[:2]
        elif numbers:
            values[key] = numbers[0]
    return values


def reproduction_standard_errors():
    """Standard errors of the short- and long-window reproduction means.

    The simulated coefficient is an AR(1) process with coefficient
    ``phi = 1 - compensation * dt`` and innovations of variance
    ``noise_amp^2 dt + jump^2 dt / amortization`` (Gaussian noise plus
    Poisson jumps).  The mean of ``n`` consecutive values has variance
    ``sigma^2 / ((1 - phi)^2 n)`` for ``n`` large against the
    relaxation time.
    """
    p = REPRO
    one_minus_phi = p["compensation"] * p["dt"]
    innovation_var = p["noise_amp"] ** 2 * p["dt"] + p["jump"] ** 2 * p["dt"] / p["amortization"]
    burn = round(5.0 / p["compensation"] / p["dt"])
    window = round(10.0 / p["compensation"] / p["dt"])
    long_n = p["steps"] - burn
    short_n = p["windows"] * window

    def se(n):
        return math.sqrt(innovation_var / (one_minus_phi**2 * n))

    return se(short_n), se(long_n)


def check_dist(values):
    failures = []
    variance = DIST_NOISE**2 / (2.0 * DIST_RESTORING**2)
    scale = DIST_NOISE / (2.0 * DIST_RESTORING)
    target = REPRO["jump"] / (REPRO["amortization"] * REPRO["compensation"])
    se_short, se_long = reproduction_standard_errors()
    tests = (
        ("price-noise variance", abs(values["price-noise variance"] / variance - 1.0) < 0.05),
        ("scale", abs(values["scale"] / scale - 1.0) < LAPLACE_REL_TOL),
        ("location", abs(values["location"]) < LAPLACE_REL_TOL * scale),
        ("price-noise ks distance", values["price-noise ks distance"] < KS_MAX),
        ("log-size skew", abs(values["log-size skew"]) < SKEW_MAX),
        ("log-size excess kurtosis", abs(values["log-size excess kurtosis"]) < KURTOSIS_MAX),
        (
            "reproduction short-window mean",
            abs(values["reproduction short-window mean"]) < DIST_SE_COUNT * se_short,
        ),
        (
            "reproduction long-window mean",
            abs(values["reproduction long-window mean"] - target) < DIST_SE_COUNT * se_long,
        ),
    )
    for name, ok in tests:
        if not ok:
            failures.append(f"dist: {name} {values[name]!r} out of bounds")
    return failures


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def echo_sum(good, t, echoes):
    """Unit sales of both waves on the introduction clock, delta failures.

    Per wave: first purchases + multiple * penetration + sum over k of
    replacement^k * rate(t - k * lifetime), each echo from its lifetime
    on; the evolutionary wave starts at the onset delay.
    """
    (q_s, r_s, life_s), (q_e, r_e, life_e) = repurchase(good)
    a, b, n_s = good.innovation, good.imitation, good.spreading_plateau
    n_e, k, rate = good.evolutionary_plateau, good.shape, good.decline_rate
    out = bass_rate(t, a, b, n_s) + q_s * bass_pen(t, a, b, n_s)
    for j in range(1, echoes + 1):
        if r_s:
            lag = t - j * life_s
            out = out + r_s**j * np.where(lag >= 0, bass_rate(np.maximum(lag, 0), a, b, n_s), 0.0)
    t_evo = t - good.onset_delay
    live = t_evo >= 0
    evo = gomp_rate(t_evo, n_e, k, rate) + q_e * gomp_pen(t_evo, n_e, k, rate)
    for j in range(1, echoes + 1):
        if r_e:
            lag = t_evo - j * life_e
            evo = evo + r_e**j * np.where(lag >= 0, gomp_rate(lag, n_e, k, rate), 0.0)
    return out + np.where(live, evo, 0.0)


def check_simulate(good, step, echoes, penetration, sales, price):
    """The three series ``simulate`` wrote, each as ``(years, values)``."""
    failures = []
    years, values = sales
    index = np.arange(values.size)
    if not np.allclose(years, good.intro_year + step * index, rtol=0, atol=1e-9):
        failures.append(f"{good.name}: sales years are not the simulation grid")
    expected = echo_sum(good, step * index, echoes)
    tol = ECHO_SUM_TOL * float(expected.max())
    bad = np.flatnonzero(~(np.abs(values - expected) <= tol))
    if bad.size:
        i = bad[0]
        failures.append(
            f"{good.name}: {bad.size} of {values.size} sales rows differ from the echo "
            f"sum, first at {float(years[i])!r}: {float(values[i])!r} vs {float(expected[i])!r}"
        )
    pen = penetration[1]
    if np.any((pen < 0) | (pen > 1)) or np.any(np.diff(pen) < 0):
        failures.append(f"{good.name}: penetration leaves [0, 1] or decreases")
    t_price = price[0] - good.intro_year - good.onset_delay
    expected_price = np.exp(-good.decline_rate * t_price) + (good.floor_ratio or 0.0)
    if not np.allclose(price[1], expected_price, rtol=1e-12, atol=0):
        failures.append(f"{good.name}: price path is not the exponential decline")
    return failures


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def market_volume(price, upper_share, minimum_price, width):
    excess = max(price - minimum_price, 0.0)
    return upper_share + (1.0 - upper_share) * math.exp(-(excess**2) / (2.0 * width**2))


def check_evolve(micro_shares, macro_shares, taus, fitness):
    """Shares of the micro cycle and the replicator, one row per step.

    ``fitness`` is computed by the caller from the population set-up.
    """
    failures = []
    gap = float(np.max(np.abs(micro_shares - macro_shares)))
    if not gap < MICRO_MACRO_TOL:
        failures.append(f"evolve: micro and macro shares differ by {gap:.2e}")
    sums = float(np.max(np.abs(macro_shares.sum(axis=1) - 1.0)))
    if not sums < SHARE_SUM_TOL:
        failures.append(f"evolve: replicator shares sum off by {sums:.2e}")
    log_shares = np.log(macro_shares)
    growth = log_shares - log_shares[0]
    # log(m_i/m_j) grows at f_i - f_j, so each log share minus the
    # first product's grows at f_i - f_0
    drift = (growth - growth[:, :1]) - np.outer(taus - taus[0], fitness - fitness[0])
    worst = float(np.max(np.abs(drift)) / (taus[-1] - taus[0]))
    if not worst < LOG_RATIO_TOL:
        failures.append(f"evolve: log share ratios stray from f_i - f_j by {worst:.2e}")
    return failures


def check_bass_ode(times, penetration, a, b, plateau):
    gap = float(np.max(np.abs(penetration - bass_pen(times, a, b, plateau))))
    return [] if gap < BASS_ODE_TOL else [f"bass_ode: off the closed form by {gap:.2e}"]
