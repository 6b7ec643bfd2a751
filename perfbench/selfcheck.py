"""Self-tests of the checkers: each must reject a deliberately wrong output.

Every case builds a correct output here, from the closed forms in
``checks.py``, confirms the checker accepts it, then breaks it in one
way and confirms the checker rejects it, so no check passes vacuously.
``run.py`` runs these before every benchmark run; on their own:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import checks

# Two rows of the benchmark goods' table, repeated here so the
# self-tests need no program import.
BW_TV = SimpleNamespace(
    name="bw_tv", intro_year=1948.0, onset_delay=0.0, floor_ratio=0.33,
    decline_rate=0.2, shape=8.5, evolutionary_plateau=0.77, spreading_plateau=0.18,
    innovation=0.02, imitation=2.5,
    spreading_multiple=0.06, spreading_replacement=0.3, spreading_lifetime=9.2,
    evolutionary_multiple=0.06, evolutionary_replacement=0.65, evolutionary_lifetime=10.2,
)
FAX = SimpleNamespace(
    name="fax", intro_year=1977.0, onset_delay=4.0, floor_ratio=0.01,
    decline_rate=0.45, shape=360.0, evolutionary_plateau=0.98, spreading_plateau=0.02,
    innovation=0.01, imitation=2.2,
    spreading_multiple=2.5, spreading_replacement=None, spreading_lifetime=None,
    evolutionary_multiple=0.0, evolutionary_replacement=None, evolutionary_lifetime=None,
)


def laplace_cdf(x, scale):
    return np.where(x < 0, 0.5 * np.exp(x / scale), 1.0 - 0.5 * np.exp(-x / scale))


def sample_report(samples, log_sizes, short_mean, long_mean):
    """``dist_report.txt`` values computed here from raw samples."""
    data = np.sort(samples)
    n = data.size
    cdf = laplace_cdf(data, checks.DIST_NOISE / (2.0 * checks.DIST_RESTORING))
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    location = float(data[(n - 1) // 2])
    centered = log_sizes - log_sizes.mean()
    m2 = (centered**2).mean()
    return {
        "price-noise variance": float(samples.var()),
        "price-noise ks distance": float(ks),
        "location": location,
        "scale": float(np.abs(samples - location).mean()),
        "log-size skew": float((centered**3).mean() / m2**1.5),
        "log-size excess kurtosis": float((centered**4).mean() / m2**2 - 3.0),
        "reproduction short-window mean": short_mean,
        "reproduction long-window mean": long_mean,
    }


def _expect(name, accepted, rejected):
    if accepted:
        raise AssertionError(f"{name}: correct output rejected: {accepted}")
    if not rejected:
        raise AssertionError(f"{name}: wrong output accepted")


def _fit_result(good, pen_obs, sales_obs, scale=None, converged=True, sse_factor=1.0):
    params = {name: getattr(good, name) for name in checks.FITTED}
    if scale:
        params[scale] *= 1.0 + 1e-4
    pen, sales = checks.fit_model(params, good, pen_obs[0], sales_obs[0])
    sse = {
        "penetration": float(((pen_obs[1] - pen) ** 2).sum()) * sse_factor,
        "sales": float(((sales_obs[1] - sales) ** 2).sum()) * sse_factor,
    }
    return SimpleNamespace(**params, sse=sse, provenance={"converged": converged})


def check_calibrate():
    rng = np.random.default_rng(1)
    good = BW_TV
    t = np.arange(30.0)
    pen, sales = checks.fit_model({n: getattr(good, n) for n in checks.FITTED}, good, t, t)
    exact = (t, pen), (t, sales)
    noisy = (t, pen * (1 + 0.02 * rng.standard_normal(30))), (t, sales * (1 + 0.02 * rng.standard_normal(30)))
    _expect(
        "noiseless recovery",
        checks.check_fit(_fit_result(good, *exact), good, *exact, noiseless=True),
        checks.check_fit(_fit_result(good, *exact, scale="shape"), good, *exact, noiseless=True),
    )
    honest = _fit_result(good, *noisy)
    _expect(
        "sse",
        checks.check_fit(honest, good, *noisy, noiseless=False),
        checks.check_fit(_fit_result(good, *noisy, sse_factor=1 + 1e-6), good, *noisy, noiseless=False),
    )
    # a parameter moved after the sse was computed
    moved = _fit_result(good, *noisy)
    moved.imitation *= 1.0 + 1e-4
    _expect("sse of moved parameter", [], checks.check_fit(moved, good, *noisy, noiseless=False))
    _expect(
        "converged",
        [],
        checks.check_fit(_fit_result(good, *exact, converged=False), good, *exact, noiseless=True),
    )
    inside = {"bw_tv": [{n: 0.5 * tol for n, tol in checks.NOISY_MEDIAN_TOL.items()}] * 3}
    outside = {"bw_tv": [{**inside["bw_tv"][0], "evolutionary_plateau": 0.06}] * 3}
    _expect("noisy medians", checks.check_noisy_medians(inside), checks.check_noisy_medians(outside))
    years = np.arange(1.0, 13.0)
    share = 1 / (1 + np.exp(-0.22 * years))
    slope = checks.logit_slope(years, share)
    _expect(
        "share fits",
        checks.check_share_fits([slope], [(years, share)], 0.22),
        checks.check_share_fits([slope * (1 + 1e-6)], [(years, share)], 0.22),
    )
    _expect("share median", [], checks.check_share_fits([slope], [(years, share)], slope / 1.2))


def check_montecarlo():
    rng = np.random.default_rng(2)
    scale = checks.DIST_NOISE / (2 * checks.DIST_RESTORING)
    samples = rng.laplace(0.0, scale, 200_000)
    log_sizes = rng.standard_normal(10_000)
    target = checks.REPRO["jump"] / (checks.REPRO["amortization"] * checks.REPRO["compensation"])
    good = sample_report(samples, log_sizes, 0.0, target)
    accepted = checks.check_dist(good)
    _expect("laplace samples x1.1", accepted, checks.check_dist(sample_report(samples * 1.1, log_sizes, 0.0, target)))
    skewed = np.exp(0.5 * log_sizes)
    _expect("log-size skew", accepted, checks.check_dist(sample_report(samples, skewed, 0.0, target)))
    _expect("long-window mean", accepted, checks.check_dist({**good, "reproduction long-window mean": 10 * target}))
    _expect("short-window mean", accepted, checks.check_dist({**good, "reproduction short-window mean": 0.01}))
    text = "\n".join(
        [
            "price-noise variance: 0.5 (stationary 0.5)",
            "laplace fit location/scale: -1e-3 / 0.5",
            "reproduction long-window mean: 1.5e-05",
        ]
    )
    parsed = checks.parse_dist_report(text)
    if parsed != {"price-noise variance": 0.5, "location": -1e-3, "scale": 0.5,
                  "reproduction long-window mean": 1.5e-05}:
        raise AssertionError(f"dist report parsed as {parsed}")


def check_simulate():
    step, echoes = 0.01, 3
    good = BW_TV
    t = step * np.arange(4001)
    years = good.intro_year + t
    sales = checks.echo_sum(good, t, echoes)
    pen = checks.bass_pen(t, good.innovation, good.imitation, good.spreading_plateau) + checks.gomp_pen(
        t - good.onset_delay, good.evolutionary_plateau, good.shape, good.decline_rate
    )
    price = np.exp(-good.decline_rate * t) + good.floor_ratio
    ok = checks.check_simulate(good, step, echoes, (years, pen), (years, sales), (years, price))
    dropped = checks.echo_sum(good, t, echoes - 1)
    _expect("one echo dropped", ok,
            checks.check_simulate(good, step, echoes, (years, pen), (years, dropped), (years, price)))
    dip = pen.copy()
    dip[3000] = dip[2999] - 1e-9
    _expect("decreasing penetration", ok,
            checks.check_simulate(good, step, echoes, (years, dip), (years, sales), (years, price)))
    # fax: sales zero-padded past the horizon, as simulate writes them
    t_fax = step * np.arange(4401)
    fax_sales = checks.echo_sum(FAX, t_fax, echoes)
    padded = fax_sales.copy()
    padded[4001:] -= checks.bass_rate(t_fax[4001:], FAX.innovation, FAX.imitation, FAX.spreading_plateau) + 2.5 * checks.bass_pen(
        t_fax[4001:], FAX.innovation, FAX.imitation, FAX.spreading_plateau
    )
    fax_years = FAX.intro_year + t_fax
    fax_pen = np.linspace(0.0, 1.0, 4001)
    fax_price = (FAX.intro_year + FAX.onset_delay + t, np.exp(-FAX.decline_rate * t) + FAX.floor_ratio)
    _expect(
        "fax padded past the horizon",
        checks.check_simulate(FAX, step, echoes, (years, fax_pen), (fax_years, fax_sales), fax_price),
        checks.check_simulate(FAX, step, echoes, (years, fax_pen), (fax_years, padded), fax_price),
    )


def check_evolve():
    steps, dtau = 200, 0.01
    fitness = np.array([0.01, -0.004, 0.0, -0.006])
    taus = dtau * np.arange(steps + 1)
    weights = np.exp(np.outer(taus, fitness))
    shares = weights / weights.sum(axis=1, keepdims=True)
    ok = checks.check_evolve(shares, shares, taus, fitness)
    nudged = shares.copy()
    nudged[50, 0] += 1e-9
    _expect("shares nudged off a unit sum", ok, checks.check_evolve(shares, nudged, taus, fitness))
    _expect("wrong fitness", ok, checks.check_evolve(shares, shares, taus, fitness * (1 + 1e-3)))
    apart = shares.copy()
    apart[-1] = np.roll(apart[-1], 1)
    _expect("micro and macro apart", ok, checks.check_evolve(apart, shares, taus, fitness))
    times = np.linspace(0.0, 20.0, 2001)
    pen = checks.bass_pen(times, 0.02, 2.5, 0.18)
    _expect("bass_ode", checks.check_bass_ode(times, pen, 0.02, 2.5, 0.18),
            checks.check_bass_ode(times, pen * (1 + 1e-4), 0.02, 2.5, 0.18))


def run_all():
    check_calibrate()
    check_montecarlo()
    check_simulate()
    check_evolve()


if __name__ == "__main__":
    run_all()
    print("selfcheck: every checker rejected its wrong outputs")
    sys.exit(0)
