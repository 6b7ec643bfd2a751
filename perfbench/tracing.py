"""Traced runs: wrappers around the calls into each layer, and layer metrics.

``install`` replaces public functions of the program, for the life of
the process only, in the namespaces that call them: ``least_squares``
as ``calibration`` sees it, ``wave_sales`` as ``cli`` sees it, and so
on.  Nothing under ``src/`` changes.  A wrapper records a span (name,
parent, start, end, self time) and adds its duration and counters to
totals keyed by the kind of operation running.  Leaf functions called
thousands of times per operation (the closed forms, ``lsq_linear``,
the step functions) add to the totals and to their parent's child time
but keep no span of their own.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

from evomarket import calibration, cli, diffusion, evodyn, series, stochastic

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.kind = "setup"
        self.spans = []  # (name, kind, parent, start, end, self_s)
        self.totals = defaultdict(lambda: defaultdict(float))  # (kind, name) -> field -> sum
        self._stack = []  # open spans: [span index, child seconds]
        self._patches = []

    def _enter(self):
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, 0.0])

    def _leave(self, name, start, leaf):
        end = _now()
        elapsed = end - start
        if not leaf:
            index, child = self._stack.pop()
            parent = self._stack[-1][0] if self._stack else None
            self.spans[index] = (name, self.kind, parent, start, end, elapsed - child)
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed

    @contextlib.contextmanager
    def op(self, kind):
        """Root span of one benchmark operation."""
        self.kind = kind
        start = _now()
        self._enter()
        try:
            yield
        finally:
            self._leave("op." + kind, start, leaf=False)
            self.kind = "idle"

    def patch(self, owner, attr, name, leaf=False, counters=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = _now()
            if not leaf:
                self._enter()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                elapsed = self._leave(name, start, leaf)
                total = self.totals[(self.kind, name)]
                total["calls"] += 1
                total["s"] += elapsed
                total["errors"] += not ok
            if counters is not None:
                for key, value in counters(result, args, kwargs).items():
                    total[key] += value
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        lines = ["name,kind,parent,start_s,end_s,self_s"]
        for name, kind, parent, start, end, self_s in self.spans:
            lines.append(f"{name},{kind},{'' if parent is None else parent},{start!r},{end!r},{self_s!r}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _points(result, args, kwargs):
    return {"points": np.size(result)}


def _langevin(result, args, kwargs):
    params, dt, n_paths = args[:3]
    burn_in = args[5] if len(args) > 5 else kwargs.get("burn_in")
    if burn_in is None:  # the function's documented default, ten relaxation times
        burn_in = 10.0 * params.noise / params.restoring**2
    steps = round(burn_in / dt) + result.size // n_paths
    return {"path_steps": n_paths * steps, "sample_bytes": result.size * 8}


def install(tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    closed_forms = ("bass_penetration", "bass_rate", "gompertz_penetration", "gompertz_rate")
    for owner in (calibration, cli):
        for fn in closed_forms:
            tracer.patch(owner, fn, "diffusion.closed_form", leaf=True, counters=_points)
    patch = tracer.patch
    patch(calibration, "synthesize", "calibration.synthesize", leaf=True)
    patch(calibration, "fit_two_wave", "calibration.fit_two_wave",
          counters=lambda r, a, k: {"winning_nfev": r.provenance["nfev"]})
    patch(calibration.PriceDeclineFit, "fit", "calibration.price_fit")
    patch(calibration, "least_squares", "calibration.least_squares",
          counters=lambda r, a, k: {"nfev": r.nfev})
    patch(calibration, "lsq_linear", "calibration.lsq_linear", leaf=True)
    patch(calibration.FisherPryFit, "fit", "calibration.share_fit", leaf=True)
    patch(cli, "main", "cli.main")
    patch(cli, "wave_sales", "lifecycle.wave_sales")
    patch(cli, "total_sales", "lifecycle.total_sales")
    patch(cli, "write_series_csv", "series.write", counters=lambda r, a, k: {"rows": len(a[0])})
    patch(series, "read_series_csv", "series.read", counters=lambda r, a, k: {"rows": len(r)})
    # cli reaches the stochastic layer through the module object
    patch(stochastic, "langevin_price_ensemble", "stochastic.langevin", counters=_langevin)
    patch(stochastic, "ks_statistic", "stochastic.ks")
    patch(stochastic, "laplace_fit", "stochastic.laplace_fit")
    patch(stochastic, "multiplicative_growth_sim", "stochastic.growth")
    patch(stochastic, "reproduction_param_sim", "stochastic.reproduction")
    patch(evodyn, "micro_step", "evodyn.micro_step", leaf=True)
    patch(evodyn, "replicator_step", "evodyn.replicator_step", leaf=True)
    patch(evodyn, "market_volume", "market.volume", leaf=True)
    patch(evodyn, "rk4_step", "integrate.rk4_step", leaf=True)
    patch(diffusion, "bass_ode", "diffusion.bass_ode")


# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "calibration.price_fit_s": "s",
    "calibration.lm_s": "s",
    "calibration.lm_starts": "count",
    "calibration.lm_skipped_starts": "count",
    "calibration.lm_nfev": "count",
    "calibration.lm_useful_ratio": "ratio",
    "calibration.bvls_solves": "count",
    "calibration.synthesize_s": "s",
    "calibration.share_fit_s": "s",
    "diffusion.closed_form_calls": "count",
    "diffusion.closed_form_s": "s",
    "diffusion.points_per_call": "count",
    "diffusion.bass_ode_s": "s",
    "lifecycle.wave_sales_s": "s",
    "lifecycle.total_sales_s": "s",
    "series.write_s": "s",
    "series.read_s": "s",
    "series.rows": "count",
    "evodyn.micro_step_us": "us",
    "evodyn.replicator_step_us": "us",
    "evodyn.steps": "count",
    "market.volume_calls": "count",
    "integrate.rk4_steps": "count",
    "stochastic.langevin_s": "s",
    "stochastic.path_steps_per_s": "1/s",
    "stochastic.ks_s": "s",
    "stochastic.laplace_fit_s": "s",
    "stochastic.reproduction_s": "s",
    "stochastic.growth_s": "s",
    "stochastic.sample_bytes": "B",
    "cli.self_s": "s",
}


def layer_metrics(tracer, op_counts):
    """Per-layer metrics of a traced run, per operation of the kind that does the work.

    A layer that does no work on the workload reads 0.
    """
    def total(kinds, name, field="s"):
        return sum(tracer.totals[(k, name)][field] for k in kinds)

    def per_op(kinds, name, field="s"):
        n = sum(op_counts.get(k, 0) for k in kinds)
        return total(kinds, name, field) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    fit, both = ("fit",), ("fit", "simulate")
    lm = "calibration.least_squares"
    cli_self = sum(s[5] for s in tracer.spans if s[0] == "cli.main")
    values = {
        "calibration.price_fit_s": per_op(fit, "calibration.price_fit"),
        "calibration.lm_s": per_op(fit, lm),
        "calibration.lm_starts": per_op(fit, lm, "calls"),
        "calibration.lm_skipped_starts": per_op(fit, lm, "errors"),
        "calibration.lm_nfev": per_op(fit, lm, "nfev"),
        "calibration.lm_useful_ratio": ratio(
            total(fit, "calibration.fit_two_wave", "winning_nfev"), total(fit, lm, "nfev")
        ),
        "calibration.bvls_solves": per_op(fit, "calibration.lsq_linear", "calls"),
        "calibration.synthesize_s": total(("setup",), "calibration.synthesize"),
        "calibration.share_fit_s": per_op(("share",), "calibration.share_fit"),
        "diffusion.closed_form_calls": per_op(both, "diffusion.closed_form", "calls"),
        "diffusion.closed_form_s": per_op(both, "diffusion.closed_form"),
        "diffusion.points_per_call": ratio(
            total(both, "diffusion.closed_form", "points"),
            total(both, "diffusion.closed_form", "calls"),
        ),
        "diffusion.bass_ode_s": per_op(("ode",), "diffusion.bass_ode"),
        "lifecycle.wave_sales_s": per_op(("simulate",), "lifecycle.wave_sales"),
        "lifecycle.total_sales_s": per_op(("simulate",), "lifecycle.total_sales"),
        "series.write_s": per_op(("simulate",), "series.write"),
        "series.read_s": per_op(("simulate",), "series.read"),
        "series.rows": per_op(("simulate",), "series.write", "rows")
        + per_op(("simulate",), "series.read", "rows"),
        "evodyn.micro_step_us": 1e6 * ratio(
            total(("evolve",), "evodyn.micro_step"), total(("evolve",), "evodyn.micro_step", "calls")
        ),
        "evodyn.replicator_step_us": 1e6 * ratio(
            total(("evolve",), "evodyn.replicator_step"),
            total(("evolve",), "evodyn.replicator_step", "calls"),
        ),
        "evodyn.steps": per_op(("evolve",), "evodyn.micro_step", "calls")
        + per_op(("evolve",), "evodyn.replicator_step", "calls"),
        "market.volume_calls": per_op(("evolve",), "market.volume", "calls"),
        "integrate.rk4_steps": per_op(("evolve",), "integrate.rk4_step", "calls"),
        "stochastic.langevin_s": per_op(("dist",), "stochastic.langevin"),
        "stochastic.path_steps_per_s": ratio(
            total(("dist",), "stochastic.langevin", "path_steps"),
            total(("dist",), "stochastic.langevin"),
        ),
        "stochastic.ks_s": per_op(("dist",), "stochastic.ks"),
        "stochastic.laplace_fit_s": per_op(("dist",), "stochastic.laplace_fit"),
        "stochastic.reproduction_s": per_op(("dist",), "stochastic.reproduction"),
        "stochastic.growth_s": per_op(("dist",), "stochastic.growth"),
        "stochastic.sample_bytes": per_op(("dist",), "stochastic.langevin", "sample_bytes"),
        "cli.self_s": ratio(cli_self, op_counts.get("dist", 0) + op_counts.get("simulate", 0)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
