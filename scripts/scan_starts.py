"""Seeded scan of the two-wave fit's start screen over the parameter box.

    python3 scripts/scan_starts.py

Fits 700 goods drawn by ``fit_draws(np.random.default_rng(2029), 700)``
from ``tests/test_properties.py`` without noise, each also with first
purchases only, for 1,400 fits.  A fit misses when ``assert_same_fit``
rejects it against the truth: any field of ``TWO_WAVE_FIELDS`` more than
1e-6 relative off (a zero floor ratio, 1e-9 absolute).  Each fit is
also refitted with every screened start refined to its end: the stop at
the rounding floor and merging both off (``calibration._ROUNDING_FLOOR``
and ``calibration._MERGE_FRACTION`` 0), and it differs when
``assert_same_fit`` rejects the one against the other.  Prints the
misses, the unconverged fits, the refined and merged runs per fit, the
refined residual evaluations per fit both ways, the fits that differ,
and each missed or differing draw as ``(draw, first purchases only)``.
The exit status is 1 when a draw outside ``KNOWN_MISSES`` misses or any
fit differs.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from evomarket import calibration  # noqa: E402
from test_properties import (  # noqa: E402
    assert_same_fit,
    fit_draw,
    fit_draws,
    first_purchases_only,
)

SEED, ROWS = 2029, 700

# (draw, first purchases only) of the fits whose 4-start screen ends in a
# worse basin than the truth (ROADMAP, open defects: screen misses)
KNOWN_MISSES = {(107, 1), (401, 0), (406, 1), (460, 1), (548, 1)}


def same_fit(result, expected):
    """Whether ``assert_same_fit`` accepts ``result`` against ``expected``."""
    try:
        assert_same_fit(result, expected)
    except AssertionError:
        return False
    return True


def scan():
    """Each fit's ``(draw, first purchases only, missed, differs,
    provenance, provenance with every screened start refined to its end)``."""
    for draw, row in enumerate(fit_draws(np.random.default_rng(SEED), ROWS)):
        for only_first, truth in enumerate((row.good, first_purchases_only(row.good))):
            result = fit_draw(truth)
            with mock.patch.multiple(calibration, _MERGE_FRACTION=0.0, _ROUNDING_FLOOR=0.0):
                full = fit_draw(truth)
            yield (
                draw,
                only_first,
                not same_fit(result, truth),
                not same_fit(result, full),
                result.provenance,
                full.provenance,
            )


def main():
    fits = list(scan())
    missed = [(draw, only_first) for draw, only_first, miss, *_ in fits if miss]
    differ = [(draw, only_first) for draw, only_first, _, diff, *_ in fits if diff]
    per_fit = {
        key: sum(p[key] for *_, p, _ in fits) / len(fits)
        for key in ("starts_refined", "starts_merged", "nfev_refined")
    }
    full_nfev = sum(p["nfev_refined"] for *_, p in fits) / len(fits)
    print(f"fits: {len(fits)}")
    print(f"misses: {len(missed)}")
    print(f"unconverged: {sum(not p['converged'] for *_, p, _ in fits)}")
    print(f"refined runs per fit: {per_fit['starts_refined']:.2f}")
    print(f"merged runs per fit: {per_fit['starts_merged']:.2f}")
    print(f"refined evaluations per fit: {per_fit['nfev_refined']:.2f}")
    print(f"refined evaluations per fit, every screened start to its end: {full_nfev:.2f}")
    print(f"fits that differ with every screened start refined to its end: {len(differ)}")
    print(f"missed draws: {missed}")
    print(f"differing draws: {differ}")
    new = sorted(set(missed) - KNOWN_MISSES)
    if new:
        print(f"new misses: {new}", file=sys.stderr)
    if differ:
        print(f"fits that differ from their full refine: {differ}", file=sys.stderr)
    return 1 if new or differ else 0


if __name__ == "__main__":
    sys.exit(main())
