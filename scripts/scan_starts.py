"""Seeded scan of the two-wave fit's start screen over the parameter box.

    python3 scripts/scan_starts.py

Fits 700 goods drawn by ``fit_draws(np.random.default_rng(2029), 700)``
from ``tests/test_properties.py`` without noise, each also with first
purchases only, for 1,400 fits.  A fit misses when ``assert_same_fit``
rejects it against the truth: any field of ``TWO_WAVE_FIELDS`` more than
1e-6 relative off (a zero floor ratio, 1e-9 absolute).  Prints the
misses, the unconverged fits, the refined and merged runs and the
refined residual evaluations per fit, and each missed draw as
``(draw, first purchases only)``.  The exit status is 1 when a draw
outside ``KNOWN_MISSES`` misses.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

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


def scan():
    """Each fit's ``(draw, first purchases only, missed, provenance)``."""
    for draw, row in enumerate(fit_draws(np.random.default_rng(SEED), ROWS)):
        for only_first, truth in enumerate((row.good, first_purchases_only(row.good))):
            result = fit_draw(truth)
            try:
                assert_same_fit(result, truth)
            except AssertionError:
                missed = True
            else:
                missed = False
            yield draw, only_first, missed, result.provenance


def main():
    fits = list(scan())
    missed = [(draw, only_first) for draw, only_first, miss, _ in fits if miss]
    per_fit = {
        key: sum(p[key] for *_, p in fits) / len(fits)
        for key in ("starts_refined", "starts_merged", "nfev_refined")
    }
    print(f"fits: {len(fits)}")
    print(f"misses: {len(missed)}")
    print(f"unconverged: {sum(not p['converged'] for *_, p in fits)}")
    print(f"refined runs per fit: {per_fit['starts_refined']:.2f}")
    print(f"merged runs per fit: {per_fit['starts_merged']:.2f}")
    print(f"refined evaluations per fit: {per_fit['nfev_refined']:.2f}")
    print(f"missed draws: {missed}")
    new = sorted(set(missed) - KNOWN_MISSES)
    if new:
        print(f"new misses: {new}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
