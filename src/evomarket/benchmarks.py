"""Benchmark parameter sets for classic US consumer-durable markets.

:class:`GoodParams` is the one definition of a good: its fields, their
defaults and their checks.  ``BENCHMARKS`` holds the fitted parameters
of six historical goods, used as fixtures for the synthesize-and-refit
round-trip suite and by the ``replicate`` command; a row leaves out
what was never established for its good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._validation import check_nonnegative
from .diffusion import BassParams, GompertzParams
from .lifecycle import WaveParams

__all__ = ["GoodParams", "BENCHMARKS", "ROUND_TRIP_GOODS", "VCR_FORMAT_CONTEST", "wave_params"]


@dataclass(frozen=True)
class GoodParams:
    """Characteristic parameters of one durable-good market.

    The six diffusion parameters after ``name`` are required.
    ``onset_delay`` is the gap, in years, between introduction and the
    start of the evolutionary (price-decline) wave; zero means the two
    start together because no clear price-decline onset could be given.
    ``None`` marks a quantity that was never established; consumers that
    need a number treat it as zero (the command line warns when it does
    so).  ``floor_ratio`` lies in [0, 1), the range the price fit can
    return, and the two plateaus sum to at most 1.

    Construction runs every check a good gets, so a good that exists can
    be simulated: a bad value raises ``ValueError`` naming the fields
    that the failing check reads.
    """

    name: str
    decline_rate: float
    shape: float
    evolutionary_plateau: float
    spreading_plateau: float
    innovation: float
    imitation: float
    intro_year: float = 0.0
    onset_delay: float = 0.0
    floor_ratio: float | None = None
    spreading_replacement: float | None = None
    spreading_multiple: float | None = None
    evolutionary_replacement: float | None = None
    evolutionary_multiple: float | None = None
    spreading_lifetime: float | None = None
    evolutionary_lifetime: float | None = None

    def __post_init__(self):
        check_nonnegative(self.onset_delay, "onset_delay")
        for name in ("intro_year", "onset_delay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.floor_ratio is not None and not 0 <= self.floor_ratio < 1:
            raise ValueError(f"floor_ratio must lie in [0, 1), got {self.floor_ratio}")
        fields = "innovation, imitation or spreading_plateau"
        try:
            BassParams(self.innovation, self.imitation, self.spreading_plateau)
            fields = "evolutionary_plateau, shape or decline_rate"
            GompertzParams(self.evolutionary_plateau, self.shape, self.decline_rate)
            fields = (
                "spreading_replacement, spreading_multiple, spreading_lifetime, "
                "evolutionary_replacement, evolutionary_multiple or evolutionary_lifetime"
            )
            wave_params(self)
        except ValueError as exc:
            raise ValueError(f"{fields}: {exc}") from exc
        plateaus = self.spreading_plateau + self.evolutionary_plateau
        if plateaus > 1.0:
            raise ValueError(f"spreading_plateau + evolutionary_plateau = {plateaus} exceeds 1")


def wave_params(good: GoodParams) -> tuple[WaveParams, WaveParams, list[str]]:
    """Repurchase parameters of both waves, treating blanks as zero.

    Returns the spreading-wave and evolutionary-wave parameters plus a
    list of warnings naming every blank that was zero-filled.
    """
    warnings: list[str] = []

    def value(field: str, raw: float | None) -> float:
        if raw is None:
            warnings.append(f"{good.name}: {field} not established, treated as 0")
            return 0.0
        return raw

    spread_r = value("spreading_replacement", good.spreading_replacement)
    spread_q = value("spreading_multiple", good.spreading_multiple)
    evo_r = value("evolutionary_replacement", good.evolutionary_replacement)
    evo_q = value("evolutionary_multiple", good.evolutionary_multiple)
    spreading = WaveParams(
        multiple_rate=spread_q,
        replacement_fraction=spread_r,
        lifetime=good.spreading_lifetime if spread_r > 0 else None,
    )
    evolutionary = WaveParams(
        multiple_rate=evo_q,
        replacement_fraction=evo_r,
        lifetime=good.evolutionary_lifetime if evo_r > 0 else None,
    )
    return spreading, evolutionary, warnings


BENCHMARKS: dict[str, GoodParams] = {
    "colour_tv": GoodParams(
        name="colour_tv",
        intro_year=1954.0,
        onset_delay=0.5,
        floor_ratio=0.0,
        decline_rate=0.103,
        shape=27.0,
        evolutionary_plateau=0.97,
        spreading_plateau=0.01,
        innovation=0.001,
        imitation=1.8,
    ),
    "fax": GoodParams(
        name="fax",
        intro_year=1977.0,
        onset_delay=4.0,
        floor_ratio=0.01,
        decline_rate=0.45,
        shape=360.0,
        evolutionary_plateau=0.98,
        spreading_plateau=0.02,
        innovation=0.01,
        imitation=2.2,
        spreading_multiple=2.5,
        evolutionary_multiple=0.0,
    ),
    "bw_tv": GoodParams(
        name="bw_tv",
        intro_year=1948.0,
        onset_delay=0.0,
        floor_ratio=0.33,
        decline_rate=0.2,
        shape=8.5,
        evolutionary_plateau=0.77,
        spreading_plateau=0.18,
        innovation=0.02,
        imitation=2.5,
        spreading_replacement=0.3,
        spreading_multiple=0.06,
        evolutionary_replacement=0.65,
        evolutionary_multiple=0.06,
        spreading_lifetime=9.2,
        evolutionary_lifetime=10.2,
    ),
    "clothes_dryer": GoodParams(
        name="clothes_dryer",
        intro_year=1949.0,
        onset_delay=0.0,
        decline_rate=0.081,
        shape=25.0,
        evolutionary_plateau=0.9,
        spreading_plateau=0.1,
        innovation=0.02,
        imitation=1.0,
        spreading_replacement=0.0,
        spreading_multiple=0.06,
        evolutionary_replacement=0.0,
        evolutionary_multiple=0.35,
    ),
    "air_conditioner": GoodParams(
        name="air_conditioner",
        intro_year=1951.0,
        onset_delay=0.0,
        decline_rate=0.11,
        shape=65.0,
        evolutionary_plateau=0.9,
        spreading_plateau=0.1,
        innovation=0.03,
        imitation=0.8,
        spreading_replacement=0.0,
        spreading_multiple=0.02,
        evolutionary_replacement=0.0,
        evolutionary_multiple=0.33,
    ),
    "vcr": GoodParams(
        name="vcr",
        intro_year=1976.0,
        onset_delay=0.0,
        floor_ratio=0.17,
        decline_rate=0.195,
        shape=55.0,
        evolutionary_plateau=0.83,
        spreading_plateau=0.03,
        innovation=0.01,
        imitation=1.0,
        spreading_multiple=0.3,
        evolutionary_multiple=0.0,
    ),
}

# Goods with complete enough rows for the synthesize-and-refit suite.
ROUND_TRIP_GOODS = ("colour_tv", "fax", "bw_tv", "vcr")

# Logistic substitution between the two VCR formats: per-year advantage
# of VHS over Betamax and the (zero) intercept of the log share ratio.
VCR_FORMAT_CONTEST = {"advantage": 0.22, "intercept": 0.0}
