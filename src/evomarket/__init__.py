"""evomarket: simulation and calibration of a two-wave durable-goods market.

A durable good spreads first by word of mouth at fixed features
(spreading wave) and then through the competitive decline of its mean
price toward the affordability floor (evolutionary wave).  The package
provides the market-volume curve, both diffusion laws with their
oracles, the product life cycle with replacement echoes, the
replicator-based competition layer with its stochastic distributions,
and the calibration procedure that fits it all to empirical series.
"""

from .benchmarks import BENCHMARKS, GoodParams, ROUND_TRIP_GOODS, VCR_FORMAT_CONTEST
from .calibration import (
    FisherPryFit,
    FitResult,
    PriceDeclineFit,
    fit_two_wave,
    synthesize,
    synthesize_share,
)
from .diffusion import (
    AdoptionCurve,
    BassParams,
    GompertzParams,
    PriceDecline,
    bass_ode,
    bass_penetration,
    bass_rate,
    gompertz_from_price,
    gompertz_penetration,
    gompertz_rate,
    mean_price,
    price_decline_rate,
)
from .errors import (
    EvomarketError,
    FitError,
    FormatError,
    NumericError,
    StepSizeError,
)
from .evodyn import (
    DemandState,
    Population,
    Product,
    fisher_pry_share,
    mean_fitness,
    mean_price_drift,
    micro_step,
    replicator_step,
    sales_mean_price,
    stationary_demand,
)
from .lifecycle import WaveParams, total_sales, wave_sales
from .market import (
    IncomeModel,
    MarketStructure,
    income_pdf,
    market_volume,
    market_volume_gradient,
    real_price,
)
from .series import TimeSeries, read_series_csv, write_series_csv
from .stochastic import (
    PriceNoiseParams,
    ReproductionSimParams,
    SizeDistParams,
    growth_rate_transform,
    ks_statistic,
    langevin_price_ensemble,
    langevin_price_sim,
    laplace_cdf,
    laplace_fit,
    laplace_pdf,
    lognormal_size_pdf,
    multiplicative_growth_sim,
    reproduction_param_sim,
)

__version__ = "0.1.0"
