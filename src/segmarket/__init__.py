"""Exact-arithmetic market segmentation under interval price regulation.

An information intermediary splits a market of unit-demand buyers into
segments and instructs a price in each. This package constructs the extreme
segmentations (producer-optimal, consumer-optimal, welfare-minimal) under a
contiguous window of admissible prices, in both the passive model (sellers
may deviate to any price) and the active model (sellers are confined to the
window), decides feasibility of a window, maps the achievable
(consumer surplus, producer surplus) region, and cross-checks everything
against an exact linear-programming oracle. All arithmetic is rational and
exact; nothing is ever rounded.
"""

from .core import (
    Market,
    MarketScheme,
    Model,
    PriceWindow,
    Segment,
    SurplusSummary,
    ValueGrid,
    ValidationIssue,
    ValidationReport,
    demand,
    equal_revenue_market,
    grid,
    largest_dominated_er,
    market,
    opt_prices,
    opt_prices_in_window,
    revenue,
    scheme_surplus,
    segment_surplus,
    standardize,
    tail_value,
    uniform_revenue,
    validate_scheme,
    window_uniform_revenue,
    zero_market,
)
from .errors import (
    BadRange,
    EmptyAboveFloor,
    EmptySupport,
    HypothesisViolated,
    InfeasibleWindow,
    InvariantViolation,
    NegativeBound,
    NonTermination,
    PointOutsideRegion,
    PriceOutsideWindow,
    SegmarketError,
    SegmentationMismatch,
    ZeroMarket,
)
from .rationals import as_rational, decimal_str

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
