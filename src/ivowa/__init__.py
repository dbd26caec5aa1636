"""Interval-valued overlap functions and OWA operators with interval weights.

The library covers four layers: interval arithmetic on [0,1] with admissible
total orders, real-valued overlap functions, interval-valued overlap
constructions, and ordered weighted aggregation with interval weight vectors.
A verification suite turns the algebraic laws relating them into executable,
witness-producing checks.
"""

from .intervals import (
    AdmissibleOrder,
    DEFAULT_ORDER,
    ExponentInterval,
    Interval,
    IntervalError,
    ONE,
    Ordering,
    ZERO,
    complement,
    contract_half,
    format_interval,
    join,
    leq_product,
    meet,
    midpoint,
    parse_interval,
    power,
    product,
    subseteq,
)
from .iv_overlaps import (
    ConstructionError,
    IVOverlap,
    UnaryGenerator,
    check_homogeneous,
    check_migrative,
    interval_product,
    is_inclusion_monotonic,
    is_strongly_positive,
    lifted,
    midpoint_example,
    migrative_canonical,
    migrative_from_generator,
    power_transform,
    projections,
    representable,
    semi_representable,
    verify_iv_axioms,
)
from .overlaps import (
    OverlapError,
    RealAggregator,
    RealOverlap,
    builtin_overlaps,
    convex_sum,
    lattice_join,
    lattice_meet,
    real_owa,
    verify_overlap_axioms,
)
from .owa import (
    AggregatorKind,
    GowaError,
    GowaOperator,
    IVAggregator,
    WeightError,
    WeightVector,
    builtin_aggregators,
    check_distributivity,
    check_homogeneous_m,
    check_order_monotonicity,
    is_weighted_vector,
    iv_gowa,
    make_gowa,
    normalize_weights,
    projection_owa,
)
from .sampling import SampleGrid, SampledResult

__version__ = "0.1.0"
