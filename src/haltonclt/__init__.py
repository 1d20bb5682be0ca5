"""Exact odometer orbits, local discrepancy, and temporal-CLT diagnostics."""

from .kernel import (
    PrimeBasis,
    count_residue_in_range,
    crt_inverses,
    digit,
    digit_reverse,
    truncate,
    v_value,
)
from .odometer import (
    DigitPoint,
    GuardExhausted,
    forward_orbit_from_zero,
    halton,
    inverse_step,
    jump,
    radical_inverse,
    step,
)
from .discrepancy import (
    BoxTarget,
    CrtFrame,
    DiscrepancySeries,
    crt_frame,
    discrepancy_series,
    fast_two_sided_discrepancy,
    two_sided_discrepancy_naive,
)
from .temporal import (
    ConditionReport,
    TemporalStats,
    condition_check,
    ks_normal,
    normal_cdf,
    normalize_and_test,
    temporal_moments,
    theorem_prime,
    theorem_window,
    variance_growth_fit,
)
from .rng import CounterRng

__version__ = "0.1.0"
