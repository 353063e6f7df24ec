"""Spherically decomposed jump measures, affine short-rate checks, and
reduction of multivariate jump-driven rate equations to the one-factor
stable-CIR form, with simulation and bond pricing to compare the two."""

from .exceptions import (
    AffinityViolation,
    BlowUp,
    CutoffTooSmall,
    DenominatorZero,
    DivergentIntegral,
    InfimumZero,
    LevyReduceError,
    NegativeDirection,
    NotPowerLaw,
    PreconditionFailed,
    ResidualNuG0,
    ZeroVolatility,
)
from .quadrature import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    IntegralResult,
    improper_columns,
    improper_integral,
    improper_value,
    panel_integral,
)
from .report import CheckItem, CheckReport
from .measures import (
    DensityLevySpec,
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    VolatilityFunction,
    density_spec,
    power_radial,
    radial_columns,
    radial_integral,
    stable_spec,
    tabulated_radial,
)
from .spherical import (
    angular_grid,
    induced_spec,
    integrate_over_directions,
    polar_map,
    radial_from_density,
    spherical_integrate,
    uniform_angle_grid,
)
from .laplace import (
    compensated_exp,
    laplace_jump,
    laplace_radial,
    laplace_total,
    stable_coefficient,
    stable_exponent,
)
from .conditions import (
    check_martingale,
    check_positive_jumps,
    check_structure,
    check_variation,
    density_reducibility_check,
    q_ratios,
    radial_balance,
    wiener_cir_check,
)
from .reduction import (
    ReducedModel,
    check_hypotheses,
    direction_limit_at_zero,
    extract_affine_exponents,
    fit_power_law,
    reduce_model,
)
from .simulate import (
    EulerRun,
    JumpSampler,
    PathEnsemble,
    RngStream,
    StableAtomSampler,
    original_run,
    reduced_run,
    sample_stable,
    simulate_original,
    simulate_reduced,
    stable_atom_sampler,
    truncated_jump_sampler,
)
from .pricing import (
    ComparisonResult,
    SimConfig,
    TermStructure,
    bond_price,
    compare_term_structures,
    mc_bond_prices,
    riccati_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
