"""Configurable-precision simultaneous rational approximation of Cauchy transforms.

Builds Nikishin systems of atomic measures, solves the type I and type II
order-condition linear systems (plain, incomplete, and rationally perturbed),
and quantifies the ratio asymptotics, geometric rates, and pole attraction of
the solution polynomials' zeros.
"""

from .algebra import (
    LaurentTail,
    Polynomial,
    RationalFn,
    laurent_expand_rational,
    poly_gcd,
    poly_roots,
)
from .analysis import (
    ConvergenceRow,
    EvalGrid,
    PoleAttractionReport,
    RateEstimate,
    convergence_row,
    estimate_rate,
    first_level_remainder_values,
    first_level_sign_grid,
    pole_attraction,
    ratio_targets,
    sign_changes,
)
from .hermite_pade import (
    MultiIndex,
    OrthogonalityReport,
    RationalPerturbation,
    ReduceReport,
    TypeIIVector,
    TypeIVector,
    assemble_type1_system,
    check_orthogonality,
    perturbed_reduce,
    remainder_eval,
    solve_type1,
    solve_type1_perturbed,
    solve_type2,
    type2_residual_tail,
)
from .measures import (
    AtomicMeasure,
    Interval,
    MeasureSpec,
    cauchy_eval,
    gauss_jacobi_rule,
    inverse_measure,
    moments,
    realize,
)
from .nikishin import (
    NikishinSystem,
    SystemSpec,
    build_system,
    check_chain_identity,
    check_ratio_identity,
    product_measure,
    s_hat_eval,
    system_from_generators,
)
from .precision import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    noise_floor,
    set_precision,
    working_precision,
)

__version__ = "0.1.0"
