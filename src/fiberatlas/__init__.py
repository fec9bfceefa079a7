"""Exact census of fiber topology for semi-algebraic maps over a
one-dimensional parameter space, with bound evaluators and a trinomial
lifting toolchain.  All arithmetic is exact rational."""

from .polycore import (
    ParseError,
    Polynomial,
    Ring,
    RingMismatchError,
    parse_polynomial,
    resultant,
)
from .semialg import (
    And,
    Atom,
    Or,
    SignCondition,
    eval_formula,
    formula_to_text,
    level,
    parse_formula,
    realization_formula,
)
from .perturb import (
    ClosedSetDescription,
    EpsilonLadder,
    build_ladder,
    check_rank_genericity,
    construct_S_prime,
    sigma_minus,
    sigma_plus,
)
from .eliminate import (
    DiscriminantSet,
    assemble_G,
    enumerate_strata,
    project_system,
    systems_for_strata,
)
from .atlas import (
    AtlasReport,
    FiberReport,
    ParameterCell,
    UnsupportedModeError,
    components_complement,
    fiber_b0,
    grid_b0,
    interior_points,
    run_atlas,
)
from .bounds import (
    bound_additive,
    bound_fewnomial,
    bound_lists,
    bound_main,
    bound_main_precise,
    bound_pfaffian,
    count_family,
    metric_radius,
)
from .slp import LiftedSystem, SLPProgram, SLPStep, expand, lift, parse_slp, verify_lift
from .cli import main

__version__ = "0.1.0"
