"""Toolkit for the planar symmetric two-electron (Langmuir) problem:
integration of the reduced equations of motion, shooting-based periodic
orbit search, and numeric verification of the quantitative facts behind
the orbit's existence argument."""

from .dynamics import (
    PolarState,
    ProblemSpec,
    State,
    acceleration,
    energy,
    hill_boundary_sample,
    initial_state,
    invert_state,
    magical_line_residual,
    potential,
    scale_state,
    to_polar,
)
from .errors import (
    BadBracket,
    ClosureFailure,
    DomainError,
    NoConvergence,
    NoRest,
    StepUnderflow,
)
from .integrator import (
    Event,
    EventKind,
    IntegratorSettings,
    Trajectory,
    integrate,
    integrate_inverted,
)
from .shooting import (
    OrbitRecord,
    ShootResult,
    alpha_k,
    assemble_periodic_orbit,
    classify_reflection_count,
    find_brake_orbit,
    find_langmuir_orbit,
    scan_alpha,
    shoot,
)
from .analysis import CheckReport, run_all_checks

__all__ = [name for name in dir() if not name.startswith("_")]
