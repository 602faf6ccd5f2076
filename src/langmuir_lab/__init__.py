"""Toolkit for the planar symmetric two-electron (Langmuir) problem:
integration of the reduced equations of motion, shooting-based periodic
orbit search, and numeric verification of the quantitative facts behind
the orbit's existence argument."""

from .dynamics import (
    ProblemSpec,
    State,
    acceleration,
    energy,
    hill_boundary_sample,
    initial_state,
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
)
from .shooting import (
    OrbitRecord,
    ShootResult,
    assemble_periodic_orbit,
    find_brake_orbit,
    find_langmuir_orbit,
    scan_alpha,
    shoot,
)
from .analysis import CheckReport, run_all_checks

__all__ = [name for name in dir() if not name.startswith("_")]
