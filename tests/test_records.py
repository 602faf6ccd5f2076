"""The package's records against frozen dataclasses declared as the records
once were: the same repr, equality, hash, immutability and replace, plus
pickling and copying; and the modules the package loads to define them."""

import copy
import math
import pickle
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import pytest

import langmuir_lab
from langmuir_lab import analysis, dynamics, integrator, shooting
from langmuir_lab.errors import DomainError

# The oracles: each twin is named as its record, so that the reprs match.


@dataclass(frozen=True, slots=True)
class State:
    t: float
    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class ProblemSpec:
    E: float
    h: float

    def __post_init__(self):
        if not (self.h > 0.0):
            raise DomainError(f"height must be positive, got {self.h}")
        if not (self.E <= 0.0):
            raise DomainError(f"energy must be <= 0, got {self.E}")
        if not 7.0 / (2.0 * self.h) + self.E > 0.0:
            raise DomainError(f"(0, {self.h}) is not inside the Hill region")


@dataclass(frozen=True)
class IntegratorSettings:
    rel_tol: float = 1e-10
    t_limit: float = 100.0

    def __post_init__(self):
        for name in ("rel_tol", "t_limit"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise DomainError(f"{name} must be finite and positive")


@dataclass(frozen=True)
class Event:
    kind: integrator.EventKind
    t: float
    state: State


@dataclass(frozen=True)
class Trajectory:
    samples: tuple
    events: tuple
    max_energy_drift: float
    termination: integrator.EventKind


@dataclass(frozen=True)
class ShootResult:
    h: float
    t_h: float
    alpha: float
    n_magical_crossings: int
    energy_drift: float
    status: str = "ok"


@dataclass(frozen=True)
class OrbitRecord:
    E: float
    h_star: float
    quarter_period: float
    touch_state: State
    alpha_residual: float
    kind: str
    solver_trace: tuple
    _quarter_arc: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    details: dict


_KIND = integrator.EventKind.X_VELOCITY_ZERO
_STATE = (0.5, -0.25, 1.398, 0.0, -1e-300)
_TWIN_STATE = State(*_STATE)
_STATE_RECORD = dynamics.State(*_STATE)

# (record class, twin class, field values): the values of a record hold
# records themselves, and their twins hold twins
CASES = {
    "State": (dynamics.State, State, _STATE),
    "ProblemSpec": (dynamics.ProblemSpec, ProblemSpec, (-1.0, 1.398)),
    "IntegratorSettings": (integrator.IntegratorSettings, IntegratorSettings,
                           (1e-8, 7.5)),
    "Event": (integrator.Event, Event, (_KIND, 0.5, "state")),
    "Trajectory": (integrator.Trajectory, Trajectory,
                   (("state", "state"), (), 1e-12, _KIND)),
    "ShootResult": (shooting.ShootResult, ShootResult,
                    (1.398, math.nan, -0.0, 2, 3e-11, "NoRest(TimeLimit)")),
    "OrbitRecord": (shooting.OrbitRecord, OrbitRecord,
                    (-1.0, 1.4, 0.6, "state", 1e-9, "Langmuir",
                     ((1.4, 1e-9),))),
    "CheckReport": (analysis.CheckReport, CheckReport,
                    ("tmax_bound", True, -0.1, 0.0, {"n": 1})),
}


def _values(values, twin):
    """values with each "state" entry, at top level or in a tuple, the
    State record (or its twin)."""
    state = _TWIN_STATE if twin else _STATE_RECORD

    def one(v):
        if v == "state":
            return state
        if isinstance(v, tuple):
            return tuple(one(w) for w in v)
        return v

    return tuple(one(v) for v in values)


def _pair(name, values=None):
    cls, twin_cls, default = CASES[name]
    values = default if values is None else values
    return cls(*_values(values, False)), twin_cls(*_values(values, True))


def _other(v):
    """A value unequal to v."""
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return 0.75 if v != 0.75 else 0.5
    if isinstance(v, str):
        return v + "x"
    if isinstance(v, integrator.EventKind):
        return integrator.EventKind.TIME_LIMIT
    return (*v, v[0]) if isinstance(v, tuple) and v else ("state",)


NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_twin_fields(name):
    cls, twin_cls, _ = CASES[name]
    want = tuple(f.name for f in twin_cls.__dataclass_fields__.values()
                 if f.init)
    assert cls._fields == want


@pytest.mark.parametrize("name", NAMES)
def test_repr_and_hash_are_the_twin(name):
    rec, twin = _pair(name)
    assert repr(rec) == repr(twin)
    if name == "CheckReport":  # its details are a dict
        with pytest.raises(TypeError):
            hash(rec)
        with pytest.raises(TypeError):
            hash(twin)
    else:
        assert hash(rec) == hash(twin)


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_the_twin(name):
    rec, twin = _pair(name)
    values = CASES[name][2]
    assert rec == _pair(name)[0]
    assert not rec != _pair(name)[0]
    for i, v in enumerate(values):
        changed = (*values[:i], _other(v), *values[i + 1:])
        if name == "ProblemSpec" and i == 0:
            changed = (-2.0, values[1])  # E stays admissible
        other, other_twin = _pair(name, changed)
        assert (rec == other) is (twin == other_twin) is False
        assert (rec != other) is (twin != other_twin) is True


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_type_strict(name):
    rec, twin = _pair(name)
    stranger = integrator.Event(_KIND, 0.5, _STATE_RECORD)
    if name == "Event":
        stranger = dynamics.State(*_STATE)
    for other in (twin, tuple(rec._values()), stranger, None):
        assert rec != other
        assert not rec == other

    class Sub(CASES[name][0]):
        __slots__ = ()

    assert Sub(*rec._values()) != rec
    assert rec != Sub(*rec._values())


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_are_refused(name):
    rec, _ = _pair(name)
    first = rec._fields[0]
    before = getattr(rec, first)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(rec, first, 1.0)
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, first)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0
    assert getattr(rec, first) is before
    assert not hasattr(rec, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_replace_is_the_twin(name):
    rec, twin = _pair(name)
    last = rec._fields[-1]
    values = CASES[name][2]
    new_value = _values((_other(values[-1]),), False)[0]
    twin_value = _values((_other(values[-1]),), True)[0]
    got = rec.replace(**{last: new_value})
    want = replace(twin, **{last: twin_value})
    assert type(got) is type(rec)
    assert repr(got) == repr(want)
    assert rec.replace() == rec
    assert rec.replace() is not rec
    with pytest.raises(TypeError):
        rec.replace(not_a_field=1.0)


def test_replace_validates_again():
    with pytest.raises(DomainError, match="t_limit"):
        integrator.IntegratorSettings().replace(t_limit=math.inf)
    with pytest.raises(DomainError, match="rel_tol"):
        integrator.IntegratorSettings().replace(rel_tol=0.0)
    with pytest.raises(DomainError, match="height"):
        dynamics.ProblemSpec(-1.0, 1.0).replace(h=0.0)
    with pytest.raises(DomainError, match="Hill region"):
        dynamics.ProblemSpec(-1.0, 1.0).replace(E=-4.0)


def test_settings_defaults_are_the_twin():
    assert repr(integrator.IntegratorSettings()) == repr(IntegratorSettings())
    assert repr(shooting.ShootResult(1.0, 2.0, 3.0, 4, 5.0)) == repr(
        ShootResult(1.0, 2.0, 3.0, 4, 5.0))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [
    lambda rec: pickle.loads(pickle.dumps(rec)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_pickle_and_copy_round_trips(name, clone):
    rec, twin = _pair(name)
    got = clone(rec)
    assert type(got) is type(rec)
    assert repr(got) == repr(rec)
    # equal but where a copied nan field, not the same object, is not
    assert (got == rec) is (clone(twin) == twin)


def test_quarter_arc_is_no_field():
    rec, _ = _pair("OrbitRecord")
    plain, _ = _pair("OrbitRecord")
    assert rec._quarter_arc is None
    arc = (integrator.IntegratorSettings(), "arc")
    object.__setattr__(rec, "_quarter_arc", arc)
    assert rec == plain
    assert hash(rec) == hash(plain)
    assert repr(rec) == repr(plain)
    assert "_quarter_arc" not in rec._fields
    assert rec.replace()._quarter_arc is None
    assert pickle.loads(pickle.dumps(rec))._quarter_arc is None
    assert copy.deepcopy(rec)._quarter_arc is None
    with pytest.raises(AttributeError):
        rec._quarter_arc = None
    assert rec._quarter_arc is arc
    # so a record made by hand, by replace or by pickling has no arc to
    # assemble, and says so
    for other in (plain, rec.replace(), pickle.loads(pickle.dumps(rec))):
        with pytest.raises(ValueError, match="carries no quarter arc"):
            shooting.assemble_periodic_orbit(other)


def test_public_surface_is_pinned():
    # what the CLI, the scripts and the README use, and the five modules;
    # a new export is a reviewed edit of this list
    assert sorted(langmuir_lab.__all__) == [
        "BadBracket", "CheckReport", "ClosureFailure", "DomainError", "Event",
        "EventKind", "IntegratorSettings", "NoConvergence", "NoRest",
        "OrbitRecord", "ProblemSpec", "ShootResult", "State",
        "StepUnderflow", "Trajectory", "acceleration", "analysis",
        "assemble_periodic_orbit", "dynamics", "energy", "errors",
        "find_brake_orbit", "find_langmuir_orbit", "hill_boundary_sample",
        "initial_state", "integrate", "integrator", "run_all_checks",
        "scan_alpha", "shoot", "shooting",
    ]


SRC = str(Path(langmuir_lab.__file__).resolve().parents[1])


def _fresh_probe(body: str, argv=(), cwd=None) -> str:
    """stdout of `body`, run with sys.argv[1:] = argv after the package's
    import in a fresh interpreter without site hooks (-S), which would load
    typing or random themselves on some installations."""
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import langmuir_lab, langmuir_lab.cli\n"
        + body
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe, *argv],
                          capture_output=True, text=True, timeout=120,
                          check=True, cwd=cwd)
    return done.stdout.strip()


# the slow imports that start-up leaves out: the CLI reads its options
# without argparse (which loads gettext), and no module uses random
SLOW_IMPORTS = ("{'dataclasses', 'inspect', 'typing', 'argparse', 'gettext',"
                " 'random'}")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # nor json, which only the commands that write JSON load
    assert _fresh_probe(
        f"print(sorted(({SLOW_IMPORTS} | {{'json'}}) & set(sys.modules)))"
    ) == "[]"


@pytest.mark.parametrize("argv, loaded", [
    (["scan", "--energy", "-1", "--grid", "0.5,1,1", "--out", "scan.csv"],
     []),
    (["simulate", "--energy", "-1", "--height", "1", "--format", "csv",
      "--out", "run.csv"], []),
    (["find-orbit", "--energy", "-1", "--out", "orbit"], ["json"]),
    (["verify", "--report", "verdict.json"], ["json"]),
], ids=["scan_one_point", "simulate_csv", "find_orbit_out", "verify"])
def test_command_loads_json_and_random_only_where_it_uses_them(
        tmp_path, argv, loaded):
    # the import defers json: a command that writes JSON loads it with its
    # first document, and scan and CSV output never do; no command loads
    # random, argparse or the other slow imports
    out = _fresh_probe(
        "rc = langmuir_lab.cli.main(sys.argv[1:])\n"
        "print(rc, sorted({'json', 'random'} & set(sys.modules)),\n"
        f"      sorted({SLOW_IMPORTS} & set(sys.modules)))",
        argv, cwd=tmp_path)
    assert out == f"0 {loaded} []"
