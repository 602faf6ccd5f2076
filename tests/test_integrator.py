import gc
import math
import os
import re
import tempfile
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmuir_lab import analysis, cli, integrator, shooting
from langmuir_lab import dynamics as dyn
from langmuir_lab.dynamics import ProblemSpec, State
from langmuir_lab.errors import DomainError, StepUnderflow
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    _build_trajectory,
    _Run,
    _trial,
    _vec_to_state,
    integrate,
)

from conftest import (
    DOP853_A,
    DOP853_AA,
    DOP853_B,
    DOP853_C,
    DOP853_D,
    DOP853_DA,
    DOP853_E3,
    DOP853_E3A,
    DOP853_E5,
    DOP853_E5A,
    ZERO,
    first_event,
    first_order_reference_step,
    invert_state,
    inverted_acceleration,
    inverted_energy,
    launches,
    nystrom_reference_dense_output,
    nystrom_reference_error_ratio,
    nystrom_reference_errors,
    nystrom_reference_step,
    polar,
    rest_cuts,
    rk4_fixed,
    scale_state,
    trajectory_bits,
)


# the field, bound before any test wraps `dynamics.acceleration` to count
_ACCELERATION = dyn.acceleration


def shoot_raw(E, h, settings=None, **kw):
    s0 = dyn.initial_state(ProblemSpec(E=E, h=h))
    return integrate(
        s0,
        settings or IntegratorSettings(),
        stop={EventKind.X_VELOCITY_ZERO},
        **kw,
    )


@pytest.fixture
def field_calls(monkeypatch):
    """Count field evaluations where they happen; the count is
    field_calls[0].  The step kernel evaluates the field in place, reading
    `integrator.hypot` once per evaluation, and the launches and
    `check_initial_acceleration` call `dynamics.acceleration`; both are
    wrapped.  (`dynamics.acceleration` calls `math.hypot`, so no evaluation
    counts twice.)"""
    calls = [0]

    def counting(module, name):
        real = getattr(module, name)

        def count(x, y):
            calls[0] += 1
            return real(x, y)

        monkeypatch.setattr(module, name, count)

    counting(dyn, "acceleration")
    counting(integrator, "hypot")
    return calls


@pytest.mark.parametrize("name", ["rel_tol", "h_max", "t_limit"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_settings_must_be_finite_and_positive(name, value):
    with pytest.raises(DomainError, match=name):
        IntegratorSettings(**{name: value})


def test_largest_step_must_exceed_the_smallest():
    with pytest.raises(DomainError, match="h_max"):
        IntegratorSettings(h_max=integrator.H_MIN)


class TestBasicRuns:
    def test_first_rest_is_bounded(self):
        traj = shoot_raw(-1.0, 1.398)
        assert traj.termination is EventKind.X_VELOCITY_ZERO
        ev = first_event(traj, EventKind.X_VELOCITY_ZERO)
        assert ev.t <= 6.116
        assert abs(ev.state.vx) <= 1e-10

    def test_straight_fall_stays_on_axis(self):
        s0 = State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0)
        traj = integrate(s0, IntegratorSettings())
        assert traj.termination is EventKind.COLLISION_PROXIMITY
        assert all(abs(s.x) <= 1e-12 for s in traj.samples)
        assert all(s.vy <= 0.0 for s in traj.samples)

    def test_rejects_lower_half_plane_start(self):
        with pytest.raises(DomainError):
            integrate(State(t=0.0, x=0.0, y=-1.0, vx=0.0, vy=0.0))

    def test_time_limit_termination(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        traj = integrate(s0, IntegratorSettings(t_limit=0.5))
        assert traj.termination is EventKind.TIME_LIMIT
        assert traj.samples[-1].t == pytest.approx(0.5, abs=1e-12)


class TestAccuracy:
    def test_fixed_step_oracle(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=0.5))
        times = [0.1 * i for i in range(1, 11)]
        traj = integrate(
            s0, IntegratorSettings(t_limit=1.0), sample_times=times
        )
        by_t = {round(s.t, 9): s for s in traj.samples}
        for t in times:
            ox, oy, ovx, ovy = rk4_fixed(s0.x, s0.y, s0.vx, s0.vy, t, 1e-5)
            s = by_t[round(t, 9)]
            assert abs(s.x - ox) <= 1e-7
            assert abs(s.y - oy) <= 1e-7
            assert abs(s.vx - ovx) <= 1e-7
            assert abs(s.vy - ovy) <= 1e-7

    @pytest.mark.parametrize("h", [0.3, 0.7, 1.398, 2.5, 3.2])
    def test_energy_drift(self, h):
        traj = shoot_raw(-1.0, h)
        assert traj.max_energy_drift <= 1e-8

    def test_bare_zero_energy_drift_is_absolute(self):
        # the launch energy from h = 0.5 at E = 0 is rounding residue
        # (8.9e-16); a bare start state's drift is absolute below half the
        # unit of energy, as for a run launched at an energy
        s0 = dyn.initial_state(ProblemSpec(E=0.0, h=0.5))
        assert 0.0 < abs(dyn.energy(s0)) < 1e-15
        traj = integrate(s0, IntegratorSettings(t_limit=5.0))
        assert 0.0 < traj.max_energy_drift <= 1e-8

    @pytest.mark.parametrize("h", [0.5, 1.0, 1.398, 3.0])
    def test_rest_time_stable_under_tolerance_halving(self, h):
        rest = EventKind.X_VELOCITY_ZERO
        t1 = first_event(shoot_raw(-1.0, h), rest).t
        tighter = IntegratorSettings(rel_tol=5e-11)
        t2 = first_event(shoot_raw(-1.0, h, tighter), rest).t
        assert abs(t1 - t2) <= 1e-9

    def test_scaled_reintegration_oracle(self):
        # integrating at E=-1 and rescaling must reproduce the E=-1/a run
        a = 2.0
        h = 1.0
        times = [0.05 * i for i in range(1, 21)]
        t1 = integrate(
            dyn.initial_state(ProblemSpec(E=-1.0, h=h)),
            IntegratorSettings(t_limit=1.0 + 1e-9),
            sample_times=times,
        )
        scaled_times = [a**1.5 * t for t in times]
        t2 = integrate(
            dyn.initial_state(ProblemSpec(E=-1.0 / a, h=a * h)),
            IntegratorSettings(t_limit=a**1.5 * 1.0 + 1e-9),
            sample_times=scaled_times,
        )
        by_t = {round(s.t, 9): s for s in t2.samples}
        for s in t1.samples:
            if not any(abs(s.t - t) < 1e-12 for t in times):
                continue
            mapped = scale_state(s, a)
            other = by_t[round(mapped.t, 9)]
            assert abs(other.x - mapped.x) <= 1e-6
            assert abs(other.y - mapped.y) <= 1e-6
            assert abs(other.vx - mapped.vx) <= 1e-6
            assert abs(other.vy - mapped.vy) <= 1e-6

    def test_mirrored_launch_runs_mirrored_bit_for_bit(self):
        # the field is odd in x and the magical-line residual even, so
        # `simulate`'s run launched with x and vx negated is the run
        # mirrored in x, every sample and event to the last bit (an x-rest's
        # vx is +0.0 on either side, so vx flips as 0.0 - vx)
        def mirrored(traj):
            def flip(s):
                return s.replace(x=-s.x, vx=0.0 - s.vx)

            return traj.replace(
                samples=tuple(flip(s) for s in traj.samples),
                events=tuple(e.replace(state=flip(e.state))
                             for e in traj.events))

        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
        watch = {EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS}
        runs = [integrator._integrate(s, IntegratorSettings(), -1.0, watch)
                for s in (s0, s0.replace(x=-s0.x, vx=-s0.vx))]
        assert len(runs[0].events) > 100
        assert trajectory_bits(mirrored(runs[1])) == trajectory_bits(runs[0])


class TestEvents:
    def test_x_rest_residual(self):
        traj = shoot_raw(-1.0, 1.0)
        ev = first_event(traj, EventKind.X_VELOCITY_ZERO)
        assert abs(ev.state.vx) <= 1e-10

    def test_magical_crossing_residual(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        traj = integrate(
            s0,
            IntegratorSettings(),
            stop={EventKind.MAGICAL_LINE_CROSS},
        )
        ev = first_event(traj, EventKind.MAGICAL_LINE_CROSS)
        assert abs(math.sqrt(3.0) * ev.state.y - abs(ev.state.x)) <= 1e-9

    def test_events_strictly_ordered(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=0.5))
        traj = integrate(
            s0,
            IntegratorSettings(t_limit=8.0),
            watch={EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS},
        )
        ts = [ev.t for ev in traj.events]
        assert ts == sorted(ts)
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_samples_strictly_increasing(self):
        traj = shoot_raw(-1.0, 2.0)
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_termination_over_height_grid(self):
        # no step underflow anywhere on the standard height range
        n = 50
        for i in range(n):
            h = 0.05 + (3.45 - 0.05) * i / (n - 1)
            traj = shoot_raw(-1.0, h)
            assert traj.termination in (
                EventKind.X_VELOCITY_ZERO,
                EventKind.COLLISION_PROXIMITY,
                EventKind.TIME_LIMIT,
            )


class TestStopRule:
    def test_stops_at_the_nth_event(self):
        # the 3rd rest, reached by resuming one run twice, is the unstopped
        # run cut at its 3rd rest
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
        traj = _build_trajectory(
            shooting._rest_run(-1.0, 1.398, 3, IntegratorSettings()))
        assert traj.termination is EventKind.X_VELOCITY_ZERO
        rests = [e for e in traj.events if e.kind is EventKind.X_VELOCITY_ZERO]
        assert len(rests) == 3
        assert traj.samples[-1] == rests[2].state
        cut = rest_cuts(s0, IntegratorSettings(t_limit=rests[2].t + 0.5))[2]
        assert trajectory_bits(traj) == trajectory_bits(cut)

    @pytest.mark.parametrize(
        "h, first",
        [(1.0, EventKind.MAGICAL_LINE_CROSS), (3.0, EventKind.X_VELOCITY_ZERO)],
    )
    def test_first_of_two_stop_kinds_ends_the_run(self, h, first):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=h))
        kinds = (EventKind.MAGICAL_LINE_CROSS, EventKind.X_VELOCITY_ZERO)
        free = integrate(s0, watch=kinds, stop={EventKind.X_VELOCITY_ZERO})
        assert free.events[0].kind is first
        traj = integrate(s0, stop=kinds)
        assert traj.termination is first
        assert traj.events == free.events[:1]
        assert traj.samples[-1] == free.events[0].state

    def test_collision_stops_at_its_first_event(self):
        s0 = State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0)
        traj = integrate(s0)
        assert traj.termination is EventKind.COLLISION_PROXIMITY
        assert [e.kind for e in traj.events] == [EventKind.COLLISION_PROXIMITY]
        assert traj.samples[-1] == traj.events[0].state

    def test_rejects_a_mapping_of_stop_counts(self):
        # a stop kind ends the run at its first event; read as a set of
        # kinds, the old {kind: n} form would stop at the wrong rest
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        with pytest.raises(TypeError, match="mapping"):
            integrate(s0, stop={EventKind.X_VELOCITY_ZERO: 3})

    @pytest.mark.parametrize("h", [0.3, 1.0, 1.398, 2.7])
    def test_watching_costs_only_event_location(self, field_calls, probes,
                                                h):
        # no residual evaluates the field: watching every kind leaves the
        # steps alone, and located events cost the three stages of each
        # interpolant built for location alone (the run requests no
        # sample), which also gives their states, and one evaluation per
        # x-rest, which moves its state to the rest
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=h))
        st = IntegratorSettings(t_limit=8.0)
        kinds = set(EventKind) - {EventKind.TIME_LIMIT}
        watched = integrate(s0, st, watch=kinds)
        n_watched, n_interpolants = field_calls[0], probes[1]
        field_calls[0] = 0
        free = integrate(s0, st)
        assert probes[1] == n_interpolants
        assert watched.samples == free.samples
        assert free.events == watched.events[-1:]
        located = len(watched.events) - 1
        rests = sum(1 for ev in watched.events
                    if ev.kind is EventKind.X_VELOCITY_ZERO)
        assert 0 < n_interpolants <= located
        assert rests > 0
        assert n_watched - field_calls[0] == 3 * n_interpolants + rests


def _first_order(accel):
    """The field of the state (x, y, vx, vy) whose acceleration is `accel`,
    in the first-order form (vx, vy, ax, ay) the first-order reference step
    takes."""

    def rhs(v):
        ax, ay = accel(v[0], v[1])
        return (v[2], v[3], ax, ay)

    return rhs


def _reference_trial(y, h, abs_q, abs_v, rel_tol):
    """The trial step of the tableau loop on `dynamics.acceleration`, as
    `_trial` returns it: (y8, the thirteen stages as a flat tuple, ratio)."""
    accel = dyn.acceleration
    y8, ks = nystrom_reference_step(accel, y, h, accel(y[0], y[1]))
    ks.append(accel(y8[0], y8[1]))
    return y8, tuple(v for k in ks for v in k), nystrom_reference_error_ratio(
        y, y8, ks, h, (abs_q, abs_q, abs_v, abs_v), rel_tol)


def _kernel_trial(y, h, abs_q, abs_v, rel_tol):
    return _trial(y, h, *dyn.acceleration(y[0], y[1]), abs_q, abs_v, rel_tol)


def _trial_bits(trial, y, h, a):
    """The eighth-order state, the accelerations of the thirteen stages and
    the error norm of one trial step on the planar field at the default
    tolerances read in units of scale a (the error norm's floor times a
    for positions, over sqrt(a) for velocities), as float.hex strings (so
    signed zeros count), or the error it raised."""
    rel_tol = IntegratorSettings().rel_tol
    floor = rel_tol * integrator.FLOOR_RATIO
    try:
        y8, ks, ratio = trial(y, h, floor * a, floor / math.sqrt(a), rel_tol)
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)
    return [v.hex() for v in (*y8, *ks, ratio)]


def _decades(lo, hi):
    """Floats of either sign whose magnitude is 10**e, e uniform on
    [lo, hi]."""
    return st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(lo, hi),
                     st.sampled_from([1.0, -1.0]))


# Steps drawn uniformly, and spread over decades: a stage position's last
# bits hold those of its acceleration sum only where h^2 * f is not small
# beside x + c*h*v, which uniform draws seldom give
_STEPS = dict(
    x=st.floats(min_value=-4.0, max_value=4.0) | _decades(-4.0, 0.6),
    y=(st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
       | _decades(-4.0, 0.6).map(abs)),
    vx=st.floats(min_value=-10.0, max_value=10.0) | _decades(-3.0, 1.0),
    vy=st.floats(min_value=-10.0, max_value=10.0) | _decades(-3.0, 1.0),
    h=(st.floats(min_value=1e-14, max_value=0.1)
       | _decades(-8.0, -1.0).map(abs)),
)


@settings(max_examples=300, deadline=None)
@given(**_STEPS, a=st.sampled_from([1.0, 1e-3, 1e3]))
# signed zeros: a -0.0 position or velocity component
@example(x=-0.0, y=1.0, vx=-0.0, vy=1.0, h=0.1, a=1.0)
@example(x=0.0, y=2.0, vx=-0.0, vy=-0.0, h=0.1, a=1.0)
def test_unrolled_step_matches_the_tableau_loop(x, y, vx, vy, h, a):
    # the kernel's trial step, every stage acceleration it evaluates in
    # place included, against the generic Nystrom loop over the exact
    # products of the tableau on `dynamics.acceleration`, bit for bit
    state = (x, y, vx, vy)
    assert (_trial_bits(_kernel_trial, state, h, a)
            == _trial_bits(_reference_trial, state, h, a))


def _dense_bits(y, h, tau, reference):
    """The interpolated state at tau in the trial step of size h from y, by
    the kernel's `_dense_output` or by the tableau loop's, as float.hex
    strings, or the error it raised."""
    try:
        y8, ks, _ = _kernel_trial(y, h, 1.0, 1.0, 1.0)
        if reference:
            pairs = list(zip(ks[::2], ks[1::2]))
            at = nystrom_reference_dense_output(dyn.acceleration, y, y8,
                                                pairs, h)
        else:
            at = integrator._dense_output(y, y8, ks, h)
        return [v.hex() for v in at(tau)]
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)


@settings(max_examples=200, deadline=None)
@given(**_STEPS, fraction=st.floats(min_value=0.0, max_value=1.0))
def test_dense_output_matches_the_tableau_loop(x, y, vx, vy, h, fraction):
    # the interpolant, whose stages 14 to 16 the kernel also evaluates in
    # place, against the generic loop's on `dynamics.acceleration`, bit for
    # bit, at a time inside the step
    state = (x, y, vx, vy)
    tau = fraction * h
    assert (_dense_bits(state, h, tau, False)
            == _dense_bits(state, h, tau, True))


def _assert_the_two_forms_agree(accel, states):
    # over each step between successive (t, (x, y, vx, vy)) `states`, such
    # as a run's accepted steps: the eighth-order state and the
    # E5 and E3 error estimates of the Nystrom reference step against those
    # of the first-order tableau loop, to 64 units of rounding of the two
    # forms' largest terms; the estimates cancel deeply, so they may also
    # differ by what the two forms' stage accelerations do (their stage
    # positions round differently)
    eps = 64 * 2.0 ** -52
    for (t, y), (t_next, _) in zip(states, states[1:]):
        h = t_next - t
        k1 = accel(y[0], y[1])
        y8, ks = nystrom_reference_step(accel, y, h, k1)
        z8, ls = first_order_reference_step(_first_order(accel), y, h,
                                            (*y[2:], *k1))
        for j in range(4):
            terms = [abs(k[j]) for k in ls]
            assert abs(y8[j] - z8[j]) <= eps * (abs(y[j]) + h * sum(terms))
        for errs, ws, was in zip(nystrom_reference_errors(ks, h),
                                 (DOP853_E5, DOP853_E3),
                                 (DOP853_E5A, DOP853_E3A)):
            e = [float(w) for w in ws]
            for j in range(4):
                first = h * sum(w * k[j] for w, k in zip(e, ls))
                # a position's Nystrom terms are h^2 (E.A)_m k_m
                c, own, weights = ((j, h * sum(abs(float(w) * k[j]) for w, k
                                               in zip(was, ks)), was)
                                   if j < 2 else (j - 2, 0.0, ws))
                moved = h ** (2 if j < 2 else 1) * sum(
                    abs(float(w) * (k[c] - ell[c + 2]))
                    for w, k, ell in zip(weights, ks, ls))
                assert abs(errs[j] - first) <= moved + eps * h * (own + sum(
                    abs(w * k[j]) for w, k in zip(e, ls)))


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_the_nystrom_step_agrees_with_the_first_order_step(E, u):
    # the reference pair that pins the kernel is the published first-order
    # method: on the steps a run takes, the two references agree to
    # rounding
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    traj = integrate(s0, stop={EventKind.X_VELOCITY_ZERO})
    _assert_the_two_forms_agree(
        dyn.acceleration, [(s.t, _vec(s)) for s in traj.samples])


def _nonzero(prefix, ws):
    """{prefix + 1-based index: w} for the weights w above ZERO."""
    return {f"{prefix}{m + 1}": w for m, w in enumerate(ws) if abs(w) > ZERO}


def test_coefficients_are_the_exact_products_of_the_tableau():
    # every coefficient literal of the kernel is the float of its exact
    # product, and every product above ZERO has its literal
    want = {f"_C{i + 1}": c for i, c in enumerate(DOP853_C) if 0 < c < 1}
    want.update(_nonzero("_BA", DOP853_AA[12]))
    want.update(_nonzero("_B", DOP853_B))
    for name, ws in (("_E5", DOP853_E5), ("_E3", DOP853_E3),
                     ("_E5A", DOP853_E5A), ("_E3A", DOP853_E3A)):
        want.update(_nonzero(f"{name}_", ws))
    for n, (d, da) in enumerate(zip(DOP853_D, DOP853_DA), start=4):
        want.update(_nonzero(f"_D{n}_", d))
        want.update(_nonzero(f"_DA{n}_", da))
    for i in (*range(2, 12), *range(13, 16)):
        want.update(_nonzero(f"_AA{i + 1}_", DOP853_AA[i]))
    names = {n for n in vars(integrator) if re.fullmatch(
        r"_(C|BA|B)\d+|_(E5A?|E3A?|DA?\d|AA\d+)_\d+", n)}
    assert names == set(want)
    for name, w in want.items():
        assert getattr(integrator, name) == float(w), name
    # c_i is the sum of row i of A; stage 2 has no acceleration term, and
    # stages 12 and 13 have c = 1
    for row, c in zip(DOP853_A, DOP853_C):
        assert float(sum(row)) == float(c)
    assert not any(DOP853_AA[1]) and DOP853_C[11] == DOP853_C[12] == 1
    # the sums whose velocity terms the Nystrom form leaves out: zero in the
    # rational tableau, and below 1e-25 in its decimals
    for ws in (DOP853_E5, DOP853_E3, *DOP853_D):
        assert abs(sum(ws)) < ZERO


def _kepler(t, ecc):
    """The state (x, y, vx, vy) at time t on the ellipse of eccentricity
    ecc and semi-major axis 2 of the Kepler field x'' = -8x/r^3 (mean motion
    1), at periapsis on the positive x axis at t = 0: Kepler's equation
    E - ecc*sin(E) = t solved by Newton's method."""
    big_e = t
    for _ in range(50):
        big_e -= ((big_e - ecc * math.sin(big_e) - t)
                  / (1.0 - ecc * math.cos(big_e)))
    b = 2.0 * math.sqrt(1.0 - ecc * ecc)
    rate = 1.0 / (1.0 - ecc * math.cos(big_e))
    return (2.0 * (math.cos(big_e) - ecc), b * math.sin(big_e),
            -2.0 * math.sin(big_e) * rate, b * math.cos(big_e) * rate)


def _kepler_acceleration(x, y):
    r3 = math.hypot(x, y) ** 3
    return -8.0 * x / r3, -8.0 * y / r3


def test_the_pair_has_its_orders_on_the_kepler_field():
    # one trial step from the same state on an ellipse of eccentricity 0.3,
    # against the closed form: each halving of h shrinks the local error
    # of the eighth-order state by about 2^9, and the E5 and E3 estimates
    # by about 2^6 and 2^4, their local orders; the combined norm,
    # r5^2 / (0.1 r3) for small h, by about 2^8.  The local error reaches
    # rounding (4e-16) below h = 0.2, so it is read down to there.  The
    # kernel integrates the planar field alone, so the step is the tableau
    # loop's, which test_unrolled_step_matches_the_tableau_loop ties to the
    # kernel bit for bit: state, stages, estimates and norm
    t0, ecc = 3.0, 0.3
    y = _kepler(t0, ecc)
    rows = []
    for h in (0.8, 0.4, 0.2, 0.1, 0.05):
        y8, ks = nystrom_reference_step(_kepler_acceleration, y, h,
                                        _kepler_acceleration(y[0], y[1]))
        ks.append(_kepler_acceleration(y8[0], y8[1]))
        ratio = nystrom_reference_error_ratio(y, y8, ks, h, (1.0,) * 4, 0.0)
        e5, e3 = nystrom_reference_errors(ks, h)
        local = max(abs(a - b) for a, b in zip(y8, _kepler(t0 + h, ecc)))
        rows.append((h, local, max(map(abs, e5)), max(map(abs, e3)), ratio))
    for (h, *big), (_, *small) in zip(rows, rows[1:]):
        orders = [math.log2(a / b) for a, b in zip(big, small)]
        want = [9.0, 6.0, 4.0, 8.0] if h > 0.2 else [None, 6.0, 4.0, 8.0]
        for got, order in zip(orders, want):
            assert order is None or abs(got - order) <= 0.25, (h, orders)


def _wrap_hypot(monkeypatch, radius):
    """Make the kernel's field read radius(x, y, calls, real) for r, calls
    being the number of evaluations so far, this one included, and real
    math.hypot; the calls are counted in the list returned."""
    calls = []

    def wrapped(x, y):
        calls.append(None)
        return radius(x, y, len(calls), math.hypot)

    monkeypatch.setattr(integrator, "hypot", wrapped)
    return calls


@pytest.mark.parametrize("radius", [math.nan, 1e-105], ids=["nan", "inf"])
def test_non_finite_steps_are_rejected_until_underflow(monkeypatch, radius):
    # a field that turns non-finite past x = 0.5: there the kernel's hypot
    # gives nan (nan accelerations) or a radius whose cube is subnormal
    # (infinite ones), so every trial step that reaches there is rejected,
    # the step size shrinks until it underflows, and no non-finite state is
    # ever sampled
    _wrap_hypot(monkeypatch,
                lambda x, y, n, real: radius if x > 0.5 else real(x, y))
    sampled = []
    real_energy = dyn.energy_vec

    def energy(v):
        sampled.append(v)
        return real_energy(v)

    monkeypatch.setattr(dyn, "energy_vec", energy)
    s0 = State(t=0.0, x=0.0, y=1.0, vx=10.0, vy=0.0)
    run = _Run(s0, IntegratorSettings(), (), (), ())
    with pytest.raises(StepUnderflow) as exc:
        run.advance()
    assert len(sampled) > 1
    assert all(math.isfinite(c) for v in sampled for c in v)
    # the underflow reports the run's last accepted sample, just short of
    # x = 0.5
    t, y = run.samples[-1]
    assert 0.49 < y[0] < 0.5
    assert exc.value.t == t
    assert exc.value.state == _vec_to_state(t, y)
    # stopped short of x = 0.5 (x is about 10 t), the run ends at its time
    # limit, and its TIME_LIMIT event has its last sample's time and state
    run = _Run(s0, IntegratorSettings(t_limit=0.025), (), (), ())
    assert run.advance().termination is EventKind.TIME_LIMIT
    t, y = run.samples[-1]
    assert t == pytest.approx(0.025, abs=1e-12)
    assert y[0] < 0.5
    assert len(run.samples) > 2
    assert run.events == [(EventKind.TIME_LIMIT, t, y)]
    assert run.termination is EventKind.TIME_LIMIT


# For each component, a state and step at which a stage made non-finite in
# that component alone keeps the other finite, as the planar field does:
# off the y axis (x near 0.3, y near 0.1) a radius whose cube is 1e-308
# makes -8x/r^3 overflow, not (1 - 8y^3/r^3)/y^2 (about -8e307); on it
# (x = 0, so ax is 0 at every stage) a radius whose cube is subnormal makes
# ay alone overflow.  A nan radius makes both components nan.
_ONE_COMPONENT = {
    0: ((0.3, 0.1, -0.2, 0.5), 0.001, 1e-308 ** (1.0 / 3.0)),
    1: ((0.0, 1.0, 0.0, 0.5), 0.01, 1e-105),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("component", [0, 1], ids=["ax", "ay"])
@pytest.mark.parametrize("stage", range(13))
def test_a_non_finite_stage_gives_an_infinite_error_norm(monkeypatch, stage,
                                                         component, bad):
    # the error norm's finiteness test is made of comparisons, which nan
    # fails silently: a stage that is non-finite in one component, at
    # exactly one of the thirteen stages, still rejects the trial, and the
    # same step without the bad value does not.  Stage 0 is k1, passed in;
    # stages 1 to 12 are the kernel's own evaluations (stage 12 is the FSAL
    # stage, which no error estimate reads), reached through its hypot.
    # The rejection is ratio inf, or DomainError where the stage carries a
    # later stage's position off the half plane, which the run reads as it
    # reads ratio inf
    y, h, tiny = _ONE_COMPONENT[component]
    # the radius whose cube has the sign that gives `bad`
    radius = math.nan if math.isnan(bad) else math.copysign(tiny, -bad)
    for bad_stage in (stage, None):
        k1 = list(dyn.acceleration(y[0], y[1]))
        if bad_stage == 0:
            k1[component] = bad
        calls = _wrap_hypot(monkeypatch, lambda x, q, n, real: (
            radius if n == bad_stage else real(x, q)))
        try:
            _, ks, ratio = _trial(y, h, *k1, 1e-12, 1e-12, 1e-10)
        except DomainError:
            # raised after the bad stage, by a stage it carried off
            assert bad_stage is not None and len(calls) >= bad_stage
            continue
        assert len(calls) == 12
        if bad_stage is None:
            assert ratio < math.inf
            continue
        assert ratio == math.inf
        got = ks[2 * stage + component]
        assert got == bad or math.isnan(got) and math.isnan(bad)
        if not math.isnan(bad):
            assert math.isfinite(ks[2 * stage + 1 - component])


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
       y=st.floats(-1.0, 10.0))
def test_magical_line_residual_of_a_state(x, y):
    # the integrator's one-call residual is sqrt(3)*y - abs(x) bit for bit,
    # and raises DomainError off the half plane (y <= 0)
    f = integrator._RESIDUALS[EventKind.MAGICAL_LINE_CROSS]
    if y <= 0.0:
        with pytest.raises(DomainError):
            f((x, y, 1.0, 1.0))
        return
    want = (math.sqrt(3.0) * y - abs(x)).hex()
    assert f((x, y, 1.0, 1.0)).hex() == want


def test_trial_steps_off_the_half_plane_are_rejected(monkeypatch, rng):
    # fast states near the collision line y = 0: the first trial step
    # (1e-3) takes a stage of many of them below y = 0, which the field
    # rejects with DomainError; the step is rejected and shrunk instead,
    # and every run ends at the time limit or at collision proximity
    # (without that rejection, 27 of these 100 raise DomainError).  Every
    # state a trial steps from, and every sample, has y > 0, as _trial,
    # which reads the start state's y as |y|, needs: a run steps from its
    # launch, which _Run checks, and from accepted step ends, whose y the
    # FSAL stage has checked
    starts = []
    real = integrator._trial

    def trial(y, *args):
        starts.append(y[1])
        return real(y, *args)

    monkeypatch.setattr(integrator, "_trial", trial)
    ends = set()
    for _ in range(100):
        s0 = State(t=0.0, x=rng.uniform(-1.0, 1.0),
                   y=10.0 ** rng.uniform(-4.0, 0.0),
                   vx=rng.uniform(-1.0, 1.0),
                   vy=-(10.0 ** rng.uniform(-1.0, 2.0)))
        traj = integrate(s0, IntegratorSettings(t_limit=0.05))
        ends.add(traj.termination)
        assert all(s.y > 0.0 for s in traj.samples)
    assert ends <= {EventKind.TIME_LIMIT, EventKind.COLLISION_PROXIMITY}
    assert len(starts) > 100 and min(starts) > 0.0


@pytest.mark.parametrize("y", [0.0, -0.0, -1e-300, -1.0])
def test_run_rejects_a_launch_off_the_half_plane(y):
    s0 = State(t=0.0, x=0.5, y=y, vx=0.0, vy=0.0)
    with pytest.raises(DomainError, match="initial state must have y > 0"):
        _Run(s0, IntegratorSettings(), (), (), ())


def test_launch_whose_field_underflows_is_rejected():
    # a bare start state reads its knobs at a = 1, so its time unit is in
    # range; at y = 1e-200 the launch's own field evaluation, whose y^2
    # underflows to 0, rejects it
    with pytest.raises(DomainError, match="out of the floating-point range"):
        integrate(State(t=0.0, x=1.0, y=1e-200, vx=0.0, vy=0.0))


@pytest.mark.parametrize("make", [
    lambda: shooting._shoot(-1.0, 1.398, IntegratorSettings())[0],
    lambda: shooting._rest_run(-1.0, 0.3, 3, IntegratorSettings()),
    lambda: analysis.zero_energy_run(1.0),
], ids=["shoot", "rest_run", "zero_energy_run"])
def test_a_dropped_run_is_freed_at_once(make):
    # a run holds no reference to itself, through its step loop or
    # otherwise, so it is freed as soon as its last reference goes, with
    # the cycle collector off; a run in a cycle would live until a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        run = make()
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_trial_of_a_vanishing_step_has_no_error():
    # h = 5e-324, the smallest float: every error term underflows to 0, so
    # the error norm is 0, not the nan of 0 / 0
    y = (0.0, 1.0, 0.0, 0.0)
    y8, _, ratio = _trial(y, 5e-324, *dyn.acceleration(0.0, 1.0), 1e-12,
                          1e-12, 1e-10)
    assert ratio == 0.0
    assert y8[:3] == y[:3] and abs(y8[3]) <= 1e-322


def test_event_whose_residual_is_zero_at_a_step_end(monkeypatch):
    # a residual that falls from 1 to exactly 0 once x reaches 0.01: the
    # event is the end of the step that gets there, taken as it is, with
    # nothing located, and as a stop event it stops the run there
    monkeypatch.setitem(integrator._RESIDUALS, EventKind.X_VELOCITY_ZERO,
                        lambda y: 1.0 if y[0] < 0.01 else 0.0)

    def locate(*args):
        raise AssertionError("an event at a step end is not located")

    monkeypatch.setattr(integrator, "_locate", locate)
    s0 = State(t=0.0, x=0.0, y=1.0, vx=1.0, vy=0.0)
    run = _Run(s0, IntegratorSettings(), (), (EventKind.X_VELOCITY_ZERO,), ())
    assert run.advance().termination is EventKind.X_VELOCITY_ZERO
    [(kind, t, y)] = run.events
    assert run.samples[-1] == (t, y)
    assert run.samples[-2][1][0] < 0.01 <= y[0]
    # and it is a step end of the same launch's run that watches nothing
    free = _Run(s0, IntegratorSettings(t_limit=2.0 * t), (), (), ()).advance()
    assert (t, y) in free.samples


def _vec(s):
    return (s.x, s.y, s.vx, s.vy)


def _hexes(v):
    return tuple(c.hex() for c in v)


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_requested_samples_agree_with_an_eighth_order_step(E, u):
    # 10 equally spaced requests inside every step of a free run, each read
    # from the step's interpolant, against one eighth-order step of the
    # tableau loop from the step's start to the same time, relative to the
    # step's largest component; requests do not change the steps
    st_ = IntegratorSettings()
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    stop = {EventKind.X_VELOCITY_ZERO}
    ends = integrate(s0, st_, stop=stop).samples
    spans = [(a, [a.t + (b.t - a.t) * j / 11 for j in range(1, 11)])
             for a, b in zip(ends, ends[1:])]
    asked = integrate(s0, st_, stop=stop,
                      sample_times=[t for _, ts in spans for t in ts])
    by_t = {s.t: s for s in asked.samples}
    for start, times in spans:
        k1 = dyn.acceleration(start.x, start.y)
        for t in times:
            want = nystrom_reference_step(dyn.acceleration, _vec(start),
                                          t - start.t, k1)[0]
            err = max(abs(a - b) for a, b in zip(_vec(by_t[t]), want))
            assert err <= 100 * st_.rel_tol * max(map(abs, want))


def _first_order_rest(t, y):
    """The x-rest (t, y) moved by one first-order step of dt = -vx/ax, the
    field a = (ax, ay) read at y by `dynamics.acceleration`: q + (v +
    a*dt/2)*dt and v + a*dt, grouped as `integrator._at_rest` groups them,
    so that the two agree bit for bit."""
    ax, ay = dyn.acceleration(y[0], y[1])
    dt = -y[2] / ax
    return t + dt, (y[0] + (y[2] + 0.5 * dt * ax) * dt,
                    y[1] + (y[3] + 0.5 * dt * ay) * dt,
                    y[2] + ax * dt, y[3] + ay * dt)


def _assert_event_states_are_interpolated(s0, **kw):
    """Integrate from s0 and check each event state against its step.  An
    event's located state is the step's interpolant at the located time,
    read at t_ev - t0 from the step's start t0, bit for bit; an x-rest's
    state is that state moved by one first-order step to vx = 0
    (`_first_order_rest`), also bit for bit, and any other event's is the
    located state.  Each agrees with one eighth-order step of the tableau
    loop from the step's start to the event time, relative to the largest
    component.  Returns the trajectory."""
    built, moved = {}, {}
    real, real_rest = integrator._dense_output, integrator._at_rest

    def recording(y, y8, ks, h):
        built[_hexes(y)] = (y, y8, ks, h)
        return real(y, y8, ks, h)

    def recording_rest(t, y):
        out = real_rest(t, y)
        moved[_hexes((out[0], *out[1]))] = (t, y)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_dense_output", recording)
        mp.setattr(integrator, "_at_rest", recording_rest)
        traj = integrate(s0, **kw)
    rel_tol = IntegratorSettings().rel_tol
    assert traj.events
    for ev in traj.events:
        got = _vec(ev.state)
        t_loc, y_loc = ev.t, got
        if ev.kind is EventKind.X_VELOCITY_ZERO:
            t_loc, y_loc = moved.pop(_hexes((ev.t, *got)))
            rest = _first_order_rest(t_loc, y_loc)
            assert _hexes((rest[0], *rest[1])) == _hexes((ev.t, *got))
        # the step's start: the last sample before the event, which is not
        # the stop's own sample at ev.t
        start = [s for s in traj.samples if s.t < min(t_loc, ev.t)][-1]
        y = _vec(start)
        at = real(*built[_hexes(y)])
        assert _hexes(at(t_loc - start.t)) == _hexes(y_loc)
        want = nystrom_reference_step(dyn.acceleration, y, ev.t - start.t,
                                      dyn.acceleration(y[0], y[1]))[0]
        err = max(abs(a - b) for a, b in zip(got, want))
        assert err <= 100 * rel_tol * max(map(abs, want))
    return traj


@settings(max_examples=10, deadline=None)
@given(**launches)
@example(E=-1.0, u=0.5)  # a magical-line crossing after the rest, same step
def test_event_state_is_its_steps_interpolant(E, u):
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    traj = _assert_event_states_are_interpolated(
        s0, watch={EventKind.MAGICAL_LINE_CROSS},
        stop={EventKind.X_VELOCITY_ZERO})
    assert traj.termination is EventKind.X_VELOCITY_ZERO


@settings(max_examples=20, deadline=None)
@given(**launches)
def test_a_rest_is_moved_to_vx_zero(E, u):
    # the first three x-rests of a free run: each reported state's |vx| is
    # far below its located state's, which lies up to event_tol/2 in time
    # from the rest (the first-order step leaves a second-order residue,
    # and rounding)
    located = []
    real = integrator._at_rest

    def recording(t, y):
        located.append(y[2])
        return real(t, y)

    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_at_rest", recording)
        traj = integrate(s0, IntegratorSettings(t_limit=8.0 / (-E) ** 1.5),
                         watch={EventKind.X_VELOCITY_ZERO})
    rests = [ev.state.vx for ev in traj.events
             if ev.kind is EventKind.X_VELOCITY_ZERO][:3]
    assert rests and len(located) >= len(rests)
    for vx, vx_located in zip(rests, located):
        assert abs(vx) <= 1e-9 * abs(vx_located)


def test_collision_state_is_its_steps_interpolant():
    # the straight fall onto the nucleus, stopped at collision proximity
    traj = _assert_event_states_are_interpolated(
        State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0))
    assert traj.termination is EventKind.COLLISION_PROXIMITY


def _record_locations(mp):
    """Record each event `integrator._locate` locates, with what it was
    given: (residual, interpolant, t0, h, r0, event_tol, located time)."""
    located = []
    real = integrator._locate

    def recording(f, at, t0, h, r0, r1, event_tol):
        t_ev, y_ev = real(f, at, t0, h, r0, r1, event_tol)
        located.append((f, at, t0, h, r0, event_tol, t_ev))
        return t_ev, y_ev

    mp.setattr(integrator, "_locate", recording)
    return located


def _bisection_oracle(g, h, r0):
    """The sign change of g on [0, h], g(0) having the sign of r0: 200
    plain halvings, which leave [lo, hi] at adjacent floats, lo on r0's
    side and hi on the other or at a zero."""
    lo, hi = 0.0, h
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = g(mid)
        if (r > 0.0) == (r0 > 0.0) and r != 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _assert_located_as_bisection_locates(located):
    # every located time lies in (t0, t] and within event_tol / 2 of the
    # sign change that bisection of the same residual on the same step's
    # interpolant finds, to the rounding of t0 + tau and Brent-Dekker's
    # floor of 4 eps |tau| on the bracket's width (8 ulps of t in all)
    assert located
    for f, at, t0, h, r0, event_tol, t_ev in located:
        t = t0 + h
        assert t0 < t_ev <= t
        tau = _bisection_oracle(lambda tau: f(at(tau)), h, r0)
        assert abs(t_ev - (t0 + tau)) <= event_tol / 2 + 8 * math.ulp(t)


@settings(max_examples=20, deadline=None)
@given(**launches)
@example(E=-1.0, u=0.5)  # a magical-line crossing after the rest, same step
def test_events_are_located_as_bisection_locates_them(E, u):
    with pytest.MonkeyPatch.context() as mp:
        located = _record_locations(mp)
        s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
        traj = integrate(s0, watch={EventKind.MAGICAL_LINE_CROSS},
                         stop={EventKind.X_VELOCITY_ZERO})
    assert traj.termination is EventKind.X_VELOCITY_ZERO
    _assert_located_as_bisection_locates(located)


def test_collision_is_located_as_bisection_locates_it():
    # the straight fall onto the nucleus, stopped at collision proximity
    with pytest.MonkeyPatch.context() as mp:
        located = _record_locations(mp)
        traj = integrate(State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0))
    assert traj.termination is EventKind.COLLISION_PROXIMITY
    assert len(located) == 1
    _assert_located_as_bisection_locates(located)


def test_event_state_off_the_half_plane_raises():
    # no stage evaluates a located state, so _locate checks y > 0 itself:
    # on this interpolant vx changes sign at tau = 0.5, where y is -0.25
    def at(tau):
        return (0.0, 0.25 - tau, 0.5 - tau, 0.0)

    with pytest.raises(DomainError, match="y must be positive"):
        integrator._locate(lambda y: y[2], at, 0.0, 1.0, 0.5, -0.5, 1e-12)


def _state_bits(s):
    return _hexes((s.t, *_vec(s)))


def _event_bits(ev):
    return ev.kind, ev.t.hex(), _state_bits(ev.state)


@settings(max_examples=10, deadline=None)
@given(**launches, fractions=st.lists(
    st.floats(min_value=0.0, max_value=1.2, exclude_min=True), max_size=30
))
def test_sample_times_do_not_change_the_steps(E, u, fractions):
    # requested times are read from the interpolant of the step holding
    # them: every other sample, every event and the drift, which covers
    # the run's own states, are those of the same run without requests,
    # bit for bit
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    kw = dict(watch={EventKind.MAGICAL_LINE_CROSS},
              stop={EventKind.X_VELOCITY_ZERO})
    free = integrate(s0, **kw)
    times = {f * free.samples[-1].t for f in fractions}
    asked = integrate(s0, sample_times=sorted(times), **kw)

    def steps(traj):
        return [_state_bits(s) for s in traj.samples if s.t not in times]

    assert steps(asked) == steps(free)
    assert ([_event_bits(ev) for ev in asked.events]
            == [_event_bits(ev) for ev in free.events])
    assert asked.max_energy_drift == free.max_energy_drift


@settings(max_examples=10, deadline=None)
@given(**launches, fractions=st.lists(
    st.floats(min_value=0.0, max_value=1.2, exclude_min=True), max_size=30
), with_step_ends=st.booleans())
def test_each_requested_time_is_sampled_once(E, u, fractions, with_step_ends):
    # a run to the time limit: requests up to it (the limit itself among
    # them, and step ends if drawn) each give exactly one sample at exactly
    # that time; later ones give none
    t_limit = 1.0 / (-E) ** 1.5
    st_ = IntegratorSettings(t_limit=t_limit)
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    times = {f * t_limit for f in fractions} | {t_limit}
    if with_step_ends:
        times |= {s.t for s in integrate(s0, st_).samples[1::5]}
    traj = integrate(s0, st_, sample_times=sorted(times))
    assert traj.termination is EventKind.TIME_LIMIT
    ts = [s.t for s in traj.samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    for t in times:
        assert ts.count(t) == (1 if t <= t_limit else 0)


def test_request_at_the_time_limit_is_sampled_when_the_run_stops_short():
    # a step that ends within H_MIN of the time limit ends the run at it:
    # its end sample, the step's eighth-order state, is the sample at
    # exactly t_limit, and answers a request there with no sample of its own.
    # `last` is the latest step end up to t = 0.5 of a run to a later limit
    # that the run reached at the controller's first trial from the step
    # before, so a run to last.t + H_MIN / 2 makes the same trials up to it.
    # After a rejected trial it would not: the shorter limit caps the first
    # trial from there, and the step ends at the limit by another path
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
    starts = []
    real = integrator._trial

    def recording(y, *args):
        starts.append(_hexes(y))
        return real(y, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_trial", recording)
        later = integrate(s0, IntegratorSettings(t_limit=1.0)).samples
    last = [s for s, prev in zip(later[1:], later)
            if s.t <= 0.5 and starts.count(_hexes(_vec(prev))) == 1][-1]
    t_limit = last.t + 0.5 * integrator.H_MIN
    assert t_limit != last.t
    free = integrate(s0, IntegratorSettings(t_limit=t_limit))
    traj = integrate(s0, IntegratorSettings(t_limit=t_limit),
                     sample_times=[t_limit])
    assert ([_state_bits(s) for s in traj.samples]
            == [_state_bits(s) for s in free.samples])
    asked = traj.samples[-1]
    assert asked.t == traj.events[-1].t == t_limit
    assert traj.termination is EventKind.TIME_LIMIT
    assert _hexes(_vec(asked)) == _hexes(_vec(last))
    want = rk4_fixed(*_vec(s0), t_limit, t_limit / math.ceil(t_limit / 1e-4))
    assert max(abs(a - b) for a, b in zip(_vec(asked), want)) <= 1e-8


def test_requested_samples_agree_with_fixed_step_rk4():
    # the fixed-step RK4 of conftest, chained from request to request with
    # steps of at most 1e-4, against every requested sample
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=0.5))
    times = [0.0137 * i for i in range(1, 73)] + [1.0]
    traj = integrate(s0, IntegratorSettings(t_limit=1.0), sample_times=times)
    by_t = {s.t: s for s in traj.samples}
    oracle, t = _vec(s0), 0.0
    for t_req in times:
        n = math.ceil((t_req - t) / 1e-4)
        oracle = rk4_fixed(*oracle, t_req - t, (t_req - t) / n)
        t = t_req
        err = max(abs(a - b) for a, b in zip(_vec(by_t[t_req]), oracle))
        assert err <= 1e-8


def test_resumed_run_drops_each_stop_from_its_drift(monkeypatch):
    # the energy is raised by |x| at x-rest states alone, so the run cut at
    # its k-th rest has the drift of that rest; the resumed run's arc must
    # not keep the larger drift of its 2nd rest (|x| = 2.08 there, 0.12 at
    # the 3rd)
    real = dyn.energy_vec

    def energy(v):
        return real(v) + (abs(v[0]) if abs(v[2]) < 1e-6 else 0.0)

    monkeypatch.setattr(dyn, "energy_vec", energy)
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=0.3))
    settings_ = IntegratorSettings(t_limit=8.0)
    run = _Run(s0, settings_, (), (EventKind.X_VELOCITY_ZERO,), ())
    for cut in rest_cuts(s0, settings_)[:3]:
        assert cut.max_energy_drift > 0.1
        assert run.advance().drift == cut.max_energy_drift


def test_the_time_limit_ends_the_run():
    # resumed after a stop event, a run goes on to its next stop; resumed
    # after its time limit, it ends, with one TimeLimit event.  The rest at
    # h = 1.398 comes at t = 1.06 and the next after t = 3
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
    run = _Run(s0, IntegratorSettings(t_limit=3.0), (),
               (EventKind.X_VELOCITY_ZERO,), (), -1.0)
    assert run.advance().termination is EventKind.X_VELOCITY_ZERO
    assert run.advance().termination is EventKind.TIME_LIMIT
    with pytest.raises(StopIteration):
        run.advance()
    assert [kind for kind, _, _ in run.events] == [
        EventKind.X_VELOCITY_ZERO, EventKind.TIME_LIMIT]
    assert run.termination is EventKind.TIME_LIMIT
    assert run.samples[-1][0] == 3.0


@pytest.mark.parametrize("s0, settings_, stops", [
    # two rests before t = 4, the third after it
    (dyn.initial_state(ProblemSpec(E=-1.0, h=0.3)),
     IntegratorSettings(t_limit=4.0),
     [EventKind.X_VELOCITY_ZERO] * 2 + [EventKind.TIME_LIMIT]),
    # a fall straight onto the nucleus, with vx = 0 throughout
    (State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0), IntegratorSettings(),
     [EventKind.COLLISION_PROXIMITY]),
], ids=["time_limit", "collision"])
def test_rest_runs_end_at_the_stop_that_ends_the_run(s0, settings_, stops):
    # a run that stops at x-rests is advanced to each of them, then to the
    # stop that ends it, where the search leaves it
    run = _Run(s0, settings_, (), (EventKind.X_VELOCITY_ZERO,), ())
    assert [run.advance().termination for _ in stops] == stops


def _find_orbit_command(kind):
    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(["find-orbit", "--energy", "-1.0", "--kind", kind,
                       "--out", os.path.join(out, kind)])
    assert rc == 0


def _classify(bracket):
    return shooting._classify(-1.0, bracket, IntegratorSettings())


def _rejected_bracket(bracket):
    assert _classify(bracket)[:2] == (None, ())


# Field evaluations at E = -1 with dense output (events and requested
# samples read from the step's interpolant).  They are deterministic, so
# each row pins its count exactly: more is lost work, and fewer means the
# row is stale or the count no longer sees the field (a kernel that bound
# `hypot` at import would count its launches alone).
@pytest.mark.parametrize("run, count", [
    (lambda: shooting.shoot(-1.0, 1.398), 272),
    (lambda: shooting.scan_alpha(-1.0, shooting.default_grid()), 15_836),
    (lambda: shooting.find_langmuir_orbit(-1.0), 1_490),
    # classification at the coarse stage's tolerance, the coarse stage and
    # the polish
    (lambda: shooting.find_brake_orbit(-1.0), 10_560),
    # one run per bracket end, to its 3rd rest at the given settings:
    # 1,861 + 1,585
    (lambda: _classify(shooting.DEFAULT_BRAKE_BRACKET), 3_446),
    # a bracket no rest count separates: each end runs once, to 8 rests
    (lambda: _rejected_bracket((0.3, 0.3)), 11_394),
    # its step capped only by its span of 50; the interpolants of its early
    # requests for inverted_concavity's differences cost 45 of these
    (lambda: analysis.check_zero_energy_monotone(analysis.zero_energy_run()),
     1_321),
    # the 50-launch default grid, launched as scan_alpha launches it
    (lambda: analysis.check_magical_prefix(analysis.grid_runs()), 15_836),
    # the whole suite: the grid checks reduce that one scan, and
    # zero_energy_monotone and inverted_concavity the zero-energy run
    (lambda: analysis.run_all_checks(), 18_157),
    # the run `simulate` makes, which watches every kind it can emit
    (lambda: integrate(
        dyn.initial_state(ProblemSpec(E=-1.0, h=1.398)),
        IntegratorSettings(t_limit=8.0),
        watch={EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS},
    ), 2_141),
    (lambda: _find_orbit_command("langmuir"), 1_830),
    (lambda: _find_orbit_command("brake"), 12_868),
    # far from E = -1 the searches read their knobs in E = -1 units, so
    # they do E = -1's work, up to the rounding of the rescaled knobs and
    # heights (here none: all three take the same count)
    (lambda: shooting.find_langmuir_orbit(-1000.0), 1_490),
    (lambda: shooting.find_langmuir_orbit(-0.001), 1_490),
    (lambda: shooting.find_brake_orbit(-1000.0), 10_560),
    (lambda: shooting.find_brake_orbit(-0.001), 10_560),
], ids=["shoot", "scan_alpha", "find_langmuir_orbit", "find_brake_orbit",
        "classify_reflection_count", "classify_rejected_bracket",
        "check_zero_energy_monotone", "check_magical_prefix",
        "run_all_checks", "simulate",
        "find_orbit_langmuir_command", "find_orbit_brake_command",
        "find_langmuir_orbit_e-1000", "find_langmuir_orbit_e-0.001",
        "find_brake_orbit_e-1000", "find_brake_orbit_e-0.001"])
def test_field_evaluations_do_not_grow(field_calls, run, count):
    run()
    assert field_calls[0] == count


@pytest.mark.parametrize("run", [
    lambda: shooting.shoot(-1.0, 1.398),
    lambda: shooting.scan_alpha(-1.0, shooting.default_grid()),
    lambda: shooting.find_brake_orbit(-1.0),
], ids=["shoot", "scan_alpha", "find_brake_orbit"])
def test_field_evaluations_follow_from_the_step_loop(field_calls, made_runs,
                                                     monkeypatch, run):
    # an outside count of what the step loop calls, against the field
    # evaluations observed where they happen: a trial step evaluates 12
    # stages (11 and the FSAL stage), an interpolant 3, a launch 1 (its
    # first stage, one per run made) and a located x-rest 1 (its
    # first-order step); a located event's state costs none.  A trial that
    # a stage off the half plane cuts short evaluates the stages before
    # that one, counted on the tableau loop, which gives the kernel's
    # stages bit for bit (test_unrolled_step_matches_the_tableau_loop):
    # stages 2 to 12 there, and the FSAL stage at its eighth-order position
    calls = {"_trial": 0, "cut": 0, "cut_stages": 0, "_dense_output": 0,
             "_at_rest": 0}

    def stages_before_the_half_plane(y, h, f1x, f1y, *_):
        n = [0]

        def accel(x, q):
            out = _ACCELERATION(x, q)
            n[0] += 1
            return out

        try:
            y8 = nystrom_reference_step(accel, y, h, (f1x, f1y))[0]
        except DomainError:
            return n[0]
        assert y8[1] <= 0.0  # the kernel raised at the FSAL stage
        return n[0]

    def trial(*args, _real=integrator._trial):
        try:
            out = _real(*args)
        except DomainError:
            calls["cut"] += 1
            calls["cut_stages"] += stages_before_the_half_plane(*args)
            raise
        calls["_trial"] += 1
        return out

    monkeypatch.setattr(integrator, "_trial", trial)
    for name in ("_dense_output", "_at_rest"):
        def count(*args, _name=name, _real=getattr(integrator, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(integrator, name, count)

    run()
    assert calls["_trial"] > 0
    assert field_calls[0] == (12 * calls["_trial"] + calls["cut_stages"]
                              + 3 * calls["_dense_output"]
                              + calls["_at_rest"] + len(made_runs))


def test_the_suite_builds_no_records(monkeypatch):
    # the checks reduce the runs themselves: the suite makes no State
    # through _vec_to_state, and it evaluates the energy only at each run's
    # launch, step ends and stop (50 grid runs and the zero-energy run), at
    # none of the zero-energy run's 1,095 requested samples.  Pinned exactly,
    # as the field evaluations are
    calls = {"_vec_to_state": 0, "energy_vec": 0}

    def counting(module, name):
        real = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, count)

    for module in (integrator, shooting):
        counting(module, "_vec_to_state")
    counting(dyn, "energy_vec")
    analysis.run_all_checks()
    assert calls == {"_vec_to_state": 0, "energy_vec": 1_320}


@pytest.fixture
def probes(monkeypatch):
    """Count the states read from step interpolants (event location probes
    and requested samples) by wrapping integrator._dense_output; the count
    is probes[0], and the count of interpolants built probes[1]."""
    calls = [0, 0]
    real = integrator._dense_output

    def counting_output(y, y8, ks, h):
        at = real(y, y8, ks, h)
        calls[1] += 1

        def counting(tau):
            calls[0] += 1
            return at(tau)

        return counting

    monkeypatch.setattr(integrator, "_dense_output", counting_output)
    return calls


# Interpolant reads at E = -1, pinned exactly as the field evaluations
# above.  None of these runs requests samples, so every read is a probe
# that locates an event or, one per located event, that event's state.
# The orbit searches' coarse steps are longer than their steps at the
# given settings, so locating an event on them takes a few more probes; a
# read costs no field evaluation.
@pytest.mark.parametrize("run, count", [
    (lambda: shooting.shoot(-1.0, 1.398), 10),
    (lambda: shooting.scan_alpha(-1.0, shooting.default_grid()), 501),
    (lambda: shooting.find_langmuir_orbit(-1.0), 50),
    (lambda: shooting.find_brake_orbit(-1.0), 178),
], ids=["shoot", "scan_alpha", "find_langmuir_orbit", "find_brake_orbit"])
def test_location_probes_do_not_grow(probes, run, count):
    run()
    assert probes[0] == count


def test_the_suite_makes_one_run_per_launch(made_runs):
    # the 50 default-grid launches and the zero-energy launch are each
    # integrated once: every check reduces one of those 51 runs
    analysis.run_all_checks()
    assert len(made_runs) == len(shooting.default_grid()) + 1 == 51


class TestInvertedChart:
    """The circle-inverted chart of conftest, stepped by its fixed-step RK4
    in steps of DTAU from the image of the E = 0 launch at height 1 to
    tau = 0.3: the independent oracle of the zero-energy checks, which the
    package reads off the planar run alone."""

    DTAU = 5e-5

    @classmethod
    def setup_class(cls):
        s0 = dyn.initial_state(ProblemSpec(E=0.0, h=1.0))
        v = invert_state(*_vec(s0))
        cls.states = [v]
        for _ in range(round(0.3 / cls.DTAU)):
            v = rk4_fixed(*v, cls.DTAU, cls.DTAU, inverted_acceleration)
            cls.states.append(v)

    def test_energy_level_held(self):
        assert max(abs(inverted_energy(*v)) for v in self.states) <= 1e-8

    def test_radius_shrinks(self):
        # the chart's origin is the image of escape to infinity
        for j, (x, y, vx, vy) in enumerate(self.states):
            if j * self.DTAU > 0.01:
                assert x * vx + y * vy < 0.0

    def test_radial_momentum_decreasing(self):
        prs = [polar(*v)[2] for v in self.states]
        assert all(b < a for a, b in zip(prs, prs[1:]))

    def test_concavity_by_finite_differences(self):
        pr = [polar(*v)[2] for v in self.states]
        for j in range(1, len(pr) - 1, 7):
            assert pr[j + 1] - pr[j - 1] < 0.0

    def test_nystrom_step_agrees_with_the_first_order_step(self):
        # as test_the_nystrom_step_agrees_with_the_first_order_step, on the
        # inverted field, in steps of 100 DTAU = 0.005 between the oracle's
        # states
        _assert_the_two_forms_agree(inverted_acceleration, [
            (j * self.DTAU, self.states[j])
            for j in range(0, len(self.states), 100)])

    def test_reproduces_the_mapped_planar_run(self):
        # at tau = 0.1, 0.2 and 0.3 the chart's state is the package's
        # planar sample at t(tau) = integral of rho^-4 dtau (Simpson's rule
        # over the oracle's states), mapped by invert_state.  The RK4's own
        # error at tau = 0.3, by Richardson extrapolation from twice the
        # step, is 2e-13 in position and 3.3e-11 in velocity, and the gaps
        # measured are 1.8e-13 and 2.8e-11; the tolerances, 1e-11 and 1e-9,
        # leave 50 and 30 times that for the package's own error at
        # rel_tol 1e-10 (the chart's velocity there is about 7)
        rho4 = [1.0 / (x * x + y * y) ** 2 for x, y, _, _ in self.states]
        t_at = [0.0]  # t at every even index
        for j in range(0, len(rho4) - 2, 2):
            t_at.append(t_at[-1] + self.DTAU / 3.0 * (
                rho4[j] + 4.0 * rho4[j + 1] + rho4[j + 2]))
        picks = [(round(tau / self.DTAU), t_at[round(tau / self.DTAU) // 2])
                 for tau in (0.1, 0.2, 0.3)]
        assert picks[-1][1] == pytest.approx(0.8031, abs=1e-4)
        s0 = dyn.initial_state(ProblemSpec(E=0.0, h=1.0))
        traj = integrate(s0, IntegratorSettings(t_limit=1.0),
                         sample_times=[t for _, t in picks])
        by_time = {s.t: s for s in traj.samples}
        for j, t in picks:
            got = invert_state(*_vec(by_time[t]))
            want = self.states[j]
            assert max(abs(a - b) for a, b in zip(got[:2], want[:2])) <= 1e-11
            assert max(abs(a - b) for a, b in zip(got[2:], want[2:])) <= 1e-9
