import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmuir_lab import analysis, cli, integrator, shooting
from langmuir_lab import dynamics as dyn
from langmuir_lab.dynamics import ProblemSpec, State
from langmuir_lab.errors import BadBracket, DomainError, StepUnderflow
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    _advance,
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
    first_order_reference_step,
    invert_state,
    inverted_acceleration,
    inverted_energy,
    launches,
    nystrom_reference_error_ratio,
    nystrom_reference_errors,
    nystrom_reference_step,
    polar,
    rest_cuts,
    rk4_fixed,
    trajectory_bits,
)


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
    """Count calls to dynamics.acceleration; the count is field_calls[0]."""
    calls = [0]
    real = dyn.acceleration

    def counting(x, y):
        calls[0] += 1
        return real(x, y)

    monkeypatch.setattr(dyn, "acceleration", counting)
    return calls


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "h_max", "t_limit"])
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
        ev = traj.first_event(EventKind.X_VELOCITY_ZERO)
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
        t1 = shoot_raw(-1.0, h).first_event(EventKind.X_VELOCITY_ZERO).t
        tighter = IntegratorSettings(rel_tol=5e-11)
        t2 = shoot_raw(-1.0, h, tighter).first_event(
            EventKind.X_VELOCITY_ZERO
        ).t
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
            mapped = dyn.scale_state(s, a)
            other = by_t[round(mapped.t, 9)]
            assert abs(other.x - mapped.x) <= 1e-6
            assert abs(other.y - mapped.y) <= 1e-6
            assert abs(other.vx - mapped.vx) <= 1e-6
            assert abs(other.vy - mapped.vy) <= 1e-6


class TestEvents:
    def test_x_rest_residual(self):
        traj = shoot_raw(-1.0, 1.0)
        ev = traj.first_event(EventKind.X_VELOCITY_ZERO)
        assert abs(ev.state.vx) <= 1e-10

    def test_magical_crossing_residual(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        traj = integrate(
            s0,
            IntegratorSettings(),
            stop={EventKind.MAGICAL_LINE_CROSS},
        )
        ev = traj.first_event(EventKind.MAGICAL_LINE_CROSS)
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
        # steps alone, and each located event costs the eleven stages of the
        # step that gives its state, plus the three stages of each
        # interpolant built for location alone (the run requests no sample)
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
        assert 0 < n_interpolants <= located
        assert (n_watched - field_calls[0]
                == 11 * located + 3 * n_interpolants)


def _first_order(accel):
    """The field of the state (x, y, vx, vy) whose acceleration is `accel`,
    in the first-order form (vx, vy, ax, ay) the first-order reference step
    takes."""

    def rhs(v):
        ax, ay = accel(v[0], v[1])
        return (v[2], v[3], ax, ay)

    return rhs


def _reference_trial(accel, y, h, k1, abs_q, abs_v, rel_tol):
    y8, ks = nystrom_reference_step(accel, y, h, k1)
    ks.append(accel(y8[0], y8[1]))
    return y8, ks, nystrom_reference_error_ratio(
        y, y8, ks, h, (abs_q, abs_q, abs_v, abs_v), rel_tol)


def _reference_advance(accel, y, h, k1):
    y8 = nystrom_reference_step(accel, y, h, k1)[0]
    dyn._check_upper(y8[1])
    return y8


def _trial_bits(trial, accel, y, h, a):
    """The eighth-order state, the thirteen stages and the error norm of
    one trial step at the default tolerances read in units of scale a (abs_tol
    times a for positions, over sqrt(a) for velocities), as float.hex
    strings (so signed zeros count), or the error it raised."""
    st_ = IntegratorSettings()
    try:
        y8, ks, ratio = trial(accel, y, h, accel(y[0], y[1]),
                              st_.abs_tol * a, st_.abs_tol / math.sqrt(a),
                              st_.rel_tol)
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)
    return ([v.hex() for v in y8] + [v.hex() for k in ks for v in k]
            + [ratio.hex()])


def _advance_bits(advance, accel, y, h):
    """The state of one event-locating step, as float.hex strings, or the
    error it raised."""
    try:
        return [v.hex() for v in advance(accel, y, h, accel(y[0], y[1]))]
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)


def _decades(lo, hi):
    """Floats of either sign whose magnitude is 10**e, e uniform on
    [lo, hi]."""
    return st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(lo, hi),
                     st.sampled_from([1.0, -1.0]))


@pytest.mark.parametrize("accel",
                         [dyn.acceleration, inverted_acceleration],
                         ids=["langmuir", "inverted"])
@settings(max_examples=300, deadline=None)
# uniform draws, and draws spread over decades: a stage position's last
# bits hold those of its acceleration sum only where h^2 * f is not small
# beside x + c*h*v, which uniform draws seldom give
@given(
    x=st.floats(min_value=-4.0, max_value=4.0) | _decades(-4.0, 0.6),
    y=(st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
       | _decades(-4.0, 0.6).map(abs)),
    vx=st.floats(min_value=-10.0, max_value=10.0) | _decades(-3.0, 1.0),
    vy=st.floats(min_value=-10.0, max_value=10.0) | _decades(-3.0, 1.0),
    h=(st.floats(min_value=1e-14, max_value=0.1)
       | _decades(-8.0, -1.0).map(abs)),
    a=st.sampled_from([1.0, 1e-3, 1e3]),
)
# signed zeros: a -0.0 position or velocity component
@example(x=-0.0, y=1.0, vx=-0.0, vy=1.0, h=0.1, a=1.0)
@example(x=0.0, y=2.0, vx=-0.0, vy=-0.0, h=0.1, a=1.0)
def test_unrolled_step_matches_the_tableau_loop(accel, x, y, vx, vy, h, a):
    # the kernel's trial step and the event-locating _advance against the
    # generic Nystrom loop over the exact products of the tableau, bit for
    # bit
    state = (x, y, vx, vy)
    assert (_trial_bits(_trial, accel, state, h, a)
            == _trial_bits(_reference_trial, accel, state, h, a))
    assert (_advance_bits(_advance, accel, state, h)
            == _advance_bits(_reference_advance, accel, state, h))


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
    # (weights of the tableau, on the kernel's stages) by about 2^6 and 2^4,
    # their local orders; the kernel's combined norm, r5^2 / (0.1 r3) for
    # small h, by about 2^8.  The local error reaches rounding (4e-16)
    # below h = 0.2, so it is read down to there
    t0, ecc = 3.0, 0.3
    y = _kepler(t0, ecc)
    k1 = _kepler_acceleration(y[0], y[1])
    rows = []
    for h in (0.8, 0.4, 0.2, 0.1, 0.05):
        y8, ks, ratio = _trial(_kepler_acceleration, y, h, k1, 1.0, 1.0, 0.0)
        e5, e3 = nystrom_reference_errors(ks, h)
        local = max(abs(a - b) for a, b in zip(y8, _kepler(t0 + h, ecc)))
        rows.append((h, local, max(map(abs, e5)), max(map(abs, e3)), ratio))
    for (h, *big), (_, *small) in zip(rows, rows[1:]):
        orders = [math.log2(a / b) for a, b in zip(big, small)]
        want = [9.0, 6.0, 4.0, 8.0] if h > 0.2 else [None, 6.0, 4.0, 8.0]
        for got, order in zip(orders, want):
            assert order is None or abs(got - order) <= 0.25, (h, orders)


@pytest.mark.parametrize("bad", [
    (math.nan, math.nan),
    (math.inf, -math.inf),
], ids=["nan", "inf"])
def test_non_finite_steps_are_rejected_until_underflow(bad):
    # a field that turns non-finite past x = 0.5: every trial step that
    # reaches there is rejected, the step size shrinks until it underflows,
    # and no non-finite state is ever sampled
    def accel(x, y):
        return bad if x > 0.5 else (0.0, 0.0)

    sampled = []

    def energy(v):
        sampled.append(v)
        return 1.0

    s0 = State(t=0.0, x=0.0, y=1.0, vx=1.0, vy=0.0)
    run = _Run(accel, energy, s0, IntegratorSettings(), (), (), ())
    with pytest.raises(StepUnderflow) as exc:
        next(run.run())
    assert len(sampled) > 1
    assert all(math.isfinite(c) for v in sampled for c in v)
    # the underflow reports the run's last accepted sample, just short of
    # x = 0.5 (the field is 0 there, so x = t)
    t, y = run.samples[-1]
    assert 0.49 < y[0] < 0.5
    assert exc.value.t == t
    assert exc.value.state == _vec_to_state(t, y)
    # stopped short of x = 0.5, the run ends at its time limit, and its
    # TIME_LIMIT event has its last sample's time and state
    run = _Run(accel, energy, s0, IntegratorSettings(t_limit=0.25), (), (),
               ())
    assert next(run.run()) is EventKind.TIME_LIMIT
    t, y = run.samples[-1]
    assert t == pytest.approx(0.25, abs=1e-12)
    assert len(run.samples) > 2
    assert run.events == [(EventKind.TIME_LIMIT, t, y)]
    assert run.termination is EventKind.TIME_LIMIT


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("component", [0, 1], ids=["ax", "ay"])
@pytest.mark.parametrize("stage", range(13))
def test_a_non_finite_stage_gives_an_infinite_error_norm(stage, component,
                                                         bad):
    # the error norm's finiteness test is made of comparisons, which nan
    # fails silently: a field that is non-finite in one component at
    # exactly one of the thirteen stages (stage 0 is k1, passed in; stage 12
    # is the FSAL stage, which no error estimate reads) still gives ratio
    # inf, and the same field without the bad value does not
    def accel(x, y):
        calls.append(None)
        a = [-x, -y]
        if len(calls) - 1 == bad_stage:
            a[component] = bad
        return tuple(a)

    y = (0.3, 1.0, -0.2, 0.5)
    for bad_stage, finite in ((stage, False), (None, True)):
        calls = []
        ratio = _trial(accel, y, 0.01, accel(y[0], y[1]), 1e-12, 1e-12,
                       1e-10)[2]
        assert len(calls) == 13
        assert (ratio < math.inf) is finite


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0]),
       y=st.floats(-1.0, 10.0))
def test_magical_line_residual_of_a_state(x, y):
    # the integrator's one-call residual is dynamics.magical_line_residual
    # bit for bit, and raises DomainError where it does (y <= 0)
    f = integrator._RESIDUALS[EventKind.MAGICAL_LINE_CROSS]
    try:
        want = dyn.magical_line_residual(x, y).hex()
    except DomainError:
        with pytest.raises(DomainError):
            f((x, y, 1.0, 1.0))
        return
    assert f((x, y, 1.0, 1.0)).hex() == want


def test_trial_steps_off_the_half_plane_are_rejected(rng):
    # fast states near the collision line y = 0: the first trial step
    # (1e-3) takes a stage of many of them below y = 0, which the field
    # rejects with DomainError; the step is rejected and shrunk instead,
    # and every run ends at the time limit or at collision proximity
    # (without that rejection, 27 of these 100 raise DomainError)
    ends = set()
    for _ in range(100):
        s0 = State(t=0.0, x=rng.uniform(-1.0, 1.0),
                   y=10.0 ** rng.uniform(-4.0, 0.0),
                   vx=rng.uniform(-1.0, 1.0),
                   vy=-(10.0 ** rng.uniform(-1.0, 2.0)))
        ends.add(integrate(s0, IntegratorSettings(t_limit=0.05)).termination)
    assert ends <= {EventKind.TIME_LIMIT, EventKind.COLLISION_PROXIMITY}


def _vec(s):
    return (s.x, s.y, s.vx, s.vy)


def _hexes(v):
    return tuple(c.hex() for c in v)


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_requested_samples_agree_with_an_eighth_order_step(E, u):
    # 10 equally spaced requests inside every step of a free run, each read
    # from the step's interpolant, against one eighth-order step from the
    # step's start to the same time, relative to the step's largest
    # component; requests do not change the steps
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
            want = _advance(dyn.acceleration, _vec(start), t - start.t, k1)
            err = max(abs(a - b) for a, b in zip(_vec(by_t[t]), want))
            assert err <= 100 * st_.rel_tol * max(map(abs, want))


@settings(max_examples=10, deadline=None)
@given(**launches)
@example(E=-1.0, u=0.5)  # a magical-line crossing after the rest, same step
def test_event_state_is_one_eighth_order_step(E, u):
    # each event state is the output of one _advance, from the start of its
    # step to the event time, and the Nystrom reference step reproduces it
    # bit for bit (events located past the stop event in the last step make
    # calls that no event keeps)
    calls = {}

    def recording(accel, y, h, k1):
        out = _advance(accel, y, h, k1)
        calls.setdefault(_hexes(out), []).append((y, h))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_advance", recording)
        s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
        traj = integrate(s0, watch={EventKind.MAGICAL_LINE_CROSS},
                         stop={EventKind.X_VELOCITY_ZERO})
    assert traj.termination is EventKind.X_VELOCITY_ZERO
    for ev in traj.events:
        [(y, tau)] = calls[_hexes(_vec(ev.state))]
        start = [s for s in traj.samples if s.t < ev.t][-1]
        assert _hexes(y) == _hexes(_vec(start))
        assert start.t + tau == ev.t
        ref = nystrom_reference_step(dyn.acceleration, y, tau,
                                     dyn.acceleration(y[0], y[1]))[0]
        assert _hexes(ref) == _hexes(_vec(ev.state))


def _record_locations(mp):
    """Record each event `integrator._locate` locates, with what it was
    given: (residual, interpolant, t0, h, r0, event_tol, located time)."""
    located = []
    real = integrator._locate

    def recording(accel, f, at, t0, y0, k1, h, r0, r1, event_tol):
        t_ev, y_ev = real(accel, f, at, t0, y0, k1, h, r0, r1, event_tol)
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
    # _advance skips the FSAL field evaluation that would have rejected a
    # state with y <= 0, so it checks that itself
    def falling(x, y):
        return (0.0, 0.0)

    with pytest.raises(DomainError):
        _advance(falling, (0.0, 0.5, 0.0, -1.0), 1.0, (0.0, 0.0))


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
    # them: every other sample and every event are those of the same run
    # without requests, bit for bit
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
    # a step that ends within H_MIN of the time limit ends the run there;
    # a request at the limit is read from that last step's interpolant
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
    last = integrate(s0, IntegratorSettings(t_limit=0.5)).samples[-2]
    t_limit = last.t + 0.5 * integrator.H_MIN
    assert t_limit != last.t
    traj = integrate(s0, IntegratorSettings(t_limit=t_limit),
                     sample_times=[t_limit])
    end, asked = traj.samples[-2:]
    assert _state_bits(end) == _state_bits(last)
    assert asked.t == t_limit
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
    rests = integrator._rest_arcs(s0, settings_)
    for cut in rest_cuts(s0, settings_)[:3]:
        assert cut.max_energy_drift > 0.1
        run = next(rests)
        assert run.drift == cut.max_energy_drift


@pytest.mark.parametrize("s0, settings_, stops", [
    # two rests before t = 4, the third after it
    (dyn.initial_state(ProblemSpec(E=-1.0, h=0.3)),
     IntegratorSettings(t_limit=4.0),
     [EventKind.X_VELOCITY_ZERO] * 2 + [EventKind.TIME_LIMIT]),
    # a fall straight onto the nucleus, with vx = 0 throughout
    (State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0), IntegratorSettings(),
     [EventKind.COLLISION_PROXIMITY]),
], ids=["time_limit", "collision"])
def test_rest_arcs_end_at_the_stop_that_ends_the_run(s0, settings_, stops):
    # the resumable run is yielded at each x-rest, then once at the stop
    # that ends it, after which it is never resumed
    rests = integrator._rest_arcs(s0, settings_)
    assert [run.termination for run in rests] == stops


def _find_orbit_command(kind):
    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(["find-orbit", "--energy", "-1.0", "--kind", kind,
                       "--out", os.path.join(out, kind)])
    assert rc == 0


def _rejected_bracket(bracket):
    with pytest.raises(BadBracket):
        shooting.classify_reflection_count(-1.0, bracket)


# Field evaluations at E = -1 with dense output (events and requested
# samples read from the step's interpolant).  They are deterministic, so
# each row pins its count exactly: more is lost work, and fewer means the
# row is stale or the count no longer sees the field (a kernel that bound
# `dynamics.acceleration` at import would count 0).
@pytest.mark.parametrize("run, count", [
    (lambda: shooting.shoot(-1.0, 1.398), 401),
    (lambda: shooting.scan_alpha(-1.0, shooting.default_grid()), 19_922),
    (lambda: shooting.find_langmuir_orbit(-1.0), 2_442),
    # classification at the coarse stage's tolerance, the coarse stage and
    # the polish
    (lambda: shooting.find_brake_orbit(-1.0), 11_213),
    # one run per bracket end, to its 3rd rest at the given settings:
    # 1,891 + 1,639
    (lambda: shooting.classify_reflection_count(-1.0), 3_530),
    # a bracket no rest count separates: each end runs once, to 8 rests
    (lambda: _rejected_bracket((0.3, 0.3)), 11_554),
    # its step capped only by its span of 50; the interpolants of its early
    # requests for inverted_concavity's differences cost 63 of these
    (lambda: analysis.check_zero_energy_monotone(analysis.zero_energy_run()),
     1_414),
    # the 50-launch default grid, as in scan_alpha
    (lambda: analysis.check_magical_prefix(analysis.grid_runs()), 22_181),
    # the whole suite: the grid checks reduce that one scan, and
    # zero_energy_monotone and inverted_concavity the zero-energy run
    (lambda: analysis.run_all_checks(), 24_595),
    # the run `simulate` makes, which watches every kind it can emit
    (lambda: integrate(
        dyn.initial_state(ProblemSpec(E=-1.0, h=1.398)),
        IntegratorSettings(t_limit=8.0),
        watch={EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS},
    ), 2_341),
    (lambda: _find_orbit_command("langmuir"), 2_875),
    (lambda: _find_orbit_command("brake"), 13_503),
    # far from E = -1 the searches read their knobs in E = -1 units, so
    # they do E = -1's work, up to the rounding of the rescaled knobs and
    # heights (at E = -0.001 it costs the brake search 12 evaluations)
    (lambda: shooting.find_langmuir_orbit(-1000.0), 2_442),
    (lambda: shooting.find_langmuir_orbit(-0.001), 2_442),
    (lambda: shooting.find_brake_orbit(-1000.0), 11_213),
    (lambda: shooting.find_brake_orbit(-0.001), 11_225),
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


@pytest.fixture
def probes(monkeypatch):
    """Count the states read from step interpolants (event location probes
    and requested samples) by wrapping integrator._dense_output; the count
    is probes[0], and the count of interpolants built probes[1]."""
    calls = [0, 0]
    real = integrator._dense_output

    def counting_output(accel, y, y8, ks, h):
        at = real(accel, y, y8, ks, h)
        calls[1] += 1

        def counting(tau):
            calls[0] += 1
            return at(tau)

        return counting

    monkeypatch.setattr(integrator, "_dense_output", counting_output)
    return calls


# Interpolant probes at E = -1, pinned exactly as the field evaluations
# above.  None of these runs requests samples, so every probe locates an
# event.  The orbit searches' coarse steps are longer than their steps at
# the given settings, so locating an event on them takes a few more probes;
# a probe costs no field evaluation.
@pytest.mark.parametrize("run, count", [
    (lambda: shooting.shoot(-1.0, 1.398), 8),
    (lambda: shooting.scan_alpha(-1.0, shooting.default_grid()), 403),
    (lambda: shooting.find_langmuir_orbit(-1.0), 41),
    (lambda: shooting.find_brake_orbit(-1.0), 152),
], ids=["shoot", "scan_alpha", "find_langmuir_orbit", "find_brake_orbit"])
def test_location_probes_do_not_grow(probes, run, count):
    run()
    assert probes[0] == count


def test_the_suite_makes_one_run_per_launch(monkeypatch):
    # the 50 default-grid launches and the zero-energy launch are each
    # integrated once: every check reduces one of those 51 runs
    runs = []

    class CountingRun(integrator._Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(integrator, "_Run", CountingRun)
    analysis.run_all_checks()
    assert len(runs) == len(shooting.default_grid()) + 1 == 51


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
