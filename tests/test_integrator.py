import math
import os
import tempfile
from dataclasses import replace

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
    _advance,
    _dp5_trial,
    _integrate_chart,
    _inverted_energy,
    _langmuir_energy,
    integrate,
    integrate_inverted,
)

from conftest import (
    dp5_reference_error_ratio,
    dp5_reference_step,
    launches,
    rk4_fixed,
)


def shoot_raw(E, h, settings=None, **kw):
    s0 = dyn.initial_state(ProblemSpec(E=E, h=h))
    return integrate(
        s0,
        settings or IntegratorSettings(),
        stop={EventKind.X_VELOCITY_ZERO: 1},
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
            stop={EventKind.MAGICAL_LINE_CROSS: 1},
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

    def test_brake_point_bisects_only_speed_minima(self, monkeypatch):
        # the brake residual is d(speed^2)/dt, and a brake point is a speed
        # minimum, where it rises through zero: a maximum (a fall through
        # zero) is never located
        starts = []
        real = integrator._bisect

        def recording(accel, f, at, t0, y0, k1, span, r_lo, event_tol):
            starts.append(r_lo)
            return real(accel, f, at, t0, y0, k1, span, r_lo, event_tol)

        monkeypatch.setattr(integrator, "_bisect", recording)
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
        traj = integrate(s0, IntegratorSettings(t_limit=8.0),
                         watch={EventKind.BRAKE_POINT})
        # no collision proximity event, so every bisection is a brake one
        assert traj.termination is EventKind.TIME_LIMIT
        assert starts
        assert all(r_lo < 0.0 for r_lo in starts)


class TestStopRule:
    def test_stops_at_the_nth_event(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.398))
        traj = integrate(s0, stop={EventKind.X_VELOCITY_ZERO: 3})
        assert traj.termination is EventKind.X_VELOCITY_ZERO
        rests = [e for e in traj.events if e.kind is EventKind.X_VELOCITY_ZERO]
        assert len(rests) == 3
        assert traj.samples[-1] == rests[2].state
        # the same launch run past its third rest, watching only
        free = integrate(
            s0,
            IntegratorSettings(t_limit=rests[2].t + 0.5),
            watch={EventKind.X_VELOCITY_ZERO},
        )
        assert [e.t for e in free.events[:3]] == [e.t for e in rests]

    @pytest.mark.parametrize(
        "h, first",
        [(1.0, EventKind.MAGICAL_LINE_CROSS), (3.0, EventKind.X_VELOCITY_ZERO)],
    )
    def test_first_of_two_stop_kinds_ends_the_run(self, h, first):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=h))
        kinds = (EventKind.MAGICAL_LINE_CROSS, EventKind.X_VELOCITY_ZERO)
        free = integrate(s0, watch=kinds, stop={EventKind.X_VELOCITY_ZERO: 1})
        assert free.events[0].kind is first
        traj = integrate(s0, stop={kind: 1 for kind in kinds})
        assert traj.termination is first
        assert traj.events == free.events[:1]
        assert traj.samples[-1] == free.events[0].state

    def test_collision_stops_at_its_first_event(self):
        s0 = State(t=0.0, x=0.0, y=2.0, vx=0.0, vy=0.0)
        traj = integrate(s0, stop={EventKind.COLLISION_PROXIMITY: 5})
        assert traj.termination is EventKind.COLLISION_PROXIMITY
        assert [e.kind for e in traj.events] == [EventKind.COLLISION_PROXIMITY]
        assert traj.samples[-1] == traj.events[0].state

    def test_rejects_stop_count_below_one(self):
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        with pytest.raises(DomainError):
            integrate(s0, stop={EventKind.X_VELOCITY_ZERO: 0})

    def test_watched_residual_is_evaluated_once_per_step(self, field_calls):
        # the brake-point residual costs one field evaluation; it must be
        # paid once per sample (the launch and each accepted step)
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        st = IntegratorSettings(t_limit=0.1)
        watched = integrate(s0, st, watch={EventKind.BRAKE_POINT})
        n_watched = field_calls[0]
        field_calls[0] = 0
        integrate(s0, st)
        assert n_watched - field_calls[0] == len(watched.samples)


def _first_order(accel):
    """The field of the state (x, y, vx, vy) whose acceleration is `accel`,
    in the first-order form (vx, vy, ax, ay) the reference step takes."""

    def rhs(v):
        ax, ay = accel(v[0], v[1])
        return (v[2], v[3], ax, ay)

    return rhs


_langmuir_rhs = _first_order(dyn.acceleration)


def _reference_trial(accel, y, h, k1, abs_tol, rel_tol):
    y5, ks = dp5_reference_step(_first_order(accel), y, h, k1)
    return y5, ks, dp5_reference_error_ratio(y, y5, ks, h, abs_tol, rel_tol)


def _trial_bits(trial, accel, y, h):
    """The fifth-order state, the seven stages and the error norm of one
    trial step at the default tolerances, as float.hex strings (so signed
    zeros count), or the error it raised."""
    st_ = IntegratorSettings()
    try:
        k1 = _first_order(accel)(y)
        y5, ks, ratio = trial(accel, y, h, k1, st_.abs_tol, st_.rel_tol)
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)
    return ([v.hex() for v in y5] + [v.hex() for k in ks for v in k]
            + [ratio.hex()])


@pytest.mark.parametrize("accel",
                         [dyn.acceleration, dyn.inverted_acceleration],
                         ids=["langmuir", "inverted"])
@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-4.0, max_value=4.0),
    y=st.floats(min_value=0.0, max_value=4.0, exclude_min=True),
    vx=st.floats(min_value=-10.0, max_value=10.0),
    vy=st.floats(min_value=-10.0, max_value=10.0),
    h=st.floats(min_value=1e-14, max_value=0.1),
)
# a -0.0 component whose stage increments are all -0.0: the running sum
# from 0 makes the stage input +0.0
@example(x=-0.0, y=1.0, vx=-0.0, vy=1.0, h=0.1)
@example(x=0.0, y=2.0, vx=-0.0, vy=-0.0, h=0.1)
def test_unrolled_step_matches_the_tableau_loop(accel, x, y, vx, vy, h):
    state = (x, y, vx, vy)
    assert (_trial_bits(_dp5_trial, accel, state, h)
            == _trial_bits(_reference_trial, accel, state, h))


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
    with pytest.raises(StepUnderflow):
        _integrate_chart(accel, energy, s0, IntegratorSettings(), (), {}, ())
    assert len(sampled) > 1
    assert all(math.isfinite(c) for v in sampled for c in v)


def _bits_or_error(f, *args):
    try:
        return f(*args).hex()
    except (ArithmeticError, DomainError) as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=-4.0, max_value=4.0),
    y=st.floats(min_value=-1.0, max_value=4.0),
    vx=st.floats(min_value=-10.0, max_value=10.0),
    vy=st.floats(min_value=-10.0, max_value=10.0),
)
@example(x=0.0, y=0.0, vx=1.0, vy=1.0)
def test_tuple_energies_match_the_state_energies(x, y, vx, vy):
    # bit for bit, or the same error (a state off the half plane raises
    # DomainError)
    s = State(t=0.0, x=x, y=y, vx=vx, vy=vy)
    v = (x, y, vx, vy)
    assert _bits_or_error(_langmuir_energy, v) == _bits_or_error(dyn.energy, s)
    assert (_bits_or_error(_inverted_energy, v)
            == _bits_or_error(dyn.inverted_energy, s))


def _vec(s):
    return (s.x, s.y, s.vx, s.vy)


def _hexes(v):
    return tuple(c.hex() for c in v)


@settings(max_examples=10, deadline=None)
@given(**launches)
def test_requested_samples_agree_with_a_fifth_order_step(E, u):
    # 10 equally spaced requests inside every step of a free run, each read
    # from the step's interpolant, against one fifth-order step from the
    # step's start to the same time, relative to the step's largest
    # component; requests do not change the steps
    st_ = IntegratorSettings()
    s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
    stop = {EventKind.X_VELOCITY_ZERO: 1}
    ends = integrate(s0, st_, stop=stop).samples
    spans = [(a, [a.t + (b.t - a.t) * j / 11 for j in range(1, 11)])
             for a, b in zip(ends, ends[1:])]
    asked = integrate(s0, st_, stop=stop,
                      sample_times=[t for _, ts in spans for t in ts])
    by_t = {s.t: s for s in asked.samples}
    for start, times in spans:
        k1 = _langmuir_rhs(_vec(start))
        for t in times:
            want = _advance(dyn.acceleration, _vec(start), t - start.t, k1)
            err = max(abs(a - b) for a, b in zip(_vec(by_t[t]), want))
            assert err <= 100 * st_.rel_tol * max(map(abs, want))


@settings(max_examples=10, deadline=None)
@given(**launches)
@example(E=-1.0, u=0.5)  # a magical-line crossing after the rest, same step
def test_event_state_is_one_fifth_order_step(E, u):
    # each event state is the output of one _advance, from the start of its
    # step to the event time, and the tableau loop of the reference step
    # reproduces it bit for bit (events located past the stop event in the
    # last step make calls that no event keeps)
    calls = {}

    def recording(accel, y, h, k1):
        out = _advance(accel, y, h, k1)
        calls.setdefault(_hexes(out), []).append((y, h))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_advance", recording)
        s0 = dyn.initial_state(ProblemSpec(E=E, h=u / -E))
        traj = integrate(s0, watch={EventKind.MAGICAL_LINE_CROSS},
                         stop={EventKind.X_VELOCITY_ZERO: 1})
    assert traj.termination is EventKind.X_VELOCITY_ZERO
    for ev in traj.events:
        [(y, tau)] = calls[_hexes(_vec(ev.state))]
        start = [s for s in traj.samples if s.t < ev.t][-1]
        assert _hexes(y) == _hexes(_vec(start))
        assert start.t + tau == ev.t
        ref = dp5_reference_step(_langmuir_rhs, y, tau, _langmuir_rhs(y))[0]
        assert _hexes(ref) == _hexes(_vec(ev.state))


def test_event_state_off_the_half_plane_raises():
    # _advance skips the FSAL field evaluation that would have rejected a
    # state with y <= 0, so it checks that itself
    def falling(x, y):
        return (0.0, 0.0)

    with pytest.raises(DomainError):
        _advance(falling, (0.0, 0.5, 0.0, -1.0), 1.0, (0.0, -1.0, 0.0, 0.0))


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
              stop={EventKind.X_VELOCITY_ZERO: 1})
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
    # a step that ends within h_min of the time limit ends the run there;
    # a request at the limit is read from that last step's interpolant
    st_ = IntegratorSettings(h_min=1e-3)
    s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
    last = integrate(s0, replace(st_, t_limit=0.5)).samples[-2]
    t_limit = last.t + 0.5 * st_.h_min
    traj = integrate(s0, replace(st_, t_limit=t_limit),
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


def _find_orbit_command(kind):
    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(["find-orbit", "--energy", "-1.0", "--kind", kind,
                       "--out", os.path.join(out, kind)])
    assert rc == 0


# Field evaluations at E = -1 with dense output (events and requested
# samples read from the step's interpolant).  They are deterministic, so
# each row pins its count exactly: more is lost work, and fewer means the
# row is stale or the count no longer sees the field (a kernel that bound
# `dynamics.acceleration` at import would count 0).
@pytest.mark.parametrize("run, count", [
    (lambda: shooting.shoot(-1.0, 1.398), 833),
    (lambda: shooting.scan_alpha(-1.0, shooting.default_grid()), 40_260),
    (lambda: shooting.find_langmuir_orbit(-1.0), 3_126),
    (lambda: shooting.find_brake_orbit(-1.0), 30_342),
    (lambda: analysis.check_zero_energy_monotone(), 4_543),
    (lambda: analysis.check_magical_prefix(), 19_685),
    # the whole suite: tmax_bound and magical_prefix share one scan
    (lambda: analysis.run_all_checks(), 55_757),
    # the run `simulate` makes, which watches every kind it can emit
    (lambda: integrate(
        dyn.initial_state(ProblemSpec(E=-1.0, h=1.398)),
        IntegratorSettings(t_limit=8.0),
        watch={EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS,
               EventKind.BRAKE_POINT},
    ), 7_476),
    (lambda: _find_orbit_command("langmuir"), 3_973),
    (lambda: _find_orbit_command("brake"), 34_681),
], ids=["shoot", "scan_alpha", "find_langmuir_orbit", "find_brake_orbit",
        "check_zero_energy_monotone", "check_magical_prefix",
        "run_all_checks", "simulate",
        "find_orbit_langmuir_command", "find_orbit_brake_command"])
def test_field_evaluations_do_not_grow(field_calls, run, count):
    run()
    assert field_calls[0] == count


class TestInvertedChart:
    def setup_method(self):
        s0 = dyn.invert_state(dyn.initial_state(ProblemSpec(E=0.0, h=1.0)))
        self.traj = integrate_inverted(
            s0, IntegratorSettings(t_limit=0.3)
        )

    def test_energy_level_held(self):
        assert self.traj.max_energy_drift <= 1e-8

    def test_radius_shrinks(self):
        for s in self.traj.samples:
            if s.t > 0.01:
                assert dyn.radial_velocity(s) < 0.0

    def test_radial_momentum_decreasing(self):
        prs = [dyn.to_polar(s).pr for s in self.traj.samples]
        assert all(b < a for a, b in zip(prs, prs[1:]))

    def test_concavity_by_finite_differences(self):
        samples = self.traj.samples
        for i in range(1, len(samples) - 1, 7):
            tm, t0, tp = samples[i - 1].t, samples[i].t, samples[i + 1].t
            fm = dyn.radial_velocity(samples[i - 1])
            f0 = dyn.radial_velocity(samples[i])
            fp = dyn.radial_velocity(samples[i + 1])
            hm, hp = t0 - tm, tp - t0
            d = (
                -hp / (hm * (hm + hp)) * fm
                + (hp - hm) / (hm * hp) * f0
                + hm / (hp * (hm + hp)) * fp
            )
            assert d < 0.0
