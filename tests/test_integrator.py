import math

import pytest

from langmuir_lab import dynamics as dyn
from langmuir_lab.dynamics import ProblemSpec, State
from langmuir_lab.errors import DomainError, NoSignChange
from langmuir_lab.integrator import (
    EventKind,
    IntegratorSettings,
    integrate,
    integrate_inverted,
    locate_event,
)

from conftest import rk4_fixed


def shoot_raw(E, h, settings=None, **kw):
    s0 = dyn.initial_state(ProblemSpec(E=E, h=h))
    return integrate(
        s0,
        settings or IntegratorSettings(),
        stop={EventKind.X_VELOCITY_ZERO: 1},
        **kw,
    )


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
        traj = shoot_raw(-1.0, 2.0, IntegratorSettings(substeps=3))
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

    def test_watched_residual_is_evaluated_once_per_step(self, monkeypatch):
        # the brake-point residual costs one field evaluation; it must be
        # paid once per sample (the launch and each accepted step)
        calls = [0]
        real = dyn.acceleration

        def counting(x, y):
            calls[0] += 1
            return real(x, y)

        monkeypatch.setattr(dyn, "acceleration", counting)
        s0 = dyn.initial_state(ProblemSpec(E=-1.0, h=1.0))
        st = IntegratorSettings(t_limit=0.1)
        watched = integrate(s0, st, watch={EventKind.BRAKE_POINT})
        n_watched = calls[0]
        calls[0] = 0
        integrate(s0, st)
        assert n_watched - calls[0] == len(watched.samples)


class TestLocateEvent:
    def _bracket(self, h):
        traj = shoot_raw(-1.0, h)
        ev = traj.first_event(EventKind.X_VELOCITY_ZERO)
        before = [s for s in traj.samples if s.vx > 0.0]
        return before[-1], ev.state

    def test_x_rest_bracket(self):
        lo, hi = self._bracket(1.0)
        ev = locate_event((lo, hi), EventKind.X_VELOCITY_ZERO)
        assert abs(ev.state.vx) <= 1e-10

    def test_synthetic_linear_residual(self):
        lo, hi = self._bracket(1.0)
        t_root = 0.5 * (lo.t + hi.t)
        ev = locate_event((lo, hi), lambda s: s.t - t_root)
        assert abs(ev.t - t_root) <= 1e-12

    def test_no_sign_change(self):
        lo, hi = self._bracket(1.0)
        with pytest.raises(NoSignChange):
            locate_event((lo, hi), lambda s: 1.0 + s.t * 0.0)


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
