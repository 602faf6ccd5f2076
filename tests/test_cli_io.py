import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from langmuir_lab import dynamics as dyn
from langmuir_lab import cli, integrator, output, shooting
from langmuir_lab.cli import main
from langmuir_lab.errors import DomainError
from langmuir_lab.integrator import EventKind, IntegratorSettings, Trajectory

from conftest import parse_orbit_record, parse_trajectory_csv, taylor_alpha_k


class TestSimulate:
    def test_csv_schema_and_energy_column(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.398",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = parse_trajectory_csv(out.read_text())
        assert len(rows) > 10
        for t, x, y, vx, vy, e in rows:
            s = dyn.State(t=t, x=x, y=y, vx=vx, vy=vy)
            assert abs(dyn.energy(s) - e) <= 1e-12

    def test_deep_launch_runs_to_its_time_limit(self, tmp_path):
        # the launch from height 1 at E = -1 rescaled by a = 0.01: the run
        # reads t_limit = 100 in E = -1 units, 100 * a^1.5 in its own time
        out = tmp_path / "run.csv"
        argv = ["simulate", "--energy", "-100", "--height", "0.01"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = parse_trajectory_csv(out.read_text())
        assert rows[-1][0] == 100.0 * (0.01 * math.sqrt(0.01))

    @pytest.mark.parametrize("energy, height", [
        ("-1e-300", "1e250"),  # scale 1e252: a^1.5 overflows
        ("-1e300", "1e-301"),  # scale 1e-300: a^1.5 underflows
    ])
    def test_rejects_a_time_unit_out_of_range(self, energy, height, capsys):
        argv = ["simulate", f"--energy={energy}", "--height", height]
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err

    def test_rejects_inadmissible_height(self, capsys):
        # 3.5 = -3.5/E is the rest height, out of the open interval too
        for height in ("4.0", "3.5"):
            rc = main(["simulate", "--energy", "-1.0", "--height", height])
            assert rc == 2
            err = capsys.readouterr().err
            assert "admissible heights are (0, 3.5)" in err

    def test_rejects_negative_height(self):
        assert main(["simulate", "--energy", "-1.0", "--height", "-1.0"]) == 2

    def test_escape_whose_step_stops_advancing_time_exits_5(self, tmp_path,
                                                            capsys):
        # the E = 0 escape to t = 1e150 underflows its step at t = 9.5e107,
        # where a step no longer advances t, and writes no file
        out = tmp_path / "run.csv"
        argv = ["simulate", "--energy", "0", "--height", "1", "--t-limit",
                "1e150", "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: step size underflow at t=9.5")
        assert "Traceback" not in err
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--format", "json",
                "--t-limit", "5.0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["termination"] == "TimeLimit"
        assert doc["max_energy_drift"] <= 1e-8
        assert len(doc["samples"]) > 10
        kinds = {ev["kind"] for ev in doc["events"]}
        assert "XVelocityZero" in kinds

    def test_boundary_touch_is_an_x_rest(self, tmp_path):
        # at the simple orbit's launch height the electron stops on the Hill
        # boundary at the quarter period: that stop is reported as an x-rest
        # at zero speed
        rec = shooting.find_langmuir_orbit(-1.0)
        out = tmp_path / "run.json"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", repr(rec.h_star),
                "--t-limit", "5.0",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "BrakePoint" not in text
        rest = next(ev for ev in json.loads(text)["events"]
                    if ev["kind"] == "XVelocityZero")
        assert abs(rest["t"] - rec.quarter_period) <= 1e-9
        assert rest["state"]["vx"] ** 2 + rest["state"]["vy"] ** 2 <= 1e-12

    def test_svg_structure(self, tmp_path):
        out = tmp_path / "run.svg"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.398",
                "--format", "svg",
                "--out", str(out),
            ]
        )
        assert rc == 0
        svg = out.read_text()
        # two half-lines, the Hill boundary, the trajectory
        assert svg.count("<path") == 4
        assert "<!-- config:" in svg
        assert "--" not in svg.split("config:")[1].split("-->")[0]


class TestFindOrbit:
    def test_json_round_trip(self, tmp_path):
        prefix = tmp_path / "orbit"
        rc = main(
            ["find-orbit", "--energy", "-1.0", "--out", str(prefix)]
        )
        assert rc == 0
        text = (tmp_path / "orbit.orbit.json").read_text()
        rec = parse_orbit_record(text)
        assert rec == shooting.find_langmuir_orbit(-1.0)
        assert (tmp_path / "orbit.orbit.csv").exists()
        assert (tmp_path / "orbit.orbit.svg").exists()

    def test_orbit_csv_is_periodic(self, tmp_path):
        prefix = tmp_path / "orbit"
        main(["find-orbit", "--energy", "-1.0", "--out", str(prefix)])
        rows = parse_trajectory_csv(
            (tmp_path / "orbit.orbit.csv").read_text()
        )
        first, last = rows[0], rows[-1]
        assert abs(last[1] - first[1]) <= 1e-6
        assert abs(last[2] - first[2]) <= 1e-6

    def test_bad_bracket_exit_code(self, capsys):
        rc = main(
            ["find-orbit", "--energy", "-1.0", "--bracket", "0.2,0.3"]
        )
        assert rc == 3
        assert "sign change" in capsys.readouterr().err

    def test_brake_kind(self, tmp_path, capsys):
        rc = main(["find-orbit", "--energy", "-1.0", "--kind", "brake"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "Brake-3"

    def test_brake_default_bracket_follows_energy(self, capsys):
        rc = main(["find-orbit", "--energy", "-2.0", "--kind", "brake"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "Brake-3"

    @pytest.mark.parametrize("energy", ["-3.0", "-4.0"])
    def test_brake_kind_at_low_energy(self, energy, capsys):
        # rescaled copies of the E = -1 orbit: the retrace deviation,
        # measured in E = -1 units, does not grow as the orbit shrinks
        rc = main(["find-orbit", "--energy", energy, "--kind", "brake"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "Brake-3"

    @pytest.mark.parametrize("kind", ["langmuir", "brake"])
    @pytest.mark.parametrize("energy", ["-1000", "-0.001"])
    def test_far_from_unit_energy(self, kind, energy, capsys):
        # every knob is read in E = -1 units, so these are the E = -1
        # searches rescaled
        rc = main(["find-orbit", "--energy", energy, "--kind", kind])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == ("Langmuir" if kind == "langmuir" else "Brake-3")

    @pytest.mark.parametrize("E", [-2.0, -1.3, -0.5])
    def test_brake_on_the_rescaled_bracket_as_text(self, E, tmp_path):
        # the default brake bracket rescaled by a = -1/E and written with
        # repr, as perfbench's orbits workload passes it: the root is the
        # E = -1 brake root rescaled
        a = -1.0 / E
        prefix = tmp_path / "brake"
        rc = main(["find-orbit", "--energy", repr(E), "--kind", "brake",
                   "--bracket", f"{0.3 * a!r},{0.8 * a!r}",
                   "--out", str(prefix)])
        assert rc == 0
        doc = json.loads((tmp_path / "brake.orbit.json").read_text())
        assert doc["kind"] == "Brake-3"
        assert abs(doc["h_star"] * -E / 0.33125533690417354682 - 1.0) <= 1e-8

    @pytest.mark.parametrize("kind", ["langmuir", "brake"])
    @pytest.mark.parametrize("tol", ["1e-6", "1e-7", "1e-8", "1e-9", "1e-10"])
    @pytest.mark.parametrize("energy", ["-1.0", "-0.77"])
    def test_orbit_closes_at_a_coarser_tolerance(self, energy, tol, kind,
                                                 tmp_path):
        # the retrace's closure tolerance follows --tol, as the retrace's
        # error does: at --tol 1e-6 the brake retrace deviates by 3.9e-4
        # in E = -1 units, 1e-8 by 5.8e-6
        prefix = tmp_path / "orbit"
        rc = main(["find-orbit", "--energy", energy, "--kind", kind,
                   "--tol", tol, "--out", str(prefix)])
        assert rc == 0
        assert (tmp_path / "orbit.orbit.csv").exists()

    def test_brake_bracket_holding_simple_orbit(self, capsys):
        rc = main(
            ["find-orbit", "--energy", "-1.0", "--kind", "brake",
             "--bracket", "1.0,2.0"]
        )
        assert rc == 3
        assert "simple orbit" in capsys.readouterr().err

    def test_brake_rest_count_below_one(self, capsys):
        rc = main(
            ["find-orbit", "--energy", "-1.0", "--kind", "brake", "--k", "0"]
        )
        assert rc == 2
        assert "rest count" in capsys.readouterr().err

    def test_brake_rest_count_of_one_is_the_simple_orbit(self, capsys):
        # alpha_1's root on this bracket is Langmuir's orbit; named as a
        # brake orbit it would come back mislabelled as Brake-1
        rc = main(
            ["find-orbit", "--energy", "-1.0", "--kind", "brake", "--k", "1",
             "--bracket", "0.5,3"]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "find_langmuir_orbit" in captured.err
        assert captured.out == ""

    def test_rest_count_without_brake_kind(self, capsys):
        rc = main(["find-orbit", "--energy", "-1.0", "--k", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--k" in captured.err
        assert captured.out == ""

    def test_retrace_failure_exit_code(self, monkeypatch, capsys):
        # a closure tolerance of 0 fails every retrace that deviates at all
        monkeypatch.setattr(shooting, "CLOSURE_RATIO", 0.0)
        rc = main(["find-orbit", "--energy", "-1.0"])
        assert rc == 5
        assert "deviates" in capsys.readouterr().err

    def test_retrace_failure_writes_no_file(self, monkeypatch, tmp_path,
                                            capsys):
        # the retrace runs before any file is written
        monkeypatch.setattr(shooting, "CLOSURE_RATIO", 0.0)
        rc = main(["find-orbit", "--energy", "-1.0",
                   "--out", str(tmp_path / "orbit")])
        assert rc == 5
        assert "deviates" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", ["domain", "nan"])
    @pytest.mark.parametrize("kind", ["langmuir", "brake"])
    def test_failed_backward_step_exits_5(self, monkeypatch, tmp_path,
                                          capsys, kind, fault):
        # once the retrace starts, its stages leave the half plane (a
        # DomainError, which alone would exit 2) or read a nan field, whose
        # step has no finite state: either way the orbit fails its retrace
        started = [False]

        def retrace(*args, _real=shooting._retrace):
            started[0] = True
            return _real(*args)

        def trial(*args, _real=integrator._trial):
            if started[0] and fault == "domain":
                raise DomainError("stage off the half plane")
            return _real(*args)

        def hypot(x, q, _real=integrator.hypot):
            return math.nan if started[0] else _real(x, q)

        monkeypatch.setattr(shooting, "_retrace", retrace)
        monkeypatch.setattr(integrator, "_trial", trial)
        if fault == "nan":
            monkeypatch.setattr(integrator, "hypot", hypot)
        rc = main(["find-orbit", "--energy", "-1.0", "--kind", kind,
                   "--out", str(tmp_path / "orbit")])
        assert started[0]
        assert rc == 5
        err = capsys.readouterr().err
        assert "reversed arc failed" in err
        assert ("not finite" in err) == (fault == "nan")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["langmuir", "brake"])
    @pytest.mark.parametrize("options", [
        ["--energy", "-1.0", "--tol", "1e-8"],
        ["--energy", "-1.0", "--tol", "1e-12"],
        ["--energy", "-1.6", "--tol", "1e-8"],
        ["--energy", "-1.6", "--tol", "1e-12"],
        ["--energy", "-1.0", "--bracket"],
    ], ids=["e-1_tol1e-8", "e-1_tol1e-12", "e-1.6_tol1e-8", "e-1.6_tol1e-12",
            "e-1_bracket"])
    def test_orbit_files_are_those_of_the_assembled_orbit(self, kind, options,
                                                          tmp_path):
        # the command writes the 4T orbit from the quarter arc; its files
        # are, byte for byte, the CSV and SVG of the orbit that
        # assemble_periodic_orbit builds sample by sample
        if options[-1] == "--bracket":
            options = options + [{"langmuir": "1.2,1.6",
                                  "brake": "0.32,0.36"}[kind]]
        argv = ["find-orbit", "--kind", kind, *options,
                "--out", str(tmp_path / "orbit")]
        assert main(argv) == 0
        args = cli._parse_args(argv)
        settings = cli._settings(args, {})
        if kind == "brake":
            rec = shooting.find_brake_orbit(args.energy, args.bracket,
                                            settings=settings)
        else:
            rec = shooting.find_langmuir_orbit(args.energy, args.bracket,
                                               settings)
        orbit = shooting.assemble_periodic_orbit(rec)
        csv = (tmp_path / "orbit.orbit.csv").read_bytes()
        svg = (tmp_path / "orbit.orbit.svg").read_bytes()
        assert csv == output.trajectory_csv(orbit).encode()
        assert svg == output.trajectory_svg(
            orbit, args.energy, cli._config_comment(args)).encode()
        # the launch's x and vy are 0, so the mirror rows at 2T (vy) and
        # 4T (x) hold a negative zero, which the text must keep
        rows = [row.split(",") for row in csv.decode().splitlines()[1:]]
        assert rows[-1][1] == "-0"
        assert any(row[4] == "-0" for row in rows)


class TestScan:
    def test_scan_table(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(
            [
                "scan",
                "--energy", "-1.0",
                "--grid", "0.5,3.0,6",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == output.SCAN_HEADER
        assert len(lines) == 7
        hs = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert hs == [0.5 + 2.5 * i / 5 for i in range(6)]

    def test_scan_without_out_writes_the_same_table_to_stdout(
        self, tmp_path, capsys
    ):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--energy", "-1.0", "--grid", "0.5,3.0,3"]
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_zero_energy_drift_is_absolute(self, tmp_path):
        # at E = 0 a launch's energy is rounding residue (8.9e-16 from
        # h = 0.5, 0 from h = 1), so the drift is not relative to it
        out = tmp_path / "scan.csv"
        argv = ["scan", "--energy", "0", "--grid", "0.5,1.0,2"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert [row[5] for row in rows] == ["ok", "ok"]
        assert all(0.0 < float(row[4]) <= 1e-10 for row in rows)

    @pytest.mark.parametrize("energy", ["-1e-12", "-1e-300"])
    def test_near_zero_energy_rests_as_at_zero_energy(self, energy, tmp_path):
        # -1/E is far above these launches, so each run's scale is 100
        # times its launch height: its rest agrees with E = 0's, and its
        # drift is in that scale's unit of energy, as the launch has next to
        # none
        rows = {}
        for e in ("0", energy):
            out = tmp_path / "scan.csv"
            argv = ["scan", f"--energy={e}", "--grid", "0.5,1.0,2"]
            assert main(argv + ["--out", str(out)]) == 0
            rows[e] = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        assert len(rows[energy]) == 2
        for zero, near in zip(rows["0"], rows[energy]):
            assert near[3] == zero[3] and near[5] == zero[5] == "ok"
            for col in (1, 2):  # t_h, alpha
                assert float(near[col]) == pytest.approx(float(zero[col]),
                                                         rel=1e-9)
            assert 0.0 < float(near[4]) <= 1e-8

    def test_scan_grid_ends_at_its_high_end(self, capsys):
        # 0.7 + (3.4999999999999996 - 0.7) rounds to 3.5, the Hill boundary
        # at E = -1; the grid's last height is its high end itself
        grid = "0.7,3.4999999999999996,2"
        assert main(["scan", "--energy", "-1", "--grid", grid]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert [float(row[0]) for row in rows] == [0.7, 3.4999999999999996]
        assert [row[5] for row in rows] == ["ok", "ok"]

    def test_scan_of_one_point_is_its_low_end(self, capsys):
        # a one-point grid is its low end, as shooting.default_grid gives
        # it: the row of the launch from 0.5, whose alpha agrees with the
        # Taylor oracle of conftest within ALPHA_ERR_RATIO (35) x rel_tol
        assert main(["scan", "--energy", "-1", "--grid", "0.5,1,1"]) == 0
        [row] = capsys.readouterr().out.splitlines()[1:]
        fields = row.split(",")
        assert fields[0] == "0.5"
        want = output.scan_csv(shooting.scan_alpha(-1.0, [0.5]))
        assert row == want.splitlines()[1]
        alpha = float(fields[2])
        assert abs(alpha - taylor_alpha_k(-1.0, 0.5, 1)) <= 35 * 1e-10

    def test_scan_where_no_grid_point_rests_exits_5(self, tmp_path,
                                                    capsys):
        # no launch rests before t_limit = 0.01: the table holds a NoRest
        # row for each, and the scan reports no bracket and exits 5
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("t_limit = 0.01\n")
        rc = main(["scan", "--energy", "-1", "--grid", "0.5,3,3",
                   "--config", str(cfg)])
        assert rc == 5
        out, err = capsys.readouterr()
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert [row[5] for row in rows] == ["NoRest(TimeLimit)"] * 3
        assert "no sign change on this grid" in err.splitlines()

    def test_scan_invalid_grid(self):
        assert main(["scan", "--energy", "-1.0", "--grid", "3.0,0.5,6"]) == 2

    def test_scan_grid_with_an_infinite_end_is_invalid(self, capsys):
        # an infinite end is no grid: its first height would be inf * 0
        assert main(["scan", "--energy", "-1.0", "--grid", "0.5,inf,3"]) == 2
        assert capsys.readouterr().err == "error: invalid grid (0.5, inf, 3)\n"

    def test_scan_writes_table_and_bracket(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        argv = ["scan", "--energy", "-1.0", "--grid", "0.05,3.45,50"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == output.SCAN_HEADER
        assert capsys.readouterr().err == (
            "sign change on [1.3683673469387758, 1.4377551020408164]\n"
        )

    @pytest.mark.parametrize("grid, err", [
        ("0.5,3.0,3", "sign change on [0.5, 1.75]\n"),
        ("0.5,1.2,3", "no sign change on this grid\n"),
    ], ids=["sign_change", "none"])
    def test_scan_prints_its_brackets_to_stderr(self, grid, err, capsys):
        assert main(["scan", "--energy", "-1.0", "--grid", grid]) == 0
        assert capsys.readouterr().err == err

    def test_scan_brackets_are_the_grid_heights(self, tmp_path, capsys):
        # at E = -1e5 the grid is 1e5 times finer than at E = -1: printed
        # to six decimals, a bracket's two ends both read 0.000014.  Each
        # end is printed exactly, as the CSV's height of its row
        out = tmp_path / "scan.csv"
        argv = ["scan", "--energy", "-100000", "--grid", "5e-7,3.45e-5,50"]
        assert main(argv + ["--out", str(out)]) == 0
        err = capsys.readouterr().err
        m = re.fullmatch(r"sign change on \[(\S+), (\S+)\]\n", err)
        assert m, err
        lo, hi = float(m[1]), float(m[2])
        assert lo < hi
        heights = [float(ln.split(",")[0])
                   for ln in out.read_text().splitlines()[1:]]
        assert heights[heights.index(lo) + 1] == hi

    def test_scan_from_a_low_launch_follows_the_scaling_law(self, tmp_path):
        # from h = 0.001 the time scale is h^1.5 ~ 3e-5, so the first trial
        # step (1e-3) takes a stage below y = 0 and is rejected; the row is
        # the E = -0.001 launch from height 1 rescaled by a = 0.001
        # (alpha / sqrt(a), t_h * a^1.5), to 1e-8 relative (measured
        # 3.3e-15 and 1.7e-14)
        out = tmp_path / "scan.csv"
        argv = ["scan", "--energy", "-1.0", "--grid", "0.001,3.45,50"]
        assert main(argv + ["--out", str(out)]) == 0
        h, t_h, alpha = map(float, out.read_text().splitlines()[1]
                            .split(",")[:3])
        ref = shooting.shoot(-0.001, 1.0)
        assert h == 0.001
        assert abs(alpha * math.sqrt(h) / ref.alpha - 1.0) <= 1e-8
        assert abs(t_h / (ref.t_h * h**1.5) - 1.0) <= 1e-8


class TestVerify:
    @staticmethod
    def _assert_passes_and_is_deterministic(command, n_checks, tmp_path):
        r1 = tmp_path / "verdict1.json"
        r2 = tmp_path / "verdict2.json"
        assert main([command, "--report", str(r1)]) == 0
        assert main([command, "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        doc = json.loads(r1.read_text())
        assert len(doc) == n_checks
        assert all(v["passed"] for v in doc.values())

    def test_verify_passes_and_is_deterministic(self, tmp_path):
        self._assert_passes_and_is_deterministic("verify", 7, tmp_path)

    def test_zero_energy_passes_and_is_deterministic(self, tmp_path):
        self._assert_passes_and_is_deterministic("zero-energy", 2, tmp_path)

    @pytest.mark.parametrize("tol", [f"1e-{k}" for k in range(6, 14)])
    def test_verify_passes_at_every_tol(self, tmp_path, tol):
        # the two tolerances on integration error follow --tol, 100 x it
        # each, so every check holds from 1e-6 to 1e-13 (a fixed drift
        # tolerance of 1e-8 failed energy_drift at 1e-6 and 1e-7)
        report = tmp_path / "verdict.json"
        rc = main(["verify", "--tol", tol, "--report", str(report)])
        doc = json.loads(report.read_text())
        assert rc == 0, {k: v for k, v in doc.items() if not v["passed"]}
        for name in ("energy_drift", "inverted_concavity"):
            assert doc[name]["tolerance"] == 100.0 * float(tol)

    @pytest.mark.parametrize("tol", ["1e-3", "0.5"])
    def test_verify_fails_energy_drift_at_a_coarse_tol(self, tmp_path, tol):
        # both tolerances on integration error stop at 1e-4, their value at
        # --tol 1e-6, so the grid runs' worst drift, 3.5e-2 at 1e-3 and 1.26
        # at 0.5, fails energy_drift
        report = tmp_path / "verdict.json"
        assert main(["verify", "--tol", tol, "--report", str(report)]) == 1
        doc = json.loads(report.read_text())
        assert not doc["energy_drift"]["passed"]
        assert doc["energy_drift"]["worst_violation"] > 1e-2
        for name in ("energy_drift", "inverted_concavity"):
            assert doc[name]["tolerance"] == 1e-4

    def test_verify_fails_when_launches_do_not_rest(self, tmp_path, capsys):
        # at t_limit = 1 most grid launches end before their first x-rest:
        # the checks that need their rest times fail, nothing raises
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("t_limit = 1\n")
        report = tmp_path / "verdict.json"
        rc = main(["verify", "--config", str(cfg), "--report", str(report)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(report.read_text())
        failed = {name for name, v in doc.items() if not v["passed"]}
        assert {"tmax_bound", "tau_growth"} <= failed

    def test_zero_energy_with_no_interior_sample_fails(self, tmp_path):
        # a horizon shorter than h_min: the run takes no step, so its one
        # sample is its launch and nothing is compared
        report = tmp_path / "zero.json"
        rc = main(["zero-energy", "--t-end", "1e-15", "--report", str(report)])
        assert rc == 1
        doc = json.loads(report.read_text())
        assert not doc["inverted_concavity"]["passed"]
        assert doc["zero_energy_monotone"]["worst_violation"] is None

    def test_reports_are_strict_json(self, tmp_path):
        # a check that compared nothing reports an infinite worst
        # violation, written as null: the file holds no Infinity or NaN,
        # which JSON does not have
        def reject(token):
            raise AssertionError(f"{token} is not JSON")

        report = tmp_path / "zero.json"
        rc = main(["zero-energy", "--t-end", "1e-300", "--report",
                   str(report)])
        assert rc == 1
        doc = json.loads(report.read_text(), parse_constant=reject)
        assert {v["worst_violation"] for v in doc.values()} == {None}
        assert not any(v["passed"] for v in doc.values())

    def test_zero_energy_subcommand(self, tmp_path):
        report = tmp_path / "zero.json"
        rc = main(["zero-energy", "--t-end", "20", "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"zero_energy_monotone", "inverted_concavity"}


class TestConfig:
    def test_config_file_applied(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("t_limit = 0.25\n# a comment\n\nrel_tol = 1e-9\n")
        out = tmp_path / "run.csv"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = parse_trajectory_csv(out.read_text())
        assert rows[-1][0] == pytest.approx(0.25, abs=1e-12)

    def test_cli_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("t_limit = 0.25\n")
        out = tmp_path / "run.csv"
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--t-limit", "0.5",
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = parse_trajectory_csv(out.read_text())
        assert rows[-1][0] == pytest.approx(0.5, abs=1e-12)

    def test_tol_beats_the_config_rel_tol(self, tmp_path):
        # --tol sets rel_tol alone; the error norm's floor follows it
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("rel_tol = 1e-3\nt_limit = 50\n")
        args = cli._parse_args(
            ["verify", "--tol", "1e-6", "--config", str(cfg)])
        settings = cli._settings(args, cli._read_config(args.config))
        assert settings == IntegratorSettings(rel_tol=1e-6, t_limit=50.0)

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--config", str(tmp_path / "missing.cfg"),
            ]
        )
        assert rc == 2
        assert "config file" in capsys.readouterr().err

    def test_config_line_without_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("rel_tol 1e-9\n")
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: malformed config line: 'rel_tol 1e-9'\n")

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("step_size = 0.1\n")
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--config", str(cfg),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("key", [
        # a run samples its launch, its step ends and its stop alone;
        # there is no setting that forces interior samples
        "substeps",
        # constants of the integrator, or derived from rel_tol
        "h_min", "y_collision", "r_collision", "event_tol", "brake_speed2",
        "abs_tol",
        # error control and the time limit bound every step
        "h_max",
    ])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, key):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"{key} = 2\n")
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--config", str(cfg),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"unknown config key: {key!r}" in err
        assert "accepted keys: rel_tol, t_limit" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--energy", "-1", "--height", "1"],
    ["find-orbit", "--energy", "-1"],
    ["scan", "--energy", "-1", "--grid", "1,2,2"],
    ["verify"],
    ["zero-energy"],
], ids=lambda argv: argv[0])
def test_kept_parser_runs_the_rebound_command(monkeypatch, argv):
    # each call runs the cmd_* function the module holds then, as a test or
    # a tracer rebinds it
    monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"),
                        lambda args: 42)
    assert main(argv) == 42


@pytest.mark.parametrize("argv, message", [
    (["scan", "--energy", "nan", "--grid", "0.5,3.0,3"],
     "energy must be <= 0, got nan"),
    (["simulate", "--energy", "nan", "--height", "1.0"],
     "energy must be <= 0, got nan"),
    # an infinite energy has no launch, and the default bracket rescales
    # to a finite one only where -1/E is finite and positive: not at -inf,
    # where it is 0, nor at -1e-320, where it overflows
    (["simulate", "--energy", "-inf", "--height", "1"],
     "energy must be finite, got -inf"),
    (["find-orbit", "--energy", "-inf"],
     "the default bracket does not scale to E=-inf, whose scale -1/E is "
     "0.0; give a bracket (--bracket)"),
    (["find-orbit", "--energy", "-1e-320"],
     "the default bracket does not scale to E=-1e-320, whose scale -1/E is "
     "inf; give a bracket (--bracket)"),
    # an infinite tolerance or horizon is not a setting: the run would be
    # unchecked or never end
    (["scan", "--energy", "-1.0", "--grid", "0.5,3.0,3", "--tol", "inf"],
     "rel_tol must be finite and positive"),
    (["simulate", "--energy", "-1.0", "--height", "1.0", "--t-limit", "inf"],
     "t_limit must be finite and positive"),
    # the zero-energy run's span is the user's --t-end, not one of the
    # settings the run is made with
    (["zero-energy", "--t-end", "inf"],
     "t_end must be finite and positive, got inf"),
    (["zero-energy", "--t-end", "nan"],
     "t_end must be finite and positive, got nan"),
    (["zero-energy", "--t-end", "0"],
     "t_end must be finite and positive, got 0.0"),
    (["zero-energy", "--t-end", "-1"],
     "t_end must be finite and positive, got -1.0"),
    # a span past the bound of 1e4, refused before the first step: a run
    # to 1e150 underflows its step before it gets there
    (["zero-energy", "--t-end", "1e308"],
     "t_end must be at most 10000, got 1e+308: a far longer escape run may "
     "not reach its span"),
    (["zero-energy", "--t-end", "10000.1"],
     "t_end must be at most 10000, got 10000.1: a far longer escape run may "
     "not reach its span"),
    # a launch so near the collision line that its scale, 100 times its
    # height, gives a time unit of about 1e-297, whose H_MIN step squares to
    # a subnormal (its field, whose r^3 and y^2 underflow to 0, is never
    # evaluated: see test_launch_whose_field_underflows_is_rejected)
    (["simulate", "--energy", "-1", "--height", "1e-200"],
     "time unit 9.999999999999999e-298 out of range at E=-1.0"),
    (["scan", "--energy", "-1", "--grid", "1e-200,1,3"],
     "time unit 9.999999999999999e-298 out of range at E=-1.0"),
    (["find-orbit", "--energy", "-1", "--bracket", "1e-200,3"],
     "time unit 9.999999999999999e-298 out of range at E=-1.0"),
    # deep in the well, E = -1e101: the default grid rescaled, whose runs
    # would all rest, but off the scaling law
    (["scan", "--energy", "-1e101", "--grid", "1e-102,3.45e-101,5"],
     "time unit 3.1622776601683796e-152 out of range at E=-1e+101"),
], ids=["scan_energy_nan", "simulate_energy_nan", "simulate_energy_inf",
        "find_orbit_energy_inf", "find_orbit_energy_underflow", "scan_tol_inf",
        "simulate_t_limit_inf", "zero_energy_t_end_inf",
        "zero_energy_t_end_nan", "zero_energy_t_end_0",
        "zero_energy_t_end_negative", "zero_energy_t_end_1e308",
        "zero_energy_t_end_past_bound", "simulate_tiny_height",
        "scan_tiny_height", "find_orbit_tiny_bracket_end", "scan_deep_well"])
def test_invalid_input_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, message", [
    # no alpha_k is 0 to the last bit: the search's Brent-Dekker solves
    # shrink their brackets to rounding
    ("ALPHA_TOL", "|residual| > 0.0"),
], ids=["alpha"])
def test_unconverged_search_exits_4(monkeypatch, capsys, name, message):
    monkeypatch.setattr(shooting, name, 0.0)
    assert main(["find-orbit", "--energy", "-1"]) == cli.EXIT_NO_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["-1e5", "-2e-1", "-1.5E+3", "-.5e0",
                                  "-1.e2", "-7", "-0.25"])
def test_negative_number_with_an_exponent_is_an_option_value(monkeypatch,
                                                             text):
    # the token after a value option is its value: argparse's pattern for
    # a negative number had no exponent, so it took `-1e5` for an option,
    # and `--energy -1e5` exited 2 with "expected one argument"
    seen = []
    monkeypatch.setattr(cli, "cmd_scan",
                        lambda args: seen.append(args.energy) or 0)
    assert main(["scan", "--energy", text, "--grid", "1,2,2"]) == 0
    assert seen == [float(text)]


@pytest.mark.parametrize("argv", [
    ["simulate", "--energy", "-1", "--height", "1", "-x"],
    ["simulate", "--energy", "-x", "--height", "1"],
    ["simulate", "--energy", "-e5", "--height", "1"],
    ["simulate", "--energy", "-1e", "--height", "1"],
], ids=["unknown_option", "option_as_value", "exponent_alone",
        "exponent_without_digits"])
def test_unknown_options_still_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    assert "error:" in capsys.readouterr().err


# each command's options as its argparse parser declared them
COMMAND_OPTIONS = {
    "simulate": ["--config", "--tol", "--energy", "--height", "--t-limit",
                 "--out", "--format"],
    "find-orbit": ["--config", "--tol", "--energy", "--bracket", "--kind",
                   "--k", "--out"],
    "scan": ["--config", "--tol", "--energy", "--grid", "--out"],
    "verify": ["--config", "--tol", "--report"],
    "zero-energy": ["--config", "--tol", "--t-end", "--report"],
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS],
                         ids=lambda c: c or "bare")
def test_help_lists_every_option(command, capsys):
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    listed = (COMMAND_OPTIONS if command is None
              else ["-h, --help", *COMMAND_OPTIONS[command]])
    for name in listed:
        # one line of its own per command or option, after its usage line
        assert re.search(rf"^  {re.escape(name)} ", captured.out, re.M), name


@pytest.mark.parametrize("argv", [
    ["simulate", "--energy=-1", "--height", "1"],
    ["simulate", "--ener", "-1", "--height", "1"],
    ["simulate", "--ener=-1", "--hei", "1"],
    ["simulate", "--energy", "-1", "--height", "1", "--energy", "-1"],
], ids=["equals", "prefix", "prefix_equals", "repeated"])
def test_options_parse_as_argparse_parsed_them(argv):
    # the namespace holds the command and every dest of it, defaults
    # included; a later repeat of an option wins
    args = cli._parse_args(argv)
    assert vars(args) == {
        "command": "simulate", "config": None, "tol": None, "energy": -1.0,
        "height": 1.0, "t_limit": None, "out": None, "format": "csv",
    }


def test_exact_option_beats_a_longer_one_it_prefixes():
    # --k is find-orbit's own option, though --kind starts with it
    args = cli._parse_args(["find-orbit", "--energy", "-1", "--k", "3"])
    assert (args.k, args.kind) == (3, "langmuir")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--t", "1", "--energy", "-1", "--height", "1"],
     "ambiguous option: --t could match --tol, --t-limit"),
    (["simulate", "--h", "1", "--energy", "-1"],
     "ambiguous option: --h could match --help, --height"),
    (["simulate", "--energy", "-1"],
     "the following arguments are required: --height"),
    (["scan", "--grid", "1,2,2"],
     "the following arguments are required: --energy"),
    (["find-orbit", "--energy", "-1", "--kind", "other"],
     "argument --kind: invalid choice: 'other' (choose from 'langmuir', "
     "'brake')"),
    (["simulate", "--energy", "-1", "--height", "1", "--format", "png"],
     "argument --format: invalid choice: 'png'"),
    ([], "the following arguments are required: command"),
    (["orbit"], "argument command: invalid choice: 'orbit'"),
    (["simulate", "--energy", "-1", "--height", "1", "--out"],
     "argument --out: expected one argument"),
    (["verify", "extra"], "unrecognized arguments: extra"),
    (["simulate", "--energy", "abc", "--height", "1"],
     "argument --energy: invalid float value: 'abc'"),
    (["find-orbit", "--energy", "-1", "--k", "2.5"],
     "argument --k: invalid int value: '2.5'"),
    (["find-orbit", "--energy", "-1", "--bracket", "1"],
     "argument --bracket: bracket must be LO,HI"),
    (["scan", "--energy", "-1", "--grid", "1,2"],
     "argument --grid: grid must be LO,HI,N"),
], ids=["ambiguous", "ambiguous_with_help", "missing_required",
        "missing_energy", "bad_kind", "bad_format", "no_command",
        "unknown_command", "trailing_option", "stray_argument",
        "bad_float", "bad_int", "bad_bracket", "bad_grid"])
def test_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_INVALID_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, _, error = captured.err.rstrip("\n").rpartition("\n")
    assert usage.startswith("usage: langmuir-lab")
    assert error.startswith("langmuir-lab") and ": error: " in error
    assert message in error


@pytest.mark.parametrize("argv, values", [
    (["simulate", "--energy", "-1", "--height", "1.398", "--format", "svg",
      "--tol", "1e-9", "--config", "settings.cfg"],
     {"command": "simulate", "energy": -1.0, "format": "svg",
      "height": 1.398, "tol": 1e-9}),
    (["find-orbit", "--kind", "brake", "--k", "3", "--energy", "-1.6",
      "--bracket", "0.3,0.4", "--out", "orbit"],
     {"bracket": [0.3, 0.4], "command": "find-orbit", "energy": -1.6,
      "k": 3, "kind": "brake", "out": "orbit"}),
], ids=["simulate_svg", "find_orbit_brake"])
def test_config_comment_is_the_json_of_the_given_values(argv, values):
    # the SVG's comment: every value set, by default or by argv, in key
    # order, without the config path and the unset options
    assert list(values) == sorted(values)
    assert cli._config_comment(cli._parse_args(argv)) == json.dumps(values)


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--energy", "-1.0", "--height", "1.0", "--t-limit", "0.1"],
     "--out"),
    (["find-orbit", "--energy", "-1.0"], "--out"),
    (["scan", "--energy", "-1.0", "--grid", "0.5,3.0,3"], "--out"),
    (["verify"], "--report"),
    (["zero-energy", "--t-end", "1.0"], "--report"),
], ids=["simulate", "find_orbit", "scan", "verify", "zero_energy"])
def test_unwritable_output_exits_2(argv, flag, tmp_path, capsys):
    # the directory does not exist, so the output file cannot be opened
    rc = main(argv + [flag, str(tmp_path / "missing" / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


class TestSerializationHelpers:
    def test_number_formatting_round_trips(self):
        # both CSV writers print 17 significant digits, which parse back to
        # the very float
        for v in (math.pi, 1.0 / 3.0, 6.123233995736766e-17, -2.5e300):
            traj = Trajectory(samples=(dyn.State(v, v, v, v, v),), events=(),
                              max_energy_drift=0.0,
                              termination=EventKind.TIME_LIMIT)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dyn, "energy", lambda s: v)
                row = output.trajectory_csv(traj).split("\n")[1]
            assert [float(f) for f in row.split(",")] == [v] * 6
            res = shooting.ShootResult(v, v, v, 0, v)
            row = output.scan_csv([res]).split("\n")[1]
            assert [float(f) for f in row.split(",")[:3]] == [v] * 3
            assert float(row.split(",")[4]) == v

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats()] * 6,
                                   st.integers(min_value=0)),
                         min_size=1, max_size=5))
    @example(rows=[(math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0),
                   (-5e-324, 2.2250738585072009e-308, math.nan, math.inf,
                    -0.0, 1.0, 7)])
    def test_csv_rows_are_17g_joined(self, rows):
        # any float, nan, infinities, signed zeros and subnormals included,
        # prints as format(v, ".17g") prints it, in trajectory rows and scan
        # rows; the energy column is drawn too, so the samples need not be
        # admissible states, nor the scan rows a launch's
        samples = tuple(dyn.State(t=t, x=x, y=y, vx=vx, vy=vy)
                        for t, x, y, vx, vy, _, _ in rows)
        energies = iter(row[5] for row in rows)
        traj = Trajectory(samples=samples, events=(), max_energy_drift=0.0,
                          termination=EventKind.TIME_LIMIT)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dyn, "energy", lambda s: next(energies))
            text = output.trajectory_csv(traj)
        want = [output.CSV_HEADER] + [
            ",".join(format(v, ".17g") for v in row[:6]) for row in rows
        ]
        assert text == "\n".join(want) + "\n"
        results = [shooting.ShootResult(h, t_h, alpha, n, drift, "ok")
                   for h, t_h, alpha, drift, _, _, n in rows]
        want = [output.SCAN_HEADER] + [
            ",".join([*(format(v, ".17g") for v in row[:3]), str(row[6]),
                      format(row[3], ".17g"), "ok"])
            for row in rows
        ]
        assert output.scan_csv(results) == "\n".join(want) + "\n"

    def test_csv_rejects_bad_header(self):
        # the tests' reader of the CSV output refuses a text that is not
        # one, so no test reads a foreign or empty file as rows
        for text in ("a,b,c\n1,2,3\n", ""):
            with pytest.raises(ValueError):
                parse_trajectory_csv(text)

    def test_verdict_json_is_sorted(self):
        from langmuir_lab.analysis import CheckReport

        reports = [
            CheckReport("zeta", True, 0.0, 1.0, {}),
            CheckReport("alpha", True, 0.0, 1.0, {}),
        ]
        doc = json.loads(output.verdict_json(reports))
        assert list(doc) == ["alpha", "zeta"]

    def test_verdict_json_writes_no_finite_number_as_null(self):
        from langmuir_lab.analysis import CheckReport

        reports = [
            CheckReport("nan", False, math.nan, math.inf, {}),
            CheckReport("finite", True, -0.0, 1e-300, {}),
        ]
        doc = json.loads(output.verdict_json(reports))
        assert doc["nan"] == {"passed": False, "worst_violation": None,
                              "tolerance": None}
        assert doc["finite"] == {"passed": True, "worst_violation": -0.0,
                                 "tolerance": 1e-300}

    def test_other_non_finite_fields_are_refused(self):
        # no writer emits a token outside JSON: a non-finite field it does
        # not expect raises ValueError, which the CLI reports with exit 2
        rec = shooting.find_langmuir_orbit(-1.0)
        with pytest.raises(ValueError, match="JSON"):
            output.orbit_record_json(rec.replace(alpha_residual=math.nan))
        traj = Trajectory(samples=(rec.touch_state,), events=(),
                          max_energy_drift=math.inf,
                          termination=EventKind.TIME_LIMIT)
        with pytest.raises(ValueError, match="JSON"):
            output.trajectory_json(traj)
