import json
import math

import pytest

from langmuir_lab import dynamics as dyn
from langmuir_lab import output, shooting
from langmuir_lab.cli import main


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
        rows = output.parse_trajectory_csv(out.read_text())
        assert len(rows) > 10
        for t, x, y, vx, vy, e in rows:
            s = dyn.State(t=t, x=x, y=y, vx=vx, vy=vy)
            assert abs(dyn.energy(s) - e) <= 1e-12

    def test_rejects_inadmissible_height(self, capsys):
        rc = main(["simulate", "--energy", "-1.0", "--height", "4.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "(0, 3.5)" in err

    def test_rejects_negative_height(self):
        assert main(["simulate", "--energy", "-1.0", "--height", "-1.0"]) == 2

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
        rec = output.parse_orbit_record(text)
        assert rec == shooting.find_langmuir_orbit(-1.0)
        assert (tmp_path / "orbit.orbit.csv").exists()
        assert (tmp_path / "orbit.orbit.svg").exists()

    def test_orbit_csv_is_periodic(self, tmp_path):
        prefix = tmp_path / "orbit"
        main(["find-orbit", "--energy", "-1.0", "--out", str(prefix)])
        rows = output.parse_trajectory_csv(
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

    def test_rest_count_without_brake_kind(self, capsys):
        rc = main(["find-orbit", "--energy", "-1.0", "--k", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--k" in captured.err
        assert captured.out == ""

    def test_retrace_failure_exit_code(self, retrace_without_samples, capsys):
        rc = main(["find-orbit", "--energy", "-1.0"])
        assert rc == 5
        assert "mirroring" in capsys.readouterr().err


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

    def test_scan_invalid_grid(self):
        assert main(["scan", "--energy", "-1.0", "--grid", "3.0,0.5,6"]) == 2


class TestVerify:
    def test_verify_passes_and_is_deterministic(self, tmp_path):
        r1 = tmp_path / "verdict1.json"
        r2 = tmp_path / "verdict2.json"
        assert main(["verify", "--report", str(r1)]) == 0
        assert main(["verify", "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        doc = json.loads(r1.read_text())
        assert len(doc) == 7
        assert all(v["passed"] for v in doc.values())

    def test_verify_degrades_with_loose_tolerance(self, tmp_path):
        report = tmp_path / "verdict.json"
        rc = main(["verify", "--tol", "1e-4", "--report", str(report)])
        assert rc == 1
        doc = json.loads(report.read_text())
        assert not doc["energy_drift"]["passed"]

    def test_zero_energy_subcommand(self, tmp_path):
        report = tmp_path / "zero.json"
        rc = main(["zero-energy", "--t-end", "20", "--report", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"zero_energy_monotone", "inverted_concavity"}


class TestConfig:
    def test_config_file_applied(self, tmp_path):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("t_limit = 0.25\n# a comment\n\nh_max = 0.05\n")
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
        rows = output.parse_trajectory_csv(out.read_text())
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
        rows = output.parse_trajectory_csv(out.read_text())
        assert rows[-1][0] == pytest.approx(0.5, abs=1e-12)

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

    def test_forced_substeps_are_not_a_setting(self, tmp_path, capsys):
        # samples are step ends and requested times; there is no setting
        # that forces interior samples
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("substeps = 2\n")
        rc = main(
            [
                "simulate",
                "--energy", "-1.0",
                "--height", "1.0",
                "--config", str(cfg),
            ]
        )
        assert rc == 2
        assert "unknown config key: 'substeps'" in capsys.readouterr().err


class TestSerializationHelpers:
    def test_number_formatting_round_trips(self):
        for v in (math.pi, 1.0 / 3.0, 6.123233995736766e-17, -2.5e300):
            assert float(output.fmt(v)) == v

    def test_csv_rejects_bad_header(self):
        for text in ("a,b,c\n1,2,3\n", ""):
            with pytest.raises(ValueError):
                output.parse_trajectory_csv(text)

    def test_verdict_json_is_sorted(self):
        from langmuir_lab.analysis import CheckReport

        reports = [
            CheckReport("zeta", True, 0.0, 1.0, {}),
            CheckReport("alpha", True, 0.0, 1.0, {}),
        ]
        doc = json.loads(output.verdict_json(reports))
        assert list(doc) == ["alpha", "zeta"]
