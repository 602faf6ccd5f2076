"""Command-line front end.

Subcommands: simulate, find-orbit, scan, verify, zero-energy.
Configuration precedence: CLI flags > config file (flat key=value lines) >
built-in defaults.  Exit codes: 0 success, 1 verification failure, 2 input
validation (including an unreadable config file or an unwritable output
path), 3 bad bracket, 4 no convergence, 5 integration failure (including an
orbit that fails its retrace check).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from collections.abc import Sequence

from . import analysis, dynamics, output, shooting
from .dynamics import ProblemSpec
from .errors import (
    BadBracket,
    ClosureFailure,
    DomainError,
    NoConvergence,
    NoRest,
    StepUnderflow,
)
from .integrator import EventKind, IntegratorSettings, _integrate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_BAD_BRACKET = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTEGRATION_FAILED = 5

_SETTINGS_KEYS = IntegratorSettings._fields


def _read_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        fh = open(path)
    except OSError as exc:
        raise DomainError(f"cannot read config file: {exc}") from exc
    values = {}
    with fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"malformed config line: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _SETTINGS_KEYS:
                raise DomainError(
                    f"unknown config key: {key!r} (accepted keys: "
                    f"{', '.join(_SETTINGS_KEYS)})"
                )
            values[key] = float(val.strip())
    return values


def _settings(args, config: dict) -> IntegratorSettings:
    values = dict(config)
    if getattr(args, "tol", None) is not None:
        values["rel_tol"] = args.tol
    if getattr(args, "t_limit", None) is not None:
        values["t_limit"] = args.t_limit
    return IntegratorSettings(**values)


def _config_comment(args) -> str:
    import json  # not at the top, for start-up: only SVG output calls this

    skip = {"config"}
    items = {
        k: v for k, v in sorted(vars(args).items())
        if k not in skip and v is not None
    }
    return json.dumps(items, default=str)


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file: {exc}") from exc


def cmd_simulate(args) -> int:
    settings = _settings(args, _read_config(args.config))
    s0 = dynamics.initial_state(ProblemSpec(E=args.energy, h=args.height))
    traj = _integrate(s0, settings, args.energy, watch={
        EventKind.X_VELOCITY_ZERO, EventKind.MAGICAL_LINE_CROSS})
    if args.format == "csv":
        text = output.trajectory_csv(traj)
    elif args.format == "json":
        text = output.trajectory_json(traj)
    else:
        text = output.trajectory_svg(traj, args.energy, _config_comment(args))
    _write(args.out, text)
    return EXIT_OK


def cmd_find_orbit(args) -> int:
    if args.k is not None and args.kind != "brake":
        raise DomainError("--k applies only to --kind brake")
    settings = _settings(args, _read_config(args.config))
    if args.kind == "brake":
        rec = shooting.find_brake_orbit(
            args.energy, args.bracket, k=args.k, settings=settings
        )
    else:
        rec = shooting.find_langmuir_orbit(args.energy, args.bracket, settings)
    # the retrace runs before any file is written, and the files are
    # written from the quarter arc: no 4T orbit is assembled
    quarter = shooting._closed_quarter_arc(rec)
    rec_json = output.orbit_record_json(rec)
    if args.out:
        _write(args.out + ".orbit.json", rec_json)
        _write(args.out + ".orbit.csv", output.orbit_csv(quarter))
        _write(
            args.out + ".orbit.svg",
            output.orbit_svg(quarter, args.energy, _config_comment(args)),
        )
    else:
        sys.stdout.write(rec_json)
    return EXIT_OK


def cmd_scan(args) -> int:
    lo, hi, n = args.grid
    if not (0.0 < lo < hi < math.inf and n >= 1):
        raise DomainError(f"invalid grid {args.grid}")
    settings = _settings(args, _read_config(args.config))
    grid = shooting.default_grid(lo, hi, n)
    results = shooting.scan_alpha(args.energy, grid, settings)
    _write(args.out, output.scan_csv(results))
    brackets = shooting.sign_change_brackets(results)
    # each end as repr: the grid height of the CSV, which `find-orbit
    # --bracket` takes back exactly
    for lo, hi in brackets:
        print(f"sign change on [{lo!r}, {hi!r}]", file=sys.stderr)
    if not brackets:
        print("no sign change on this grid", file=sys.stderr)
    if not any(r.status == "ok" for r in results):
        raise NoRest(1, "every grid point")
    return EXIT_OK


def cmd_verify(args) -> int:
    settings = _settings(args, _read_config(args.config))
    reports = analysis.run_all_checks(settings)
    text = output.verdict_json(reports)
    _write(args.report, text)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(
            f"{status} {r.name}: worst={r.worst_violation:.3e} "
            f"tol={r.tolerance:.1e}",
            file=sys.stderr,
        )
    if all(r.passed for r in reports):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def cmd_zero_energy(args) -> int:
    settings = _settings(args, _read_config(args.config))
    run = analysis.zero_energy_run(args.t_end, settings)
    reports = [
        analysis.check_zero_energy_monotone(run),
        analysis.check_inverted_concavity(run),
    ]
    text = output.verdict_json(reports)
    _write(args.report, text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bracket must be LO,HI")
    lo, hi = float(parts[0]), float(parts[1])
    return lo, hi


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be LO,HI,N")
    return float(parts[0]), float(parts[1]), int(parts[2])


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative number with an exponent,
    such as `--energy -1e5`, as an option's value: argparse's own pattern
    for a negative number has no exponent, so it reads `-1e5` as an
    option.  Its subcommands' parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command's parser, built at the first call and kept; parsing
    leaves it as it is."""
    parser = _Parser(
        prog="langmuir-lab",
        description="Planar two-electron (Langmuir) problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value settings file")
        p.add_argument("--tol", type=float, help="relative tolerance override")

    p = sub.add_parser("simulate", help="integrate one launch and export it")
    common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--t-limit", type=float, dest="t_limit", help="time "
                   "limit in the units of the run's scale (see README)")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("find-orbit", help="locate a periodic orbit")
    common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--bracket", type=_parse_bracket)
    p.add_argument("--kind", choices=("langmuir", "brake"), default="langmuir")
    p.add_argument("--k", type=int, help="rest count for brake orbits")
    p.add_argument("--out", help="output prefix for .orbit.{json,csv,svg}")

    p = sub.add_parser("scan", help="tabulate the shooting functional; "
                       "its sign changes go to stderr")
    common(p)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--grid", type=_parse_grid, required=True,
                   help="LO,HI,N uniform height grid")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p)
    p.add_argument("--report", help="verdict JSON path")

    p = sub.add_parser("zero-energy", help="zero-energy monotonicity checks")
    common(p)
    p.add_argument("--t-end", type=float, dest="t_end", default=50.0)
    p.add_argument("--report", help="verdict JSON path")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up at each call, not kept in the parser, so that a rebound
    # cmd_* function (a test's or a tracer's) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except BadBracket as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_BRACKET
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (StepUnderflow, NoRest, ClosureFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
