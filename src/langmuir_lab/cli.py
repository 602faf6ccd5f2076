"""Command-line front end.

Subcommands: simulate, find-orbit, scan, verify, zero-energy.
Configuration precedence: CLI flags > config file (flat key=value lines) >
built-in defaults.  Exit codes: 0 success, 1 verification failure, 2 input
validation (including an unreadable config file or an unwritable output
path), 3 bad bracket, 4 no convergence, 5 integration failure (including an
orbit that fails its retrace check).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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
        raise ValueError("bracket must be LO,HI")
    lo, hi = float(parts[0]), float(parts[1])
    return lo, hi


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("grid must be LO,HI,N")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _option(flag, convert=str, default=None, required=False, choices=None,
            text=""):
    """One row of the option table: flag, dest, converter, default,
    required, choices and help text.  The dest is the flag's name with
    `_` for `-`, as argparse derived it."""
    dest = flag[2:].replace("-", "_")
    return flag, dest, convert, default, required, choices, text


_PROG = "langmuir-lab"
_DESCRIPTION = "Planar two-electron (Langmuir) problem toolkit"
_COMMON = (
    _option("--config", text="flat key=value settings file"),
    _option("--tol", float, text="relative tolerance override"),
)
_ENERGY = _option("--energy", float, required=True)
_REPORT = _option("--report", text="verdict JSON path")
# each command's help line and its options, in the order --help lists them
_COMMANDS = {
    "simulate": ("integrate one launch and export it", (
        *_COMMON, _ENERGY,
        _option("--height", float, required=True),
        _option("--t-limit", float, text="time limit in the units of the "
                "run's scale (see README)"),
        _option("--out"),
        _option("--format", default="csv", choices=("csv", "json", "svg")),
    )),
    "find-orbit": ("locate a periodic orbit", (
        *_COMMON, _ENERGY,
        _option("--bracket", _parse_bracket, text="LO,HI height bracket"),
        _option("--kind", default="langmuir", choices=("langmuir", "brake")),
        _option("--k", int, text="rest count for brake orbits"),
        _option("--out", text="output prefix for .orbit.{json,csv,svg}"),
    )),
    "scan": ("tabulate the shooting functional; its sign changes go to "
             "stderr", (
        *_COMMON, _ENERGY,
        _option("--grid", _parse_grid, required=True,
                text="LO,HI,N uniform height grid"),
        _option("--out"),
    )),
    "verify": ("run the full verification suite", (*_COMMON, _REPORT)),
    "zero-energy": ("zero-energy monotonicity checks", (
        *_COMMON,
        _option("--t-end", float, default=50.0),
        _REPORT,
    )),
}
_HELP = ("-h", "--help")


def _metavar(row) -> str:
    _, dest, _, _, _, choices, _ = row
    return "{" + ",".join(choices) + "}" if choices else dest.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    head = f"usage: {_PROG} {command}"
    lines = [head + " [-h]"]
    for row in _COMMANDS[command][1]:
        word = f"{row[0]} {_metavar(row)}"
        if not row[4]:
            word = f"[{word}]"
        if len(lines[-1]) + 1 + len(word) > 79:
            lines.append(" " * len(head))
        lines[-1] += " " + word
    return "\n".join(lines)


def _fail(command: str | None, message: str):
    """Report a usage error as argparse did, and exit 2."""
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INVALID_INPUT)


def _help(command: str | None):
    """Print the command list, or one command's options, and exit 0."""
    lines = [_usage(command), ""]
    if command is None:
        lines += [_DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<13}{about}"
                  for name, (about, _) in _COMMANDS.items()]
    else:
        about, options = _COMMANDS[command]
        lines += [about, "", "options:",
                  f"  {'-h, --help':<25}show this help message and exit"]
        for row in options:
            flag, _, _, default, required, _, text = row
            notes = [text] if text else []
            if required:
                notes.append("(required)")
            elif default is not None:
                notes.append(f"(default: {default})")
            lines.append(f"  {flag + ' ' + _metavar(row):<25}"
                         f"{' '.join(notes)}".rstrip())
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(EXIT_OK)


def _resolve(command: str | None, name: str, names) -> str | None:
    """The option of names that name spells: itself, or the one option it
    is a prefix of, as argparse matched abbreviations; None for none."""
    if name in names:
        return name
    hits = ([n for n in names if n.startswith(name)]
            if name.startswith("--") and len(name) > 2 else [])
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {name} could match "
              f"{', '.join(hits)}")
    return hits[0] if hits else None


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command named by argv[0] and its options, read by the table.

    An option takes `--opt value` or `--opt=value`, under its full name or
    a unique prefix, and the token after a value option is always its
    value, so that `--energy -1e5` needs no rule for negative numbers.
    The namespace holds `command` and every dest of the command, as
    argparse's did.  A usage error exits 2 and `-h` exits 0.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        if command.startswith("-") and _resolve(None, command, _HELP):
            _help(None)
        _fail(None, f"argument command: invalid choice: {command!r} (choose "
              f"from {', '.join(map(repr, _COMMANDS))})")
    options = {row[0]: row for row in _COMMANDS[command][1]}
    names = (*_HELP, *options)
    values = {row[1]: row[3] for row in options.values()}
    tokens = iter(rest)
    for token in tokens:
        name, eq, text = token.partition("=")
        flag = _resolve(command, name, names)
        if flag is None:
            _fail(command, f"unrecognized arguments: {token}")
        if flag in _HELP:
            _help(command)
        if not eq:
            text = next(tokens, None)
            if text is None:
                _fail(command, f"argument {flag}: expected one argument")
        _, dest, convert, _, _, choices, _ = options[flag]
        try:
            value = convert(text)
        except ValueError as exc:
            reason = (f"invalid {convert.__name__} value: {text!r}"
                      if convert in (float, int) else exc)
            _fail(command, f"argument {flag}: {reason}")
        if choices and value not in choices:
            _fail(command, f"argument {flag}: invalid choice: {value!r} "
                  f"(choose from {', '.join(map(repr, choices))})")
        values[dest] = value
    missing = [row[0] for row in options.values()
               if row[4] and values[row[1]] is None]
    if missing:
        _fail(command, "the following arguments are required: "
              + ", ".join(missing))
    return SimpleNamespace(command=command, **values)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # looked up at each call, not kept in a table, so that a rebound
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
