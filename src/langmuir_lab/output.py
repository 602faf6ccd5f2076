"""Serialization: trajectory CSV, orbit-record and verdict JSON, SVG plots.

All numbers are printed with 17 significant digits so that parsing the file
back reproduces the exact binary values.  SVG figures are drawn directly
(simple polylines), one <path> per curve, with the run configuration
embedded as a comment for provenance.  The periodic orbit's CSV and SVG
are written from its quarter arc (orbit_csv, orbit_svg), whose numbers
three in four of the orbit's samples repeat.  The JSON is standard JSON:
verdict_json writes a worst violation or tolerance that is not finite as
null, and any other field that is not finite raises ValueError.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Iterable, Sequence

from . import dynamics, shooting
from .analysis import CheckReport
from .dynamics import State
from .integrator import Trajectory
from .shooting import OrbitRecord, ShootResult

CSV_HEADER = "t,x,y,vx,vy,energy"
SCAN_HEADER = "h,t_h,alpha,n_magical_crossings,energy_drift,status"


def fmt(v: float) -> str:
    return format(v, ".17g")


# ---------------------------------------------------------------- CSV

def trajectory_csv(traj: Trajectory) -> str:
    lines = [CSV_HEADER]
    for s in traj.samples:
        e = dynamics.energy(s)
        # one format per row; "%.17g" prints each value as fmt does
        lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g"
                     % (s.t, s.x, s.y, s.vx, s.vy, e))
    return "\n".join(lines) + "\n"


def _negated(field: str) -> str:
    """The text of -v from that of v as "%.17g" prints it, v not nan: its
    sign flipped ("0" and "-0" included)."""
    return field[1:] if field[0] == "-" else "-" + field


def orbit_csv(quarter: Trajectory) -> str:
    """trajectory_csv of the 4T orbit that assemble_periodic_orbit closes
    from the quarter arc `quarter`, byte for byte, made from the quarter's
    own rows: a mirrored row is the row of its quarter sample (see
    shooting._periodic_layout) at its own time, with the signs that its
    symmetry negates flipped as text.  Only its time is formatted."""
    text = trajectory_csv(quarter)
    rows = [row.split(",") for row in text.split("\n")[1:-1]]
    layout = shooting._periodic_layout([s.t for s in quarter.samples])
    fields: list = []
    # the layout opens with the quarter's own rows, which `text` holds
    for t, i, (sx, svx, svy) in layout[len(rows):]:
        _, x, y, vx, vy, e = rows[i]
        fields += (t, x if sx > 0.0 else _negated(x), y,
                   vx if svx > 0.0 else _negated(vx),
                   vy if svy > 0.0 else _negated(vy), e)
    # the mirrored rows in one format
    row = "%.17g,%s,%s,%s,%s,%s\n"
    return text + (row * (len(fields) // 6)) % tuple(fields)


def scan_csv(results: Sequence[ShootResult]) -> str:
    lines = [SCAN_HEADER]
    for r in results:
        lines.append(
            ",".join(
                (
                    fmt(r.h),
                    fmt(r.t_h),
                    fmt(r.alpha),
                    str(r.n_magical_crossings),
                    fmt(r.energy_drift),
                    r.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- JSON

def _state_dict(s: State) -> dict:
    return {"t": s.t, "x": s.x, "y": s.y, "vx": s.vx, "vy": s.vy}


def orbit_record_json(rec: OrbitRecord) -> str:
    doc = {
        "E": rec.E,
        "h_star": rec.h_star,
        "quarter_period": rec.quarter_period,
        "period": 4.0 * rec.quarter_period,
        "touch_state": _state_dict(rec.touch_state),
        "alpha_residual": rec.alpha_residual,
        "kind": rec.kind,
        "solver_trace": [[h, a] for h, a in rec.solver_trace],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def trajectory_json(traj: Trajectory) -> str:
    doc = {
        "termination": traj.termination.value,
        "max_energy_drift": traj.max_energy_drift,
        "events": [
            {"kind": ev.kind.value, "t": ev.t, "state": _state_dict(ev.state)}
            for ev in traj.events
        ],
        "samples": [_state_dict(s) for s in traj.samples],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _finite_or_none(v: float) -> float | None:
    return v if math.isfinite(v) else None


def verdict_json(reports: Iterable[CheckReport]) -> str:
    """Each check's verdict; a worst violation or tolerance that is not
    finite (a check that compared nothing has an infinite worst) is
    written as null, which JSON has, where inf and nan are not JSON."""
    doc = {
        r.name: {
            "passed": r.passed,
            "worst_violation": _finite_or_none(r.worst_violation),
            "tolerance": _finite_or_none(r.tolerance),
        }
        for r in sorted(reports, key=lambda r: r.name)
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------- SVG

_WIDTH, _HEIGHT = 800, 600
_BOUNDARY_POINTS = 400  # vertices of the Hill boundary path


class _Frame:
    """Data-to-pixel transform with a 5% margin, y pointing up."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        pad_x = 0.05 * (x_hi - x_lo or 1.0)
        pad_y = 0.05 * (y_hi - y_lo or 1.0)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y

    def px(self, x: float) -> float:
        return _WIDTH * (x - self.x_lo) / (self.x_hi - self.x_lo)

    def py(self, y: float) -> float:
        return _HEIGHT * (self.y_hi - y) / (self.y_hi - self.y_lo)


def _pixels(frame: _Frame, pts: Iterable[tuple[float, float]]) -> list[str]:
    """The pixel pair "X,Y" of each point, to 2 decimals: frame.px(x) and
    frame.py(y), each written out inline."""
    x_lo, x_span = frame.x_lo, frame.x_hi - frame.x_lo
    y_hi, y_span = frame.y_hi, frame.y_hi - frame.y_lo
    return ["%.2f,%.2f" % (_WIDTH * (x - x_lo) / x_span,
                           _HEIGHT * (y_hi - y) / y_span) for x, y in pts]


def _path(pixels: Sequence[str], color: str, width: float = 1.5) -> str:
    d = "M" + " L".join(pixels)
    return (
        f'<path d="{d}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"/>'
    )


def _frame(xs: list[float], ys: list[float],
           E: float) -> tuple[_Frame, list[tuple[float, float]]]:
    """The frame of a figure of the curve through xs, ys at energy E, and
    the Hill boundary that it holds (none unless E < 0); the frame holds
    the origin too."""
    boundary = []
    if E < 0.0:
        boundary = dynamics.hill_boundary_sample(E, _BOUNDARY_POINTS)
        xs = xs + [p[0] for p in boundary]
        ys = ys + [p[1] for p in boundary]
    return _Frame(xs + [0.0], ys + [0.0]), boundary


def _figure(frame: _Frame, boundary: list[tuple[float, float]],
            curve: Sequence[str], start: State, config_comment: str) -> str:
    """The SVG document: the two vanishing-vertical-force half-lines, the
    Hill boundary, the curve through the pixel pairs `curve` and a start
    marker at `start`."""
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
    )
    if config_comment:
        safe = config_comment.replace("--", "- -")
        out.write(f"<!-- config: {safe} -->\n")
    out.write('<rect width="100%" height="100%" fill="white"/>\n')
    # magical line: one path per half-line
    y_top = frame.y_hi
    for sgn in (-1.0, 1.0):
        x_end = sgn * dynamics.SQRT3 * y_top
        line = _pixels(frame, [(0.0, 0.0), (x_end, y_top)])
        out.write(_path(line, "#999999", 1.0) + "\n")
    if boundary:
        out.write(_path(_pixels(frame, boundary), "#1f77b4", 1.5) + "\n")
    out.write(_path(curve, "#d62728", 1.5) + "\n")
    out.write(
        f'<circle cx="{frame.px(start.x):.2f}" cy="{frame.py(start.y):.2f}" '
        f'r="4" fill="green"/>\n'
    )
    out.write("</svg>\n")
    return out.getvalue()


def trajectory_svg(
    traj: Trajectory,
    E: float,
    config_comment: str = "",
) -> str:
    """Figure: trajectory arc, Hill boundary (for E < 0), the two
    vanishing-vertical-force half-lines, and a start marker."""
    curve = [(s.x, s.y) for s in traj.samples]
    frame, boundary = _frame([p[0] for p in curve], [p[1] for p in curve], E)
    return _figure(frame, boundary, _pixels(frame, curve), traj.samples[0],
                   config_comment)


def orbit_svg(quarter: Trajectory, E: float, config_comment: str = "") -> str:
    """trajectory_svg of the 4T orbit that assemble_periodic_orbit closes
    from the quarter arc `quarter`, byte for byte, made from the quarter:
    the orbit's points are the quarter's and their x-reflections, so each
    pixel pair is formatted once and the orbit's curve lists them in the
    order of shooting._periodic_layout."""
    xs = [s.x for s in quarter.samples]
    ys = [s.y for s in quarter.samples]
    frame, boundary = _frame(xs + [-x for x in xs], ys, E)
    near = _pixels(frame, zip(xs, ys))
    far = _pixels(frame, [(-x, y) for x, y in zip(xs, ys)])
    layout = shooting._periodic_layout([s.t for s in quarter.samples])
    curve = [(near if sx > 0.0 else far)[i] for _, i, (sx, _, _) in layout]
    return _figure(frame, boundary, curve, quarter.samples[0], config_comment)
