"""Serialization: trajectory CSV, orbit-record and verdict JSON, SVG plots.

All numbers are printed with 17 significant digits so that parsing the file
back reproduces the exact binary values.  SVG figures are drawn directly
(simple polylines), one <path> per curve, with the run configuration
embedded as a comment for provenance.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Sequence

from . import dynamics
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
    return json.dumps(doc, indent=2) + "\n"


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
    return json.dumps(doc, indent=2) + "\n"


def verdict_json(reports: Iterable[CheckReport]) -> str:
    doc = {
        r.name: {
            "passed": r.passed,
            "worst_violation": r.worst_violation,
            "tolerance": r.tolerance,
        }
        for r in sorted(reports, key=lambda r: r.name)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def _path(frame: _Frame, pts, color: str, width: float = 1.5) -> str:
    cmds = []
    for i, (x, y) in enumerate(pts):
        op = "M" if i == 0 else "L"
        cmds.append(f"{op}{frame.px(x):.2f},{frame.py(y):.2f}")
    d = " ".join(cmds)
    return (
        f'<path d="{d}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"/>'
    )


def trajectory_svg(
    traj: Trajectory,
    E: float,
    config_comment: str = "",
) -> str:
    """Figure: trajectory arc, Hill boundary (for E < 0), the two
    vanishing-vertical-force half-lines, and a start marker."""
    curve = [(s.x, s.y) for s in traj.samples]
    xs = [p[0] for p in curve]
    ys = [p[1] for p in curve]
    boundary = []
    if E < 0.0:
        boundary = dynamics.hill_boundary_sample(E, _BOUNDARY_POINTS)
        xs += [p[0] for p in boundary]
        ys += [p[1] for p in boundary]
    frame = _Frame(xs + [0.0], ys + [0.0])

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
        out.write(
            _path(frame, [(0.0, 0.0), (x_end, y_top)], "#999999", 1.0) + "\n"
        )
    if boundary:
        out.write(_path(frame, boundary, "#1f77b4", 1.5) + "\n")
    out.write(_path(frame, curve, "#d62728", 1.5) + "\n")
    s0 = traj.samples[0]
    out.write(
        f'<circle cx="{frame.px(s0.x):.2f}" cy="{frame.py(s0.y):.2f}" '
        f'r="4" fill="green"/>\n'
    )
    out.write("</svg>\n")
    return out.getvalue()
