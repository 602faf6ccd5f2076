#!/usr/bin/env python3
"""Regenerate the standard figures into figures/.

Three SVG plots at E = -1: a near-periodic launch (h = 1.398), a low launch
(h = 0.3) and a mid-range launch (h = 0.8), each drawn against the Hill
boundary and the vanishing-vertical-force lines, plus the two converged
periodic orbits.
"""

import argparse
import pathlib
import sys

from langmuir_lab import dynamics, output, shooting
from langmuir_lab.dynamics import ProblemSpec
from langmuir_lab.integrator import EventKind, IntegratorSettings, integrate

HEIGHTS = (1.398, 0.3, 0.8)
ENERGY = -1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", default="figures", help="output directory"
    )
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    settings = IntegratorSettings()
    for h in HEIGHTS:
        s0 = dynamics.initial_state(ProblemSpec(E=ENERGY, h=h))
        traj = integrate(s0, settings, stop={EventKind.X_VELOCITY_ZERO})
        path = out_dir / f"launch_h{h:g}.svg"
        path.write_text(
            output.trajectory_svg(traj, ENERGY, f"E={ENERGY} h={h}")
        )
        print(f"wrote {path} ({len(traj.samples)} samples)")

    for name, rec in (
        ("langmuir", shooting.find_langmuir_orbit(ENERGY)),
        ("brake", shooting.find_brake_orbit(ENERGY)),
    ):
        # the retrace check of assemble_periodic_orbit, then the 4T orbit
        # drawn from the quarter arc
        quarter = shooting._closed_quarter_arc(rec)
        path = out_dir / f"orbit_{name}.svg"
        path.write_text(
            output.orbit_svg(
                quarter, ENERGY, f"kind={rec.kind} h*={rec.h_star:.10f}"
            )
        )
        print(f"wrote {path} (h*={rec.h_star:.10f}, T={rec.quarter_period:.10f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
