"""Shared oracles for the test suite.

The fixed-step classical RK4 propagator below is deliberately independent
of the package's adaptive integrator: it hard-codes the vector field and
the Runge-Kutta arithmetic so that agreement between the two is a real
cross-check, not a tautology.  It also steps the circle-inverted chart
below, which the package does not integrate.  The Taylor-series integrator
after it is the high-precision oracle of the shooting functional.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import strategies as st

from langmuir_lab.errors import DomainError


def rk4_fixed(x, y, vx, vy, t_end, dt, accel=None):
    """Classical 4th-order fixed-step integration of the second-order field
    whose acceleration is accel(x, y), by default the planar two-electron
    field, from t=0; returns (x, y, vx, vy) at t_end."""

    def planar(px, py):
        r3 = (px * px + py * py) ** 1.5
        return -8.0 * px / r3, -8.0 * py / r3 + 1.0 / (py * py)

    acc = accel or planar
    n = int(round(t_end / dt))
    t = 0.0
    for _ in range(n):
        ax1, ay1 = acc(x, y)
        k1 = (vx, vy, ax1, ay1)

        x2 = x + 0.5 * dt * k1[0]
        y2 = y + 0.5 * dt * k1[1]
        ax2, ay2 = acc(x2, y2)
        k2 = (vx + 0.5 * dt * k1[2], vy + 0.5 * dt * k1[3], ax2, ay2)

        x3 = x + 0.5 * dt * k2[0]
        y3 = y + 0.5 * dt * k2[1]
        ax3, ay3 = acc(x3, y3)
        k3 = (vx + 0.5 * dt * k2[2], vy + 0.5 * dt * k2[3], ax3, ay3)

        x4 = x + dt * k3[0]
        y4 = y + dt * k3[1]
        ax4, ay4 = acc(x4, y4)
        k4 = (vx + dt * k3[2], vy + dt * k3[3], ax4, ay4)

        x += dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        y += dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        vx += dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
        vy += dt * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3]) / 6.0
        t += dt
    return x, y, vx, vy


# A Taylor-series integrator of the planar field, in plain floats: the
# high-precision oracle of the shooting functional.  It shares no arithmetic
# with the package's Runge-Kutta pair, and it reproduces the 25-digit table
# of tests/test_shooting.py to within 1e-13.
TAYLOR_ORDER = 24
TAYLOR_MAX_STEPS = 100_000


def _taylor_series(x0, y0, vx0, vy0):
    """The Taylor coefficients (x_n, y_n), n <= TAYLOR_ORDER + 1, of the
    planar motion from the state, x(t) = sum x_n t^n, by the recurrences of
    automatic differentiation: x'' = -8 x u and y'' = -8 y u + w with
    u = s^(-3/2), s = x^2 + y^2, and w = y^(-2).  s is a Cauchy product,
    and u and w follow from the power rule: for g = f^p,
    g_n = sum_{j<n} (p (n - j) - j) f_{n-j} g_j / (n f_0) (Knuth, TAOCP
    vol. 2, 4.7)."""
    x, y = [x0, vx0], [y0, vy0]
    s, u, w = [], [], []
    for n in range(TAYLOR_ORDER):
        s.append(math.fsum(x[j] * x[n - j] + y[j] * y[n - j]
                           for j in range(n + 1)))
        if n == 0:
            u.append(s[0] ** -1.5)
            w.append(1.0 / (y0 * y0))
        else:
            u.append(math.fsum((-1.5 * (n - j) - j) * s[n - j] * u[j]
                               for j in range(n)) / (n * s[0]))
            w.append(math.fsum((-2.0 * (n - j) - j) * y[n - j] * w[j]
                               for j in range(n)) / (n * y0))
        xu = math.fsum(x[j] * u[n - j] for j in range(n + 1))
        yu = math.fsum(y[j] * u[n - j] for j in range(n + 1))
        d = (n + 1) * (n + 2)
        x.append(-8.0 * xu / d)
        y.append((-8.0 * yu + w[n]) / d)
    return x, y


def _taylor_eval(c, tau, derivative=0):
    """The series c, or its first or second derivative, at tau (Horner)."""
    out = 0.0
    for n in range(len(c) - 1, derivative - 1, -1):
        factor = n if derivative == 1 else n * (n - 1) if derivative else 1
        out = out * tau + factor * c[n]
    return out


def taylor_rest(E, h, k):
    """The time and state (x, y, vx, vy) of the k-th x-rest of the
    horizontal launch from (0, h) at energy E < 0, by the Taylor series of
    order TAYLOR_ORDER.  It integrates the launch rescaled to E = -1 and
    scales back.  Each step's size is Jorba and Zou's (Exp. Math. 14
    (2005) 99): rho / e^2 * exp(-0.7 / (p - 1)), rho the smaller of
    |c_m|^(-1/m) at m = p - 1 and p = TAYLOR_ORDER, |c_m| the largest
    order-m coefficient of the state.  A rest is a sign change of vx over a
    step, located by Newton's method on the step's vx polynomial."""
    a = -1.0 / E
    u = 7.0 / (2.0 * h / a) - 1.0
    if not u > 0.0:
        raise ValueError(f"no launch speed at E={E}, h={h}")
    t, state, rests = 0.0, (0.0, h / a, 2.0 * math.sqrt(u), 0.0), 0
    p = TAYLOR_ORDER
    for _ in range(TAYLOR_MAX_STEPS):
        x, y = _taylor_series(*state)

        def norm(m):
            return max(abs(x[m]), abs(y[m]), abs((m + 1) * x[m + 1]),
                       abs((m + 1) * y[m + 1]))

        rho = min(norm(p - 1) ** (-1.0 / (p - 1)), norm(p) ** (-1.0 / p))
        step = rho / math.e ** 2 * math.exp(-0.7 / (p - 1))
        vx0, vx1 = state[2], _taylor_eval(x, step, 1)
        if (vx0 > 0.0) != (vx1 > 0.0):
            rests += 1
            if rests == k:
                tau = step * vx0 / (vx0 - vx1)
                for _ in range(50):
                    d = _taylor_eval(x, tau, 1) / _taylor_eval(x, tau, 2)
                    tau -= d
                    if abs(d) <= 1e-16 * step:
                        break
                rest = (_taylor_eval(x, tau), _taylor_eval(y, tau),
                        _taylor_eval(x, tau, 1), _taylor_eval(y, tau, 1))
                return ((t + tau) * a ** 1.5,
                        (rest[0] * a, rest[1] * a, rest[2] / math.sqrt(a),
                         rest[3] / math.sqrt(a)))
        t += step
        state = (_taylor_eval(x, step), _taylor_eval(y, step), vx1,
                 _taylor_eval(y, step, 1))
        if not state[1] > 0.0:
            raise ValueError(f"launch at h={h} leaves the half plane y > 0")
    raise ValueError(f"no rest {k} in {TAYLOR_MAX_STEPS} steps from h={h}")


def taylor_alpha_k(E, h, k):
    """alpha_k, vy at the k-th x-rest of the launch from (0, h) at energy
    E, by `taylor_rest`."""
    return taylor_rest(E, h, k)[1][3]


# Outside definitions of quantities the package does not compute as such:
# the scaling map between energy levels, r', and readers of the trajectory
# CSV and orbit JSON that `output` writes.


def scale_state(s, a):
    """The state s mapped to the energy level E/a: positions times a,
    velocities over sqrt(a), time times a^(3/2)."""
    ra = math.sqrt(a)
    return s.replace(t=a * ra * s.t, x=a * s.x, y=a * s.y, vx=s.vx / ra,
                     vy=s.vy / ra)


def radial_velocity(s):
    """r' = (x vx + y vy)/r of the state s."""
    return (s.x * s.vx + s.y * s.vy) / math.hypot(s.x, s.y)


def first_event(traj, kind):
    """The first event of the given kind in the trajectory, or None."""
    return next((ev for ev in traj.events if ev.kind is kind), None)


def parse_trajectory_csv(text):
    """The rows of a trajectory CSV as float tuples, after its header;
    ValueError for a text that does not open with that header."""
    from langmuir_lab.output import CSV_HEADER

    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"not a trajectory CSV: {text[:40]!r}")
    return [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]


def parse_orbit_record(text):
    """The OrbitRecord an orbit JSON holds; its derived `period` is not
    read back."""
    from langmuir_lab.dynamics import State
    from langmuir_lab.shooting import OrbitRecord

    doc = json.loads(text)
    return OrbitRecord(
        E=doc["E"],
        h_star=doc["h_star"],
        quarter_period=doc["quarter_period"],
        touch_state=State(**doc["touch_state"]),
        alpha_residual=doc["alpha_residual"],
        kind=doc["kind"],
        solver_trace=tuple((h, a) for h, a in doc["solver_trace"]),
    )


# The circle-inverted chart of the zero-energy analysis, in complex notation
# q -> 1/conj(q), p -> -q^2 conj(p) with p = v/2, an involution of the upper
# half plane.  Its Hamiltonian |p|^2 - 4/|q|^3 + 1/(2 |q|^2 Im q) is r^4
# times the planar energy of the preimage, r being the planar radius, so on
# E = 0 the chart's flow is the planar flow mapped, in a time tau with
# dt/dtau = r^4.  The package reads its zero-energy checks off the planar
# run alone; these functions are the independent chart they are tested
# against.  States are tuples (x, y, vx, vy).


def invert_state(x, y, vx, vy):
    """The image of the state (x, y, vx, vy) in the chart, or its preimage:
    the map is its own inverse."""
    q = complex(x, y)
    p = complex(0.5 * vx, 0.5 * vy)
    q_new = 1.0 / q.conjugate()
    p_new = -q * q * p.conjugate()
    return q_new.real, q_new.imag, 2.0 * p_new.real, 2.0 * p_new.imag


def inverted_energy(x, y, vx, vy):
    """The chart's Hamiltonian |p|^2 - 4/r^3 + 1/(2 r^2 y) (p = v/2) of a
    state in the chart; 0 on images of zero-energy states."""
    r = math.hypot(x, y)
    return 0.25 * (vx * vx + vy * vy) - 4.0 / r**3 + 0.5 / (r * r * y)


def inverted_acceleration(x, y):
    """v' = -2 grad of the chart's potential -4/r^3 + 1/(2 r^2 y); off the
    half plane y > 0 it raises DomainError, as the package's field does, so
    that the kernel rejects a step whose stage leaves it."""
    if y <= 0.0:
        raise DomainError(f"y must be positive, got {y}")
    r2 = x * x + y * y
    r4 = r2 * r2
    r5 = r4 * math.sqrt(r2)
    ax = -24.0 * x / r5 + 2.0 * x / (y * r4)
    ay = -24.0 * y / r5 + 2.0 / r4 + 1.0 / (r2 * y * y)
    return ax, ay


def polar(x, y, vx, vy):
    """Polar chart (r, phi, p_r, p_phi) of a state, with the momenta
    conjugate to (r, phi) for the |p|^2 kinetic term:
    p_r = (x vx + y vy)/(2r), p_phi = (x vy - y vx)/2."""
    r = math.hypot(x, y)
    return (r, math.atan2(y, x), (x * vx + y * vy) / (2.0 * r),
            0.5 * (x * vy - y * vx))


# The published DOP853 tableau (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, II.5 and II.10), in the 30-digit decimals of
# Hairer's dop853.f: the stage matrix A by 1-based stage and column (rows
# 2 to 12 the step's stages, row 13 the eighth-order weights b, whose stage
# is FSAL, rows 14 to 16 the stages of the continuous extension), the nodes
# c, the third-order weights BHH (E3 = b - BHH), the error weights E5, and
# the rows D4 to D7 of the continuous extension.
DOP853_A_DECIMALS = {
    2: {
        1: "5.26001519587677318785587544488e-2",
    },
    3: {
        1: "1.97250569845378994544595329183e-2",
        2: "5.91751709536136983633785987549e-2",
    },
    4: {
        1: "2.95875854768068491816892993775e-2",
        3: "8.87627564304205475450678981324e-2",
    },
    5: {
        1: "2.41365134159266685502369798665e-1",
        3: "-8.84549479328286085344864962717e-1",
        4: "9.24834003261792003115737966543e-1",
    },
    6: {
        1: "3.7037037037037037037037037037e-2",
        4: "1.70828608729473871279604482173e-1",
        5: "1.25467687566822425016691814123e-1",
    },
    7: {
        1: "3.7109375e-2", 4: "1.70252211019544039314978060272e-1",
        5: "6.02165389804559606850219397283e-2", 6: "-1.7578125e-2",
    },
    8: {
        1: "3.70920001185047927108779319836e-2",
        4: "1.70383925712239993810214054705e-1",
        5: "1.07262030446373284651809199168e-1",
        6: "-1.53194377486244017527936158236e-2",
        7: "8.27378916381402288758473766002e-3",
    },
    9: {
        1: "6.24110958716075717114429577812e-1",
        4: "-3.36089262944694129406857109825",
        5: "-8.68219346841726006818189891453e-1",
        6: "2.75920996994467083049415600797e1",
        7: "2.01540675504778934086186788979e1",
        8: "-4.34898841810699588477366255144e1",
    },
    10: {
        1: "4.77662536438264365890433908527e-1",
        4: "-2.48811461997166764192642586468",
        5: "-5.90290826836842996371446475743e-1",
        6: "2.12300514481811942347288949897e1",
        7: "1.52792336328824235832596922938e1",
        8: "-3.32882109689848629194453265587e1",
        9: "-2.03312017085086261358222928593e-2",
    },
    11: {
        1: "-9.3714243008598732571704021658e-1",
        4: "5.18637242884406370830023853209",
        5: "1.09143734899672957818500254654",
        6: "-8.14978701074692612513997267357",
        7: "-1.85200656599969598641566180701e1",
        8: "2.27394870993505042818970056734e1",
        9: "2.49360555267965238987089396762",
        10: "-3.0467644718982195003823669022",
    },
    12: {
        1: "2.27331014751653820792359768449",
        4: "-1.05344954667372501984066689879e1",
        5: "-2.00087205822486249909675718444",
        6: "-1.79589318631187989172765950534e1",
        7: "2.79488845294199600508499808837e1",
        8: "-2.85899827713502369474065508674",
        9: "-8.87285693353062954433549289258",
        10: "1.23605671757943030647266201528e1",
        11: "6.43392746015763530355970484046e-1",
    },
    13: {
        1: "5.42937341165687622380535766363e-2",
        6: "4.45031289275240888144113950566",
        7: "1.89151789931450038304281599044",
        8: "-5.8012039600105847814672114227",
        9: "3.1116436695781989440891606237e-1",
        10: "-1.52160949662516078556178806805e-1",
        11: "2.01365400804030348374776537501e-1",
        12: "4.47106157277725905176885569043e-2",
    },
    14: {
        1: "5.61675022830479523392909219681e-2",
        7: "2.53500210216624811088794765333e-1",
        8: "-2.46239037470802489917441475441e-1",
        9: "-1.24191423263816360469010140626e-1",
        10: "1.5329179827876569731206322685e-1",
        11: "8.20105229563468988491666602057e-3",
        12: "7.56789766054569976138603589584e-3", 13: "-8.298e-3",
    },
    15: {
        1: "3.18346481635021405060768473261e-2",
        6: "2.83009096723667755288322961402e-2",
        7: "5.35419883074385676223797384372e-2",
        8: "-5.49237485713909884646569340306e-2",
        11: "-1.08347328697249322858509316994e-4",
        12: "3.82571090835658412954920192323e-4",
        13: "-3.40465008687404560802977114492e-4",
        14: "1.41312443674632500278074618366e-1",
    },
    16: {
        1: "-4.28896301583791923408573538692e-1",
        6: "-4.69762141536116384314449447206",
        7: "7.68342119606259904184240953878",
        8: "4.06898981839711007970213554331",
        9: "3.56727187455281109270669543021e-1",
        13: "-1.39902416515901462129418009734e-3",
        14: "2.9475147891527723389556272149",
        15: "-9.15095847217987001081870187138",
    },
}
DOP853_C_DECIMALS = (
    "0.0", "0.526001519587677318785587544488e-01",
    "0.789002279381515978178381316732e-01", "0.118350341907227396726757197510",
    "0.281649658092772603273242802490", "0.333333333333333333333333333333",
    "0.25", "0.307692307692307692307692307692",
    "0.651282051282051282051282051282", "0.6",
    "0.857142857142857142857142857142", "1.0", "1.0", "0.1", "0.2",
    "0.777777777777777777777777777778",
)
DOP853_BHH_DECIMALS = {
    1: "0.244094488188976377952755905512",
    9: "0.733846688281611857341361741547",
    12: "0.220588235294117647058823529412e-1",
}
DOP853_E5_DECIMALS = {
    1: "0.1312004499419488073250102996e-1",
    6: "-0.1225156446376204440720569753e+1",
    7: "-0.4957589496572501915214079952",
    8: "0.1664377182454986536961530415e+1",
    9: "-0.3503288487499736816886487290", 10: "0.3341791187130174790297318841",
    11: "0.8192320648511571246570742613e-1",
    12: "-0.2235530786388629525884427845e-1",
}
DOP853_D_DECIMALS = (
    {
        1: "-0.84289382761090128651353491142e+1",
        6: "0.56671495351937776962531783590",
        7: "-0.30689499459498916912797304727e+1",
        8: "0.23846676565120698287728149680e+1",
        9: "0.21170345824450282767155149946e+1",
        10: "-0.87139158377797299206789907490",
        11: "0.22404374302607882758541771650e+1",
        12: "0.63157877876946881815570249290",
        13: "-0.88990336451333310820698117400e-1",
        14: "0.18148505520854727256656404962e+2",
        15: "-0.91946323924783554000451984436e+1",
        16: "-0.44360363875948939664310572000e+1",
    },
    {
        1: "0.10427508642579134603413151009e+2",
        6: "0.24228349177525818288430175319e+3",
        7: "0.16520045171727028198505394887e+3",
        8: "-0.37454675472269020279518312152e+3",
        9: "-0.22113666853125306036270938578e+2",
        10: "0.77334326684722638389603898808e+1",
        11: "-0.30674084731089398182061213626e+2",
        12: "-0.93321305264302278729567221706e+1",
        13: "0.15697238121770843886131091075e+2",
        14: "-0.31139403219565177677282850411e+2",
        15: "-0.93529243588444783865713862664e+1",
        16: "0.35816841486394083752465898540e+2",
    },
    {
        1: "0.19985053242002433820987653617e+2",
        6: "-0.38703730874935176555105901742e+3",
        7: "-0.18917813819516756882830838328e+3",
        8: "0.52780815920542364900561016686e+3",
        9: "-0.11573902539959630126141871134e+2",
        10: "0.68812326946963000169666922661e+1",
        11: "-0.10006050966910838403183860980e+1",
        12: "0.77771377980534432092869265740",
        13: "-0.27782057523535084065932004339e+1",
        14: "-0.60196695231264120758267380846e+2",
        15: "0.84320405506677161018159903784e+2",
        16: "0.11992291136182789328035130030e+2",
    },
    {
        1: "-0.25693933462703749003312586129e+2",
        6: "-0.15418974869023643374053993627e+3",
        7: "-0.23152937917604549567536039109e+3",
        8: "0.35763911791061412378285349910e+3",
        9: "0.93405324183624310003907691704e+2",
        10: "-0.37458323136451633156875139351e+2",
        11: "0.10409964950896230045147246184e+3",
        12: "0.29840293426660503123344363579e+2",
        13: "-0.43533456590011143754432175058e+2",
        14: "0.96324553959188282948394950600e+2",
        15: "-0.39177261675615439165231486172e+2",
        16: "-0.14972683625798562581422125276e+3",
    },
)

N_STAGES = 16
# Exact products that the decimals leave below this (up to 3e-26, against
# 1.4e-4 for the smallest other) are zeros of the rational tableau (for b.A
# at stages 4 and 5: b_j = 0 and sum_i b_i a_ij = b_j (1 - c_j)), as are
# the sums of E5, of E3 and of each D row.
ZERO = Fraction(1, 10**25)


def _matrix(rows):
    """A 16 x 16 tuple of Fractions from {stage: {column: decimal}}."""
    return tuple(tuple(Fraction(rows.get(i, {}).get(m, "0"))
                       for m in range(1, N_STAGES + 1))
                 for i in range(1, N_STAGES + 1))


def _vector(entries):
    """A 16-vector of Fractions from {1-based index: decimal}."""
    return tuple(Fraction(entries.get(m, "0"))
                 for m in range(1, N_STAGES + 1))


DOP853_A = _matrix(DOP853_A_DECIMALS)
DOP853_C = tuple(Fraction(c) for c in DOP853_C_DECIMALS)
DOP853_B = DOP853_A[12]
DOP853_E5 = _vector(DOP853_E5_DECIMALS)
DOP853_E3 = tuple(b - bh for b, bh in
                  zip(DOP853_B, _vector(DOP853_BHH_DECIMALS)))
DOP853_D = tuple(_vector(row) for row in DOP853_D_DECIMALS)


def _times_a(w):
    """The row vector w.A, exact."""
    return tuple(sum(w[i] * DOP853_A[i][m] for i in range(N_STAGES))
                 for m in range(N_STAGES))


# The exact products the Nystrom form reads: stage i's position weights
# (A.A)_i, the eighth-order position's b.A (row 13 of A.A), and the
# position parts of the two error estimates and of the continuous
# extension's rows.
DOP853_AA = tuple(_times_a(row) for row in DOP853_A)
DOP853_E5A = _times_a(DOP853_E5)
DOP853_E3A = _times_a(DOP853_E3)
DOP853_DA = tuple(_times_a(row) for row in DOP853_D)


def first_order_reference_step(rhs, y, h, k1):
    """One step of the pair for the first-order field rhs by the generic
    loop over the tableau; returns (y8, [k1, ..., k12]).

    Each stage input is y[j] + h * (running total of a_im * k_m[j] from 0,
    left to right).  The total is written out with reduce(), as float
    sum() is compensated from Python 3.12 on.
    """
    ks = [k1]
    yi = y
    for i in range(1, 13):
        ai = [float(w) for w in DOP853_A[i]]
        yi = tuple(
            y[j] + h * reduce(add, (ai[m] * ks[m][j] for m in range(i)), 0)
            for j in range(len(y))
        )
        if i < 12:
            ks.append(rhs(yi))
    return yi, ks  # yi after row 13 (b) is the eighth-order solution


def _weighted(ws, ks, j):
    """The sum of float(w_m) * ks[m][j] over the weights w_m above ZERO,
    left to right, or None when there is none."""
    terms = [float(w) * k[j] for w, k in zip(ws, ks) if abs(w) > ZERO]
    return reduce(add, terms) if terms else None


def nystrom_reference_step(accel, y, h, k1):
    """One step of the same pair in Nystrom form, for the second-order
    field x'' = accel(x) with y = (x, v), by the generic loop over the
    exact products of the tableau; returns (y8, [k1, ..., k12]), each k_m
    the acceleration at stage m.

    Stage i's input position is x + c_i*(h*v) + (h*h) * sum_m (A.A)_im k_m
    (the last term only where some (A.A)_im is above ZERO), the
    eighth-order state (x + h*v + (h*h) * sum_m (b.A)_m k_m,
    v + h * sum_m b_m k_m); each sum runs left to right over the weights
    above ZERO.
    """
    ks = [k1]
    for i in range(1, 12):
        ks.append(accel(*_stage_position(y, h, i, ks)))
    y8 = (*_stage_position(y, h, 12, ks),
          *(y[j + 2] + h * _weighted(DOP853_B, ks, j) for j in range(2)))
    return y8, ks


def _stage_position(y, h, i, ks):
    """The input position of stage i + 1 (0-based i) of the Nystrom step of
    size h from y = (x, v) with accelerations ks: x + c_i*(h*v) +
    (h*h) * sum_m (A.A)_im k_m."""
    out = []
    for j in range(2):
        p = y[j] + float(DOP853_C[i]) * (h * y[j + 2])
        s = _weighted(DOP853_AA[i], ks, j)
        out.append(p if s is None else p + (h * h) * s)
    return out


def nystrom_reference_dense_output(accel, y, y8, ks, h):
    """The continuous extension of the Nystrom step of size h from y to y8
    with accelerations ks = [k1, ..., k13], by the generic loop: stages 14
    to 16 at their input positions, then tau -> y + s*(dy + s1*(b + s*(c +
    s1*(d4 + s*(d5 + s1*(d6 + s*d7)))))), s = tau/h and s1 = 1 - s, with dy
    = y8 - y, b = h*y' - dy and c = dy - h*y8' - b (y' = (v, k1), y8' =
    (v8, k13)), a velocity's d_n h * sum_m Dn_m k_m and a position's
    (h*h) * sum_m (Dn.A)_m k_m."""
    ks = list(ks)
    for i in range(13, 16):
        ks.append(accel(*_stage_position(y, h, i, ks)))
    d = [[(h * h) * _weighted(da, ks, j) for j in range(2)]
         + [h * _weighted(dn, ks, j) for j in range(2)]
         for dn, da in zip(DOP853_D, DOP853_DA)]
    slope0 = (h * y[2], h * y[3], h * ks[0][0], h * ks[0][1])
    slope1 = (h * y8[2], h * y8[3], h * ks[12][0], h * ks[12][1])
    dy = [b - a for a, b in zip(y, y8)]
    bs = [p - q for p, q in zip(slope0, dy)]
    cs = [q - p - b for q, p, b in zip(dy, slope1, bs)]

    def at(tau):
        s = tau / h
        s1 = 1.0 - s
        return tuple(
            y[j] + s * (dy[j] + s1 * (bs[j] + s * (cs[j] + s1 * (
                d[0][j] + s * (d[1][j] + s1 * (d[2][j] + s * d[3][j]))))))
            for j in range(4))

    return at


def nystrom_reference_errors(ks, h):
    """The E5 and E3 error estimates of a Nystrom step with accelerations
    ks: two lists of 4 components, a position's (h*h) * sum_m (E.A)_m k_m,
    a velocity's h * sum_m E_m k_m, sums left to right over the weights
    above ZERO."""
    return [[h * h * _weighted(ea, ks, j) for j in range(2)]
            + [h * _weighted(e, ks, j) for j in range(2)]
            for e, ea in ((DOP853_E5, DOP853_E5A), (DOP853_E3, DOP853_E3A))]


def nystrom_reference_error_ratio(y, y8, ks, h, abs_tols, rel_tol):
    """The error norm of a Nystrom step with accelerations ks (k13 at y8
    included): r5 / sqrt(1 + 0.01 * (r3/r5)^2), or 0 where r5 is, r5 and
    r3 being the largest |err_j| / (abs_tols[j] + rel_tol * max(|y[j]|,
    |y8[j]|)) of the E5 and E3 errors.  A step with a non-finite error, y8
    component or k13 has norm inf."""
    e5, e3 = nystrom_reference_errors(ks, h)
    if not all(map(math.isfinite, e5 + e3 + list(y8) + list(ks[12]))):
        return math.inf
    scales = [abs_tols[j] + rel_tol * max(abs(y[j]), abs(y8[j]))
              for j in range(4)]
    r5 = max(abs(e) / s for e, s in zip(e5, scales))
    r3 = max(abs(e) / s for e, s in zip(e3, scales))
    if not r5 > 0.0:
        return 0.0
    q = r3 / r5
    return r5 / math.sqrt(1.0 + 0.01 * (q * q))


def trajectory_bits(traj):
    """Every float of a trajectory's samples and events as float.hex, with
    its drift and termination, so that signed zeros count."""
    states = [s for s in traj.samples] + [e.state for e in traj.events]
    return (
        [tuple(v.hex() for v in (s.t, s.x, s.y, s.vx, s.vy)) for s in states],
        [(e.kind, e.t.hex()) for e in traj.events],
        traj.max_energy_drift.hex(),
        traj.termination,
    )


def rest_cuts(s0, settings, E=None):
    """The arcs from s0 to each of its x-rests, in order, cut from one
    unstopped run that watches x-rests, launched at the energy level E as
    a run that stops at each x-rest is: for each rest, the run's samples
    before it and its state, the run's events up to it, and the largest
    relative energy drift over those samples, recomputed with the energy
    `dynamics` holds now.  The steps do not depend on where a run stops,
    so a run stopped at the k-th rest must equal the k-th cut bit for
    bit."""
    from langmuir_lab import dynamics
    from langmuir_lab.integrator import EventKind, Trajectory, _integrate

    free = _integrate(s0, settings, E, watch={EventKind.X_VELOCITY_ZERO})
    energy = dynamics.energy_vec
    e0 = energy((s0.x, s0.y, s0.vx, s0.vy))
    cuts = []
    for rest in free.events:
        if rest.kind is not EventKind.X_VELOCITY_ZERO:
            continue
        samples = [s for s in free.samples if s.t < rest.t] + [rest.state]
        drift = max(abs(energy((s.x, s.y, s.vx, s.vy)) - e0) / abs(e0)
                    for s in samples)
        cuts.append(Trajectory(
            samples=tuple(samples),
            events=tuple(e for e in free.events if e.t <= rest.t),
            max_energy_drift=drift,
            termination=EventKind.X_VELOCITY_ZERO,
        ))
    return cuts

# Random admissible launches for Hypothesis: heights h = u * a with
# a = -1/E span the default grid rescaled to E.
launches = dict(
    E=st.floats(min_value=-2.0, max_value=-0.5),
    u=st.floats(min_value=0.05, max_value=3.45),
)


def ulps(a: float, b: float) -> float:
    """|a - b| measured in units of the last place of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.fixture
def rng():
    import random

    return random.Random(987654321)


@pytest.fixture
def made_runs(monkeypatch):
    """Record (launch state, settings) of every integrator `_Run` made, in
    order: one entry per integration, however far it is advanced.  Every
    run of the package is made by that class, so this counts them all."""
    from langmuir_lab import integrator

    made = []
    real = integrator._Run.__init__

    def init(self, s0, settings, *args, **kwargs):
        made.append((s0, settings))
        real(self, s0, settings, *args, **kwargs)

    monkeypatch.setattr(integrator._Run, "__init__", init)
    return made

