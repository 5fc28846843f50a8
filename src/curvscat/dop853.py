"""Explicit Runge-Kutta method of order 8(5,3) with 7th-order dense output.

The Dormand-Prince pair DOP853 of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I* (2nd ed.), Sec. II.10, and their
dop853.f, stepped on plain Python floats.  The systems solved here have a
handful of components, so per-stage array calls would cost more than the
arithmetic; the stepper loops over the non-zeros of the tableau instead.

It reproduces scipy.integrate.solve_ivp(method="DOP853") for forward
integration without max_step or t_eval: the same initial step selection,
step-size control (safety 0.9, factor limits 0.2 and 10, exponent -1/8 on
the blended 5th/3rd-order error norm), minimum step of 10 ulp, event
location (scipy's find_active_events directions, Brent's method at
xtol = rtol = 4 eps on the step's dense output, the cut at the earliest
terminal root) and nfev count.  Only the order of floating-point sums
differs.  On nearly free motion the error estimate is itself round-off, so
step sizes can differ from scipy's by about 1e-6 relative; the number of
accepted steps and nfev agree, and the solutions differ far below the
tolerances.

Stepping never depends on dense_output: with events, a step with an active
event builds its interpolant whatever dense_output says, as scipy does.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

EPS = float(np.finfo(float).eps)

SAFETY = 0.9            # applied to the asymptotic step-size factor
MIN_FACTOR = 0.2        # largest decrease of the step in one rejection
MAX_FACTOR = 10.0       # largest increase of the step after one acceptance
ERROR_EXPONENT = -1.0 / 8.0   # -1 / (error estimator order + 1)
N_STAGES = 12
BRENTQ_MAXITER = 100    # scipy's brentq default

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# Stages 1-11 of the step: (c_i, ((j, a_ij), ...)) over the non-zeros of
# row i of A; stage 0 is f(t, y) and stage 12 is f(t + h, y_new).
_STAGES = (
    (0.05260015195876773, ((0, 0.05260015195876773),)),
    (0.0789002279381516, ((0, 0.0197250569845379), (1, 0.0591751709536137))),
    (0.1183503419072274, ((0, 0.02958758547680685), (2, 0.08876275643042054))),
    (0.2816496580927726, ((0, 0.2413651341592667), (2, -0.8845494793282861),
                          (3, 0.924834003261792))),
    (0.3333333333333333, ((0, 0.037037037037037035), (3, 0.17082860872947386),
                          (4, 0.12546768756682242))),
    (0.25, ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
            (5, -0.017578125))),
    (0.3076923076923077, ((0, 0.03709200011850479), (3, 0.17038392571223998),
                          (4, 0.10726203044637328), (5, -0.015319437748624402),
                          (6, 0.008273789163814023))),
    (0.6512820512820513, ((0, 0.6241109587160757), (3, -3.3608926294469414),
                          (4, -0.868219346841726), (5, 27.59209969944671),
                          (6, 20.154067550477894), (7, -43.48988418106996))),
    (0.6, ((0, 0.47766253643826434), (3, -2.4881146199716677),
           (4, -0.590290826836843), (5, 21.230051448181193),
           (6, 15.279233632882423), (7, -33.28821096898486),
           (8, -0.020331201708508627))),
    (0.8571428571428571, ((0, -0.9371424300859873), (3, 5.186372428844064),
                          (4, 1.0914373489967295), (5, -8.149787010746927),
                          (6, -18.52006565999696), (7, 22.739487099350505),
                          (8, 2.4936055526796523), (9, -3.0467644718982196))),
    (1.0, ((0, 2.273310147516538), (3, -10.53449546673725),
           (4, -2.0008720582248625), (5, -17.9589318631188),
           (6, 27.94888452941996), (7, -2.8589982771350235),
           (8, -8.87285693353063), (9, 12.360567175794303),
           (10, 0.6433927460157636))),
)

# 8th-order weights
_B = ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
      (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
      (10, 0.20136540080403034), (11, 0.04471061572777259))

# error estimators, non-zero on stages 0 and 5-11: (j, e5_j, e3_j), the
# 8th-order weights minus the 5th- and the 3rd-order ones
_E = (
    (0, 0.01312004499419488, -0.18980075407240762),
    (5, -1.2251564463762044, 4.450312892752409),
    (6, -0.4957589496572502, 1.8915178993145003),
    (7, 1.6643771824549864, -5.801203960010585),
    (8, -0.35032884874997366, -0.4226823213237919),
    (9, 0.3341791187130175, -0.1521609496625161),
    (10, 0.08192320648511571, 0.20136540080403034),
    (11, -0.022355307863886294, 0.02265179219836082),
)

# stages 13-15, made only for the dense output; stage 12 is f(t + h, y_new)
_EXTRA_STAGES = (
    (0.1, ((0, 0.056167502283047954), (6, 0.25350021021662483),
           (7, -0.2462390374708025), (8, -0.12419142326381637),
           (9, 0.15329179827876568), (10, 0.00820105229563469),
           (11, 0.007567897660545699), (12, -0.008298))),
    (0.2, ((0, 0.03183464816350214), (5, 0.028300909672366776),
           (6, 0.053541988307438566), (7, -0.05492374857139099),
           (10, -0.00010834732869724932), (11, 0.0003825710908356584),
           (12, -0.00034046500868740456), (13, 0.1413124436746325))),
    (0.7777777777777778, ((0, -0.42889630158379194), (5, -4.697621415361164),
                          (6, 7.683421196062599), (7, 4.06898981839711),
                          (8, 0.3567271874552811), (12, -0.0013990241651590145),
                          (13, 2.9475147891527724), (14, -9.15095847217987))),
)

# coefficients 3-6 of the dense-output polynomial per unit step, non-zero
# on stages 0 and 5-15: (j, d3_j, d4_j, d5_j, d6_j)
_D = (
    (0, -8.428938276109013, 10.427508642579134, 19.985053242002433, -25.69393346270375),
    (5, 0.5667149535193777, 242.28349177525817, -387.0373087493518, -154.18974869023643),
    (6, -3.0689499459498917, 165.20045171727028, -189.17813819516758, -231.5293791760455),
    (7, 2.38466765651207, -374.5467547226902, 527.8081592054236, 357.6391179106141),
    (8, 2.117034582445028, -22.113666853125306, -11.57390253995963, 93.40532418362432),
    (9, -0.871391583777973, 7.733432668472264, 6.8812326946963, -37.45832313645163),
    (10, 2.2404374302607883, -30.674084731089398, -1.0006050966910838, 104.0996495089623),
    (11, 0.6315787787694688, -9.332130526430229, 0.7777137798053443, 29.8402934266605),
    (12, -0.08899033645133331, 15.697238121770845, -2.778205752353508, -43.53345659001114),
    (13, 18.148505520854727, -31.139403219565178, -60.19669523126412, 96.32455395918828),
    (14, -9.194632392478356, -9.35292435884448, 84.32040550667716, -39.17726167561544),
    (15, -4.436036387594894, 35.81684148639408, 11.99229113618279, -149.72683625798564),
)


def _advance(K, row, y, h):
    """y + h * sum_k a_k * K[k], componentwise: the state of a stage."""
    out = []
    for j, v in enumerate(y):
        s = 0.0
        for k, a in row:
            s += a * K[k][j]
        out.append(v + s * h)
    return out


def _rms(x):
    s = 0.0
    for v in x:
        s += v * v
    return math.sqrt(s) / len(x) ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Sec. II.4), as scipy's
    select_initial_step for an error estimator of order 7.  Makes one
    call to fun."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, interval)


def _error_norm(K, h, y, y_new, rtol, atol):
    """DOP853's blend of the 5th- and 3rd-order error estimates, scaled by
    atol + rtol * max(|y|, |y_new|) in the RMS norm."""
    s5 = s3 = 0.0
    for j, (a, b) in enumerate(zip(y, y_new)):
        e5 = e3 = 0.0
        for k, c5, c3 in _E:
            e5 += c5 * K[k][j]
            e3 += c3 * K[k][j]
        scale = atol + max(abs(a), abs(b)) * rtol
        s5 += (e5 / scale) ** 2
        s3 += (e3 / scale) ** 2
    if s5 == 0.0 and s3 == 0.0:
        return 0.0
    return abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))


class _Step:
    """The 7th-order interpolant of one accepted step from t_old to t_old + h.

    coeffs[j] holds the polynomial coefficients F_0..F_6 of component j,
    evaluated in the nested form of dop853.f's CONTD8."""

    __slots__ = ("t_old", "h", "y_old", "coeffs")

    def __init__(self, fun, K, t_old, h, y_old, y_new):
        for c, row in _EXTRA_STAGES:
            K.append(fun(t_old + c * h, _advance(K, row, y_old, h)))
        f_old, f_new = K[0], K[N_STAGES]
        coeffs = []
        for j, (a, b) in enumerate(zip(y_old, y_new)):
            d3 = d4 = d5 = d6 = 0.0
            for k, c3, c4, c5, c6 in _D:
                v = K[k][j]
                d3 += c3 * v
                d4 += c4 * v
                d5 += c5 * v
                d6 += c6 * v
            dy = b - a
            coeffs.append((dy, h * f_old[j] - dy, 2 * dy - h * (f_new[j] + f_old[j]),
                           h * d3, h * d4, h * d5, h * d6))
        self.t_old, self.h, self.y_old, self.coeffs = t_old, h, y_old, coeffs

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        x1 = 1 - x
        return [((((((c6 * x + c5) * x1 + c4) * x + c3) * x1 + c2) * x + c1) * x1 + c0)
                * x + a
                for a, (c0, c1, c2, c3, c4, c5, c6) in zip(self.y_old, self.coeffs)]


class DenseSolution:
    """Piecewise dense output over the accepted steps, as scipy's OdeSolution.

    ts are the step ends (the last one the terminal event's root where an
    event stopped the run).  sol(t) for a scalar t is the step's own
    interpolant, shape (n,); for a 1-D array of times it is one vectorised
    pass with the same arithmetic, shape (n, len(t)).  A point on a step end
    belongs to the step before it, and points outside [ts[0], ts[-1]]
    extrapolate the first or last step.
    """

    def __init__(self, ts, steps: Sequence[_Step]):
        self.ts = np.asarray(ts, dtype=float)
        self._steps = steps
        self._t_old = np.array([s.t_old for s in steps])
        self._h = np.array([s.h for s in steps])
        # (component, step) and (power, component, step): a gather over
        # steps then gives rows of samples, as scipy's OdeSolution returns
        self._y_old = np.array([s.y_old for s in steps], dtype=float).T.copy()
        self._coeffs = np.array([s.coeffs for s in steps], dtype=float).transpose(2, 1, 0).copy()

    def _step_of(self, t):
        k = np.searchsorted(self.ts, t, side="left") - 1
        return np.clip(k, 0, len(self._steps) - 1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return np.array(self._steps[int(self._step_of(t))](float(t)))
        k = self._step_of(t)
        x = (t - self._t_old[k]) / self._h[k]
        x1 = 1 - x
        y = np.zeros((len(self._y_old), len(t)))
        for p in range(6, -1, -1):
            y += self._coeffs[p][:, k]
            y *= x if p % 2 == 0 else x1
        y += self._y_old[:, k]
        return y


@dataclass
class OdeResult:
    """What solve_ivp returns: the step ends t and states y (n, len(t)),
    the event roots per event, the count of fun calls, the status (0 end
    of the interval, 1 terminal event, -1 failure) with its message, and
    the dense solution (None unless dense_output)."""

    t: np.ndarray
    y: np.ndarray
    t_events: list
    nfev: int
    status: int
    message: str
    sol: Optional[DenseSolution]


def brentq(f: Callable[[float], float], xa: float, xb: float,
           xtol: float, rtol: float) -> float:
    """A root of f in the bracket [xa, xb] by Brent's method.

    Brent (1973), *Algorithms for Minimization without Derivatives*, ch. 4,
    in the form of scipy's brentq.c: inverse quadratic or secant steps,
    bisection when they do not shrink the bracket fast enough, converged
    when half the bracket is below (xtol + rtol*|x|)/2 or f is exactly 0.
    Raises ValueError when f(xa) and f(xb) have the same sign or f gives
    NaN, RuntimeError after BRENTQ_MAXITER iterations.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError("the function value is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry     # good short step
            else:
                spre = scur = sbis          # bisect
        else:
            spre = scur = sbis              # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations, value is {xcur}")


def _active_events(g, g_new, directions):
    """Indices of the events whose sign change over the step matches their
    direction (> 0 rising, < 0 falling, 0 either); a zero counts both ways."""
    active = []
    for i, (a, b, d) in enumerate(zip(g, g_new, directions)):
        up = a <= 0.0 <= b
        down = a >= 0.0 >= b
        if (up and d > 0) or (down and d < 0) or ((up or down) and d == 0):
            active.append(i)
    return active


def solve_ivp(fun, t_span, y0, *, rtol: float, atol: float,
              dense_output: bool = False, events=()) -> OdeResult:
    """Integrate y' = fun(t, y) forward from y0 at t_span[0] to t_span[1].

    fun returns a sequence of floats the length of y0.  Each event is a
    function event(t, y) with optional attributes terminal (stop at its
    first root) and direction (> 0 rising, < 0 falling, 0 either).  Roots
    are located on the dense output of the step where an event changes
    sign; the run stops at the earliest terminal root of the step.  An rtol
    below 100 eps is raised to it with a warning, as scipy does.  Returns an OdeResult; a
    step that falls below 10 ulp of t ends the run with status -1.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must run forward")
    y = [float(v) for v in y0]
    if rtol < 100 * EPS:
        warnings.warn(f"rtol {rtol:g} is too small; using {100 * EPS:.3g}", stacklevel=2)
        rtol = 100 * EPS

    events = list(events or ())
    directions = [getattr(ev, "direction", 0) for ev in events]
    terminal = [bool(getattr(ev, "terminal", False)) for ev in events]
    t_events = [[] for _ in events]
    g = [ev(t, y) for ev in events]

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    ts, ys, steps = [t], [y], []
    status, message = None, None
    while status is None:
        # one accepted step, as scipy's RungeKutta._step_impl
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status, message = -1, TOO_SMALL_STEP
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, row in _STAGES:
                K.append(fun(t + c * h, _advance(K, row, y, h)))
            y_new = _advance(K, _B, y, h)
            K.append(fun(t_new, y_new))
            nfev += N_STAGES
            err = _error_norm(K, h, y, y_new, rtol, atol)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        if t_new >= t_bound:
            status = 0
        t_old, y_old, t, y, f = t, y, t_new, y_new, K[N_STAGES]

        step = None
        if dense_output:
            step = _Step(fun, K, t_old, h, y_old, y)
            nfev += 3
            steps.append(step)
        t_end, y_end = t, y
        if events:
            g_new = [ev(t, y) for ev in events]
            active = _active_events(g, g_new, directions)
            if active:
                if step is None:
                    step = _Step(fun, K, t_old, h, y_old, y)
                    nfev += 3
                roots = []
                for i in active:
                    ev = events[i]
                    roots.append((brentq(lambda s: ev(s, step(s)), t_old, t,
                                         xtol=4 * EPS, rtol=4 * EPS), i))
                if any(terminal[i] for i in active):
                    # stop at the earliest terminal root; ties keep event order
                    roots.sort(key=lambda r: r[0])
                    cut = next(k for k, (_, i) in enumerate(roots) if terminal[i])
                    roots = roots[:cut + 1]
                    status = 1
                    t_end = roots[-1][0]
                    y_end = step(t_end)
                for root, i in roots:
                    t_events[i].append(root)
            g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t_end:
            # a terminal root at the step's start: the step adds no point
            steps.pop()
        else:
            ts.append(t_end)
            ys.append(y_end)

    return OdeResult(
        t=np.array(ts), y=np.array(ys, dtype=float).T,
        t_events=[np.array(te, dtype=float) for te in t_events], nfev=nfev,
        status=status, message=MESSAGES.get(status, message),
        sol=DenseSolution(ts, steps) if dense_output else None)
