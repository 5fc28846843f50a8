"""Explicit Runge-Kutta method of order 8(5,3) with 7th-order dense output.

The Dormand-Prince pair DOP853 of Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I* (2nd ed.), Sec. II.10, and their
dop853.f, stepped on plain Python floats.  The systems solved here have a
handful of components, so per-stage array calls would cost more than the
arithmetic, and a loop over the non-zeros of the tableau would spend most
of its time on the loop itself.  So a system is given as source (System:
one expression per component over y0..y{n-1}, shared names assigned before
them, and its events), and one module generated from it, compiled once per
System on first use much as dataclasses builds __init__, holds every
function the stepper calls: the right-hand side, which makes the two calls
that start a run, each event's value, the interpolant of an accepted step,
and the attempt kernel.  As dop853.f writes each stage as one expression
per component, the kernel does a step's arithmetic in straight lines with
the right-hand side written into the stage lines: stages 1-12, y_new and
the blended error norm, and on acceptance the events at y_new and, when
the dense output or an active event needs them, stages 13-15 and the
interpolant's coefficients.  Everything stays in local variables.  The
source is generated from the tableau literals below, the only copy of the
coefficients.  Every sum starts from 0.0 and adds its terms in the
tableau's order, as a loop over the tableau does, so the kernel rounds
exactly as it does; tests/_reference.py keeps the loops, the interpolant
and the generic step loop as its oracle.

It reproduces scipy.integrate.solve_ivp(method="DOP853") for forward
integration without max_step or t_eval and with rtol at least MIN_RTOL
(scipy raises a smaller rtol to the floor with a warning; here it is
refused): the same initial step selection,
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

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

EPS = float(np.finfo(float).eps)
MIN_RTOL = 100 * EPS    # the rtol floor, scipy's: a smaller rtol is refused

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


# --- the generated code -----------------------------------------------------
#
# In the generated source, _u<j> and _z<j> are component j of the state at
# the start and the end of the step, _k<i>_<j> is component j of stage i,
# and y<j> is component j of the state the system's own source is read at.
# Every sum starts from 0.0 and adds its terms in the tableau's order.


class Event(NamedTuple):
    """An event of a System, as source.

    value is an expression over y0..y{n-1}, the system's shared names and
    its params.  A terminal event stops the run at its first root;
    direction > 0 counts only rising roots, < 0 only falling ones, 0 both.
    """

    value: str
    direction: int = 0
    terminal: bool = False


class Functions(NamedTuple):
    """A System's functions, generated from its source as one module.

    fun(t, y) is the right-hand side, a tuple; values holds, per event,
    value(y, *params), its value at the state y; attempt makes one
    attempted step (see _source); state(s, t_old, h, y_old, coeffs) is an
    accepted step's 7th-order interpolant at s, a list.
    """

    fun: Callable
    values: tuple
    attempt: Callable
    state: Callable


@dataclass(frozen=True)
class System:
    """An autonomous system y' = f(y) with its events, as Python source.

    rhs holds one expression per component over y0..y{n-1}; shared holds
    (name, expression) pairs assigned first, in order, which rhs and the
    events may read.  params name the run-time values that the events read;
    solve_ivp takes them by name.  Source may call exp, sqrt, abs, min and
    max; names that start with an underscore are the generated code's own.
    functions is compiled from the source on first use, once per System.
    """

    rhs: tuple[str, ...]
    shared: tuple[tuple[str, str], ...] = ()
    events: tuple[Event, ...] = ()
    params: tuple[str, ...] = ()

    @functools.cached_property
    def functions(self) -> Functions:
        namespace = _compile(_source(self), f"<dop853 system of {len(self.rhs)}>")
        return Functions(namespace["fun"],
                         tuple(namespace[f"value_{i}"] for i in range(len(self.events))),
                         namespace["attempt"], namespace["state"])


def _compile(source, label):
    """The namespace that running source, generated for a System, leaves."""
    namespace = {"exp": math.exp, "sqrt": math.sqrt}
    exec(compile(source, label, "exec"), namespace)
    return namespace


def _names(prefix, n):
    """'p0, p1, ...,': an unpacking target for n components."""
    return "".join(f"{prefix}{j}, " for j in range(n)).rstrip()


def _combination(row, j):
    """sum_k a_k * K[k][j] over the (k, a_k) of row, as source."""
    return " + ".join(["0.0"] + [f"{a!r} * _k{k}_{j}" for k, a in row])


def _state(row, n, target="y"):
    """Lines that set target<j> to the state _u + _h * sum_k a_k * K[k] of row."""
    return [f"{target}{j} = _u{j} + ({_combination(row, j)}) * _h" for j in range(n)]


def _derivative(system, i):
    """Lines that make stage i, the right-hand side at the state y."""
    return ([f"{name} = {expr}" for name, expr in system.shared]
            + [f"_k{i}_{j} = {expr}" for j, expr in enumerate(system.rhs)])


def _function(signature, lines):
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)


def _source(system) -> str:
    """The source of a System's functions (see Functions).

    attempt(h, y, f, g, rtol, atol, dense, *params) makes one attempted
    step from y, whose stage 0 is f: stages 1-12, y_new and DOP853's blend
    of the 5th- and 3rd-order error estimates, scaled by
    atol + rtol * max(|y|, |y_new|) in the RMS norm.
    It returns (err, y_new, stage 12, event values, active events, coeffs);
    a rejected step (not err < 1) returns only err, the rest None.  An
    accepted step evaluates the events at y_new and lists those whose sign
    changes from the values g in their direction (a zero counts both
    ways).  When dense is true or an event is active it makes stages 13-15
    and, per component, the coefficients F_0..F_6 of the step's 7th-order
    interpolant; otherwise coeffs is None.  state evaluates that
    interpolant in the nested form of dop853.f's CONTD8.
    """
    n = len(system.rhs)
    params = "".join(f", {p}" for p in system.params)
    at_y = [f"{_names('y', n)} = _y"] + [f"{name} = {expr}" for name, expr in system.shared]
    functions = [_function("fun(_t, _y)", at_y + [f"return ({', '.join(system.rhs)},)"])]
    functions += [_function(f"value_{i}(_y{params})", at_y + [f"return {ev.value}"])
                  for i, ev in enumerate(system.events)]

    attempt = [f"{_names('_u', n)} = _y", f"{_names('_k0_', n)} = _f"]
    for i, (_, row) in enumerate(_STAGES, start=1):
        attempt += _state(row, n) + _derivative(system, i)
    attempt += _state(_B, n, "_z") + [f"y{j} = _z{j}" for j in range(n)]
    attempt += _derivative(system, N_STAGES)
    for j in range(n):
        # max(a, b) is b if b > a else a
        attempt += [f"_a = abs(_u{j})", f"_b = abs(_z{j})",
                    f"_w{j} = _atol + (_b if _b > _a else _a) * _rtol"]
    for s, col in (("_s5", 1), ("_s3", 2)):
        terms = [f"(({_combination([(e[0], e[col]) for e in _E], j)}) / _w{j}) ** 2"
                 for j in range(n)]
        attempt.append(f"{s} = " + " + ".join(["0.0"] + terms))
    attempt += [f"_err = 0.0 if _s5 == 0.0 and _s3 == 0.0 else "
                f"abs(_h) * _s5 / sqrt((_s5 + 0.01 * _s3) * {n})",
                "if not _err < 1.0:",
                "    return _err, None, None, None, None, None"]

    # accepted: the events at y_new, whose shared names stage 12 has set
    m = len(system.events)
    attempt += [f"{_names('_p', m)} = _g"] if m else []
    attempt += [f"_v{i} = {ev.value}" for i, ev in enumerate(system.events)]
    attempt.append("_active = []")
    for i, ev in enumerate(system.events):
        up, down = f"_p{i} <= 0.0 <= _v{i}", f"_p{i} >= 0.0 >= _v{i}"
        test = up if ev.direction > 0 else down if ev.direction < 0 else f"{up} or {down}"
        attempt += [f"if {test}:", f"    _active.append({i})"]
    dense = []
    for i, (_, row) in enumerate(_EXTRA_STAGES, start=N_STAGES + 1):
        dense += _state(row, n) + _derivative(system, i)
    coeffs = []
    for j in range(n):
        dense.append(f"_d{j} = _z{j} - _u{j}")
        d = [f"_h * ({_combination([(r[0], r[p]) for r in _D], j)})" for p in range(1, 5)]
        coeffs.append(f"(_d{j}, _h * _k0_{j} - _d{j}, "
                      f"2 * _d{j} - _h * (_k{N_STAGES}_{j} + _k0_{j}), {', '.join(d)})")
    dense.append(f"_coeffs = [{', '.join(coeffs)}]")
    attempt += ["_coeffs = None", "if _dense or _active:"]
    attempt += [f"    {line}" for line in dense]
    attempt.append(f"return (_err, [{_names('_z', n)}], ({_names(f'_k{N_STAGES}_', n)}), "
                   f"({_names('_v', m)}), _active, _coeffs)")
    functions.append(_function(f"attempt(_h, _y, _f, _g, _rtol, _atol, _dense{params})",
                               attempt))

    state = ["_x = (_s - _t_old) / _h", "_x1 = 1 - _x", f"{_names('_u', n)} = _y_old"]
    state += [f"{_names(f'_c{j}_', 7)} = _coeffs[{j}]" for j in range(n)]
    nested = [f"((((((_c{j}_6 * _x + _c{j}_5) * _x1 + _c{j}_4) * _x + _c{j}_3) * _x1"
              f" + _c{j}_2) * _x + _c{j}_1) * _x1 + _c{j}_0) * _x + _u{j}" for j in range(n)]
    state.append(f"return [{', '.join(nested)}]")
    functions.append(_function("state(_s, _t_old, _h, _y_old, _coeffs)", state))
    return "\n".join(functions)


class DenseSolution:
    """Piecewise dense output over the accepted steps, as scipy's OdeSolution.

    ts are the step ends (the last one the terminal event's root where an
    event stopped the run); steps are the accepted steps' (t_old, h, y_old,
    coeffs), coeffs[j] holding the coefficients F_0..F_6 of component j's
    interpolant.  sol(t) evaluates it in the nested form of
    System.functions.state, vectorised: shape (n,) for a scalar t and
    (n, len(t)) for a 1-D array of times.  A point on a step end belongs to
    the step before it, and points outside [ts[0], ts[-1]] extrapolate the
    first or last step.
    """

    def __init__(self, ts, steps):
        self.ts = np.asarray(ts, dtype=float)
        t_old, h, y_old, coeffs = zip(*steps)
        self._t_old = np.array(t_old)
        self._h = np.array(h)
        # (component, step) and (power, component, step): a gather over
        # steps then gives rows of samples, as scipy's OdeSolution returns
        self._y_old = np.array(y_old, dtype=float).T.copy()
        self._coeffs = np.array(coeffs, dtype=float).transpose(2, 1, 0).copy()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self._h) - 1)
        x = (t - self._t_old.take(k)) / self._h.take(k)
        x1 = 1 - x
        y = np.zeros((len(self._y_old),) + t.shape)
        # each step's coefficients, gathered with take into one buffer
        # (k is in range, so no bounds check is needed)
        term = np.empty_like(y)
        for p in range(6, -1, -1):
            np.take(self._coeffs[p], k, axis=1, out=term, mode="clip")
            y += term
            y *= x if p % 2 == 0 else x1
        np.take(self._y_old, k, axis=1, out=term, mode="clip")
        y += term
        return y


@dataclass
class OdeResult:
    """What solve_ivp returns: the step ends t and states y (n, len(t)),
    the event roots per event, the count of fun calls, the status (0 end
    of the interval, 1 terminal event, -1 failure) with its message, and
    the dense solution (None unless dense_output, and when no step was
    accepted)."""

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


def solve_ivp(system: System, t_span, y0, *, rtol: float, atol: float,
              dense_output: bool = False, params=None) -> OdeResult:
    """Integrate y' = f(y) of a System forward from y0 at t_span[0] to t_span[1].

    params maps the names in system.params to their values for this run.
    Each step is one call to the system's attempt kernel, which also checks
    the events on an accepted step.  Roots are located on the dense output
    of the step where an event changes sign; the run stops at the earliest
    terminal root of the step.  An rtol below MIN_RTOL raises ValueError,
    where scipy raises it to MIN_RTOL with a warning.  Returns an OdeResult; a step that falls below
    10 ulp of t ends the run with status -1.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    if not t_bound > t:
        raise ValueError("t_span must run forward")
    y = [float(v) for v in y0]
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol {rtol:g} is below the floor MIN_RTOL = {MIN_RTOL:.3g}")

    args = tuple(params[name] for name in system.params)
    fun, values, attempt, state = system.functions
    terminal = [ev.terminal for ev in system.events]
    t_events = [[] for _ in terminal]
    g = tuple(value(y, *args) for value in values)

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
            err, y_new, f_new, g_new, active, coeffs = attempt(
                h, y, f, g, rtol, atol, dense_output, *args)
            nfev += N_STAGES
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
        t_old, y_old, t, y, f, g = t, y, t_new, y_new, f_new, g_new

        t_end, y_end = t, y
        if coeffs is not None:
            step = (t_old, h, y_old, coeffs)
            nfev += 3
            if dense_output:
                steps.append(step)
        if active:
            found = [(brentq(lambda s, value=values[i]: value(state(s, *step), *args),
                             t_old, t, 4 * EPS, 4 * EPS), i) for i in active]
            if any(terminal[i] for i in active):
                # stop at the earliest terminal root; ties keep event order
                found.sort(key=lambda r: r[0])
                cut = next(k for k, (_, i) in enumerate(found) if terminal[i])
                found = found[:cut + 1]
                status = 1
                t_end = found[-1][0]
                y_end = state(t_end, *step)
            for root, i in found:
                t_events[i].append(root)
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
        sol=DenseSolution(ts, steps) if dense_output and steps else None)
