"""Taylor series stepper for the scattering equations.

With E = exp(2*xi) the equations of motion are polynomial,

    xi' = p,  p' = -eta*E,  eta' = q,  q' = -E/2,  E' = 2*p*E,

so a step's Taylor coefficients follow order by order, each order from two
Cauchy products, (eta*E)_k and (p*E)_k (Jorba & Zou, *Experimental
Mathematics* 14, 2005).  The recurrence to order ORDER is generated once,
on first use, as straight-line source and compiled into one kernel, much
as dataclasses builds __init__: a loop over the products would spend most
of its time on the loop itself.  Every sum adds its terms in increasing
index of its first factor and every quotient divides by an exact float, so
the kernel rounds exactly as the loop form in tests/_reference.py does.

A step starts from (xi, p, eta, q) and E = exp(2*xi), taken afresh from xi
at every step.  Its size comes from the last two coefficients, as Jorba and
Zou choose it: SAFETY * min over j in (ORDER - 1, ORDER) of
(tol / |c_j|)^(1/j), |c_j| the largest of the four components' j-th
coefficients and tol = TOL * (1 + the largest |component| of the state),
and at most SAFETY * E_GROWTH / (2*|xi_dot|), where the last term of E's
own series, about E*(2*xi_dot*h)^ORDER/ORDER!, reaches E.  That second
bound acts only where E is too small for the coefficients to show its
growth (E below about 1e-15: far out on the inbound leg at a tiny or a huge
eta_in, where E's terms fall below tol or underflow), and keeps a step from
leaping into the interaction.  At that size the neglected terms are far
below an ulp of the state, so the step's polynomial is the motion to
round-off: there is no error estimate and no rejected step, and the
polynomial is the step's own dense output.

solve_ivp checks the escape test and the certificate at each step end; both
persist once they hold (after escape E keeps falling along the outgoing
leg, and eta < 0 with p > 0 keeps p > 0), so no root is located and the
run stops at the first step end where one holds.  The last step is
clipped to the end of the interval.  A step below 10 ulp of t, or a state,
exp(2*xi) or coefficient beyond the float range, is a solver failure.
"""

from __future__ import annotations

import functools
import math

import numpy as np

ORDER = 24          # the degree of each step's polynomial
TOL = 1e-16         # the size of the last terms kept, relative to 1 + |state|
SAFETY = 0.9        # applied to the step the last two coefficients allow
# 2*|xi_dot|*h at which the last term of exp(2*xi_dot*h)'s series is 1
E_GROWTH = math.exp(math.lgamma(ORDER + 1) / ORDER)
_STATE = "xpyq"     # the names of xi, xi_dot, eta, eta_dot in the source
_EPS = float(np.finfo(float).eps)

# status of a run: how solve_ivp stopped
FAILED, END, ESCAPED, CERTIFIED = -1, 0, 1, 2
MESSAGES = {
    END: "The solver successfully reached the end of the integration interval.",
    ESCAPED: "The escape test holds.",
    CERTIFIED: "eta < 0 with xi_dot > 0.",
}
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
OVERFLOW = "The state leaves the float range."


def _largest(k: int) -> str:
    """Source of the largest |component| of the k-th coefficients."""
    return f"max({', '.join(f'abs({c}{k})' for c in _STATE)})"


def _source(order: int = ORDER) -> str:
    """The source of step(x0, p0, y0, q0, e0, t, t_bound).

    From the state (x0, p0, y0, q0) = (xi, xi_dot, eta, eta_dot) at t and
    e0 = exp(2*xi) it returns (h, t_new, x, p, y, q, coeffs): the step size
    the last two coefficients allow, the step's end t_new, t + h or t_bound
    if that comes first, the state there, and the coefficients 0..order of
    xi, xi_dot, eta and eta_dot, in that order.  The polynomials are
    evaluated at t_new - t, as the dense output evaluates them at t_new.
    """
    lines = []
    for k in range(order):
        n = k + 1
        eta_e = " + ".join(f"y{j} * e{k - j}" for j in range(n))
        lines += [f"x{n} = p{k} / {float(n)!r}",
                  f"p{n} = -({eta_e}) / {float(n)!r}",
                  f"y{n} = q{k} / {float(n)!r}",
                  f"q{n} = e{k} / {-2.0 * n!r}"]
        if n < order:
            p_e = " + ".join(f"p{j} * e{k - j}" for j in range(n))
            lines.append(f"e{n} = ({p_e}) / {n / 2.0!r}")
    lines += [f"tol = {TOL!r} * (1.0 + {_largest(0)})",
              f"r = {_largest(order - 1)}",
              f"h = (tol / r) ** {1.0 / (order - 1)!r} if r > 0.0 else inf",
              f"r = {_largest(order)}",
              "if r > 0.0:",
              f"    g = (tol / r) ** {1.0 / order!r}",
              "    if g < h:",
              "        h = g",
              "if p0 != 0.0:",
              f"    g = {E_GROWTH / 2.0!r} / abs(p0)",
              "    if g < h:",
              "        h = g",
              f"h *= {SAFETY!r}",
              "t_new = t + h",
              "if t_new > t_bound:",
              "    t_new = t_bound",
              "s = t_new - t"]
    ends = []
    for c in _STATE:
        horner = f"{c}{order}"
        for j in range(order - 1, -1, -1):
            horner = f"({horner}) * s + {c}{j}"
        ends.append(horner)
    coeffs = ", ".join(f"{c}{j}" for c in _STATE for j in range(order + 1))
    lines.append(f"return h, t_new, {', '.join(ends)}, ({coeffs},)")
    return "def step(x0, p0, y0, q0, e0, t, t_bound):\n" + "".join(f"    {ln}\n" for ln in lines)


def _compile(source: str, label: str) -> dict:
    """The namespace that running the generated source leaves."""
    namespace = {"inf": math.inf}
    exec(compile(source, label, "exec"), namespace)
    return namespace


@functools.cache
def kernel():
    """The compiled step of order ORDER (see _source), built once per process."""
    return _compile(_source(), f"<taylor kernel of order {ORDER}>")["step"]


class Solution:
    """A run of solve_ivp.

    t holds the step ends, from the start; y is the state (xi, xi_dot, eta,
    eta_dot) at the last; nfev counts kernel evaluations, one per step
    tried; status is one of FAILED, END, ESCAPED and CERTIFIED, with its
    message.  A run with dense output keeps each step's polynomial:
    sol(t) evaluates them, shape (4,) for a scalar t and (4, len(t)) for a
    1-D array, a point on a step end belonging to the step before it and
    points outside the run extrapolating its first or last step.
    """

    def __init__(self, t, y, nfev, status, message, steps=None):
        self.t = np.array(t)
        self.y = y
        self.nfev = nfev
        self.status = status
        self.message = message
        # (power, component, step): a gather over steps gives rows of samples
        self._coeffs = None if not steps else np.array(steps).reshape(
            len(steps), 4, ORDER + 1).transpose(2, 1, 0).copy()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        c = self._coeffs
        k = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, c.shape[2] - 1)
        s = t - self.t.take(k)
        y = np.empty((4,) + t.shape)
        # each step's coefficients, gathered with take into one buffer
        # (k is in range, so no bounds check is needed)
        term = np.empty_like(y)
        np.take(c[ORDER], k, axis=1, out=y, mode="clip")
        for j in range(ORDER - 1, -1, -1):
            y *= s
            np.take(c[j], k, axis=1, out=term, mode="clip")
            y += term
        return y

    def crossing(self, j: int, level: float):
        """The first time component j falls through level, from above it at
        a step's start to at or below it at the step's end, by Newton's
        method on that step's polynomial; None when it does not in the run."""
        starts = self._coeffs[0, j]
        ends = np.append(starts[1:], self.y[j])
        hit = np.flatnonzero((starts > level) & (ends <= level))
        if not len(hit):
            return None
        k = int(hit[0])
        t_k, h = float(self.t[k]), float(self.t[k + 1] - self.t[k])
        c = self._coeffs[:, j, k].tolist()
        c[0] -= level
        a, b = c[0], float(ends[k]) - level
        s = h * a / (a - b)       # the secant guess
        for _ in range(50):
            v = d = 0.0
            for cj in reversed(c):
                d = d * s + v
                v = v * s + cj
            ds = v / d
            s = min(max(s - ds, 0.0), h)
            if abs(ds) <= 4.0 * _EPS * (abs(t_k) + s):
                break
        return t_k + s


def solve_ivp(t_span, y0, escape_tol: float, dense_output: bool = False) -> Solution:
    """Step the scattering equations from y0 = (xi, xi_dot, eta, eta_dot) at
    t_span[0] until a step end passes the escape test (xi_dot < 0 and
    max(|eta*E|, E) <= escape_tol) or the certificate (eta < 0 and
    xi_dot > 0), or the run reaches t_span[1].  dense_output keeps each
    step's polynomial.  Stepping never depends on it."""
    step = kernel()
    t, t_bound = float(t_span[0]), float(t_span[1])
    x, p, y, q = (float(v) for v in y0)
    ts, steps = [t], []
    nfev, message = 0, None
    try:
        while True:
            e = math.exp(2.0 * x)
            if p < 0.0 and max(abs(y * e), e) <= escape_tol:
                status = ESCAPED
                break
            if y < 0.0 and p > 0.0:
                status = CERTIFIED
                break
            if t >= t_bound:
                status = END
                break
            h, t_new, xn, pn, yn, qn, coeffs = step(x, p, y, q, e, t, t_bound)
            nfev += 1
            if not math.isfinite(xn + pn + yn + qn):
                status, message = FAILED, OVERFLOW
                break
            if h < 10.0 * (math.nextafter(t, math.inf) - t):
                status, message = FAILED, TOO_SMALL_STEP
                break
            t, x, p, y, q = t_new, xn, pn, yn, qn
            ts.append(t)
            if dense_output:
                steps.append(coeffs)
    except OverflowError:
        status, message = FAILED, OVERFLOW
    return Solution(ts, (x, p, y, q), nfev, status, message or MESSAGES[status],
                    steps if dense_output else None)
