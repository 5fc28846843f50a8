"""The inverse deflection map eta_in(Theta) at xi_in = 0, as piecewise
Chebyshev panels: the seed of shooting.shoot.

The panels cover exactly the targets shoot accepts, [-pi + THETA_MARGIN,
-pi/2 - THETA_MARGIN] (shooting.THETA_MARGIN), split at EDGES.  The first
DEEP panels hold x*eta_in, x = pi + Theta, which tends to 1 as x -> 0
(closed_forms.deflection_deep); the others hold ln(eta_in - SHIFT), which
stays smooth as the map steepens toward the scattering onset near
eta_in = 1.29982.  Each panel is a degree-16 Chebyshev series in the
panel's own variable s in [-1, 1], evaluated by Clenshaw's recurrence.

The block between the markers is written by scripts/deflection_table.py,
which fits it to integrator.deflection_of at the default SolverConfig and
measures the seed's miss |deflection_of(eta_in(Theta)) - Theta|.  MISS
bounds that miss at the default SolverConfig.  The fit itself misses by a
few 1e-11; the rest of MISS is deflection_of's own jump of up to 7.4e-10
where it declares escape near the eta = 0 crossing (eta_in 2.32491 to
2.32566), which no smooth fit follows.
"""

from __future__ import annotations

import math
from bisect import bisect_right

# --- generated by scripts/deflection_table.py; do not edit by hand ---
EDGES = (
    -3.1258846903218442, -2.5132741228718345, -1.9477874452256718,
    -1.6964600329384885, -1.611637031291564, -1.5865042900628454,
)
DEEP = 1
SHIFT = 1.2998
MISS = 1e-09
COEFFS = (
    (
        1.062923026700585, 0.08246701261521508, 0.019678506385515798,
        3.572728960178125e-05, 3.918796949907871e-06, -1.0973927259295462e-07,
        -1.4294699091571963e-08, -1.3199605288419698e-09,
        -1.3214829041993063e-10, -9.585446587356642e-12,
        -1.7326102184695619e-12, 7.859078014649166e-13,
        3.2796823298056676e-13, 1.165683987892795e-12,
        -1.0053550186661803e-12, -1.2606100508017736e-14,
        -7.012009616089125e-13,
    ),
    (
        -1.7987360775507577, -1.279320745951515, -0.08811220052504101,
        -0.020013770794879843, -0.0026196909895307846, -0.0005709894944940417,
        -9.406746935401112e-05, -1.9921603856868742e-05,
        -3.6729065483876045e-06, -7.691277108642504e-07,
        -1.5059005317104142e-07, -3.1489426319694654e-08,
        -6.3817222965675426e-09, -1.3388869939238077e-09,
        -2.771062458456293e-10, -5.822854095924316e-11,
        -1.1392801577227683e-11,
    ),
    (
        -4.336122732377707, -1.2833557235267319, -0.16121175992224282,
        -0.029313109937458424, -0.005846962692435826, -0.0012451484848470112,
        -0.0002754450839813788, -6.25435427065379e-05,
        -1.4463771535427577e-05, -3.389763932340175e-06,
        -8.022934360708917e-07, -1.9127964090839211e-07,
        -4.584914314074585e-08, -1.1029950509255007e-08,
        -2.6619026617775147e-09, -6.413338253895066e-10,
        -1.5508041633701528e-10,
    ),
    (
        -6.930545261639334, -1.2534707287547329, -0.16438898259877785,
        -0.028547207291129556, -0.0054269973719754975, -0.0010668422985178547,
        -0.00020978706756374783, -4.007814179349584e-05,
        -7.139769858208913e-06, -1.083648113012026e-06,
        -9.542496006952283e-08, 2.069763769089164e-08, 1.654885197720303e-08,
        7.035885005773831e-09, 2.496895766694408e-09, 8.063306159623757e-10,
        2.489132274869918e-10,
    ),
    (
        -9.253045093117327, -0.9421130496648398, -0.07851612921623909,
        -0.00567992285422285, 0.00026249976062939125, 0.0002648550963873138,
        8.274335996645813e-05, 1.9618285256551962e-05, 3.8883525489575785e-06,
        6.356957339905828e-07, 7.389486574029365e-08, 3.465067731499091e-10,
        -3.183143177148175e-09, -1.255844062378353e-09,
        -3.5089822935042605e-10, -7.883541121875186e-11,
        -1.3373444363726792e-11,
    ),
)
# --- end of generated block ---


def eta_in_of(theta: float) -> tuple[float, float]:
    """(eta_in, d eta_in/d theta) of the tabulated inverse map at theta.

    A theta outside the panels is clamped to the nearest end, so it gets
    that end's value and slope."""
    theta = min(max(theta, EDGES[0]), EDGES[-1])
    k = min(bisect_right(EDGES, theta), len(COEFFS)) - 1
    lo, hi = EDGES[k], EDGES[k + 1]
    s = (2.0 * theta - lo - hi) / (hi - lo)
    c = COEFFS[k]
    # Clenshaw: b_j = c_j + 2s b_{j+1} - b_{j+2}, and its s-derivative d_j
    b1 = b2 = d1 = d2 = 0.0
    for cj in reversed(c[1:]):
        b1, b2, d1, d2 = cj + 2.0 * s * b1 - b2, b1, 2.0 * b1 + 2.0 * s * d1 - d2, d1
    g = c[0] + s * b1 - b2
    dg = (b1 + s * d1 - d2) * 2.0 / (hi - lo)
    if k < DEEP:
        x = math.pi + theta
        return g / x, (dg - g / x) / x
    e = math.exp(g)
    return SHIFT + e, dg * e
