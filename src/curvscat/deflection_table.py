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
bounds that miss at the default SolverConfig: the worst on 20000 uniform
targets is 1.43e-10, rounded up.  It lies in the last panel, near the
onset, where deflection_of's Theta steps by up to about 1.5e-10 as its
escape moves from one step end to the next (the free leg's remainder grows
as the outgoing xi_dot tends to 0), which no smooth fit follows; in the
other panels the fit misses by under 1e-11.
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
MISS = 2e-10
COEFFS = (
    (
        1.062923026694327, 0.08246701260844334, 0.019678506385015608,
        3.572728627799141e-05, 3.918797557540893e-06, -1.0973938850142023e-07,
        -1.4293759276101376e-08, -1.3205711892612248e-09,
        -1.3248823157886998e-10, -1.0394102767036897e-11,
        -9.750848531880354e-13, -8.170927464310352e-14, -7.70919872952534e-15,
        -1.2904367963179948e-15, -7.495879181536304e-17,
        -5.638577954479856e-16, 8.33442745789564e-17,
    ),
    (
        -1.7987360776225743, -1.2793207460066225, -0.08811220056017643,
        -0.020013770805051193, -0.00261969099590467, -0.0005709894917778621,
        -9.406747002767584e-05, -1.9921604785664418e-05,
        -3.672905824289874e-06, -7.691263806355429e-07,
        -1.5058830546275545e-07, -3.149074395943305e-08,
        -6.3798016004123896e-09, -1.3383212062144332e-09,
        -2.7678662136988727e-10, -5.836626993301524e-11,
        -1.2251244513478881e-11,
    ),
    (
        -4.336122733283243, -1.2833557245770963, -0.16121176036526888,
        -0.029313110106113132, -0.005846962751242815, -0.001245148506314372,
        -0.0002754450908997505, -6.254354570921195e-05,
        -1.4463773451708212e-05, -3.38976413299298e-06, -8.02295025876131e-07,
        -1.9127973560964267e-07, -4.584948659831661e-08,
        -1.103145075957717e-08, -2.661554766214588e-09,
        -6.426641226416727e-10, -1.5574730799336273e-10,
    ),
    (
        -6.930545273469096, -1.253470742009878, -0.16438898822715944,
        -0.02854720937191716, -0.005426998068440042, -0.0010668424974968583,
        -0.00020978710341118832, -4.007812203772471e-05,
        -7.139736166110057e-06, -1.0836209871229615e-06,
        -9.540656985581353e-08, 2.069459683873176e-08, 1.6518103959319575e-08,
        6.988540056619706e-09, 2.4547331869108983e-09, 7.838813626740386e-10,
        2.387253499640941e-10,
    ),
    (
        -9.253045188604215, -0.9421131297145311, -0.07851615158695731,
        -0.005679927520904473, 0.0002624991457684669, 0.0002648547077636272,
        8.274251680318715e-05, 1.9617282888588787e-05, 3.887050274206617e-06,
        6.347281995805764e-07, 7.432360483127259e-08, 1.5943064908340354e-09,
        -2.4292718730138926e-09, -1.267697243442866e-09,
        -8.988235104562587e-10, -7.779505841259989e-10,
        -4.0015260823095225e-10,
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
