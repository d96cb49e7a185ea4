"""Tour of the divergence machinery: computation routes, invariance, the
quantile-shift bound, constant degradation, and the regret-bound evaluators.
"""

import math

import numpy as np

from linbandits.divergence import (
    Method,
    alpha_divergence,
    derive_bound_constants,
    linbucb_regret_bound,
    lints_regret_bound,
    quantile_shift_bound,
    two_region_reweight,
    verify_invariance,
)
from linbandits.linalg import ConfidenceParams
from linbandits.posterior import GaussianPosterior

rng = np.random.default_rng(5)

# --- three routes to the same number ---------------------------------------
p1, p2 = GaussianPosterior([0.0], 1.0, [[1.0]]), GaussianPosterior([0.6], 1.0, [[1.1]])
print("one divergence, three routes (alpha = 2):")
for method in (Method.CLOSED_FORM_GAUSSIAN, Method.QUADRATURE_1D, Method.MONTE_CARLO):
    res = alpha_divergence(p1, p2, 2.0, method, rng=rng)
    print(f"  {method.value:22s} {res.value:.8f}  (error estimate {res.error_estimate:.1e})")

# order reflection: D_a(P1, P2) = D_(1-a)(P2, P1)
lhs = alpha_divergence(p1, p2, 2.0).value
rhs = alpha_divergence(p2, p1, -1.0).value
print(f"  order reflection residual: {abs(lhs - rhs):.2e}\n")

# --- invariance under invertible affine maps --------------------------------
g1 = GaussianPosterior([0.2, -0.4], 1.0, [[1.0, 0.2], [0.2, 0.6]])
g2 = GaussianPosterior([0.0, 0.1], 1.0, [[0.9, 0.1], [0.1, 0.8]])
report = verify_invariance(g1, g2, shift=[1.0, -2.0], matrix=[[2.0, 0.3], [0.1, 1.5]], alpha=2.0)
print("affine invariance on a 2-d pair:")
print(f"  joint divergence     {report.joint_value:.8f}")
print(f"  after the affine map {report.transformed_value:.8f} (residual {report.residual:.1e})")
print(f"  scalar projections   {[round(v, 6) for v in report.projection_values]} (all <= joint)\n")

# --- a budgeted reweighting and its quantile shift ---------------------------
base = GaussianPosterior([0.0], 1.0, [[1.0]])
tilted = two_region_reweight(0.0, 1.0, cut=0.3, lower_weight=0.85)
for alpha in (2.0, -1.0):
    eps = alpha_divergence(base, tilted, alpha).value
    print(f"measured budget at alpha={alpha:+.0f}: {eps:.5f}")
gamma = 0.9
eps2 = alpha_divergence(base, tilted, 2.0).value
shift = tilted.cdf(base.ppf(gamma)) - gamma
bound = quantile_shift_bound(gamma, eps2, 2.0)
print(f"quantile shift at gamma={gamma}: measured {shift:+.5f} <= bound {bound:+.5f}\n")

# --- degraded constants and the regret bounds --------------------------------
constants = derive_bound_constants(epsilon=0.1, alpha1=2.0, alpha2=-1.0)
print("constant degradation at budget 0.1:")
print(f"  kappa: {constants.kappa1:.5f} -> {constants.kappa2:.5f}")
print(f"  (c, c'): ({constants.c1}, {constants.c1p}) -> ({constants.c2:.3f}, {constants.c2p:.3f})")
print(f"  directional table at 0.05: {constants.c_hat1(0.05):.4f} -> {constants.c_hat2(0.05):.4f}\n")

params = ConfidenceParams(nu=0.5, lam=1.0, s_bound=math.sqrt(20), delta=0.05)
print("regret-bound evaluators (d=20, T=1000):")
print(f"  sampling selection, approximate inference: {lints_regret_bound(params, constants, 1000, 20):.4g}")
for assumption in ("type1", "type2"):
    value = linbucb_regret_bound(params, constants, 0.99, 1000, 20, assumption, "approximate")
    print(f"  quantile selection ({assumption}, gamma=0.99):  {value:.4g}")
print("\nthe type2 route drops a sqrt(d log d) factor relative to type1.")
