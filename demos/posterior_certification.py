"""Monte-Carlo certification of the standardized-posterior properties.

The regret analysis asks a standardized posterior law for two things: enough
mass beyond a unit threshold in every direction (exploration) and controlled
quantiles of its norm and its one-dimensional projections (containment). The
certifiers estimate all three on any sampler; here the subjects are the
standard normal and a tilted variant that fails anti-concentration.
"""

import numpy as np

from linbandits.normal import norm_cdf
from linbandits.posterior import (
    certify_anti_concentration,
    certify_concentration_type1,
    certify_concentration_type2,
    standard_normal_sampler,
)

rng = np.random.default_rng(3)
kappa_true = float(norm_cdf(-1.0))

print("anti-concentration of the standard normal (truth 0.15866):")
for d in (2, 20):
    cert = certify_anti_concentration(standard_normal_sampler(d), 32, 100_000, rng)
    print(f"  d={d:3d}: worst direction {cert.kappa1_hat:.5f} +- {cert.ci_halfwidth:.5f}")

print("\ndirectional containment is dimension-free (truth 1.6449 at level 0.05):")
for d in (2, 20, 200):
    est = certify_concentration_type2(standard_normal_sampler(d), 0.05, 32, 100_000, rng)
    print(f"  d={d:3d}: {est:.4f}")

print("\nnorm containment constants found on a coarse grid:")
feas = certify_concentration_type1(standard_normal_sampler(5), (0.02, 0.1, 0.3), 100_000, rng)
print(f"  smallest feasible (c, c') = ({feas.c1}, {feas.c1p})")
print(f"  empirical norm quantiles: {[round(q, 3) for q in feas.quantiles]}")


def overconcentrated(n, r):
    # a posterior squeezed by a factor 100 explores far too little
    return 0.01 * r.standard_normal((n, 4))


cert = certify_anti_concentration(overconcentrated, 16, 50_000, rng)
print("\nan over-concentrated sampler fails anti-concentration:")
print(f"  worst direction {cert.kappa1_hat:.5f} (needs a strictly positive constant)")
print(f"\ncaveat recorded with every certificate: {cert.note}")
