"""Tour of the matrix-variate sampling primitives.

Draws from the matrix normal, the central and noncentral Wishart, the matrix
Beta Type II, and the scalar noncentral chi-square, checking each empirical
moment against its closed form.
"""

import numpy as np

from wishartmix import (
    BetaIIParams,
    MatrixNormalParams,
    RngStream,
    SpdMat,
    SymMat,
    WishartParams,
    sample_beta2,
    sample_matrix_normal,
    sample_noncentral_chisq,
    sample_wishart,
    wishart_mean,
    wishart_mgf,
)

N = 200_000
sigma = SpdMat([[2.0, 1.0], [1.0, 3.0]])

print("== matrix normal ==")
mean = np.array([[1.0, -1.0], [0.0, 2.0], [3.0, 0.5]])
mn = MatrixNormalParams(rows=3, mean=mean, scale=sigma)
draws = sample_matrix_normal(mn, RngStream(1), size=N)
print("empirical mean:\n", draws.mean(axis=0).round(3))
print("target:\n", mean)

print("\n== noncentral Wishart ==")
wp = WishartParams(dof=5, scale=sigma, noncen=SpdMat([[1.0, 0.5], [0.5, 2.0]]))
draws = sample_wishart(wp, RngStream(2), size=N)
print("empirical mean:\n", draws.mean(axis=0).round(3))
print("closed form dof*scale + noncen:\n", wishart_mean(wp).array.round(3))

t = SymMat(np.diag([0.04, 0.02]))
empirical_mgf = np.exp(np.einsum("ij,nij->n", t.array, draws)).mean()
print(f"MGF at a small probe: empirical {empirical_mgf:.4f}, closed form {wishart_mgf(wp, t):.4f}")

print("\n== matrix Beta Type II ==")
bp = BetaIIParams(dof1=4, dof2=12, dim=2)
draws = sample_beta2(bp, RngStream(3), size=N)
# scalar check through the trace: E tr(B) = d * dof1 / (dof2 - d - 1)
print(f"mean trace: empirical {np.trace(draws, axis1=1, axis2=2).mean():.4f}, "
      f"closed form {2 * 4 / (12 - 3):.4f}")

print("\n== noncentral chi-square ==")
draws = sample_noncentral_chisq(3.0, 2.0, RngStream(4), size=N)
print(f"mean {draws.mean():.3f} (target 5.0), variance {draws.var():.3f} (target 14.0)")
