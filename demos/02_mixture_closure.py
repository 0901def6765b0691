"""The mixture-closure property, seen numerically.

A noncentral Wishart whose noncentrality is driven by another noncentral
Wishart with the same degrees of freedom is itself noncentral Wishart.  This
script draws from the two-level hierarchy, compares against the closed-form
marginal parameters, and checks the draws against the exact predicted law
(the CDF of each projection, the entry means and the MGF at probe matrices).
In one dimension the property collapses to the classical chi-square mixture
identity, shown at the end against the exact noncentral chi-square CDF.
"""

from scipy import stats
from scipy.special import chndtr

from wishartmix import (
    MixtureSpec,
    RngStream,
    SpdMat,
    mixture_marginal_params,
    sample_hierarchical,
    verify_closure,
    wishart_mean,
)

spec = MixtureSpec(
    dof=5,
    inner_scale=SpdMat([[1.5, 0.4], [0.4, 1.0]]),
    mixing_scale=SpdMat([[0.8, -0.2], [-0.2, 1.2]]),
    coupling=SpdMat([[1.0, 0.3], [0.3, 0.7]]),
    mixing_noncen=SpdMat([[0.6, 0.0], [0.0, 1.1]]),
)

predicted = mixture_marginal_params(spec)
print("predicted marginal scale V:\n", predicted.scale.array.round(4))
print("predicted noncentrality:\n", predicted.noncen.array.round(4))

draws = sample_hierarchical(spec, RngStream(10), size=200_000)
print("\nempirical mean of hierarchical draws:\n", draws.mean(axis=0).round(3))
print("closed-form mean of the predicted law:\n", wishart_mean(predicted).array.round(3))

report = verify_closure(spec, 200_000, RngStream(11))
print(f"\nexact-law check over {report.n_draws} draws: {report.summary()}")

print("\n== scalar special case ==")
# Unit scales, coupling h, mixing noncentrality delta:
# X / (1 + h) is noncentral chi-square with h * delta / (1 + h).
nu, h, delta = 4, 2.0, 3.0
scalar = MixtureSpec(nu, SpdMat(1.0), SpdMat(1.0), SpdMat(h), SpdMat(delta))
x = sample_hierarchical(scalar, RngStream(12), size=100_000)[:, 0, 0] / (1 + h)
ks = stats.kstest(x, lambda q: chndtr(q, nu, h * delta / (1 + h)))
print(f"KS distance of X/(1+h) against the exact chi-square mixture CDF: "
      f"{ks.statistic:.4f} (p = {ks.pvalue:.3f})")
