"""Closure of the noncentral Wishart family under Wishart mixing.

A noncentral Wishart whose noncentrality is itself driven by an independent
noncentral Wishart with the *same* degrees of freedom is again noncentral
Wishart.  :func:`mixture_marginal_params` maps a hierarchical specification to
the closed-form marginal law, :func:`sample_hierarchical` draws from the
two-level construction directly, and :func:`verify_closure` establishes the
distributional equality by Monte Carlo: mean matrices, moment generating
functions on a set of probe matrices, and per-entry two-sample KS statistics
against draws from the predicted law.  Verification never forms ``(n, d, d)``
stacks: it draws the hierarchical and the direct Wishart factors and works on
their Gram entry columns, the same values the samplers return.

The hierarchical model, with all matrices ``d x d`` and ``Y_H`` denoting the
conjugation ``H^{1/2} Y H^{1/2}``:

* mixing level — ``Y ~ W(dof, mixing_scale, Delta)`` in the symmetric-Delta
  parameterization;
* conditional level — ``X | Y ~ W(dof, inner_scale, Delta_cond)`` with
  ``Delta_cond = inner_scale^{1/2} Y_H inner_scale^{1/2}``;
* marginal — ``X ~ W(dof, V, Delta_X)`` where
  ``V = A^{1/2} (I + Sigma_H) A^{1/2}`` and
  ``Delta_X = A^{1/2} Delta_H A^{1/2}`` (``A`` the inner scale).

In one dimension with unit scales this is the classical chi-square mixture
identity ``X / (1 + h) ~ chi^2_dof(h * delta / (1 + h))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    WishartParams,
    _draw_stack,
    _gram_columns,
    _normal_factor,
    _require_integer_dof,
    _sample_grams,
    _times,
    _wishart_factor,
    wishart_mean,
    wishart_mgf,
)
from .rng import RngStream, _as_stream, _chunk_spans, _count, as_generator
from .symmat import SpdMat, SymMat, _as_spd, sym_sqrt

__all__ = [
    "MixtureSpec",
    "VerificationReport",
    "conjugation_params",
    "mixture_marginal_params",
    "sample_hierarchical",
    "default_probes",
    "verify_closure",
    "random_mixture_spec",
]

# A verification report never passes on fewer draws than this.
MIN_VERIFY_DRAWS = 10_000

# A report passes when every error is below its threshold.
MEAN_REL_ERR_MAX = 0.01
MGF_REL_ERR_MAX = 0.02
KS_STAT_MAX = 0.015

# Draws per verification chunk.  Small chunks keep the chunk temporaries,
# and so the peak resident memory, low.
_VERIFY_CHUNK = 1 << 13


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of the two-level Wishart hierarchy.

    ``inner_scale``, ``mixing_scale`` and ``coupling`` must be positive
    definite, ``mixing_noncen`` positive semidefinite (``None`` for a central
    mixing law), and ``dof`` must exceed ``dim - 1``; sampling additionally
    needs an integer ``dof >= dim``.
    """

    dof: float
    inner_scale: SpdMat
    mixing_scale: SpdMat
    coupling: SpdMat
    mixing_noncen: SpdMat | None = None

    def __post_init__(self) -> None:
        for name in ("mixing_scale", "inner_scale", "coupling"):
            spd = _as_spd(getattr(self, name), name, require_pd=True)
            object.__setattr__(self, name, spd)
            dim = self.mixing_scale.dim
            if spd.dim != dim:
                raise ValueError(f"{name} is {spd.dim}x{spd.dim} but the mixing law is {dim}-dimensional")
        # WishartParams checks the dof and the mixing noncentrality.
        mixing = self.mixing_params()
        object.__setattr__(self, "dof", mixing.dof)
        object.__setattr__(self, "mixing_noncen", mixing.noncen)

    @property
    def dim(self) -> int:
        return self.inner_scale.dim

    def mixing_params(self) -> WishartParams:
        return WishartParams(self.dof, self.mixing_scale, self.mixing_noncen)


def conjugation_params(params: WishartParams, c: SpdMat) -> WishartParams:
    """Law of ``C X C`` for ``X ~ W(dof, scale, noncen)`` and positive definite ``C``.

    Both parameters transform by congruence: the result is
    ``W(dof, C scale C, C noncen C)``.
    """
    c = _as_spd(c, "c", require_pd=True)
    if c.dim != params.dim:
        raise ValueError(f"C is {c.dim}x{c.dim} but the distribution is {params.dim}-dimensional")
    ca = c.array
    return WishartParams(params.dof, SpdMat(ca @ params.scale.array @ ca), SpdMat(ca @ params.noncen.array @ ca))


def mixture_marginal_params(spec: MixtureSpec) -> WishartParams:
    """Closed-form marginal law of the hierarchy described by ``spec``.

    With ``A`` the inner scale, ``H`` the coupling, and conjugation subscripts
    ``R_H = H^{1/2} R H^{1/2}``, the marginal is Wishart with the same degrees
    of freedom, scale ``V = A^{1/2} (I + Sigma_H) A^{1/2}``, and noncentrality
    ``Delta_X = A^{1/2} Delta_H A^{1/2}``.  A central mixing law gives a
    central marginal.
    """
    ah = sym_sqrt(spec.inner_scale).array
    hh = sym_sqrt(spec.coupling).array
    sigma_h = hh @ spec.mixing_scale.array @ hh
    delta_h = hh @ spec.mixing_noncen.array @ hh
    v = ah @ (np.eye(spec.dim) + sigma_h) @ ah
    delta_x = ah @ delta_h @ ah
    return WishartParams(spec.dof, SpdMat(v), SpdMat(delta_x))


def _hierarchical_factor(spec: MixtureSpec):
    """``(factor, per_draw)`` for the hierarchy, as :func:`_wishart_factor` gives them for one law.

    ``factor(gen, n)`` draws ``n`` mixing factors ``L`` and then the
    conditional factors ``Z A^{1/2} + L G'``, whose Grams are hierarchical
    draws.  Requires an integer ``dof >= dim``.
    """
    nu = _require_integer_dof(spec.dof, spec.dim)
    ah = sym_sqrt(spec.inner_scale).array
    g = ah @ sym_sqrt(spec.coupling).array
    mixing_factor, _ = _wishart_factor(spec.mixing_params())
    return (lambda gen, n: _normal_factor(_times(mixing_factor(gen, n), g.T), nu, ah, gen, n)), 2 * nu * spec.dim


def sample_hierarchical(
    spec: MixtureSpec,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> SpdMat | np.ndarray:
    """Draw from the two-level hierarchy: ``Y = L' L`` first, then ``X | Y``.

    With ``G = A^{1/2} H^{1/2}``, ``M = L G'`` has ``M' M = G Y G' = Delta_cond``,
    so it is the conditional mean of the matrix-normal factor ``Z A^{1/2} + M``
    and no root of ``Delta_cond`` is formed.  Requires an integer
    ``dof >= dim`` because the conditional level is always noncentral.
    """
    return _sample_grams(_hierarchical_factor(spec), spec.dim, rng, size)


def default_probes(scale: SpdMat, count: int = 5) -> list[SymMat]:
    """Probe matrices for MGF comparison against a predicted scale ``V``.

    Starts with ``0`` and ``+/- eps * I`` and continues with symmetrized unit
    matrices ``eps * (E_ij + E_ji) / 2``; further probes repeat the pattern at
    ``eps / 2``.  The scale ``eps = 0.1 / lambda_max(V)`` keeps
    ``V^{-1} - 2 T`` positive definite with a margin of 0.8 of its smallest
    eigenvalue; anything close to the 0.25 boundary would push ``M(2T)`` out
    of the domain and give the empirical MGF estimator infinite variance.
    """
    count = _count(count, "count")
    scale = _as_spd(scale, "scale", require_pd=True)
    dim = scale.dim
    eps = 0.1 / float(scale.eigenvalues[-1])
    base = [np.zeros((dim, dim)), np.eye(dim), -np.eye(dim)]
    n_patterns = dim * (dim + 1) // 2
    for k in range(max(0, count - 3)):
        i, j = np.triu_indices(dim)[0][k % n_patterns], np.triu_indices(dim)[1][k % n_patterns]
        e = np.zeros((dim, dim))
        e[i, j] = e[j, i] = 0.5 if i != j else 1.0
        base.append(e / (1 << (k // n_patterns)))
    return [SymMat(eps * p) for p in base[:count]]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one Monte Carlo closure verification.

    ``passed`` is true only when every error is below its threshold *and* at
    least :data:`MIN_VERIFY_DRAWS` draws were used — smaller runs are reported
    but never pass.
    """

    mean_rel_err: float
    mgf_rel_errs: tuple[float, ...]
    ks_stats: tuple[float, ...]
    n_draws: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "mean_rel_err": self.mean_rel_err,
            "mgf_rel_errs": list(self.mgf_rel_errs),
            "ks_stats": list(self.ks_stats),
            "n_draws": self.n_draws,
            "passed": self.passed,
            "thresholds": {
                "mean_rel_err": MEAN_REL_ERR_MAX,
                "mgf_rel_err": MGF_REL_ERR_MAX,
                "ks_stat": KS_STAT_MAX,
            },
        }

    def to_text(self) -> str:
        lines = [
            f"closure verification over {self.n_draws} draws: {'PASS' if self.passed else 'FAIL'}",
            f"  mean relative error      {self.mean_rel_err:.5f}  (threshold {MEAN_REL_ERR_MAX:g})",
            f"  max MGF relative error   {max(self.mgf_rel_errs):.5f}  (threshold {MGF_REL_ERR_MAX:g}, {len(self.mgf_rel_errs)} probes)",
            f"  max per-entry KS         {max(self.ks_stats):.5f}  (threshold {KS_STAT_MAX:g}, {len(self.ks_stats)} entries)",
        ]
        if self.n_draws < MIN_VERIFY_DRAWS:
            lines.append(f"  note: fewer than {MIN_VERIFY_DRAWS} draws, report cannot pass")
        return "\n".join(lines)


def _ks_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance, bitwise equal to ``scipy.stats.ks_2samp(x, y).statistic``.

    Both empirical CDFs step only at sample points, so, as scipy does,
    ``c_x/n_x - c_y/n_y`` (``c`` counting points at or below) is evaluated at
    every sample point.  Within a tie group of a sorted sample both counts
    are those at the group's last point, so each sample is taken at its
    group ends only: there its own count is the position plus one, and a
    ``searchsorted`` into the other sorted sample gives the other count.
    The temporaries stay at one sample's size.  As scipy does on its exact
    path, samples of at most 10,000 points round the distance to the lattice
    ``h / lcm(n_x, n_y)`` it lives on.  No p-value is computed.
    """
    x, y = np.sort(x), np.sort(y)
    d = 0.0
    for a, b in ((x, y), (y, x)):
        ends = np.flatnonzero(np.append(a[1:] != a[:-1], True))
        d = max(d, float(np.abs((ends + 1) / a.size - np.searchsorted(b, a[ends], "right") / b.size).max()))
    if max(x.size, y.size) <= 10_000:
        lcm = math.lcm(x.size, y.size)
        d = round(d * lcm) / lcm
    return d


def _gram_entries(source, entries: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """``(n, entries)`` upper-triangle entries of ``n`` Grams drawn from ``source = (factor, per_draw)``."""
    factor, per_draw = source
    return _draw_stack(n, (entries,), per_draw, lambda b: np.column_stack(_gram_columns(factor(gen, b))))


def verify_closure(
    spec: MixtureSpec,
    n_draws: int,
    rng: RngStream | int,
    probes: list[SymMat] | None = None,
    predicted: WishartParams | None = None,
) -> VerificationReport:
    """Compare hierarchical draws against the predicted marginal law.

    Three checks are run and collected into a :class:`VerificationReport`:

    1. relative Frobenius error between the empirical mean of hierarchical
       draws and the closed-form mean of the predicted law;
    2. relative error between the empirical MGF estimate ``mean(etr(T X))``
       and the closed-form MGF, at every probe ``T``;
    3. two-sample Kolmogorov-Smirnov distance for each upper-triangle entry,
       hierarchical draws versus direct draws from the predicted law.

    No ``(n, d, d)`` stack is formed: each chunk draws the hierarchical and
    the direct factors and keeps only their Gram entry columns
    (:func:`~wishartmix.distributions._gram_columns`), so the checks see the
    same values :func:`sample_hierarchical` and ``sample_wishart`` return.
    The mean comes from column sums, ``tr(T X)`` from the entries weighted 1
    on the diagonal and 2 off it, and the KS distances from the columns.
    Draws are generated in fixed-size chunks, each from its own child stream
    of ``rng``, so the report is identical however the chunks would be
    distributed over workers.  ``predicted`` overrides the computed marginal
    law (useful as a negative control).
    """
    rng = _as_stream(rng, "verify_closure")
    n_draws = _count(n_draws, "n_draws")
    if predicted is None:
        predicted = mixture_marginal_params(spec)
    if probes is None:
        probes = default_probes(predicted.scale)
    # Closed-form MGF values; raises OutsideDomain for an invalid probe.
    mgf_closed = np.array([wishart_mgf(predicted, t) for t in probes])
    hier_source = _hierarchical_factor(spec)
    direct_source = _wishart_factor(predicted)

    dim = spec.dim
    iu, ju = np.triu_indices(dim)
    # tr(T X) over the upper entries: T_ij X_ij, twice off the diagonal.
    weights = np.array([t.array[iu, ju] for t in probes]).T * np.where(iu == ju, 1.0, 2.0)[:, None]
    etr_sums = np.zeros(len(probes))
    hier = np.empty((n_draws, iu.size))
    direct = np.empty((n_draws, iu.size))

    for k, pos, n in _chunk_spans(n_draws, _VERIFY_CHUNK):
        hier[pos : pos + n] = _gram_entries(hier_source, iu.size, rng.generator(1, k), n)
        etr_sums += np.exp(hier[pos : pos + n] @ weights).sum(axis=0)
        direct[pos : pos + n] = _gram_entries(direct_source, iu.size, rng.generator(2, k), n)

    mean_x = np.empty((dim, dim))
    mean_x[iu, ju] = mean_x[ju, iu] = hier.sum(axis=0) / n_draws
    mean_predicted = wishart_mean(predicted).array
    mean_rel = float(np.linalg.norm(mean_x - mean_predicted) / np.linalg.norm(mean_predicted))
    mgf_rel = tuple(float(abs(s / n_draws - c) / c) for s, c in zip(etr_sums, mgf_closed))
    ks = tuple(_ks_distance(hier[:, e], direct[:, e]) for e in range(iu.size))
    passed = (
        n_draws >= MIN_VERIFY_DRAWS
        and mean_rel < MEAN_REL_ERR_MAX
        and all(v < MGF_REL_ERR_MAX for v in mgf_rel)
        and all(v < KS_STAT_MAX for v in ks)
    )
    return VerificationReport(mean_rel, mgf_rel, ks, n_draws, passed)


def _random_spd(dim: int, gen: np.random.Generator) -> SpdMat:
    g = gen.standard_normal((dim, dim))
    return SpdMat(g @ g.T / dim + 0.5 * np.eye(dim))


def random_mixture_spec(
    dim: int,
    dof: float,
    rng: RngStream | np.random.Generator | int,
    central: bool = False,
) -> MixtureSpec:
    """A randomized, well-conditioned hierarchy specification for testing."""
    gen = as_generator(rng)
    inner = _random_spd(dim, gen)
    mixing = _random_spd(dim, gen)
    coupling = _random_spd(dim, gen)
    if central:
        noncen = None
    else:
        g = gen.standard_normal((dim, dim))
        noncen = SpdMat(g @ g.T / dim)
    return MixtureSpec(dof, inner, mixing, coupling, noncen)
