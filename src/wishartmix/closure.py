"""Closure of the noncentral Wishart family under Wishart mixing.

A noncentral Wishart whose noncentrality is itself driven by an independent
noncentral Wishart with the *same* degrees of freedom is again noncentral
Wishart.  :func:`mixture_marginal_params` maps a hierarchical specification to
the closed-form marginal law, :func:`sample_hierarchical` draws from the
two-level construction directly, and :func:`verify_closure` checks the draws
against that law with :func:`check_law`, which judges any Gram sampler
against the exact law it should follow.  The ``n`` draws are streamed once,
in chunks, and never stored; three checks form one Bonferroni family at
level :data:`VERIFY_ALPHA` per report:

* distribution — for each ``a`` in ``{e_i, e_i + e_j}``, ``a'Xa / a'Va`` is
  exactly ``chi^2_dof(a'Delta a / a'Va)``; the empirical CDF of ``a'Xa`` is
  compared with ``k / 1000`` at the exact quantiles, and the largest gap is
  bounded by the DKW-Massart ``eps = sqrt(ln(2 m / alpha) / (2 n))`` over
  the ``m`` checks of the report;
* mean — each upper entry's empirical mean lies within ``z`` closed-form
  standard errors ``sqrt(Var X_ij / n)`` of ``dof V + Delta``;
* MGF — at each probe ``T``, ``mean etr(T X)`` lies within ``z`` standard
  errors ``sqrt((M(2T) - M(T)^2) / n)`` of the closed-form ``M(T)``;

with ``z`` the two-sided normal quantile at ``alpha / m``.  No second sampler
is needed: every bound is closed form.

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

The sampler draws both levels, never the marginal law, in two matrix
products per batch: ``G' = (A^{1/2} H^{1/2})'`` is folded into the mixing
law's root and mean once, so the mixing level's one product gives the
conditional mean ``M = L G'`` of its factor ``L`` directly, and the
conditional level's one product gives ``Z A^{1/2}``, to which ``M`` is added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    WishartParams,
    _batch,
    _gram_columns,
    _normal_factor,
    _require_integer_dof,
    _sample_grams,
    _wishart_factor,
    _Workspace,
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
    "check_law",
    "verify_closure",
    "random_mixture_spec",
]

# A verification report never passes on fewer draws than this.
MIN_VERIFY_DRAWS = 10_000

# Family level of one report: its ``m`` checks are each made at
# ``VERIFY_ALPHA / m`` (Bonferroni), so a correct law fails a report with
# probability at most ``VERIFY_ALPHA``.
VERIFY_ALPHA = 1e-6

# The CDF check evaluates each projection at the exact quantiles of the
# levels ``k / _GRID_POINTS``, ``0 < k < _GRID_POINTS``.
_GRID_POINTS = 1000

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

    ``factor(gen, n, ws)`` draws the hierarchy's conditional factors in two
    matrix products per batch, every level into the workspace ``ws``.  With
    ``G = A^{1/2} H^{1/2}`` folded into the mixing level at setup, the
    mixing level's one product gives ``M = L G'`` directly (see
    :func:`_wishart_factor`), and the conditional level's one product gives
    ``Z A^{1/2}``, to which ``M`` is added.  Requires an integer
    ``dof >= dim``.
    """
    nu = _require_integer_dof(spec.dof, spec.dim)
    ah = sym_sqrt(spec.inner_scale).array
    g = ah @ sym_sqrt(spec.coupling).array
    mixing_factor, _ = _wishart_factor(spec.mixing_params(), g.T)
    return (lambda gen, n, ws: _normal_factor(mixing_factor(gen, n, ws), nu, ah, gen, n, ws, "conditional")), 2 * nu * spec.dim


def sample_hierarchical(
    spec: MixtureSpec,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> SpdMat | np.ndarray:
    """Draw from the two-level hierarchy: ``Y = L' L`` first, then ``X | Y``.

    With ``G = A^{1/2} H^{1/2}``, ``M = L G'`` has ``M' M = G Y G' = Delta_cond``,
    so it is the conditional mean of the matrix-normal factor ``Z A^{1/2} + M``
    and no root of ``Delta_cond`` is formed.  ``G'`` is folded into the
    mixing law's root ``Sigma^{1/2}`` and mean once, so each batch takes two
    matrix products: ``M = Z0 (Sigma^{1/2} G') + [Delta^{1/2} G'; 0]`` (or
    ``T' (Sigma^{1/2} G')`` for a central mixing law with Bartlett factor
    ``T``), then ``Z A^{1/2}``.  The mixing level is drawn, never the
    marginal law.  Requires an integer ``dof >= dim`` because the
    conditional level is always noncentral.
    """
    return _sample_grams(_hierarchical_factor(spec), spec.dim, rng, size)


def default_probes(scale: SpdMat) -> list[SymMat]:
    """The five probe matrices of the MGF check against a predicted scale ``V``.

    ``0``, ``+/- eps * I``, ``eps * E_11`` and ``eps * (E_12 + E_21) / 2``
    (``-eps / 2`` and ``eps / 2`` at ``d = 1``, where ``E_11`` is ``I``).  The
    scale ``eps = 0.1 / lambda_max(V)`` keeps ``V^{-1} - 2 T`` positive
    definite with a margin of 0.8 of its smallest eigenvalue; anything close
    to the 0.25 boundary would push ``M(2T)`` out of the domain and give the
    empirical MGF estimator infinite variance.
    """
    scale = _as_spd(scale, "scale", require_pd=True)
    dim = scale.dim
    eps = 0.1 / float(scale.eigenvalues[-1])
    e11, e12 = np.zeros((2, dim, dim))
    e11[0, 0] = 1.0 if dim > 1 else -0.5
    j = min(1, dim - 1)
    e12[0, j] = e12[j, 0] = 0.5
    return [SymMat(eps * p) for p in (np.zeros((dim, dim)), np.eye(dim), -np.eye(dim), e11, e12)]


# The checks of one report, each an ``(errors, bounds)`` pair of tuples.
CHECKS = ("cdf", "mean", "mgf")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact-law check: every error beside its bound.

    ``errors`` and ``bounds`` map each of :data:`CHECKS` to one value per
    projection (``cdf``, the largest grid gap), per upper entry (``mean``)
    or per probe (``mgf``).  ``passed`` is true only when no error exceeds
    its bound *and* at least :data:`MIN_VERIFY_DRAWS` draws were used —
    smaller runs are reported but never pass.
    """

    n_draws: int
    errors: dict[str, tuple[float, ...]]
    bounds: dict[str, tuple[float, ...]]

    @property
    def passed(self) -> bool:
        return self.n_draws >= MIN_VERIFY_DRAWS and all(
            e <= b for c in CHECKS for e, b in zip(self.errors[c], self.bounds[c])
        )

    def worst(self) -> dict[str, float]:
        """Largest ``error / bound`` of each check; the report passes only if none exceeds 1.

        A zero error against a zero bound (the zero probe) counts 0.
        """
        return {
            c: max(e / b if b else (math.inf if e else 0.0) for e, b in zip(self.errors[c], self.bounds[c]))
            for c in CHECKS
        }

    def to_dict(self) -> dict:
        return {
            "n_draws": self.n_draws,
            "alpha": VERIFY_ALPHA,
            "passed": self.passed,
            **{c: {"errors": list(self.errors[c]), "bounds": list(self.bounds[c])} for c in CHECKS},
        }

    def summary(self) -> str:
        """One line: the verdict, the worst ``error / bound`` of each check, and the draw-floor note."""
        worst = self.worst()
        floor = f"  (fewer than {MIN_VERIFY_DRAWS} draws, cannot pass)" if self.n_draws < MIN_VERIFY_DRAWS else ""
        return (
            f"{'PASS' if self.passed else 'FAIL'}  error/bound  "
            f"cdf {worst['cdf']:.3f}  mean {worst['mean']:.3f}  mgf {worst['mgf']:.3f}{floor}"
        )


def check_law(
    source,
    law: WishartParams,
    n_draws: int,
    rng: RngStream | int,
) -> VerificationReport:
    """Judge ``n_draws`` Grams drawn from ``source = (factor, per_draw)`` against the exact law ``law``.

    Runs the module docstring's three checks as one family of ``m`` checks,
    each at ``VERIFY_ALPHA / m``.  The draws are streamed once, in chunks of
    ``_VERIFY_CHUNK`` from the child streams ``rng.generator(1, k)``, and
    are not kept; a chunk of more draws than ``per_draw`` allows in one
    batch (see :func:`~wishartmix.distributions._batch`) is drawn in
    batches.  Every array of a chunk (normals, factors, entry columns,
    projections, ``etr(T X)``) is written into one
    :class:`~wishartmix.distributions._Workspace` allocated for the call,
    so memory freed after one chunk is not faulted in again for the
    next.  The CDF grid, ``chndtrix`` at the levels ``k / 1000`` times
    ``a'Va``, is set before any draw; each chunk's projections are sorted
    and counted against it with ``searchsorted``.
    The mean bound uses ``Var X_ij = dof (V_ii V_jj + V_ij^2) + V_ii
    Delta_jj + V_jj Delta_ii + 2 V_ij Delta_ij``; the zero probe has error
    and bound 0.  The probes are :func:`default_probes` of the law's scale.
    A ``law`` other than the one ``source`` follows makes a negative
    control: ``check_law(_hierarchical_factor(spec), wrong_law, n, rng)``.
    """
    from scipy.special import chndtrix, ndtri

    rng = _as_stream(rng, "check_law")
    n = _count(n_draws, "n_draws")
    probes = default_probes(law.scale)
    # Closed-form MGF values; raises OutsideDomain where T or 2T is outside the domain.
    mgf = np.array([wishart_mgf(law, t) for t in probes])
    mgf_twice = np.array([wishart_mgf(law, 2.0 * t.array) for t in probes])

    dim, dof = law.dim, law.dof
    v, delta = law.scale.array, law.noncen.array
    iu, ju = np.triu_indices(dim)
    m = iu.size
    off = np.where(iu == ju, 1.0, 2.0)
    # tr(T X) over the upper entries: T_ij X_ij, twice off the diagonal.
    etr_weights = np.array([t.array[iu, ju] for t in probes]).T * off[:, None]
    # Projection p is a = e_i + e_j for entry (i, j), a = e_i on the diagonal;
    # a'Xa is the upper entries weighted a_k a_l, twice off the diagonal.
    a = np.zeros((m, dim))
    a[np.arange(m), iu] = a[np.arange(m), ju] = 1.0
    proj_weights = a[:, iu] * a[:, ju] * off
    a_scale = np.einsum("pi,ij,pj->p", a, v, a)
    levels = np.arange(1, _GRID_POINTS) / _GRID_POINTS
    grid = chndtrix(levels, dof, (np.einsum("pi,ij,pj->p", a, delta, a) / a_scale)[:, None]) * a_scale[:, None]

    checks = 2 * m + len(probes)
    eps = math.sqrt(math.log(2 * checks / VERIFY_ALPHA) / (2 * n))
    z = -float(ndtri(VERIFY_ALPHA / (2 * checks)))
    dv, dd = np.diag(v), np.diag(delta)
    entry_var = (dof * (np.outer(dv, dv) + v * v) + np.outer(dv, dd) + np.outer(dd, dv) + 2.0 * v * delta)[iu, ju]

    factor, per_draw = source
    ws = _Workspace()
    counts = np.zeros(grid.shape, dtype=np.int64)
    sums = np.zeros(m)
    etr_sums = np.zeros(len(probes))
    for k, _, size in _chunk_spans(n, _VERIFY_CHUNK):
        gen = rng.generator(1, k)
        x = ws("x", (size, m))
        for _, start, b in _chunk_spans(size, _batch(per_draw)):
            _gram_columns(factor(gen, b, ws), x[start : start + b])
        sums += x.sum(axis=0)
        etr = np.matmul(x, etr_weights, out=ws("etr", (size, len(probes))))
        etr_sums += np.exp(etr, out=etr).sum(axis=0)
        proj = np.matmul(proj_weights, x.T, out=ws("proj", (m, size)))
        proj.sort(axis=1)
        for p, col in enumerate(proj):
            counts[p] += np.searchsorted(col, grid[p], "right")

    errors = {
        "cdf": np.abs(counts / n - levels).max(axis=1),
        "mean": np.abs(sums / n - wishart_mean(law).array[iu, ju]),
        "mgf": np.abs(etr_sums / n - mgf),
    }
    bounds = {
        "cdf": np.full(m, eps),
        "mean": z * np.sqrt(entry_var / n),
        "mgf": z * np.sqrt(np.maximum(mgf_twice - mgf * mgf, 0.0) / n),
    }
    return VerificationReport(n, *({c: tuple(map(float, d[c])) for c in CHECKS} for d in (errors, bounds)))


def verify_closure(spec: MixtureSpec, n_draws: int, rng: RngStream | int) -> VerificationReport:
    """Check hierarchical draws against the predicted marginal law with :func:`check_law`.

    The draws are those :func:`sample_hierarchical` returns, streamed from
    ``rng``'s chunk streams, so the report is identical however the chunks
    would be distributed over workers.
    """
    return check_law(_hierarchical_factor(spec), mixture_marginal_params(spec), n_draws, rng)


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
