"""Balanced two-factor factorial designs with multivariate responses.

Covers the model ``Y_ijk = mu + alpha_i + beta_j + (alphabeta)_ij + eps_ijk``
with ``d``-dimensional normal errors: the orthogonal sum-of-outer-products
(SOP) decomposition, the matrix-variate Beta Type II test statistics for the
three factor hypotheses, the four classical scalar functionals of their
eigenvalues, the exact univariate variance-component F tests for ``d = 1``,
and a simulator for fixed, random, and null effect configurations.

The factor statistics are eigenvalues of

    ``B = (V_S)^{-1/2} S_S (V_S)^{-1/2}``,  ``R_S = Sigma^{-1/2} R Sigma^{-1/2}``,

with ``S`` the factor SOP and ``V`` the residual SOP.  These eigenvalues equal
those of ``S V^{-1}`` and do not depend on the choice of ``Sigma``, which is
why the identity matrix is the default.

Singularity policy: one path, :func:`batched_statistic_eigs`, computes every
statistic, for one table or a stack.  It rejects a residual SOP as singular,
raising :class:`SingularErrorMatrix`, when its smallest eigenvalue is at or
below ``PD_TOL`` times its largest, the same relative test that
:class:`~wishartmix.symmat.SpdMat` uses to certify a matrix positive definite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.stats import f as f_dist

from .distributions import _positive_int
from .errors import DegenerateDesign, SingularErrorMatrix, UnbalancedDesign, ValidationError
from .rng import RngStream, as_generator
from .symmat import PD_TOL, SpdMat, SymMat, _as_spd, _mirror_upper, sym_inv_sqrt, sym_sqrt

__all__ = [
    "DesignTable",
    "SopDecomposition",
    "StatisticFunctional",
    "NoEffect",
    "RandomEffect",
    "FixedEffect",
    "SimulationSpec",
    "DofMap",
    "sop_arrays",
    "compute_sop",
    "batched_statistic_eigs",
    "scalar_statistic",
    "univariate_f_test",
    "dof_map",
    "simulate_design",
]

# Each factor test as (name, numerator, denominator): the positions of its two
# SOPs in sop_arrays / SopDecomposition order, which are also the positions of
# their degrees of freedom in DofMap order.
FACTOR_TESTS = (("A", 0, 3), ("B", 1, 3), ("AB", 2, 3))
FACTORS = tuple(name for name, _, _ in FACTOR_TESTS)


@dataclass(frozen=True)
class DesignTable:
    """Fully balanced ``a x b x n`` layout of ``d``-dimensional responses.

    ``responses`` has shape ``(a, b, n, d)``; balance is structural.  Optional
    level labels are carried along for reporting and play no role in the
    arithmetic.
    """

    responses: np.ndarray
    labels_a: tuple[str, ...] | None = None
    labels_b: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        try:
            y = np.array(self.responses, dtype=float)
        except ValueError as exc:
            raise UnbalancedDesign(f"responses do not form a rectangular (a, b, n, d) array: {exc}") from exc
        if y.ndim != 4:
            raise UnbalancedDesign(f"responses must have shape (a, b, n, d), got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "responses", y)
        for name, count in (("labels_a", y.shape[0]), ("labels_b", y.shape[1])):
            labels = getattr(self, name)
            if labels is not None:
                labels = tuple(str(v) for v in labels)
                if len(labels) != count:
                    raise ValueError(f"{name} has {len(labels)} entries for {count} levels")
                object.__setattr__(self, name, labels)

    @property
    def levels_a(self) -> int:
        return self.responses.shape[0]

    @property
    def levels_b(self) -> int:
        return self.responses.shape[1]

    @property
    def reps(self) -> int:
        return self.responses.shape[2]

    @property
    def dim(self) -> int:
        return self.responses.shape[3]


class SopDecomposition(NamedTuple):
    """The four effect SOP matrices plus the total; all symmetric PSD.

    Additivity ``sop_a + sop_b + sop_ab + sop_e == sop_total`` holds to
    floating-point accuracy on every instance.
    """

    sop_a: SymMat
    sop_b: SymMat
    sop_ab: SymMat
    sop_e: SymMat
    sop_total: SymMat


def sop_arrays(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """SOP matrices for responses of shape ``(..., a, b, n, d)``.

    Returns ``(sop_a, sop_b, sop_ab, sop_e, sop_total)``, each of shape
    ``(..., d, d)``.  Leading axes are treated as independent tables, which is
    what makes large simulation batches cheap.  Means are taken first and
    outer products second, so large response magnitudes do not cancel
    catastrophically.
    """
    y = np.asarray(y, dtype=float)
    a, b, n = y.shape[-4], y.shape[-3], y.shape[-2]
    mean_cell = y.mean(axis=-2)
    mean_a = mean_cell.mean(axis=-2)
    mean_b = mean_cell.mean(axis=-3)
    grand = mean_a.mean(axis=-2)

    dev_a = mean_a - grand[..., None, :]
    dev_b = mean_b - grand[..., None, :]
    dev_ab = (
        mean_cell
        - mean_a[..., :, None, :]
        - mean_b[..., None, :, :]
        + grand[..., None, None, :]
    )
    dev_e = y - mean_cell[..., None, :]
    dev_t = y - grand[..., None, None, None, :]

    sop_a = b * n * np.einsum("...iu,...iv->...uv", dev_a, dev_a)
    sop_b = a * n * np.einsum("...ju,...jv->...uv", dev_b, dev_b)
    sop_ab = n * np.einsum("...iju,...ijv->...uv", dev_ab, dev_ab)
    sop_e = np.einsum("...ijku,...ijkv->...uv", dev_e, dev_e)
    sop_total = np.einsum("...ijku,...ijkv->...uv", dev_t, dev_t)
    return sop_a, sop_b, sop_ab, sop_e, sop_total


def compute_sop(table: DesignTable) -> SopDecomposition:
    """Orthogonal SOP decomposition of a balanced design table."""
    if table.reps < 2:
        raise DegenerateDesign("at least two replicates per cell are needed for a residual SOP")
    with np.errstate(over="ignore", invalid="ignore"):
        parts = sop_arrays(table.responses)
    if not all(np.all(np.isfinite(p)) for p in parts):
        raise ValidationError("the responses overflow the sum of outer products; rescale them before testing")
    return SopDecomposition(*(SymMat(p) for p in parts))


class StatisticFunctional(str, enum.Enum):
    """Scalar functionals of the Beta Type II eigenvalues.

    ``WILKS`` rejects in the lower tail; the other three reject in the upper
    tail.
    """

    WILKS = "wilks"
    PILLAI = "pillai"
    HOTELLING_LAWLEY = "hotelling-lawley"
    ROY = "roy"

    @property
    def lower_tail(self) -> bool:
        return self is StatisticFunctional.WILKS


def scalar_statistic(eigs: np.ndarray, functional: StatisticFunctional) -> float | np.ndarray:
    """Apply a classical MANOVA functional to non-negative eigenvalues.

    ``eigs`` may be a single eigenvalue list ``(d,)`` or a batch ``(..., d)``;
    the functional reduces the last axis.

    * wilks: ``prod 1 / (1 + lam)``
    * pillai: ``sum lam / (1 + lam)``
    * hotelling-lawley: ``sum lam``
    * roy: ``max lam``
    """
    lam = np.asarray(eigs, dtype=float)
    functional = StatisticFunctional(functional)
    if functional is StatisticFunctional.WILKS:
        out = np.prod(1.0 / (1.0 + lam), axis=-1)
    elif functional is StatisticFunctional.PILLAI:
        out = np.sum(lam / (1.0 + lam), axis=-1)
    elif functional is StatisticFunctional.HOTELLING_LAWLEY:
        out = np.sum(lam, axis=-1)
    else:
        out = np.max(lam, axis=-1)
    return float(out) if out.ndim == 0 else out


def batched_statistic_eigs(numerators, residuals, sigma: SpdMat | None = None) -> np.ndarray:
    """Eigenvalues (descending) of the Beta Type II statistic matrices.

    ``numerators`` (factor SOPs ``S``) and ``residuals`` (residual SOPs
    ``V``) have shape ``(..., d, d)``, one table being the 2-D case; the
    result has shape ``(..., d)``.  Each table gives the eigenvalues of
    ``B = (V_S)^{-1/2} S_S (V_S)^{-1/2}`` with ``R_S`` the conjugation by
    ``sigma^{-1/2}``.  They equal the eigenvalues of ``S V^{-1}`` and do not
    depend on the positive definite ``sigma``; ``None`` means the identity.
    Raises :class:`SingularErrorMatrix` when any residual SOP has its smallest
    eigenvalue at or below ``PD_TOL`` times its largest (a PD residual
    needs ``a * b * (n - 1) >= d`` observations).
    """
    numerators = np.asarray(numerators, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if numerators.shape != residuals.shape:
        raise ValueError(f"numerator SOPs {numerators.shape} and residual SOPs {residuals.shape} differ in shape")
    if sigma is not None:
        sigma = _as_spd(sigma, "sigma", require_pd=True)
        if sigma.dim != numerators.shape[-1]:
            raise ValueError(f"sigma is {sigma.dim}x{sigma.dim} but the SOPs are {numerators.shape[-1]}-dimensional")
        c = sym_inv_sqrt(sigma).array
        numerators = _mirror_upper(c @ numerators @ c)
        residuals = _mirror_upper(c @ residuals @ c)
    w, v = np.linalg.eigh(residuals)
    singular = w[..., 0] <= PD_TOL * w[..., -1]
    if np.any(singular):
        w_bad = w[singular][0]
        raise SingularErrorMatrix(
            f"residual SOP is singular: smallest eigenvalue {w_bad[0]:.6g} is at most "
            f"{PD_TOL:g} * largest {w_bad[-1]:.6g}"
        )
    inv_root = _mirror_upper((v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2))
    b = _mirror_upper(inv_root @ numerators @ inv_root)
    return np.maximum(np.linalg.eigvalsh(b)[..., ::-1], 0.0)


class DofMap(NamedTuple):
    """Degrees of freedom of the four SOP laws in a balanced ``a x b x n`` design."""

    nu_a: int
    nu_b: int
    nu_ab: int
    nu_e: int


def dof_map(a: int, b: int, n: int) -> DofMap:
    """``(a-1, b-1, (a-1)(b-1), ab(n-1))`` with domain validation."""
    a, b, n = _positive_int(a, "a"), _positive_int(b, "b"), _positive_int(n, "n")
    if a < 2 or b < 2:
        raise ValueError(f"both factors need at least two levels, got a={a}, b={b}")
    if n < 2:
        raise DegenerateDesign(f"at least two replicates per cell are needed, got n={n}")
    return DofMap(a - 1, b - 1, (a - 1) * (b - 1), a * b * (n - 1))


def _test_dofs(a: int, b: int, n: int, dim: int) -> DofMap:
    """:func:`dof_map`, checked to support the ``dim``-dimensional statistic of every factor test.

    Raises :class:`DegenerateDesign` naming the first factor whose degrees of
    freedom do not exceed ``dim - 1``.  The residual never binds first:
    ``ab(n - 1) > (a - 1)(b - 1)`` for ``n >= 2``.
    """
    dofs = dof_map(a, b, n)
    for name, num, _ in FACTOR_TESTS:
        if not dofs[num] > dim - 1:
            raise DegenerateDesign(
                f"factor {name} has {dofs[num]} degrees of freedom, which cannot support a "
                f"{dim}-dimensional statistic (need more factor levels or fewer responses)"
            )
    return dofs


def univariate_f_test(table: DesignTable, which: str) -> tuple[float, float]:
    """Exact variance-component F test for one factor of a ``d = 1`` design.

    ``F = (SOP_X / nu_X) / (SOP_E / nu_E)`` with the upper-tail p-value from
    the ``F(nu_X, nu_E)`` distribution.  In balanced designs the test of
    ``AB`` is exact under its null, and the tests of ``A`` and ``B`` are exact
    when the interaction is fixed or absent.  With a random interaction
    (``Sigma_AB != 0``) ``SOP_A`` and ``SOP_B`` carry ``n Sigma_AB`` that
    ``SOP_E`` lacks, so their nulls are not ``F(nu_X, nu_E)`` and these tests
    over-reject.
    """
    if which not in FACTORS:
        raise ValueError(f"which must be one of {FACTORS}, got {which!r}")
    if table.dim != 1:
        raise ValueError(f"the univariate F test needs d = 1, got d = {table.dim}")
    _, num, den = FACTOR_TESTS[FACTORS.index(which)]
    return _f_test(compute_sop(table), dof_map(table.levels_a, table.levels_b, table.reps), num, den)


def _f_test(sop: SopDecomposition, dofs: DofMap, num: int, den: int) -> tuple[float, float]:
    """``(F, p)`` of :func:`univariate_f_test` for one :data:`FACTOR_TESTS` entry of a ``d = 1`` SOP."""
    f_stat = (float(sop[num].array[0, 0]) / dofs[num]) / (float(sop[den].array[0, 0]) / dofs[den])
    return f_stat, float(f_dist.sf(f_stat, dofs[num], dofs[den]))


class NoEffect:
    """Marker: the factor contributes nothing to the response."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NoEffect()"


NO_EFFECT = NoEffect()


@dataclass(frozen=True)
class RandomEffect:
    """Zero-mean normal effects with the given covariance (PSD allowed)."""

    cov: SpdMat

    def __post_init__(self) -> None:
        object.__setattr__(self, "cov", _as_spd(self.cov, "cov", require_pd=False))


@dataclass(frozen=True)
class FixedEffect:
    """Explicit effect vectors, required to satisfy the identifiability constraints.

    For a main factor ``values`` has shape ``(levels, d)`` with zero column
    means; for the interaction it has shape ``(a, b, d)`` with zero means over
    each row, each column, and overall (checked to ``1e-12`` relative).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("fixed-effect values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def _check_centered(self, axes: tuple[int, ...]) -> None:
        scale = max(1.0, float(np.max(np.abs(self.values))))
        for ax in axes:
            if np.max(np.abs(self.values.mean(axis=ax))) > 1e-12 * scale:
                raise ValueError("fixed-effect vectors must average to zero over each factor index")


Effect = NoEffect | RandomEffect | FixedEffect


@dataclass(frozen=True)
class SimulationSpec:
    """Generator configuration for a balanced two-factor design.

    The three effect slots each take :data:`NO_EFFECT`, a
    :class:`RandomEffect`, or a :class:`FixedEffect`; errors are always iid
    ``N_d(0, error_scale)``.
    """

    levels_a: int
    levels_b: int
    reps: int
    dim: int
    error_scale: SpdMat
    effect_a: Effect = NO_EFFECT
    effect_b: Effect = NO_EFFECT
    effect_ab: Effect = NO_EFFECT

    def __post_init__(self) -> None:
        for name in ("levels_a", "levels_b", "reps", "dim"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        a, b, d = self.levels_a, self.levels_b, self.dim
        if min(a, b) < 2:
            raise ValueError("need a, b >= 2 and n, d >= 1")
        object.__setattr__(self, "error_scale", _as_spd(self.error_scale, "error_scale", require_pd=True))
        if self.error_scale.dim != d:
            raise ValueError(f"error_scale must be a {d}x{d} positive definite matrix")
        for name, shape, axes in (
            ("effect_a", (a, d), (0,)),
            ("effect_b", (b, d), (0,)),
            ("effect_ab", (a, b, d), (0, 1)),
        ):
            eff = getattr(self, name)
            if isinstance(eff, FixedEffect):
                if eff.values.shape != shape:
                    raise ValueError(f"{name} values must have shape {shape}, got {eff.values.shape}")
                eff._check_centered(axes)
            elif isinstance(eff, RandomEffect):
                if eff.cov.dim != d:
                    raise ValueError(f"{name} covariance must be {d}x{d}")
            elif not isinstance(eff, NoEffect):
                raise TypeError(f"{name} must be NoEffect, RandomEffect, or FixedEffect")

    @property
    def is_null(self) -> bool:
        """True when no factor contributes anything to the response."""
        for eff in (self.effect_a, self.effect_b, self.effect_ab):
            if isinstance(eff, RandomEffect) and np.any(eff.cov.array):
                return False
            if isinstance(eff, FixedEffect) and np.any(eff.values):
                return False
        return True


def _effect_values(eff: Effect, shape: tuple[int, ...], dim: int, gen: np.random.Generator, size: int) -> np.ndarray:
    """Effect vectors of shape ``(size, *shape, dim)``."""
    if isinstance(eff, NoEffect):
        return np.zeros((size, *shape, dim))
    if isinstance(eff, FixedEffect):
        return np.broadcast_to(eff.values, (size, *shape, dim))
    root = sym_sqrt(eff.cov).array
    return gen.standard_normal((size, *shape, dim)) @ root


def simulate_design(
    spec: SimulationSpec,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> DesignTable | np.ndarray:
    """Generate balanced response tables from the two-factor effects model.

    Returns a :class:`DesignTable` for ``size=None``, otherwise a raw
    ``(size, a, b, n, d)`` array of independent tables.  Random effects are
    drawn iid without identifiability constraints per table, as the model
    prescribes; fixed effects must carry the constraints themselves.
    """
    gen = as_generator(rng)
    a, b, n, d = spec.levels_a, spec.levels_b, spec.reps, spec.dim
    m = 1 if size is None else int(size)
    alpha = _effect_values(spec.effect_a, (a,), d, gen, m)
    beta = _effect_values(spec.effect_b, (b,), d, gen, m)
    gamma = _effect_values(spec.effect_ab, (a, b), d, gen, m)
    eps = gen.standard_normal((m, a, b, n, d)) @ sym_sqrt(spec.error_scale).array
    y = (
        alpha[:, :, None, None, :]
        + beta[:, None, :, None, :]
        + gamma[:, :, :, None, :]
        + eps
    )
    if size is None:
        return DesignTable(y[0])
    return y
