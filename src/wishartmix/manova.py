"""Balanced two-factor factorial designs with multivariate responses.

Covers the model ``Y_ijk = mu + alpha_i + beta_j + (alphabeta)_ij + eps_ijk``
with ``d``-dimensional normal errors: the orthogonal decomposition into the
four effect sum-of-outer-products (SOP) matrices ``A``, ``B``, ``AB`` and
``E``, the matrix-variate Beta Type II test statistics for the three factor
hypotheses, the four classical scalar functionals of their eigenvalues, the
exact univariate variance-component F p-values for ``d = 1``, and a simulator
for fixed, random, and absent effects.  Each factor is tested against the SOP
that :func:`factor_tests` derives from the expected mean squares.

The factor statistics are eigenvalues of

    ``B = (V_S)^{-1/2} S_S (V_S)^{-1/2}``,  ``R_S = Sigma^{-1/2} R Sigma^{-1/2}``,

with ``S`` the factor SOP and ``V`` its denominator SOP.  These eigenvalues equal
those of ``S V^{-1}`` and do not depend on the choice of ``Sigma``, which is
why the identity matrix is the default;
:func:`~wishartmix.design_io.run_report` conjugates the four SOPs by a given
``Sigma`` once, before any statistic.

One path each, for one table or a stack: :func:`factor_tests` for the
tests, :func:`sop_arrays` for the SOPs, :func:`statistic_eigs` for the
statistics, which rejects a denominator SOP, raising
:class:`SingularErrorMatrix`, when its smallest eigenvalue is at or below
``PD_TOL ** 2`` times the largest of the total SOP.  A SOP is a sum of
squares, so its rounding noise sits near the square of the relative
precision of the data, ``eps ** 2`` of the total, not near ``eps``.

Imports: ``scipy.special`` is imported inside :func:`_exact_pvalue`, its one
user, so importing this module loads no scipy module, and only a ``d = 1``
report loads ``scipy.special``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesign, SingularErrorMatrix, UnbalancedDesign
from .rng import RngStream, _count, as_generator
from .symmat import PD_TOL, SpdMat, _as_spd, _mirror_upper, sym_sqrt

__all__ = [
    "DesignTable",
    "StatisticFunctional",
    "RandomEffect",
    "FixedEffect",
    "SimulationSpec",
    "FactorTest",
    "factor_tests",
    "sop_arrays",
    "batched_statistic_eigs",
    "statistic_eigs",
    "scalar_statistic",
    "simulate_design",
]

@dataclass(frozen=True)
class DesignTable:
    """Fully balanced ``a x b x n`` layout of ``d``-dimensional responses.

    ``responses`` has shape ``(a, b, n, d)``; balance is structural.  Levels
    are positions on the first two axes; the table holds no level labels.
    """

    responses: np.ndarray

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


def sop_arrays(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one SOP path: ``(sop_a, sop_b, sop_ab, sop_e)`` of responses ``(..., a, b, n, d)``.

    Each has shape ``(..., d, d)``, in :class:`FactorTest` position order,
    and is symmetric bit for bit.  Leading axes are independent tables, which
    makes simulation batches cheap.  Means are taken first and outer products
    second, so large response magnitudes do not cancel catastrophically.
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

    sop_a = b * n * np.einsum("...iu,...iv->...uv", dev_a, dev_a)
    sop_b = a * n * np.einsum("...ju,...jv->...uv", dev_b, dev_b)
    sop_ab = n * np.einsum("...iju,...ijv->...uv", dev_ab, dev_ab)
    sop_e = np.einsum("...ijku,...ijkv->...uv", dev_e, dev_e)
    return sop_a, sop_b, sop_ab, sop_e


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


def batched_statistic_eigs(numerators, residuals) -> np.ndarray:
    """Eigenvalues (descending) of the Beta Type II statistic matrices.

    ``numerators`` (factor SOPs ``S``) and ``residuals`` (residual SOPs
    ``V``) have shape ``(..., d, d)``, one table being the 2-D case; the
    result has shape ``(..., d)``.  Each table gives the eigenvalues of
    ``B = V^{-1/2} S V^{-1/2}``, which equal those of ``S V^{-1}``.
    Raises :class:`SingularErrorMatrix` when any residual SOP has its smallest
    eigenvalue at or below ``PD_TOL`` times its largest (a PD residual
    needs ``a * b * (n - 1) >= d`` observations).
    """
    numerators = np.asarray(numerators, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if numerators.shape != residuals.shape:
        raise ValueError(f"numerator SOPs {numerators.shape} and residual SOPs {residuals.shape} differ in shape")
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


#: The interaction modes, each with the weight ``r`` of ``Sigma_AB`` in the expected mean squares of ``A`` and ``B``.
INTERACTIONS = {"fixed": 0, "random": 1}


class FactorTest(NamedTuple):
    """One factor test: the factor and its denominator, by name, by SOP position in :func:`sop_arrays` order, by dof."""

    name: str
    against: str
    num: int
    den: int
    dof_num: int
    dof_den: int


def _require_two_levels(a: int, b: int) -> None:
    if a < 2 or b < 2:
        raise ValueError(f"both factors need at least two levels, got a={a}, b={b}")


def factor_tests(a: int, b: int, n: int, dim: int, interaction: str = "fixed") -> tuple[FactorTest, ...]:
    """The tests of ``A``, ``B`` and ``AB`` in a balanced ``a x b x n`` design of ``dim``-dimensional responses.

    The four SOPs are one table of dofs and expected-mean-square weights on
    ``(Sigma_A, Sigma_B, Sigma_AB, Sigma_e)`` (Searle, Casella and McCulloch,
    *Variance Components*, 1992, ch. 4), with ``r`` the weight of
    ``interaction`` in :data:`INTERACTIONS`, 0 for a fixed or absent
    interaction and 1 for a random one (``Sigma_AB != 0``, effects drawn per
    cell); a fixed factor's weight multiplies its noncentrality, not a
    covariance:

    ====  ===============  =================
    A     ``a - 1``        ``(bn, 0, rn, 1)``
    B     ``b - 1``        ``(0, an, rn, 1)``
    AB    ``(a-1)(b-1)``   ``(0, 0, n, 1)``
    E     ``ab(n - 1)``    ``(0, 0, 0, 1)``
    ====  ===============  =================

    A factor is tested against the row equal to its own with its own weight
    set to 0, so that both share one law under the factor's null: ``E`` for
    every factor with a fixed interaction, ``AB`` for ``A`` and ``B`` with a
    random one.  Raises :class:`DegenerateDesign` naming the first factor
    whose dof cannot support a ``dim``-dimensional statistic.  A denominator
    needs no check of its own: ``(a-1)(b-1) >= a - 1`` and ``ab(n-1) >=
    (a-1)(b-1)``, so every test has ``dof_den >= dof_num``.
    """
    if interaction not in INTERACTIONS:
        raise ValueError(f"interaction must be 'fixed' or 'random', got {interaction!r}")
    a, b, n = _count(a, "a"), _count(b, "b"), _count(n, "n")
    _require_two_levels(a, b)
    if n < 2:
        raise DegenerateDesign(f"at least two replicates per cell are needed, got n={n}")
    rn = INTERACTIONS[interaction] * n
    names, dofs = ("A", "B", "AB", "E"), (a - 1, b - 1, (a - 1) * (b - 1), a * b * (n - 1))
    weights = [(b * n, 0, rn, 1), (0, a * n, rn, 1), (0, 0, n, 1), (0, 0, 0, 1)]
    tests = []
    for num in range(3):
        if not dofs[num] > dim - 1:
            raise DegenerateDesign(
                f"factor {names[num]} has {dofs[num]} degrees of freedom, which cannot support a "
                f"{dim}-dimensional statistic (need more factor levels or fewer responses)"
            )
        den = weights.index(weights[num][:num] + (0,) + weights[num][num + 1 :])
        tests.append(FactorTest(names[num], names[den], num, den, dofs[num], dofs[den]))
    return tuple(tests)


def statistic_eigs(sops, tests: tuple[FactorTest, ...]) -> list[np.ndarray]:
    """Statistic eigenvalues ``(..., d)`` of each of ``tests`` (:func:`factor_tests`) on ``sops`` (:func:`sop_arrays`).

    Raises :class:`SingularErrorMatrix` when a denominator SOP has its
    smallest eigenvalue at or below ``PD_TOL ** 2`` times the largest
    eigenvalue of its table's total SOP, the sum of the four.  A denominator
    that is zero up to rounding, as from identical replicates in every cell,
    passes a test against its own largest eigenvalue and gives statistics of
    noise.  Squared, because a SOP's rounding noise is a sum of squared
    rounding errors: such denominators read 1e-33 to 1e-32 of the total.
    A sound one reads near the squared ratio of noise to effect, so an
    effect up to some 1e11 noise standard deviations passes.
    """
    top = np.linalg.eigvalsh(sum(sops))[..., -1]
    for den, name in {t.den: t.against for t in tests}.items():
        small = np.linalg.eigvalsh(sops[den])[..., 0]
        singular = small <= PD_TOL**2 * top
        if np.any(singular):
            raise SingularErrorMatrix(
                f"denominator SOP {name} is singular: smallest eigenvalue {small[singular][0]:.6g} is at most "
                f"{PD_TOL**2:g} * {top[singular][0]:.6g}, the largest eigenvalue of the total SOP"
            )
    return [batched_statistic_eigs(sops[t.num], sops[t.den]) for t in tests]


def _exact_pvalue(eigs: np.ndarray, dof_num: int, dof_den: int) -> float | None:
    """Exact variance-component F p-value of a factor statistic's eigenvalues, or ``None`` unless ``d = 1``.

    At ``d = 1`` the one eigenvalue is ``lambda = (dof_num / dof_den) F`` with
    ``F = (SOP_num / dof_num) / (SOP_den / dof_den)``, so the p-value is the
    upper tail of ``F(dof_num, dof_den)`` at ``lambda * dof_den / dof_num``,
    computed by ``scipy.special.fdtrc``, the function ``scipy.stats.f.sf``
    calls for it.  It is exact under the factor's null when the dofs and
    the denominator are those of :func:`factor_tests` for the model's
    interaction.
    """
    if len(eigs) != 1:
        return None
    from scipy.special import fdtrc  # deferred: see the module docstring

    return float(fdtrc(dof_num, dof_den, float(eigs[0]) * dof_den / dof_num))


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


Effect = RandomEffect | FixedEffect | None


@dataclass(frozen=True)
class SimulationSpec:
    """Generator configuration for a balanced two-factor design.

    The three effect slots each take a :class:`RandomEffect`, a
    :class:`FixedEffect`, or ``None`` for a factor that contributes nothing;
    errors are always iid ``N_d(0, error_scale)``.
    """

    levels_a: int
    levels_b: int
    reps: int
    dim: int
    error_scale: SpdMat
    effect_a: Effect = None
    effect_b: Effect = None
    effect_ab: Effect = None

    def __post_init__(self) -> None:
        for name in ("levels_a", "levels_b", "reps", "dim"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        a, b, d = self.levels_a, self.levels_b, self.dim
        _require_two_levels(a, b)
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
            elif eff is not None:
                raise TypeError(f"{name} must be None, RandomEffect, or FixedEffect")


def _effect_values(eff: Effect, shape: tuple[int, ...], dim: int, gen: np.random.Generator, size: int) -> np.ndarray:
    """Effect vectors of shape ``(size, *shape, dim)``."""
    if eff is None:
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
    m = 1 if size is None else _count(size, "size", 0)
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
