"""Matrix-variate distributions: samplers and closed-form functionals.

Implements the matrix-variate normal, the central and noncentral Wishart, the
matrix-variate Beta Type II (matrix F), and the scalar noncentral chi-square.

Parameterization.  A noncentral Wishart is held as ``(dof, scale, noncen)``
where ``noncen`` is the symmetric PSD matrix ``Delta``.  The textbook
noncentrality ``Theta = scale^{-1} Delta`` is generally non-symmetric, so
``Delta`` is the quantity with a clean cone constraint; ``Theta`` is derived
on demand.  For an integer-dof draw built as ``N' N`` from a matrix normal
with mean ``M``, ``Delta = M' M``.

Sampling routes.  Every Wishart draw is the Gram matrix ``L' L`` of a factor
``L``.  Central draws with any real ``dof > d - 1`` use the Bartlett factor
``L = (scale^{1/2} T)'``.  Noncentral draws require an integer ``dof >= d``
and use the matrix-normal factor ``L = Z scale^{1/2} + M`` with the mean
``M`` in the leading rows, canonically ``M = [Delta^{1/2}; 0]``; non-integer
noncentral sampling is rejected rather than approximated.  The same
``Z root + M`` construction draws the matrix normal itself and, with a
per-draw ``M``, the conditional level of the closure hierarchy.  Beta Type II
eigenvalues come straight from the two Bartlett factors, drawn as ``(n,)``
columns of entries rather than ``(n, d, d)`` stacks: ``C = T2^{-1} T1`` is
lower triangular and built column by column by forward substitution, and its
spectrum is closed form for ``d <= 2`` (``C`` is assembled, for
``eigvalsh``, only for ``d >= 3``).  The Bartlett stack that the Wishart and
Beta II matrix samplers use is filled from the same columns, so both routes
consume a stream alike.  All samplers accept ``size`` and then return a
stacked ``(size, d, d)`` array, drawing in fixed-size chunks to bound memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain, UnsupportedDof
from .rng import RngStream, _chunk_spans, _whole, as_generator
from .symmat import SpdMat, SymMat, _as_spd, _mirror_upper, sym_sqrt

__all__ = [
    "MatrixNormalParams",
    "WishartParams",
    "BetaIIParams",
    "sample_matrix_normal",
    "sample_wishart",
    "sample_beta2",
    "beta2_eigenvalues",
    "sample_noncentral_chisq",
    "wishart_log_mgf",
    "wishart_mgf",
    "wishart_mean",
]

# Chunk budget for batched sampling, in scalar draws per chunk.
_CHUNK_SCALARS = 1 << 22


def _positive_int(value, name: str) -> int:
    """``value`` as an ``int``; integral floats such as ``2.0`` pass, ``2.7`` or ``0`` raise."""
    return _whole(value, name, 1, "a positive integer")


def _nonnegative_int(value, name: str) -> int:
    """``value`` as an ``int``; ``0`` and integral floats such as ``2.0`` pass, ``2.7`` or ``-1`` raise."""
    return _whole(value, name, 0, "a non-negative integer")


@dataclass(frozen=True)
class MatrixNormalParams:
    """Matrix-variate normal with independent rows: ``rows x dim`` mean, row-common scale."""

    rows: int
    mean: np.ndarray
    scale: SpdMat

    def __post_init__(self) -> None:
        rows = _positive_int(self.rows, "rows")
        scale = _as_spd(self.scale, "scale", require_pd=True)
        mean = np.array(self.mean, dtype=float)
        if mean.ndim == 0:
            mean = np.full((rows, scale.dim), float(mean))
        if mean.shape != (rows, scale.dim):
            raise ValueError(f"mean must have shape ({rows}, {scale.dim}), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean entries must be finite")
        mean.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.scale.dim


def _zero_noncen(dim: int) -> SpdMat:
    return SpdMat._certified(np.zeros((dim, dim)), "PSD")


@dataclass(frozen=True)
class WishartParams:
    """Noncentral Wishart ``(dof, scale, noncen)`` in the symmetric-``Delta`` form.

    ``dof`` may be any real number greater than ``dim - 1``; ``scale`` must be
    positive definite and ``noncen`` positive semidefinite.  ``noncen=None``
    means central.
    """

    dof: float
    scale: SpdMat
    noncen: SpdMat | None = None

    def __post_init__(self) -> None:
        scale = _as_spd(self.scale, "scale", require_pd=True)
        noncen = _zero_noncen(scale.dim) if self.noncen is None else _as_spd(self.noncen, "noncen", require_pd=False)
        if noncen.dim != scale.dim:
            raise ValueError(f"noncen is {noncen.dim}x{noncen.dim} but scale is {scale.dim}x{scale.dim}")
        dof = float(self.dof)
        if not (math.isfinite(dof) and dof > scale.dim - 1):
            raise ValueError(f"dof must be finite and exceed dim - 1 = {scale.dim - 1}, got {dof}")
        object.__setattr__(self, "dof", dof)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "noncen", noncen)

    @property
    def dim(self) -> int:
        return self.scale.dim

    @property
    def is_central(self) -> bool:
        return not np.any(self.noncen.array)

    def theta(self) -> np.ndarray:
        """Textbook noncentrality ``Theta = scale^{-1} noncen`` (not symmetric in general)."""
        return np.linalg.solve(self.scale.array, self.noncen.array)


@dataclass(frozen=True)
class BetaIIParams:
    """Matrix-variate Beta Type II (matrix F) with half-dof parameters ``(dof1/2, dof2/2)``."""

    dof1: float
    dof2: float
    dim: int = 1

    def __post_init__(self) -> None:
        dim = _positive_int(self.dim, "dim")
        for name in ("dof1", "dof2"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > dim - 1):
                raise ValueError(f"{name} must be finite and exceed dim - 1 = {dim - 1}, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dim", dim)


def _draw_stack(size: int | None, shape: tuple[int, ...], per_draw_scalars: int, draw) -> np.ndarray:
    """Fill a ``(size, *shape)`` array with ``draw(n)`` batches of at most ``_CHUNK_SCALARS`` scalars.

    ``size=None`` gives the single draw ``draw(1)[0]``.
    """
    if size is None:
        return draw(1)[0]
    out = np.empty((int(size), *shape))
    step = max(1, _CHUNK_SCALARS // max(1, per_draw_scalars))
    for _, start, n in _chunk_spans(out.shape[0], step):
        out[start : start + n] = draw(n)
    return out


def _bartlett_columns(dof: float, dim: int, gen: np.random.Generator, n: int) -> list[list[np.ndarray]]:
    """Bartlett factor ``T`` (``T T'`` is ``W(dof, I)``) as ``(n,)`` columns: ``t[i][k]`` is ``T[:, i, k]``, ``k <= i``.

    The below-diagonal normals are drawn first, in ``np.tril_indices`` order,
    then the diagonal ``sqrt(chi^2_{dof - j})`` in order of ``j``.
    """
    z = gen.standard_normal((n, dim * (dim - 1) // 2))
    diag = [np.sqrt(gen.chisquare(dof - j, n)) for j in range(dim)]
    return [[*(z[:, i * (i - 1) // 2 + k] for k in range(i)), diag[i]] for i in range(dim)]


def _bartlett_factor(dof: float, dim: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """Lower-triangular Bartlett factor stack: ``T T'`` is ``W(dof, I)``."""
    return _lower_stack(_bartlett_columns(dof, dim, gen, n))


def _lower_stack(cols: list[list[np.ndarray]]) -> np.ndarray:
    """The ``(n, d, d)`` lower-triangular stack whose entry ``[:, i, k]`` is the ``(n,)`` column ``cols[i][k]``."""
    t = np.zeros((cols[0][0].shape[0], len(cols), len(cols)))
    for i, row in enumerate(cols):
        for k, col in enumerate(row):
            t[:, i, k] = col
    return t


def _normal_factor(mean: np.ndarray, rows: int, root: np.ndarray, gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` matrix-normal factors ``Z root + M`` with ``Z`` of ``rows x dim`` standard normals.

    ``mean``, shared or one per draw, is added to the leading rows.
    """
    f = gen.standard_normal((n, rows, root.shape[0])) @ root
    f[:, : mean.shape[-2]] += mean
    return f


def _gram(factor: np.ndarray) -> np.ndarray:
    """Wishart draws ``L' L`` from a stack of factors ``L``."""
    return _mirror_upper(np.swapaxes(factor, -1, -2) @ factor)


def sample_matrix_normal(
    params: MatrixNormalParams,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> np.ndarray:
    """Draw ``N = M + Z scale^{1/2}`` with iid standard normal ``Z``.

    Rows of ``N`` are independent ``dim``-vectors with covariance ``scale``;
    the vectorized draw has covariance ``I_rows (x) scale``.  Returns
    ``(rows, dim)`` for ``size=None`` and ``(size, rows, dim)`` otherwise.
    """
    gen = as_generator(rng)
    root = sym_sqrt(params.scale).array
    return _draw_stack(
        size, (params.rows, params.dim), params.rows * params.dim,
        lambda n: _normal_factor(params.mean, params.rows, root, gen, n),
    )


def _require_integer_dof(dof: float, dim: int) -> int:
    nu = int(round(dof))
    if abs(dof - nu) > 1e-9 or nu < dim:
        raise UnsupportedDof(
            f"noncentral sampling needs an integer dof >= dim = {dim}, got dof = {dof}"
        )
    return nu


def _wishart_factor(params: WishartParams):
    """``(factor, per_draw)``: ``factor(gen, n)`` draws ``n`` factors whose Grams follow ``params``.

    Central parameters get the Bartlett factor, noncentral ones the
    matrix-normal factor; ``per_draw`` is the scalar count per draw that
    sizes the chunks.
    """
    root = sym_sqrt(params.scale).array
    dim = params.dim
    if params.is_central:
        return (
            lambda gen, n: np.swapaxes(root @ _bartlett_factor(params.dof, dim, gen, n), -1, -2),
            max(dim * dim, dim * int(math.ceil(params.dof))),
        )
    nu = _require_integer_dof(params.dof, dim)
    noncen_root = sym_sqrt(params.noncen).array
    return (lambda gen, n: _normal_factor(noncen_root, nu, root, gen, n)), nu * dim


def sample_wishart(
    params: WishartParams,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> SpdMat | np.ndarray:
    """Draw from the (noncentral) Wishart distribution.

    Central parameters use the Bartlett construction, valid for any real
    ``dof > dim - 1``; noncentral ones use the outer product ``N' N`` of a
    matrix normal and need an integer ``dof >= dim``.  Returns an
    :class:`SpdMat` for ``size=None``, else a ``(size, dim, dim)`` array of
    symmetric draws.
    """
    factor, per_draw = _wishart_factor(params)
    gen = as_generator(rng)
    draws = _draw_stack(size, (params.dim, params.dim), per_draw, lambda n: _gram(factor(gen, n)))
    return draws if size is not None else SpdMat._certified(draws, "PD")


def _beta2_batch(params: BetaIIParams, gen: np.random.Generator, n: int) -> np.ndarray:
    s1 = _gram(np.swapaxes(_bartlett_factor(params.dof1, params.dim, gen, n), -1, -2))
    s2 = _gram(np.swapaxes(_bartlett_factor(params.dof2, params.dim, gen, n), -1, -2))
    w, v = np.linalg.eigh(s2)
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return _mirror_upper(inv_root @ s1 @ inv_root)


def sample_beta2(
    params: BetaIIParams,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> SpdMat | np.ndarray:
    """Draw ``S2^{-1/2} S1 S2^{-1/2}`` from independent identity-scale Wisharts.

    ``S1 ~ W(dof1, I)`` and ``S2 ~ W(dof2, I)``; every draw is positive
    definite with probability one.
    """
    gen = as_generator(rng)
    draws = _draw_stack(
        size, (params.dim, params.dim), 4 * params.dim * params.dim, lambda n: _beta2_batch(params, gen, n)
    )
    return draws if size is not None else SpdMat._certified(draws, "PD")


def _beta2_eigs(t1: list[list[np.ndarray]], t2: list[list[np.ndarray]]) -> np.ndarray:
    """Descending eigenvalues of ``C C'``, ``C = T2^{-1} T1``, for lower-triangular factors given as columns.

    ``t1`` and ``t2`` hold ``(n,)`` columns as :func:`_bartlett_columns`
    returns them.  ``C`` is lower triangular and is built by forward
    substitution, one ``(n,)`` column of entries at a time.  For ``d = 2``,
    with ``p = c00^2``, ``q = c00 c10`` and ``r = c10^2 + c11^2``, the larger
    eigenvalue is ``(p + r)/2 + hypot(p - r, 2q)/2`` and the smaller is
    ``det(C C') / lambda_1 = (c00 c11)^2 / lambda_1``, which keeps full
    relative accuracy where ``(p + r)/2 - hypot(...)/2`` would cancel.
    ``d >= 3`` assembles ``C`` only to pass ``C C'`` to ``eigvalsh``.
    """
    dim = len(t1)
    c = [[None] * (i + 1) for i in range(dim)]
    for j in range(dim):
        for i in range(j, dim):
            acc = t1[i][j]
            for k in range(j, i):
                acc = acc - t2[i][k] * c[k][j]
            c[i][j] = acc / t2[i][i]
    if dim == 1:
        return (c[0][0] * c[0][0])[:, None]
    if dim > 2:
        cm = _lower_stack(c)
        return np.linalg.eigvalsh(cm @ np.swapaxes(cm, -1, -2))[:, ::-1]
    (c00,), (c10, c11) = c
    p = c00 * c00
    r = c10 * c10 + c11 * c11
    lam1 = (p + r) / 2 + np.hypot(p - r, 2.0 * c00 * c10) / 2
    lam2 = np.divide((c00 * c11) ** 2, lam1, out=np.zeros_like(lam1), where=lam1 > 0.0)
    return np.stack([lam1, lam2], axis=1)


def beta2_eigenvalues(
    params: BetaIIParams,
    rng: RngStream | np.random.Generator | int,
    size: int,
) -> np.ndarray:
    """Eigenvalues of Beta Type II draws, shape ``(size, dim)``, sorted descending.

    This is the null engine behind Monte Carlo p-values: the classical MANOVA
    functionals are all symmetric functions of these eigenvalues.  With the
    Bartlett factors ``S_i = T_i T_i'`` of :func:`sample_beta2` (same stream,
    same draws), ``S2^{-1/2} S1 S2^{-1/2}`` is similar to ``C C'`` for
    ``C = T2^{-1} T1``.  The factors are drawn as ``(n,)`` columns of their
    entries, never as stacks, and ``C`` is formed column by column by forward
    substitution; for ``d = 1`` the eigenvalue is ``c00^2`` and for ``d = 2``
    the pair is closed form, the smaller one as ``det(C C') / lambda_1`` with
    full relative accuracy.  ``d >= 3`` assembles ``C`` and uses
    ``eigvalsh(C C')``.
    """
    gen = as_generator(rng)

    def draw(n: int) -> np.ndarray:
        t1 = _bartlett_columns(params.dof1, params.dim, gen, n)
        return _beta2_eigs(t1, _bartlett_columns(params.dof2, params.dim, gen, n))

    return np.maximum(_draw_stack(int(size), (params.dim,), 4 * params.dim * params.dim, draw), 0.0)


def sample_noncentral_chisq(
    dof: float,
    noncen: float,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> float | np.ndarray:
    """Draw from the scalar noncentral chi-square ``chi^2_dof(noncen)``.

    Uses the Poisson mixture representation: ``K ~ Poisson(noncen / 2)`` and
    then a central chi-square with ``dof + 2 K`` degrees of freedom.
    """
    dof = float(dof)
    noncen = float(noncen)
    if not (math.isfinite(dof) and dof > 0):
        raise ValueError(f"dof must be finite and positive, got {dof}")
    if not (math.isfinite(noncen) and noncen >= 0):
        raise ValueError(f"noncen must be finite and non-negative, got {noncen}")
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    if noncen == 0.0:
        draws = gen.chisquare(dof, n)
    else:
        k = gen.poisson(noncen / 2.0, n)
        draws = gen.chisquare(dof + 2.0 * k)
    return float(draws[0]) if size is None else draws


def wishart_log_mgf(params: WishartParams, t) -> float:
    """Log moment generating function ``log E[etr(T X)]`` of a noncentral Wishart.

    Valid for symmetric ``T`` with ``scale^{-1} - 2 T`` positive definite,
    equivalently all eigenvalues of ``T_scale = scale^{1/2} T scale^{1/2}``
    below one half.  Closed form:

    ``log M(T) = tr{T scale (scale - 2 scale T scale)^{-1} Delta}
                 - dof/2 * log det(I - 2 T_scale)``.
    """
    t_arr = SymMat(t).array
    if t_arr.shape[0] != params.dim:
        raise ValueError(f"T is {t_arr.shape[0]}x{t_arr.shape[0]} but the distribution is {params.dim}-dimensional")
    sigma = params.scale.array
    root = sym_sqrt(params.scale).array
    t_sigma = root @ t_arr @ root
    mu = np.linalg.eigvalsh(_mirror_upper(t_sigma))
    if np.max(2.0 * mu) >= 1.0:
        raise OutsideDomain("scale^{-1} - 2 T must be positive definite")
    log_det = float(np.log1p(-2.0 * mu).sum())
    trace_term = 0.0
    if not params.is_central:
        k = _mirror_upper(sigma - 2.0 * sigma @ t_arr @ sigma)
        x = np.linalg.solve(k, params.noncen.array)
        trace_term = float(np.trace(t_arr @ sigma @ x))
    return trace_term - 0.5 * params.dof * log_det


def wishart_mgf(params: WishartParams, t) -> float:
    """Moment generating function ``E[etr(T X)]``; see :func:`wishart_log_mgf`."""
    return math.exp(wishart_log_mgf(params, t))


def wishart_mean(params: WishartParams) -> SymMat:
    """Mean matrix ``dof * scale + noncen`` (first derivative of the MGF at zero)."""
    return SymMat(params.dof * params.scale.array + params.noncen.array)
