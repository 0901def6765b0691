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
per-draw ``M``, the conditional level of the closure hierarchy.  Every Beta
Type II draw goes through :func:`_beta2_draws`, which passes the two
Bartlett factors, as ``(n,)`` columns (one block of ``n`` per generator, for
draws from several generators at once), to a kernel and raises on overflow.
The eigenvalue kernel builds ``C = T2^{-1} T1`` column by column
(:func:`_beta2_quotient`; ``mc``'s ``d = 2`` kernel uses it too), with a
closed-form spectrum for ``d <= 2`` (``C`` is assembled, for ``eigvalsh``,
only for ``d >= 3``).  The Bartlett stack of the Wishart sampler and the
Beta II matrix kernel is filled from the same columns, so every route
consumes a stream alike.  Grams have one route as well:
the upper-triangle entries of ``L' L`` are computed as ``(n,)`` columns, one
``einsum`` over the factor per entry; the ``(n, d, d)`` stacks of
:func:`sample_wishart`, :func:`sample_beta2` and the closure hierarchy are
filled from those columns (symmetric bitwise), and the closure verification
uses the columns directly.  All samplers accept ``size`` and then return a
stacked ``(size, d, d)`` array, drawing in fixed-size chunks to bound memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain, UnsupportedDof
from .rng import RngStream, _chunk_spans, _count, _integral, as_generator
from .symmat import SpdMat, SymMat, _as_spd, _inv_root, _mirror_upper, sym_sqrt

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

# The largest rate numpy's Poisson sampler accepts (its ``POISSON_LAM_MAX``).
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


def _dof(value, name: str, dim: int) -> float:
    """``value`` as a finite ``float`` above ``dim - 1``: the one rule for every degrees of freedom."""
    dof = float(value)
    if not (math.isfinite(dof) and dof > dim - 1):
        raise ValueError(f"{name} must be finite and exceed dim - 1 = {dim - 1}, got {dof}")
    return dof


@dataclass(frozen=True)
class MatrixNormalParams:
    """Matrix-variate normal with independent rows: ``rows x dim`` mean, row-common scale."""

    rows: int
    mean: np.ndarray
    scale: SpdMat

    def __post_init__(self) -> None:
        rows = _count(self.rows, "rows")
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
        noncen = SpdMat(np.zeros((scale.dim, scale.dim))) if self.noncen is None else _as_spd(self.noncen, "noncen", require_pd=False)
        if noncen.dim != scale.dim:
            raise ValueError(f"noncen is {noncen.dim}x{noncen.dim} but scale is {scale.dim}x{scale.dim}")
        object.__setattr__(self, "dof", _dof(self.dof, "dof", scale.dim))
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
        dim = _count(self.dim, "dim")
        for name in ("dof1", "dof2"):
            object.__setattr__(self, name, _dof(getattr(self, name), name, dim))
        object.__setattr__(self, "dim", dim)


def _draw_stack(size: int | None, shape: tuple[int, ...], per_draw_scalars: int, draw) -> np.ndarray:
    """Fill a ``(size, *shape)`` array with ``draw(n)`` batches of at most ``_CHUNK_SCALARS`` scalars.

    ``size=None`` gives the single draw ``draw(1)[0]``.
    """
    if size is None:
        return draw(1)[0]
    out = np.empty((_count(size, "size", 0), *shape))
    for _, start, n in _chunk_spans(out.shape[0], _batch(per_draw_scalars)):
        out[start : start + n] = draw(n)
    return out


def _batch(per_draw_scalars: int) -> int:
    """Draws per batch: as many as fit in ``_CHUNK_SCALARS`` scalars, and at least one."""
    return max(1, _CHUNK_SCALARS // max(1, per_draw_scalars))


def _bartlett_columns(dofs: tuple[float, ...], dim: int, gens: list[np.random.Generator], n: int) -> list[list[list[np.ndarray]]]:
    """Bartlett factors ``T`` (``T T'`` is ``W(dof, I)``) per ``dof``: ``t[f][i][k]`` is ``T[:, i, k]``, ``k <= i``, of ``dofs[f]``.

    A column holds ``n`` draws per generator, ``gens[r]``'s in block ``r``.
    Each generator draws each factor in turn: its below-diagonal normals, in
    ``np.tril_indices`` order, then its diagonal ``sqrt(chi^2_{dof - j})`` by ``j``.
    """
    rows, m = len(gens) * n, dim * (dim - 1) // 2
    z = np.empty((len(dofs), len(gens), n, m))
    diag = np.empty((len(dofs), dim, len(gens), n))
    for r, gen in enumerate(gens):
        for f, dof in enumerate(dofs):
            gen.standard_normal(out=z[f, r])
            for j in range(dim):
                diag[f, j, r] = gen.chisquare(dof - j, n)
    z, diag = z.reshape(len(dofs), rows, m), np.sqrt(diag, out=diag).reshape(len(dofs), dim, rows)
    return [[[*(z[f, :, i * (i - 1) // 2 + k] for k in range(i)), diag[f, i]] for i in range(dim)] for f in range(len(dofs))]


def _bartlett_factor(dof: float, dim: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """Lower-triangular Bartlett factor stack: ``T T'`` is ``W(dof, I)``."""
    return _lower_stack(_bartlett_columns((dof,), dim, [gen], n)[0])


def _lower_stack(cols: list[list[np.ndarray]]) -> np.ndarray:
    """The ``(n, d, d)`` lower-triangular stack whose entry ``[:, i, k]`` is the ``(n,)`` column ``cols[i][k]``."""
    t = np.zeros((cols[0][0].shape[0], len(cols), len(cols)))
    for i, row in enumerate(cols):
        for k, col in enumerate(row):
            t[:, i, k] = col
    return t


class _Workspace(dict):
    """The arrays a factor draws into: ``ws(key, shape)`` is the leading ``shape`` of ``key``'s buffer.

    A buffer is allocated on the first request and again only for a larger
    one, so the batches of one sampler call and the chunks of one
    ``closure.check_law`` call, the first of them the largest, reuse its
    memory.  The caller overwrites the contents.
    """

    def __call__(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if key not in self or self[key].size < size:
            self[key] = np.empty(size)
        return self[key][:size].reshape(shape)


def _times(stack: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``stack @ m`` for an ``(n, rows, d)`` stack, as one ``(n * rows, d) @ m`` product, into ``out``.

    One gemm is 1.5 to 3 times faster than ``n`` small products on
    ``(n, 6, 3)`` stacks and, on the OpenBLAS 0.3 build tested, gives the
    batched product's bits.  A one-row
    stack keeps the batched product: numpy computes it per draw as a
    vector-matrix product, whose sums differ from gemm's in the last bit.
    ``out``, a workspace array, must be C-contiguous, so that its 2-D view
    is the gemm's output; the bits are those of a new array.
    """
    if stack.shape[-2] == 1:
        return np.matmul(stack, m, out=out)
    np.matmul(stack.reshape(-1, m.shape[0]), m, out=out.reshape(-1, m.shape[1]))
    return out


def _normal_factor(
    mean: np.ndarray, rows: int, root: np.ndarray, gen: np.random.Generator, n: int, ws: _Workspace, key: str = "factor"
) -> np.ndarray:
    """``n`` matrix-normal factors ``Z root + M`` with ``Z`` of ``rows x dim`` standard normals.

    ``mean``, shared or one per draw, is added to the leading rows; a mean
    of all ``rows`` rows is added in one contiguous pass.  ``Z`` is drawn
    into the workspace array ``"normals"`` and the factor written to
    ``key``, over any factor drawn before into it, so ``mean`` must not be
    that array.
    """
    shape = (n, rows, root.shape[0])
    f = _times(gen.standard_normal(out=ws("normals", shape)), root, ws(key, shape))
    f[:, : mean.shape[-2]] += mean
    return f


@functools.cache
def _upper_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """The ``(i, j)`` of a ``dim x dim`` matrix's upper triangle, in ``np.triu_indices`` order."""
    return tuple(zip(*(ix.tolist() for ix in np.triu_indices(dim))))


def _gram_columns(factor: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Upper-triangle entries of the Grams ``L' L`` of a factor stack, written to the ``(entries, n)`` ``out``.

    Rows come in :func:`_upper_pairs` order; entry ``(i, j)`` is
    ``einsum("nk,nk->n", L[:, :, i], L[:, :, j])``, and each is stored
    contiguously over the draws.  This is the one Gram route: :func:`_gram`
    fills stacks from these rows, and
    :func:`~wishartmix.closure.check_law` works on them directly.
    """
    for e, (i, j) in enumerate(_upper_pairs(factor.shape[-1])):
        np.einsum("nk,nk->n", factor[:, :, i], factor[:, :, j], out=out[e])
    return out


def _gram(factor: np.ndarray) -> np.ndarray:
    """Wishart draws ``L' L`` from a stack of factors ``L``.

    Each row of :func:`_gram_columns` is placed at ``[i, j]`` and
    ``[j, i]``, so every draw is symmetric bitwise.
    """
    n, dim = factor.shape[0], factor.shape[-1]
    iu, ju = np.triu_indices(dim)
    out = np.empty((n, dim, dim))
    out[:, iu, ju] = out[:, ju, iu] = _gram_columns(factor, np.empty((iu.size, n))).T
    return out


def _sample_grams(source, dim: int, rng: RngStream | np.random.Generator | int, size: int | None) -> SpdMat | np.ndarray:
    """Grams ``L' L`` from ``source = (factor, per_draw)``: an :class:`SpdMat`, or a stack for a ``size``."""
    factor, per_draw = source
    gen, ws = as_generator(rng), _Workspace()
    draws = _draw_stack(size, (dim, dim), per_draw, lambda n: _gram(factor(gen, n, ws)))
    return draws if size is not None else SpdMat(draws)


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
    gen, ws = as_generator(rng), _Workspace()
    root = sym_sqrt(params.scale).array
    return _draw_stack(
        size, (params.rows, params.dim), params.rows * params.dim,
        lambda n: _normal_factor(params.mean, params.rows, root, gen, n, ws),
    )


def _require_integer_dof(dof: float, dim: int) -> int:
    """``dof`` as an ``int`` of at least ``dim``, by the exact integral test of counts; ``3 + 1e-10`` raises."""
    if not (_integral(dof) and dof >= dim):
        raise UnsupportedDof(f"noncentral sampling needs an integer dof >= dim = {dim}, got dof = {dof}")
    return int(dof)


def _wishart_factor(params: WishartParams, right: np.ndarray | None = None):
    """``(factor, per_draw)``: ``factor(gen, n, ws)`` draws ``n`` factors ``L`` whose Grams follow ``params``.

    Given a ``d x d`` matrix ``right``, it draws the products ``L right``
    instead, with ``right`` folded into the root ``R`` and the mean once,
    here, so a batch takes one product either way: the Bartlett factor
    ``L = (R T)'`` of central parameters gives ``T' (R right)``, and the
    matrix-normal factor ``L = Z R + [Delta^{1/2}; 0]`` of noncentral ones
    ``Z (R right) + [Delta^{1/2} right; 0]``, its mean zero-padded to all
    ``dof`` rows.  ``per_draw`` is the scalar count per draw that sizes the
    chunks.  The factor is drawn into the :class:`_Workspace` ``ws``, over
    any factor drawn before into it.
    """
    dim = params.dim
    right = np.eye(dim) if right is None else right
    root = sym_sqrt(params.scale).array @ right
    if params.is_central:
        def bartlett(gen: np.random.Generator, n: int, ws: _Workspace) -> np.ndarray:
            t = np.swapaxes(_bartlett_factor(params.dof, dim, gen, n), -1, -2)
            return np.matmul(t, root, out=ws("bartlett", (n, dim, dim)))

        return bartlett, max(dim * dim, dim * int(math.ceil(params.dof)))
    nu = _require_integer_dof(params.dof, dim)
    mean = np.vstack([sym_sqrt(params.noncen).array @ right, np.zeros((nu - dim, dim))])
    return (lambda gen, n, ws: _normal_factor(mean, nu, root, gen, n, ws)), nu * dim


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
    return _sample_grams(_wishart_factor(params), params.dim, rng, size)


def _beta2_draws(params: BetaIIParams, gens: list[np.random.Generator], size: int, shape: tuple[int, ...], kernel) -> np.ndarray:
    """``kernel(t1, t2)`` of ``size`` Beta II draws from each of ``gens``, shape ``(len(gens), size, *shape)``.

    Each generator draws in :func:`_batch` batches, however many share them:
    the numerator's :func:`_bartlett_columns` ``t1``, then the denominator's
    ``t2``.  The kernel, elementwise or matrix by matrix, holds the only
    references to the columns, so it can free them (``del``) before it
    allocates its own arrays.  As ``dof2 -> d - 1`` the diagonal of ``T2``
    underflows to 0, making ``S2`` singular; such a draw, or a division by
    zero, overflow or invalid value in the kernel, raises ``ValueError``.
    """
    out = np.empty((len(gens), size, *shape))
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for _, start, n in _chunk_spans(size, _batch(4 * params.dim * params.dim)):
                t = _bartlett_columns((params.dof1, params.dof2), params.dim, gens, n)
                if not all(row[-1].all() for row in t[1]):
                    raise FloatingPointError("a Bartlett diagonal of T2 underflowed to 0")
                # Popped, so that the kernel holds the only references to the columns.
                out[:, start : start + n] = kernel(t.pop(0), t.pop()).reshape(len(gens), n, *shape)
    except FloatingPointError:
        dofs = f"dof1 = {params.dof1}, dof2 = {params.dof2}, d = {params.dim}"
        raise ValueError(f"Beta II draws overflow at {dofs}: dof2 is too close to d - 1") from None
    return out


def _beta2_whiten(t1: list[list[np.ndarray]], t2: list[list[np.ndarray]]) -> np.ndarray:
    """``S2^{-1/2} S1 S2^{-1/2}`` for the Bartlett Grams ``S_i = T_i T_i'`` of the columns ``t1`` and ``t2``."""
    s1, s2 = (_gram(np.swapaxes(_lower_stack(t), -1, -2)) for t in (t1, t2))
    inv_root = _inv_root(*np.linalg.eigh(s2))
    return _mirror_upper(inv_root @ s1 @ inv_root)


def sample_beta2(
    params: BetaIIParams,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> SpdMat | np.ndarray:
    """Draw ``S2^{-1/2} S1 S2^{-1/2}`` from independent identity-scale Wisharts.

    ``S1 ~ W(dof1, I)`` and ``S2 ~ W(dof2, I)``; every draw is positive
    definite with probability one.  A draw that overflows, as ``dof2 -> d - 1``,
    raises ``ValueError``.
    """
    n = 1 if size is None else _count(size, "size", 0)
    draws = _beta2_draws(params, [as_generator(rng)], n, (params.dim, params.dim), _beta2_whiten)[0]
    return draws if size is not None else SpdMat(draws[0])


def _beta2_quotient(t1: list[list[np.ndarray]], t2: list[list[np.ndarray]]) -> list[list[np.ndarray]]:
    """``C = T2^{-1} T1`` by forward substitution, all three as ``(n,)`` columns like :func:`_bartlett_columns`'s."""
    dim = len(t1)
    c = [[None] * (i + 1) for i in range(dim)]
    for j in range(dim):
        for i in range(j, dim):
            acc = t1[i][j]
            for k in range(j, i):
                acc = acc - t2[i][k] * c[k][j]
            c[i][j] = acc / t2[i][i]
    return c


def _beta2_top(c00: np.ndarray, c10: np.ndarray, c11: np.ndarray) -> np.ndarray:
    """Larger eigenvalue of ``C C'`` from the ``d = 2`` columns of :func:`_beta2_quotient`."""
    p, r = c00 * c00, c10 * c10 + c11 * c11
    return (p + r) / 2 + np.hypot(p - r, 2.0 * c00 * c10) / 2


def _beta2_eigs(t1: list[list[np.ndarray]], t2: list[list[np.ndarray]]) -> np.ndarray:
    """Descending eigenvalues of ``C C'`` for ``C = T2^{-1} T1`` from :func:`_beta2_quotient`.

    At ``d = 2`` they are :func:`_beta2_top` and ``det(C C') / lambda_1``, which
    keeps full relative accuracy where ``tr(C C') - lambda_1`` would cancel;
    ``d >= 3`` assembles ``C`` only to pass ``C C'`` to ``eigvalsh``.
    """
    c = _beta2_quotient(t1, t2)
    del t1, t2  # free the columns, so the eigenvalues' arrays reuse their memory, not fresh pages
    if len(c) == 1:
        return (c[0][0] * c[0][0])[:, None]
    if len(c) > 2:
        cm = _lower_stack(c)
        return np.linalg.eigvalsh(cm @ np.swapaxes(cm, -1, -2))[:, ::-1]
    (c00,), (c10, c11) = c
    lam1 = _beta2_top(c00, c10, c11)
    lam2 = np.divide((c00 * c11) ** 2, lam1, out=np.zeros_like(lam1), where=lam1 > 0.0)
    return np.stack([lam1, lam2], axis=1)


def beta2_eigenvalues(
    params: BetaIIParams,
    rng: RngStream | np.random.Generator | int,
    size: int,
) -> np.ndarray:
    """Eigenvalues of Beta Type II draws, shape ``(size, dim)``, sorted descending.

    The classical MANOVA functionals are all symmetric functions of these
    eigenvalues.  With the Bartlett factors ``S_i = T_i T_i'`` of
    :func:`sample_beta2` (same stream, same draws), ``S2^{-1/2} S1 S2^{-1/2}``
    is similar to ``C C'`` for ``C = T2^{-1} T1``, whose spectrum
    :func:`_beta2_eigs` computes from ``(n,)`` columns, never stacks.  A
    draw that overflows raises ``ValueError``, as in :func:`sample_beta2`.
    """
    return np.maximum(_beta2_draws(params, [as_generator(rng)], _count(size, "size", 0), (params.dim,), _beta2_eigs)[0], 0.0)


def sample_noncentral_chisq(
    dof: float,
    noncen: float,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
) -> float | np.ndarray:
    """Draw from the scalar noncentral chi-square ``chi^2_dof(noncen)``.

    One route for every ``noncen``: ``K ~ Poisson(noncen / 2)``, then a
    central chi-square with ``dof + 2 K`` degrees of freedom.  At rate 0
    numpy's Poisson consumes no draws, so central draws cost no extra stream.
    """
    dof = _dof(dof, "dof", 1)
    noncen = float(noncen)
    if not 0.0 <= noncen / 2.0 <= _POISSON_LAM_MAX:
        raise ValueError(f"noncen must be non-negative and at most {2.0 * _POISSON_LAM_MAX:.6g}, got {noncen}")
    gen = as_generator(rng)
    n = 1 if size is None else _count(size, "size", 0)
    draws = gen.chisquare(dof + 2.0 * gen.poisson(noncen / 2.0, n))
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
