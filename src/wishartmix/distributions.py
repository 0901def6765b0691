"""Matrix-variate distributions: samplers and closed-form functionals.

Implements the matrix-variate normal, the central and noncentral Wishart, the
matrix-variate Beta Type II (matrix F), and the scalar noncentral chi-square.

Parameterization.  A noncentral Wishart is held as ``(dof, scale, noncen)``
where ``noncen`` is the symmetric PSD matrix ``Delta``.  The textbook
noncentrality ``Theta = scale^{-1} Delta`` is generally non-symmetric, so
``Delta`` is the quantity with a clean cone constraint; ``Theta`` is derived
on demand.  For an integer-dof draw built as ``N' N`` from a matrix normal
with mean ``M``, ``Delta = M' M``.

Sampling routes.  Central draws with any real ``dof > d - 1`` use the Bartlett
decomposition.  Noncentral draws require an integer ``dof >= d`` and use the
matrix-normal outer-product construction with the canonical mean choice
``M = [Delta^{1/2}; 0]``; non-integer noncentral sampling is rejected rather
than approximated.  All samplers accept ``size`` and then return a stacked
``(size, d, d)`` array, drawing in fixed-size chunks to bound memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsd, OutsideDomain, UnsupportedDof
from .rng import RngStream, _chunk_spans, as_generator
from .symmat import SpdMat, SymMat, _mirror_upper, assert_pd, sym_sqrt

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


def _as_spd(value, name: str, *, require_pd: bool) -> SpdMat:
    m = value if isinstance(value, SpdMat) else assert_pd(value)
    if require_pd and m.kind != "PD":
        raise NotPsd(f"{name} must be positive definite")
    return m


@dataclass(frozen=True)
class MatrixNormalParams:
    """Matrix-variate normal with independent rows: ``rows x dim`` mean, row-common scale."""

    rows: int
    mean: np.ndarray
    scale: SpdMat

    def __post_init__(self) -> None:
        if int(self.rows) < 1:
            raise ValueError(f"rows must be a positive integer, got {self.rows}")
        scale = _as_spd(self.scale, "scale", require_pd=True)
        mean = np.array(self.mean, dtype=float)
        if mean.ndim == 0:
            mean = np.full((int(self.rows), scale.dim), float(mean))
        if mean.shape != (int(self.rows), scale.dim):
            raise ValueError(f"mean must have shape ({self.rows}, {scale.dim}), got {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean entries must be finite")
        mean.setflags(write=False)
        object.__setattr__(self, "rows", int(self.rows))
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
        if not dof > scale.dim - 1:
            raise ValueError(f"dof must exceed dim - 1 = {scale.dim - 1}, got {dof}")
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
        dim = int(self.dim)
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        for name in ("dof1", "dof2"):
            value = float(getattr(self, name))
            if not value > dim - 1:
                raise ValueError(f"{name} must exceed dim - 1 = {dim - 1}, got {value}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "dim", dim)


def _draw_stack(shape: tuple[int, ...], per_draw_scalars: int, draw) -> np.ndarray:
    """Fill a ``shape`` array with ``draw(n)`` batches of at most ``_CHUNK_SCALARS`` scalars each."""
    out = np.empty(shape)
    step = max(1, _CHUNK_SCALARS // max(1, per_draw_scalars))
    for _, start, n in _chunk_spans(shape[0], step):
        out[start : start + n] = draw(n)
    return out


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
    if size is None:
        return params.mean + gen.standard_normal((params.rows, params.dim)) @ root
    return _draw_stack(
        (int(size), params.rows, params.dim),
        params.rows * params.dim,
        lambda n: params.mean + gen.standard_normal((n, params.rows, params.dim)) @ root,
    )


def _bartlett_factor(dof: float, dim: int, gen: np.random.Generator, n: int) -> np.ndarray:
    """Lower-triangular Bartlett factor stack: ``T T'`` is ``W(dof, I)``."""
    t = np.zeros((n, dim, dim))
    rows, cols = np.tril_indices(dim, -1)
    if rows.size:
        t[:, rows, cols] = gen.standard_normal((n, rows.size))
    for j in range(dim):
        t[:, j, j] = np.sqrt(gen.chisquare(dof - j, n))
    return t


def _central_wishart_batch(dof: float, root: np.ndarray, gen: np.random.Generator, n: int) -> np.ndarray:
    t = _bartlett_factor(dof, root.shape[0], gen, n)
    a = root @ t
    return _mirror_upper(a @ np.swapaxes(a, -1, -2))


def _noncentral_wishart_batch(
    dof: int, root_scale: np.ndarray, noncen_root: np.ndarray, gen: np.random.Generator, n: int
) -> np.ndarray:
    dim = root_scale.shape[0]
    mean = np.zeros((dof, dim))
    mean[:dim] = noncen_root
    z = gen.standard_normal((n, dof, dim))
    draws = mean + z @ root_scale
    return _mirror_upper(np.swapaxes(draws, -1, -2) @ draws)


def _require_integer_dof(dof: float, dim: int) -> int:
    nu = int(round(dof))
    if abs(dof - nu) > 1e-9 or nu < dim:
        raise UnsupportedDof(
            f"noncentral sampling needs an integer dof >= dim = {dim}, got dof = {dof}"
        )
    return nu


def sample_wishart(
    params: WishartParams,
    rng: RngStream | np.random.Generator | int,
    size: int | None = None,
    method: str = "auto",
) -> SpdMat | np.ndarray:
    """Draw from the (noncentral) Wishart distribution.

    ``method`` selects the construction:

    * ``"auto"`` — Bartlett for central parameters, matrix-normal outer
      product otherwise;
    * ``"bartlett"`` — central only, any real ``dof > dim - 1``;
    * ``"outer"`` — outer product ``N' N`` of a matrix normal, requires an
      integer ``dof >= dim``; works for central and noncentral parameters and
      exists mainly to cross-validate the Bartlett path.

    Returns an :class:`SpdMat` for ``size=None``, else a ``(size, dim, dim)``
    array of symmetric draws.
    """
    if method not in ("auto", "bartlett", "outer"):
        raise ValueError(f"unknown method {method!r}")
    central = params.is_central
    if method == "bartlett" and not central:
        raise UnsupportedDof("the Bartlett construction only samples central Wisharts")
    use_bartlett = method == "bartlett" or (method == "auto" and central)

    gen = as_generator(rng)
    root = sym_sqrt(params.scale).array
    dim = params.dim
    if use_bartlett:
        def draw(n: int) -> np.ndarray:
            return _central_wishart_batch(params.dof, root, gen, n)

        per_draw = max(dim * dim, dim * int(math.ceil(params.dof)))
    else:
        nu = _require_integer_dof(params.dof, dim)
        noncen_root = sym_sqrt(params.noncen).array

        def draw(n: int) -> np.ndarray:
            return _noncentral_wishart_batch(nu, root, noncen_root, gen, n)

        per_draw = nu * dim

    if size is None:
        return SpdMat._certified(draw(1)[0], "PD")
    return _draw_stack((int(size), dim, dim), per_draw, draw)


def _beta2_batch(params: BetaIIParams, gen: np.random.Generator, n: int) -> np.ndarray:
    eye = np.eye(params.dim)
    s1 = _central_wishart_batch(params.dof1, eye, gen, n)
    s2 = _central_wishart_batch(params.dof2, eye, gen, n)
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
    if size is None:
        return SpdMat._certified(_beta2_batch(params, gen, 1)[0], "PD")
    return _draw_stack(
        (int(size), params.dim, params.dim),
        4 * params.dim * params.dim,
        lambda n: _beta2_batch(params, gen, n),
    )


def beta2_eigenvalues(
    params: BetaIIParams,
    rng: RngStream | np.random.Generator | int,
    size: int,
) -> np.ndarray:
    """Eigenvalues of Beta Type II draws, shape ``(size, dim)``, sorted descending.

    This is the null engine behind Monte Carlo p-values: the classical MANOVA
    functionals are all symmetric functions of these eigenvalues.
    """
    gen = as_generator(rng)
    out = _draw_stack(
        (int(size), params.dim),
        4 * params.dim * params.dim,
        lambda n: np.linalg.eigvalsh(_beta2_batch(params, gen, n))[:, ::-1],
    )
    return np.maximum(out, 0.0)


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
    if not dof > 0:
        raise ValueError(f"dof must be positive, got {dof}")
    if noncen < 0:
        raise ValueError(f"noncen must be non-negative, got {noncen}")
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
    t_arr = t.array if isinstance(t, SymMat) else SymMat(t).array
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
