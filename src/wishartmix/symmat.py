"""Symmetric-matrix primitives with a tolerance-checked cone-membership policy.

The algebra in this package lives on the cone of symmetric positive
(semi)definite matrices: scale matrices, noncentrality matrices, and the
conjugation map ``R_P = P^{1/2} R P^{1/2}`` built from the *symmetric* square
root.  Exact cone membership does not survive floating point, so this module
fixes one explicit policy, applied everywhere:

* symmetry is structural — :class:`SymMat` mirrors the upper triangle at
  construction, so a stored matrix equals its transpose bitwise and no code
  ever asserts symmetry at runtime;
* definiteness is decided from the eigenvalue spectrum relative to the largest
  eigenvalue, with thresholds held in the module-global :data:`tolerances`;
* eigenvalues in ``[-tol.psd * lambda_max, 0)`` are clipped to zero on the
  semidefinite path, and anything below that is rejected as :class:`NotPsd`.

Square roots are computed by eigendecomposition, not Cholesky, because the
symmetric root is the one the conjugation map is defined with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NotPsd

__all__ = [
    "SymMat",
    "SpdMat",
    "Tolerances",
    "tolerances",
    "assert_pd",
    "sym_sqrt",
    "sym_inv",
    "sym_inv_sqrt",
    "conjugate",
    "multivariate_gamma",
    "multivariate_log_gamma",
]


@dataclass
class Tolerances:
    """Relative eigenvalue thresholds for cone membership and reconstruction.

    All three are relative to the largest eigenvalue of the matrix under test.
    ``pd`` separates "strictly positive" from "numerically zero", ``psd`` is
    how far below zero an eigenvalue may dip before the matrix is rejected,
    and ``reconstruction`` bounds round-trip identities such as
    ``sym_sqrt(P) @ sym_sqrt(P) == P``.
    """

    pd: float = 1e-12
    psd: float = 1e-10
    reconstruction: float = 1e-8


#: Global tolerance policy; mutate fields to reconfigure the whole package.
tolerances = Tolerances()


def _as_square(values) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Rebuild a matrix, or each matrix of a stack, from its upper triangle so symmetry holds bitwise."""
    return np.triu(m) + np.swapaxes(np.triu(m, 1), -1, -2)


class SymMat:
    """Real symmetric ``d x d`` matrix.

    Only the upper triangle of ``values`` is used; the lower triangle is the
    mirror image, which makes ``array == array.T`` hold exactly by
    construction.  Instances are immutable and safe to share across threads.
    A scalar is accepted as the ``d = 1`` case.
    """

    __slots__ = ("_m",)

    def __init__(self, values) -> None:
        m = _mirror_upper(_as_square(values))
        m.setflags(write=False)
        self._m = m

    @property
    def array(self) -> np.ndarray:
        """The full matrix as a read-only ``(d, d)`` array."""
        return self._m

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymMat({self._m.tolist()!r})"


class SpdMat:
    """A :class:`SymMat` certified positive definite or positive semidefinite.

    Construction runs the eigenvalue classification of :func:`assert_pd`;
    ``kind`` records the outcome (``"PD"`` or ``"PSD"``).  The spectrum found
    during classification is kept, so square roots and inverses never repeat
    the eigendecomposition.  On the PSD path, negative eigenvalues within
    tolerance have already been clipped to zero.
    """

    __slots__ = ("_base", "_kind", "_eigvals", "_eigvecs", "_sqrt")

    def __init__(self, values, tol: Tolerances | None = None) -> None:
        base = values if isinstance(values, SymMat) else SymMat(values)
        tol = tol if tol is not None else tolerances
        w, v = np.linalg.eigh(base.array)
        lam_max = w[-1]
        if np.all(w > tol.pd * lam_max):
            kind = "PD"
        elif np.all(w >= -tol.psd * lam_max):
            kind = "PSD"
            w = np.maximum(w, 0.0)
        else:
            raise NotPsd(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.6g} "
                f"is below -{tol.psd:g} * {lam_max:.6g}"
            )
        self._base, self._kind = base, kind
        self._eigvals, self._eigvecs = w, v
        self._sqrt = None

    @classmethod
    def _certified(cls, values, kind: str) -> "SpdMat":
        """Wrap a matrix known PD/PSD by construction, deferring the eigh.

        Internal fast path for matrices such as ``C @ S @ C`` with ``C``, ``S``
        both certified, where re-running the classification would only burn an
        eigendecomposition.
        """
        obj = cls.__new__(cls)
        obj._base = values if isinstance(values, SymMat) else SymMat(values)
        obj._kind = kind
        obj._eigvals = obj._eigvecs = obj._sqrt = None
        return obj

    @classmethod
    def _from_spectrum(cls, w: np.ndarray, v: np.ndarray, kind: str) -> "SpdMat":
        """The matrix ``v diag(w) v'`` for a known monotone spectrum, kept ascending."""
        obj = cls._certified(_mirror_upper((v * w) @ v.T), kind)
        if w[0] > w[-1]:
            w, v = w[::-1], v[:, ::-1]
        obj._eigvals, obj._eigvecs = w, v
        return obj

    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eigvals is None:
            w, v = np.linalg.eigh(self._base.array)
            if self._kind == "PSD":
                w = np.maximum(w, 0.0)
            self._eigvals, self._eigvecs = w, v
        return self._eigvals, self._eigvecs

    def _root(self) -> "SpdMat":
        """The symmetric square root, built once from the spectrum and kept."""
        if self._sqrt is None:
            w, v = self._spectrum()
            self._sqrt = SpdMat._from_spectrum(np.sqrt(np.maximum(w, 0.0)), v, self._kind)
        return self._sqrt

    @property
    def array(self) -> np.ndarray:
        return self._base.array

    @property
    def base(self) -> SymMat:
        return self._base

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def kind(self) -> str:
        """``"PD"`` or ``"PSD"``."""
        return self._kind

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, clipped on the PSD path."""
        return self._spectrum()[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpdMat({self._base.array.tolist()!r}, kind={self._kind!r})"


def assert_pd(m, tol: Tolerances | None = None) -> SpdMat:
    """Classify a symmetric matrix as PD or PSD, or raise :class:`NotPsd`.

    Eigenvalues are compared with the largest one: strictly above
    ``tol.pd * lambda_max`` everywhere gives ``PD``; otherwise, nothing below
    ``-tol.psd * lambda_max`` gives ``PSD`` with the negative part of the
    spectrum clipped to zero.  Anything else fails.
    """
    return SpdMat(m, tol=tol)


def sym_sqrt(p: SpdMat) -> SpdMat:
    """Symmetric square root ``S`` with ``S @ S == P`` up to reconstruction tolerance.

    The eigenvalues of ``S`` are the square roots of the (clipped) eigenvalues
    of ``P``, so the result inherits ``P``'s kind.
    """
    if not isinstance(p, SpdMat):
        p = assert_pd(p)
    return p._root()


def sym_inv(p: SpdMat) -> SpdMat:
    """Inverse of a positive definite matrix via its eigendecomposition."""
    if not isinstance(p, SpdMat):
        p = assert_pd(p)
    w, v = p._spectrum()
    if p.kind != "PD" or np.any(w <= 0.0):
        raise NotPsd("matrix must be positive definite to invert")
    return SpdMat._from_spectrum(1.0 / w, v, "PD")


def sym_inv_sqrt(p: SpdMat) -> SpdMat:
    """Symmetric inverse square root ``P^{-1/2}`` of a positive definite matrix."""
    if not isinstance(p, SpdMat):
        p = assert_pd(p)
    w, v = p._spectrum()
    if p.kind != "PD" or np.any(w <= 0.0):
        raise NotPsd("matrix must be positive definite to form an inverse square root")
    return SpdMat._from_spectrum(1.0 / np.sqrt(w), v, "PD")


def conjugate(r, p: SpdMat) -> SymMat:
    """The conjugation map ``R_P = P^{1/2} R P^{1/2}``.

    ``r`` may be a :class:`SymMat`, a square array, or a scalar (the ``d = 1``
    case, where the map reduces to the product ``p * r``).  The result is
    symmetric by construction and the map is linear in ``r``.
    """
    if not isinstance(p, SpdMat):
        p = assert_pd(p)
    r_arr = r.array if isinstance(r, SymMat) else _mirror_upper(_as_square(r))
    if r_arr.shape[0] != p.dim:
        raise ValueError(f"dimension mismatch: R is {r_arr.shape[0]}x{r_arr.shape[0]}, P is {p.dim}x{p.dim}")
    ph = p._root().array
    return SymMat(ph @ r_arr @ ph)


def multivariate_log_gamma(beta: float, dim: int) -> float:
    """Logarithm of the multivariate gamma function over the ``dim x dim`` PD cone.

    Uses the product formula

    ``log Gamma_d(beta) = d(d-1)/4 * log(pi) + sum_{j=0}^{d-1} log Gamma(beta - j/2)``,

    which keeps large degrees of freedom from overflowing.  Requires
    ``beta > (dim - 1) / 2``.
    """
    dim = int(dim)
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    beta = float(beta)
    if not beta > (dim - 1) / 2.0:
        raise ValueError(f"beta must exceed (dim - 1)/2 = {(dim - 1) / 2}, got {beta}")
    offsets = np.arange(dim) / 2.0
    return dim * (dim - 1) / 4.0 * math.log(math.pi) + float(gammaln(beta - offsets).sum())


def multivariate_gamma(beta: float, dim: int) -> float:
    """Multivariate gamma function ``Gamma_dim(beta)``; always strictly positive."""
    return math.exp(multivariate_log_gamma(beta, dim))
