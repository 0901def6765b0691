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
  eigenvalue, with the constant thresholds :data:`PD_TOL` and :data:`PSD_TOL`;
* eigenvalues in ``[-PSD_TOL * lambda_max, 0)`` are clipped to zero on the
  semidefinite path, and anything below that is rejected as :class:`NotPsd`;
* every :class:`SpdMat` is made by its one constructor, which runs this
  classification and keeps the spectrum: inputs, the parameters the library
  computes from them, single draws, and square roots alike, so no caller
  asserts a kind;
* every input that must be positive (semi)definite goes through
  :func:`_as_spd`, which raises ``NotPsd`` with the parameter's name (``"<name>
  must be positive definite"``, or ``"<name> is not positive semidefinite:
  ..."``) and passes an already certified :class:`SpdMat` through without a
  new eigendecomposition.

Square roots are computed by eigendecomposition, not Cholesky, because the
symmetric root is the one the conjugation map is defined with.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPsd

__all__ = [
    "SymMat",
    "SpdMat",
    "sym_sqrt",
    "sym_inv_sqrt",
]


# Eigenvalue thresholds relative to the largest eigenvalue of the matrix under
# test: above PD_TOL is "strictly positive", and PSD_TOL is how far below zero
# an eigenvalue may dip before the matrix is rejected.
PD_TOL = 1e-12
PSD_TOL = 1e-10


def _as_square(values) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _mirror_upper(m: np.ndarray) -> np.ndarray:
    """Rebuild a matrix, or each matrix of a stack, from its upper triangle so symmetry holds bitwise."""
    return np.triu(m) + np.swapaxes(np.triu(m, 1), -1, -2)


def _inv_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``V diag(w)^(-1/2) V'`` from the eigenvalues ``w`` and eigenvectors ``v`` of a matrix, or of each of a stack."""
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)


class SymMat:
    """Real symmetric ``d x d`` matrix.

    Only the upper triangle of ``values`` is used; the lower triangle is the
    mirror image, which makes ``array == array.T`` hold exactly by
    construction.  Instances are immutable and safe to share across threads.
    A scalar is accepted as the ``d = 1`` case, and a :class:`SymMat` shares
    its array.
    """

    __slots__ = ("_m",)

    def __init__(self, values) -> None:
        m = values._m if isinstance(values, SymMat) else _mirror_upper(_as_square(values))
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


class SpdMat(SymMat):
    """A :class:`SymMat` certified positive definite or positive semidefinite.

    The constructor is the only way to make one.  It runs ``eigh`` and
    compares the eigenvalues with the largest one: all strictly above
    ``PD_TOL * lambda_max`` is ``"PD"``; otherwise none below ``-PSD_TOL *
    lambda_max`` is ``"PSD"``, and anything else raises :class:`NotPsd`, as
    does a spectrum that overflows float64 (finite entries near the float64
    limit can have an infinite largest eigenvalue, which no relative test
    can classify).
    ``kind`` records the outcome; no caller states a kind.  The spectrum
    found during classification is stored, so square roots and inverses never
    repeat the eigendecomposition.  On the PSD path, negative eigenvalues
    within tolerance have already been clipped to zero.  ``name`` labels the
    matrix in the :class:`NotPsd` raised for one that is not even
    semidefinite or whose spectrum overflows.
    """

    __slots__ = ("_kind", "_eigvals", "_eigvecs", "_sqrt")

    def __init__(self, values, name: str = "matrix") -> None:
        super().__init__(values)
        w, v = np.linalg.eigh(self._m)
        if not np.isfinite(w).all():
            raise NotPsd(f"{name} has an eigenvalue that overflows float64; rescale {name}")
        lam_max = w[-1]
        if np.all(w > PD_TOL * lam_max):
            kind = "PD"
        elif np.all(w >= -PSD_TOL * lam_max):
            kind = "PSD"
            w = np.maximum(w, 0.0)
        else:
            raise NotPsd(
                f"{name} is not positive semidefinite: min eigenvalue {w[0]:.6g} "
                f"is below -{PSD_TOL:g} * {lam_max:.6g}"
            )
        self._kind = kind
        self._eigvals, self._eigvecs = w, v
        self._sqrt = None

    def _root(self) -> "SpdMat":
        """The symmetric square root, built once from the spectrum and kept."""
        if self._sqrt is None:
            w, v = self._eigvals, self._eigvecs
            self._sqrt = SpdMat((v * np.sqrt(w)) @ v.T)
        return self._sqrt

    @property
    def kind(self) -> str:
        """``"PD"`` or ``"PSD"``."""
        return self._kind

    @property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, clipped on the PSD path."""
        return self._eigvals

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpdMat({self._m.tolist()!r}, kind={self._kind!r})"


def _as_spd(value, name: str, *, require_pd: bool) -> SpdMat:
    """``value`` certified as an :class:`SpdMat`; one that already is passes through unchanged.

    A matrix that is not even semidefinite raises
    ``NotPsd("<name> is not positive semidefinite: ...")``; with
    ``require_pd`` a merely semidefinite one raises
    ``NotPsd("<name> must be positive definite")``.
    """
    m = value if isinstance(value, SpdMat) else SpdMat(value, name)
    if require_pd and m.kind != "PD":
        raise NotPsd(f"{name} must be positive definite")
    return m


def sym_sqrt(p) -> SpdMat:
    """Symmetric square root ``S`` with ``S @ S == P``.

    ``S`` is built from the stored (clipped) spectrum of ``P`` and, like every
    :class:`SpdMat`, classified by its own spectrum; a PD ``P`` gives a PD ``S``.
    """
    return _as_spd(p, "p", require_pd=False)._root()


def sym_inv_sqrt(p) -> SpdMat:
    """Symmetric inverse square root ``P^{-1/2}`` of a positive definite matrix."""
    m = _as_spd(p, "p", require_pd=True)
    return SpdMat(_inv_root(m._eigvals, m._eigvecs))
