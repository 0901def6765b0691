"""Tests for the symmetric-matrix primitives.

Derived expected values come from closed-form eigendecompositions for square
roots and from ``np.linalg.inv`` for inverses.
"""

import math

import numpy as np
import pytest

from wishartmix import (
    BetaIIParams,
    DesignTable,
    McConfig,
    MatrixNormalParams,
    MixtureSpec,
    NotPsd,
    RngStream,
    SimulationSpec,
    SpdMat,
    SymMat,
    WishartParams,
    conjugation_params,
    default_probes,
    mixture_marginal_params,
    random_mixture_spec,
    run_report,
    sample_beta2,
    sample_hierarchical,
    sample_wishart,
    sym_inv_sqrt,
    sym_sqrt,
)
from conftest import random_spd

# Relative bound on round trips such as ``sym_sqrt(P) @ sym_sqrt(P) == P``.
RECONSTRUCTION = 1e-8


class TestSymMat:
    def test_mirrors_upper_triangle(self):
        m = SymMat([[1.0, 2.0], [999.0, 3.0]])
        assert np.array_equal(m.array, [[1.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(m.array, m.array.T)

    def test_scalar_is_one_by_one(self):
        assert SymMat(4.0).array.shape == (1, 1)

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            SymMat(np.ones((2, 3)))
        with pytest.raises(ValueError):
            SymMat([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-empty square matrix"):
            SpdMat(np.eye(0))

    def test_array_is_read_only(self):
        m = SymMat(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0


class TestAssertPd:
    def test_identity_is_pd(self):
        assert SpdMat(np.eye(2)).kind == "PD"

    def test_indefinite_rejected(self):
        # eigenvalues -1 and 3
        with pytest.raises(NotPsd):
            SpdMat([[1.0, 2.0], [2.0, 1.0]])

    def test_tiny_negative_eigenvalue_clipped_to_psd(self):
        m = SpdMat(np.diag([1.0, -1e-14]))
        assert m.kind == "PSD"
        assert m.eigenvalues[0] == 0.0
        assert m.eigenvalues[1] == pytest.approx(1.0)

    def test_zero_matrix_is_psd(self):
        assert SpdMat(np.zeros((3, 3))).kind == "PSD"


EYE2 = np.eye(2)

# Every input that must be positive definite, as (parameter name, call).
PD_INPUTS = [
    ("scale", lambda m: MatrixNormalParams(2, 0.0, m)),
    ("scale", lambda m: WishartParams(3.0, m)),
    ("mixing_scale", lambda m: MixtureSpec(3.0, EYE2, m, EYE2)),
    ("inner_scale", lambda m: MixtureSpec(3.0, m, EYE2, EYE2)),
    ("coupling", lambda m: MixtureSpec(3.0, EYE2, EYE2, m)),
    ("c", lambda m: conjugation_params(WishartParams(3.0, EYE2), m)),
    ("scale", lambda m: default_probes(m)),
    ("sigma", lambda m: run_report(DesignTable(np.zeros((2, 2, 2, 2))), McConfig(n_mc=1000, seed=0), m)),
    ("error_scale", lambda m: SimulationSpec(2, 2, 2, 2, m)),
    ("p", lambda m: sym_inv_sqrt(m)),
]


class TestOnePdRule:
    @pytest.mark.parametrize("certified", [False, True], ids=["array", "SpdMat"])
    @pytest.mark.parametrize("name,call", PD_INPUTS, ids=[f"{k}-{n}" for k, (n, _) in enumerate(PD_INPUTS)])
    def test_singular_input_rejected_by_name(self, name, call, certified):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])  # PSD, eigenvalues 0 and 2
        with pytest.raises(NotPsd) as info:
            call(SpdMat(singular) if certified else singular)
        assert str(info.value) == f"{name} must be positive definite"

    @pytest.mark.parametrize("name,call", [*PD_INPUTS, ("noncen", lambda m: WishartParams(3.0, EYE2, m))])
    def test_indefinite_input_rejected_by_name(self, name, call):
        with pytest.raises(NotPsd, match=rf"^{name} is not positive semidefinite: min eigenvalue -1 "):
            call(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues -1 and 3

    def test_certified_input_passes_through(self):
        s = SpdMat([[2.0, 1.0], [1.0, 2.0]])
        assert WishartParams(3.0, s).scale is s
        spec = MixtureSpec(3.0, s, s, s)
        assert spec.inner_scale is s and spec.mixing_scale is s and spec.coupling is s
        assert SimulationSpec(2, 2, 2, 2, s).error_scale is s

    def test_spd_is_a_symmat(self):
        s = SpdMat(np.eye(2))
        assert isinstance(s, SymMat)
        assert SpdMat(SymMat([[2.0, 0.0], [5.0, 1.0]])).array.tolist() == [[2.0, 0.0], [0.0, 1.0]]


SPEC = random_mixture_spec(3, 6, RngStream(1))
MARGINAL = mixture_marginal_params(SPEC)

# Every kind of SpdMat the library computes, as (label, thunk).
LIBRARY_SPDMATS = [
    ("marginal-scale", lambda: MARGINAL.scale),
    ("marginal-noncen", lambda: MARGINAL.noncen),
    ("conjugation-scale", lambda: conjugation_params(MARGINAL, SPEC.coupling).scale),
    ("conjugation-noncen", lambda: conjugation_params(MARGINAL, SPEC.coupling).noncen),
    ("wishart-draw", lambda: sample_wishart(MARGINAL, RngStream(2))),
    ("hierarchical-draw", lambda: sample_hierarchical(SPEC, RngStream(3))),
    ("beta2-draw", lambda: sample_beta2(BetaIIParams(4.0, 10.0, 3), RngStream(4))),
    ("sym-sqrt", lambda: sym_sqrt(MARGINAL.noncen)),
    ("sym-inv-sqrt", lambda: sym_inv_sqrt(MARGINAL.scale)),
    ("central-noncen", lambda: WishartParams(4.0, EYE2).noncen),
]


class TestOneRuleForEverySpdMat:
    @pytest.mark.parametrize("make", [m for _, m in LIBRARY_SPDMATS], ids=[label for label, _ in LIBRARY_SPDMATS])
    def test_kind_and_spectrum_are_classified(self, make):
        m = make()
        assert isinstance(m, SpdMat)
        assert m.kind == SpdMat(m.array).kind
        assert np.array_equal(m.eigenvalues, np.maximum(np.linalg.eigh(m.array)[0], 0.0))


class TestSymSqrt:
    def test_identity(self):
        assert np.allclose(sym_sqrt(SpdMat(np.eye(2))).array, np.eye(2))

    def test_diagonal(self):
        assert np.allclose(sym_sqrt(SpdMat(np.diag([4.0, 9.0]))).array, np.diag([2.0, 3.0]))

    def test_closed_form_2x2(self):
        # [[2,1],[1,2]] has eigenpairs (1, [1,-1]/sqrt2) and (3, [1,1]/sqrt2),
        # so the root is ((sqrt3+1)/2, (sqrt3-1)/2) on/off the diagonal.
        s = sym_sqrt(SpdMat([[2.0, 1.0], [1.0, 2.0]]))
        r3 = math.sqrt(3.0)
        expected = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
        np.testing.assert_allclose(s.array, expected, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_reconstruction(self, dim, gen):
        for _ in range(20):
            p = random_spd(dim, gen)
            s = sym_sqrt(p).array
            err = np.linalg.norm(s @ s - p.array) / np.linalg.norm(p.array)
            assert err < RECONSTRUCTION

    def test_psd_input_gives_psd_root(self):
        root = sym_sqrt(SpdMat(np.diag([1.0, 0.0])))
        assert root.kind == "PSD"
        np.testing.assert_allclose(root.array, np.diag([1.0, 0.0]))


class TestInverses:
    def test_inv_sqrt_squares_to_inverse(self, gen):
        p = random_spd(3, gen)
        w = sym_inv_sqrt(p).array
        np.testing.assert_allclose(w @ w, np.linalg.inv(p.array), atol=1e-10)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPsd):
            sym_inv_sqrt(SpdMat(np.diag([1.0, 0.0])))


class TestNumericalFoundations:
    def test_trace_cyclicity(self, gen):
        for _ in range(20):
            a, b, c = (gen.standard_normal((4, 4)) for _ in range(3))
            t1 = np.trace(a @ b @ c)
            t2 = np.trace(b @ c @ a)
            assert abs(t1 - t2) <= 1e-10 * max(1.0, abs(t1))
