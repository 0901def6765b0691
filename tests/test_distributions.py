"""Tests for the matrix-variate samplers and closed-form functionals.

Monte Carlo oracles dominate here: empirical moments against closed forms
and dual-sampler cross-validation; each sampler's exact law is checked in
``test_exact_law.py``.  Tolerances follow the published contracts for the
stated draw counts; seeds are fixed so the suite is deterministic.
"""

import math
import re

import numpy as np
import pytest

from wishartmix import (
    BetaIIParams,
    MatrixNormalParams,
    McConfig,
    MixtureSpec,
    NotPsd,
    OutsideDomain,
    RawDataset,
    RngStream,
    SimulationSpec,
    SpdMat,
    SymMat,
    UnsupportedDof,
    WishartParams,
    beta2_eigenvalues,
    factor_tests,
    null_calibration,
    sample_beta2,
    sample_hierarchical,
    sample_matrix_normal,
    sample_noncentral_chisq,
    sample_wishart,
    simulate_design,
    subsample_balanced,
    sym_sqrt,
    verify_closure,
    wishart_log_mgf,
    wishart_mean,
    wishart_mgf,
)
from wishartmix.distributions import _CHUNK_SCALARS, _bartlett_columns, _bartlett_factor, _beta2_eigs, _gram, _times
from wishartmix.symmat import _mirror_upper
from conftest import random_psd, random_spd

SIGMA_2D = SpdMat([[2.0, 1.0], [1.0, 2.0]])


class TestParams:
    def test_wishart_dof_domain(self):
        with pytest.raises(ValueError):
            WishartParams(1.0, SIGMA_2D)  # needs dof > d - 1 = 1

    def test_wishart_noncen_must_be_psd(self):
        with pytest.raises(NotPsd):
            WishartParams(3.0, SIGMA_2D, SpdMat([[1.0, 2.0], [2.0, 1.0]]))

    def test_theta_solves_scale_against_noncen(self, gen):
        p = WishartParams(4.0, random_spd(3, gen), random_psd(3, gen))
        np.testing.assert_allclose(p.scale.array @ p.theta(), p.noncen.array, atol=1e-12)

    def test_beta2_domain(self):
        with pytest.raises(ValueError):
            BetaIIParams(1.0, 5.0, dim=2)

    def test_non_finite_dof_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="dof"):
                WishartParams(bad, SIGMA_2D)
            with pytest.raises(ValueError, match="dof1"):
                BetaIIParams(bad, 5.0, dim=2)
            with pytest.raises(ValueError, match="dof2"):
                BetaIIParams(4.0, bad, dim=2)
            with pytest.raises(ValueError, match="dof"):
                sample_noncentral_chisq(bad, 1.0, RngStream(29))
            with pytest.raises(ValueError, match="noncen"):
                sample_noncentral_chisq(2.0, bad, RngStream(29))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: MatrixNormalParams(2, np.zeros((3, 2)), SIGMA_2D), "mean must have shape (2, 2), got (3, 2)"),
            (lambda: MatrixNormalParams(2, [[0.0, math.inf], [0.0, 0.0]], SIGMA_2D), "mean entries must be finite"),
            (lambda: WishartParams(3.0, SIGMA_2D, np.eye(3)), "noncen is 3x3 but scale is 2x2"),
            (lambda: wishart_log_mgf(WishartParams(3.0, SIGMA_2D), 0.01 * np.eye(3)),
             "T is 3x3 but the distribution is 2-dimensional"),
        ],
        ids=["mean-shape", "mean-non-finite", "noncen-size", "mgf-argument-size"],
    )
    def test_shape_and_finiteness_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValueError

    def test_non_integral_sizes_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            BetaIIParams(4.0, 10.0, dim=2.7)
        with pytest.raises(ValueError, match="rows"):
            MatrixNormalParams(1.9, 0.0, SIGMA_2D)
        with pytest.raises(ValueError, match="a must"):
            factor_tests(5.7, 3, 3, 1)
        with pytest.raises(ValueError, match="n_mc"):
            McConfig(n_mc=2500.7)
        with pytest.raises(ValueError, match="levels_a"):
            SimulationSpec(3.5, 3, 2, 2, SIGMA_2D)
        spec = SimulationSpec(3, 3, 2, 2, SIGMA_2D)
        with pytest.raises(ValueError, match="n_datasets must be a non-negative integer"):
            null_calibration(spec, 3.7, McConfig(n_mc=1000), 1)
        with pytest.raises(ValueError, match="n_datasets"):
            null_calibration(spec, -1, McConfig(n_mc=1000), 1)
        mixture = MixtureSpec(3.0, SIGMA_2D, SIGMA_2D, SIGMA_2D)
        with pytest.raises(ValueError, match="n_draws must be a positive integer"):
            verify_closure(mixture, 10_000.9, 1)
        with pytest.raises(ValueError, match="n_draws"):
            verify_closure(mixture, 0, 1)
        data = RawDataset.from_labels(("x",) * 3, ("y",) * 3, np.arange(3.0)[:, None], ("r",))
        with pytest.raises(ValueError, match="n_per_cell must be a positive integer"):
            subsample_balanced(data, 2.7, 0)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            subsample_balanced(data, 2, 0.5)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RngStream(1.9)
        with pytest.raises(ValueError, match="stream_index must be a non-negative integer"):
            RngStream(1, 1.9)
        # No sampler truncates its size: 2.7 used to give 2 draws and True 1.
        samplers = {
            "sample_wishart": lambda size: sample_wishart(WishartParams(3.0, SIGMA_2D), 1, size),
            "sample_matrix_normal": lambda size: sample_matrix_normal(MatrixNormalParams(2, 0.0, SIGMA_2D), 1, size),
            "sample_beta2": lambda size: sample_beta2(BetaIIParams(4.0, 10.0, 2), 1, size),
            "beta2_eigenvalues": lambda size: beta2_eigenvalues(BetaIIParams(4.0, 10.0, 2), 1, size),
            "sample_hierarchical": lambda size: sample_hierarchical(mixture, 1, size),
            "sample_noncentral_chisq": lambda size: sample_noncentral_chisq(3.0, 1.0, 1, size),
            "simulate_design": lambda size: simulate_design(spec, 1, size),
        }
        for name, draw in samplers.items():
            for size in (2.7, True, -1):
                with pytest.raises(ValueError, match="size must be a non-negative integer"):
                    draw(size)
            assert draw(2.0).shape[0] == 2, name
            assert draw(0).shape[0] == 0, name
        with pytest.raises(ValueError, match="n_mc must be a positive integer"):
            McConfig(n_mc=True)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RngStream(True)
        # Integral floats, as parsed from JSON, are accepted and stored as ints.
        assert BetaIIParams(4.0, 10.0, dim=2.0).dim == 2
        assert MatrixNormalParams(2.0, 0.0, SIGMA_2D).rows == 2
        tests = factor_tests(5.0, 3.0, 3.0, 1)
        assert [(t.dof_num, t.dof_den) for t in tests] == [(4, 30), (2, 30), (8, 30)]
        assert {type(v) for t in tests for v in (t.dof_num, t.dof_den)} == {int}
        assert type(McConfig(n_mc=2500.0).n_mc) is int
        assert McConfig(n_mc=10**400).n_mc == 10**400  # ints never pass through float
        spec = SimulationSpec(3.0, 3.0, 2.0, 2.0, SIGMA_2D)
        assert [type(v) for v in (spec.levels_a, spec.levels_b, spec.reps, spec.dim)] == [int] * 4
        assert null_calibration(spec, 2.0, McConfig(n_mc=1000), 1).n_datasets == 2
        assert subsample_balanced(data, 2.0, 0.0).reps == 2
        assert np.array_equal(RngStream(1.0, 2.0).generator().random(3), RngStream(1, 2).generator().random(3))


class TestMatrixNormal:
    def test_standard_normal_mean(self):
        p = MatrixNormalParams(1, 0.0, SpdMat(1.0))
        draws = sample_matrix_normal(p, RngStream(1), size=100_000)
        assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)

    def test_location_shift(self):
        mean = np.array([[1.0, -2.0], [0.5, 3.0]])
        p = MatrixNormalParams(2, mean, SIGMA_2D)
        draws = sample_matrix_normal(p, RngStream(2), size=50_000)
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)

    def test_kronecker_covariance(self):
        # Rows are independent, each with covariance Sigma, so the flattened
        # draw has covariance I_2 (x) Sigma.
        p = MatrixNormalParams(2, 0.0, SIGMA_2D)
        draws = sample_matrix_normal(p, RngStream(3), size=1_000_000).reshape(-1, 4)
        emp = np.cov(draws.T)
        target = np.kron(np.eye(2), SIGMA_2D.array)
        err = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert err < 0.02


class TestWishartSampling:
    def test_chi_square_reduction(self):
        p = WishartParams(1.0, SpdMat(1.0))
        draws = sample_wishart(p, RngStream(4), size=200_000)[:, 0, 0]
        assert abs(draws.mean() - 1.0) < 4.0 * math.sqrt(2.0 / 200_000)

    def test_noncentral_mean(self):
        p = WishartParams(5.0, SIGMA_2D, SpdMat([[1.0, 0.5], [0.5, 2.0]]))
        draws = sample_wishart(p, RngStream(5), size=1_000_000)
        target = wishart_mean(p).array
        err = np.linalg.norm(draws.mean(axis=0) - target) / np.linalg.norm(target)
        assert err < 0.01

    def test_bartlett_and_outer_paths_agree(self):
        # Same central law from two constructions, the Bartlett sampler and
        # the Gram of a matrix normal: matching means and element-wise
        # variances at a million draws each.
        p = WishartParams(6.0, SIGMA_2D)
        a = sample_wishart(p, RngStream(6), size=1_000_000)
        n = sample_matrix_normal(MatrixNormalParams(6, 0.0, SIGMA_2D), RngStream(7), size=1_000_000)
        b = _mirror_upper(np.swapaxes(n, -1, -2) @ n)
        np.testing.assert_allclose(a.mean(axis=0), b.mean(axis=0), rtol=0.02)
        np.testing.assert_allclose(a.var(axis=0), b.var(axis=0), rtol=0.02)

    def test_draws_are_positive_definite(self, gen):
        p = WishartParams(4.0, random_spd(3, gen), random_psd(3, gen))
        draws = sample_wishart(p, RngStream(8), size=200)
        for x in draws:
            assert np.array_equal(x, x.T)
            assert SpdMat(x).kind == "PD"

    def test_single_draw_is_spdmat(self):
        x = sample_wishart(WishartParams(3.0, SIGMA_2D), RngStream(9))
        assert x.kind == "PD"

    def test_noncentral_requires_integer_dof(self):
        p = WishartParams(2.5, SIGMA_2D, SpdMat(np.eye(2)))
        with pytest.raises(UnsupportedDof):
            sample_wishart(p, RngStream(10))
        # Near an integer is not an integer: this used to be rounded down to 3.
        p = WishartParams(3 + 1e-10, SIGMA_2D, SpdMat(np.eye(2)))
        with pytest.raises(UnsupportedDof, match="got dof = 3.0000000001"):
            sample_wishart(p, RngStream(10))
        with pytest.raises(UnsupportedDof):
            sample_hierarchical(MixtureSpec(3 + 1e-10, SIGMA_2D, SIGMA_2D, SIGMA_2D, np.eye(2)), RngStream(10))

    def test_stream_determinism(self):
        p = WishartParams(4.0, SIGMA_2D, SpdMat(np.eye(2)))
        a = sample_wishart(p, RngStream(11, 3), size=50)
        b = sample_wishart(p, RngStream(11, 3), size=50)
        assert np.array_equal(a, b)
        c = sample_wishart(p, RngStream(11, 4), size=50)
        assert not np.array_equal(a, c)


class TestWishartMgf:
    def test_value_at_origin(self, gen):
        p = WishartParams(4.0, random_spd(2, gen), random_psd(2, gen))
        assert wishart_mgf(p, np.zeros((2, 2))) == 1.0

    def test_scalar_reduction(self):
        # d = 1 closed form: (1 - 2t)^(-nu/2) exp(delta t / (1 - 2t)).
        nu, delta = 3.0, 2.5
        p = WishartParams(nu, SpdMat(1.0), SpdMat(delta))
        for t in (-0.3, 0.0, 0.2, 0.4):
            expected = (1 - 2 * t) ** (-nu / 2) * math.exp(delta * t / (1 - 2 * t))
            assert wishart_mgf(p, np.array([[t]])) == pytest.approx(expected, rel=1e-12)

    def test_against_monte_carlo(self):
        p = WishartParams(3.0, SpdMat(np.eye(2)), SpdMat(np.eye(2)))
        t = SymMat(np.diag([0.1, 0.05]))
        closed = wishart_mgf(p, t)
        draws = sample_wishart(p, RngStream(12), size=1_000_000)
        empirical = np.exp(np.einsum("ij,nij->n", t.array, draws)).mean()
        assert abs(empirical - closed) / closed < 0.01

    def test_domain_error(self):
        p = WishartParams(3.0, SpdMat(np.eye(2)))
        with pytest.raises(OutsideDomain):
            wishart_mgf(p, 0.6 * np.eye(2))

    def test_mgf_consistency_random_probes(self, gen):
        # Small random probes, empirical vs closed form at a million draws.
        for seed in (13, 14):
            p = WishartParams(4.0, random_spd(2, gen), random_psd(2, gen))
            scale = 0.08 / float(p.scale.eigenvalues[-1])
            t = SymMat(scale * (gen.random((2, 2)) - 0.5))
            closed = wishart_mgf(p, t)
            draws = sample_wishart(p, RngStream(seed), size=1_000_000)
            empirical = np.exp(np.einsum("ij,nij->n", t.array, draws)).mean()
            assert abs(empirical - closed) / closed < 0.01


class TestWishartMean:
    def test_central_mean_matches_monte_carlo(self):
        p = WishartParams(3.5, SIGMA_2D)
        draws = sample_wishart(p, RngStream(15), size=400_000)
        target = wishart_mean(p).array
        np.testing.assert_allclose(target, 3.5 * SIGMA_2D.array)
        assert np.linalg.norm(draws.mean(axis=0) - target) / np.linalg.norm(target) < 0.01

    def test_scalar_noncentral_mean(self):
        p = WishartParams(2.0, SpdMat(1.0), SpdMat(3.0))
        assert wishart_mean(p).array[0, 0] == pytest.approx(5.0)
        draws = sample_wishart(p, RngStream(16), size=400_000)
        assert draws.mean() == pytest.approx(5.0, rel=0.01)

    def test_diagonal_noncentral_mean(self):
        p = WishartParams(4.0, SpdMat(np.eye(2)), SpdMat(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(wishart_mean(p).array, np.diag([5.0, 6.0]))
        draws = sample_wishart(p, RngStream(17), size=1_000_000)
        err = np.linalg.norm(draws.mean(axis=0) - np.diag([5.0, 6.0])) / np.linalg.norm(np.diag([5.0, 6.0]))
        assert err < 0.01


class TestBeta2:
    def test_every_draw_positive_definite(self):
        p = BetaIIParams(4.0, 8.0, dim=3)
        draws = sample_beta2(p, RngStream(18), size=500)
        assert np.all(np.linalg.eigvalsh(draws) > 0.0)

    def test_scalar_mean(self):
        # d = 1: B = S1 / S2 with chi-square numerator and denominator has
        # mean dof1 / (dof2 - 2).
        p = BetaIIParams(3.0, 10.0, dim=1)
        draws = sample_beta2(p, RngStream(19), size=1_000_000)[:, 0, 0]
        assert draws.mean() == pytest.approx(3.0 / 8.0, rel=0.01)

    def test_eigenvalues_sorted_descending(self):
        eigs = beta2_eigenvalues(BetaIIParams(4.0, 9.0, dim=3), RngStream(21), 100)
        assert eigs.shape == (100, 3)
        assert np.all(np.diff(eigs, axis=1) <= 0.0)
        assert np.all(eigs >= 0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hotelling_lawley_mean_is_exact(self, dim):
        # E[B] = dof1 / (dof2 - dim - 1) I, so E[tr B] = dim dof1 / (dof2 - dim - 1).
        # dof2 = dim + 10 keeps the fourth moment of tr B finite, so the
        # sample standard error is a stable band.
        dof1, dof2 = dim + 2.0, dim + 10.0
        n = 200_000
        trace = beta2_eigenvalues(BetaIIParams(dof1, dof2, dim), RngStream(33, dim), n).sum(axis=1)
        exact = dim * dof1 / (dof2 - dim - 1)
        assert abs(trace.mean() - exact) <= 4.0 * trace.std() / math.sqrt(n)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eigenvalues_of_no_draws(self, dim):
        assert beta2_eigenvalues(BetaIIParams(dim + 2.0, dim + 8.0, dim), RngStream(34), 0).shape == (0, dim)

    @pytest.mark.parametrize("sampler", [sample_beta2, beta2_eigenvalues])
    @pytest.mark.parametrize("dim,dof1,dof2", [(1, 2.0, 0.002), (2, 2.0, 1.001), (3, 4.0, 2.001)])
    def test_overflowing_draws_raise(self, sampler, dim, dof1, dof2):
        # dof2 this close to d - 1 underflows the Bartlett diagonal of T2: the
        # draws must raise, with no numpy RuntimeWarning, not return inf or NaN.
        message = rf"Beta II draws overflow at dof1 = {dof1}, dof2 = {dof2}, d = {dim}: dof2 is too close to d - 1"
        with pytest.raises(ValueError, match=message):
            sampler(BetaIIParams(dof1, dof2, dim), RngStream(35), 1000)

    @pytest.mark.parametrize(
        "draw",
        [lambda params, rng: sample_beta2(params, rng), lambda params, rng: beta2_eigenvalues(params, rng, 1)],
        ids=["sample_beta2", "beta2_eigenvalues"],
    )
    def test_singular_denominator_raises(self, draw):
        # On this stream the one draw's T2 has a Bartlett diagonal of exactly
        # 0, so S2 is singular: the whitening finds no division by zero and
        # would return an eigenvalue near 1.5e16.  Both samplers must raise.
        params, stream = BetaIIParams(4.0, 2.001, 3), RngStream(4)
        # The precondition, from the same stream: the numerator's columns
        # first, then the denominator's.  A stream change that loses the 0
        # fails here instead of passing without testing anything.
        t2 = _bartlett_columns((params.dof1, params.dof2), params.dim, [stream.generator()], 1)[1]
        assert any(row[-1][0] == 0.0 for row in t2)
        with pytest.raises(ValueError, match="dof2 is too close to d - 1"):
            draw(params, stream)


def _columns(t):
    """The ``(n,)`` columns ``t[:, i, k]``, ``k <= i``, of a lower-triangular ``(n, d, d)`` stack."""
    return [[t[:, i, k] for k in range(i + 1)] for i in range(t.shape[-1])]


def _kernel(t1, t2):
    return _beta2_eigs(_columns(t1), _columns(t2))


class TestBeta2Kernel:
    # Cases as (dof1 - (dim - 1), dof2).  At dim = 2 the spread case is
    # dof1 = 1.05, dof2 = 500: lambda_2 then falls hundreds of orders of
    # magnitude below lambda_1, where eigvalsh keeps no relative digit of
    # lambda_2 and the closed form must keep them all.
    CASES = [(3.0, 10.0), (0.05, 500.0)]

    @staticmethod
    def _factors(dim, excess, dof2, seed, n):
        gen = RngStream(seed, dim).generator()
        return _bartlett_factor(dim - 1 + excess, dim, gen, n), _bartlett_factor(dof2, dim, gen, n)

    @staticmethod
    def _hand_built():
        t1 = np.array([
            [[2.0, 0.0], [0.0, 1e-9]],
            [[1.0, 0.0], [1.0, 1e-8]],
            [[3.0, 0.0], [-4.0, 5.0]],
        ])
        t2 = np.array([
            [[1.0, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
            [[2.0, 0.0], [7.0, 0.5]],
        ])
        return t1, t2

    @pytest.mark.parametrize("excess,dof2", CASES)
    def test_d2_determinant_and_trace_identities(self, excess, dof2):
        for t1, t2 in (self._factors(2, excess, dof2, 35, 20_000), self._hand_built()):
            eigs = _kernel(t1, t2)
            ratio = np.diagonal(t1, axis1=1, axis2=2) / np.diagonal(t2, axis1=1, axis2=2)
            np.testing.assert_allclose(eigs.prod(axis=1), np.prod(ratio**2, axis=1), rtol=1e-13, atol=0)
            c = np.linalg.solve(t2, t1)
            np.testing.assert_allclose(eigs.sum(axis=1), (c * c).sum(axis=(1, 2)), rtol=1e-13, atol=0)
            assert np.all(eigs[:, 0] >= eigs[:, 1])

    def test_d2_repeated_eigenvalue(self):
        eye = np.broadcast_to(np.eye(2), (3, 2, 2))
        assert np.array_equal(_kernel(3.0 * eye, eye), np.full((3, 2), 9.0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_numerator_gives_zeros(self, dim):
        _, t2 = self._factors(dim, 3.0, 10.0, 36, 4)
        assert np.array_equal(_kernel(np.zeros((4, dim, dim)), t2), np.zeros((4, dim)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("excess,dof2", CASES)
    def test_agrees_with_solve_and_eigvalsh(self, dim, excess, dof2):
        t1, t2 = self._factors(dim, excess, dof2 + dim, 37, 5000)
        c = np.linalg.solve(t2, t1)
        ref = np.linalg.eigvalsh(c @ np.swapaxes(c, -1, -2))[:, ::-1]
        assert np.all(np.abs(_kernel(t1, t2) - ref) <= 1e-12 * ref[:, :1])


def _stack_bartlett_factor(dof, dim, gen, n):
    """Reference: the Bartlett stack filled by fancy indexing, as drawn before the column kernel."""
    t = np.zeros((n, dim, dim))
    rows, cols = np.tril_indices(dim, -1)
    if rows.size:
        t[:, rows, cols] = gen.standard_normal((n, rows.size))
    for j in range(dim):
        t[:, j, j] = np.sqrt(gen.chisquare(dof - j, n))
    return t


def _stack_beta2_eigs(t1, t2):
    """Reference: forward substitution on ``(n, d, d)`` stacks, then the same closed forms."""
    dim = t1.shape[-1]
    c = np.zeros_like(t1)
    for j in range(dim):
        for i in range(j, dim):
            acc = t1[:, i, j]
            for k in range(j, i):
                acc = acc - t2[:, i, k] * c[:, k, j]
            c[:, i, j] = acc / t2[:, i, i]
    if dim == 1:
        return c[:, 0] * c[:, 0]
    if dim > 2:
        return np.linalg.eigvalsh(c @ np.swapaxes(c, -1, -2))[:, ::-1]
    c00, c10, c11 = c[:, 0, 0], c[:, 1, 0], c[:, 1, 1]
    p = c00 * c00
    r = c10 * c10 + c11 * c11
    lam1 = (p + r) / 2 + np.hypot(p - r, 2.0 * c00 * c10) / 2
    lam2 = np.divide((c00 * c11) ** 2, lam1, out=np.zeros_like(lam1), where=lam1 > 0.0)
    return np.stack([lam1, lam2], axis=1)


def _stack_beta2_eigenvalues(params, gen, size):
    """Reference: ``beta2_eigenvalues`` through the stack path, in the same chunks."""
    dim = params.dim
    out = np.empty((size, dim))
    step = _CHUNK_SCALARS // (4 * dim * dim)
    for start in range(0, size, step):
        n = min(step, size - start)
        t1 = _stack_bartlett_factor(params.dof1, dim, gen, n)
        out[start : start + n] = _stack_beta2_eigs(t1, _stack_bartlett_factor(params.dof2, dim, gen, n))
    return np.maximum(out, 0.0)


class TestColumnsMatchStackPath:
    # The column kernel must reproduce the stack path bit for bit: same
    # stream, same arithmetic, only the storage of the factors differs.
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("size", ["0", "1", "2000", "past-chunk"])
    def test_beta2_eigenvalues_bitwise(self, dim, size):
        n = _CHUNK_SCALARS // (4 * dim * dim) + 3 if size == "past-chunk" else int(size)
        p = BetaIIParams(dim + 0.5, dim + 12.0, dim)
        got = beta2_eigenvalues(p, RngStream(38, dim), n)
        ref = _stack_beta2_eigenvalues(p, RngStream(38, dim).generator(), n)
        assert got.shape == ref.shape == (n, dim)
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bartlett_factor_bitwise(self, dim):
        got = _bartlett_factor(dim + 1.5, dim, RngStream(39).generator(), 500)
        ref = _stack_bartlett_factor(dim + 1.5, dim, RngStream(39).generator(), 500)
        assert got.tobytes() == ref.tobytes()


class TestFactorIdentities:
    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 5])
    def test_times_matches_batched_matmul(self, gen, rows, dim, n):
        # One row takes the batched branch, more rows the one-gemm reshape.
        # Summation order may differ with the BLAS build, so the bound is
        # relative to |stack| @ |m|, not bitwise.
        stack = gen.standard_normal((n, rows, dim))
        m = gen.standard_normal((dim, dim))
        got = _times(stack, m, np.empty((n, rows, dim)))
        assert got.shape == (n, rows, dim)
        assert np.all(np.abs(got - stack @ m) <= 1e-14 * (np.abs(stack) @ np.abs(m)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eigenvalues_match_sample_beta2(self, dim):
        # The eigenvalue path works from the Bartlett factors, the matrix path
        # from the symmetric root of S2; both consume the stream alike.
        p = BetaIIParams(dim + 2.0, dim + 8.0, dim)
        for seed in (30, 31):
            eigs = beta2_eigenvalues(p, RngStream(seed), 5000)
            ref = np.linalg.eigvalsh(sample_beta2(p, RngStream(seed), 5000))[:, ::-1]
            assert np.all(np.abs(eigs - ref) <= 1e-12 * ref[:, :1])

    def test_outer_wishart_is_gram_of_matrix_normal(self):
        noncen = SpdMat([[1.0, 0.5], [0.5, 2.0]])
        mean = np.zeros((5, 2))
        mean[:2] = sym_sqrt(noncen).array
        n = sample_matrix_normal(MatrixNormalParams(5, mean, SIGMA_2D), RngStream(32), size=1000)
        w = sample_wishart(WishartParams(5.0, SIGMA_2D, noncen), RngStream(32), size=1000)
        # Bitwise through the package's one Gram route; the matmul Gram of the
        # same factors agrees to rounding.
        assert np.array_equal(_gram(n), w)
        assert np.all(np.abs(np.swapaxes(n, -1, -2) @ n - w) <= 1e-12 * np.abs(w).max())


class TestNoncentralChisq:
    def test_central_mean(self):
        draws = sample_noncentral_chisq(4.0, 0.0, RngStream(22), size=200_000)
        assert draws.mean() == pytest.approx(4.0, rel=0.01)

    def test_noncentral_mean(self):
        draws = sample_noncentral_chisq(3.0, 2.0, RngStream(23), size=500_000)
        assert draws.mean() == pytest.approx(5.0, rel=0.01)

    def test_noncentral_variance(self):
        # Var = 2 dof + 4 noncen = 14 for dof 3, noncen 2.
        draws = sample_noncentral_chisq(3.0, 2.0, RngStream(24), size=1_000_000)
        assert draws.var() == pytest.approx(14.0, rel=0.03)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sample_noncentral_chisq(0.0, 1.0, RngStream(29))
        with pytest.raises(ValueError):
            sample_noncentral_chisq(2.0, -1.0, RngStream(29))

    def test_noncen_past_poisson_limit_is_named(self):
        # numpy's Poisson sampler takes rates up to about 9.22e18, so noncen up to about 1.84e19.
        assert sample_noncentral_chisq(2.0, 1.8e19, RngStream(30), size=2).shape == (2,)
        with pytest.raises(ValueError, match="^noncen must be non-negative and at most 1.84467e"):
            sample_noncentral_chisq(2.0, 1.9e19, RngStream(30), size=2)


class TestLogMgfStability:
    def test_large_dof_stays_finite(self):
        p = WishartParams(500.0, SIGMA_2D)
        value = wishart_log_mgf(p, 0.05 * np.eye(2))
        assert np.isfinite(value)
        assert value > 0.0
