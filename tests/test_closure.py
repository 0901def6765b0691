"""Tests for the mixture-closure machinery.

The closed-form parameter maps are checked against the scalar special case,
exact algebraic identities of the MGFs, and Monte Carlo draws from the
hierarchical construction.
"""

import json
import math
import re

import numpy as np
import pytest

from wishartmix import (
    MixtureSpec,
    RngStream,
    SpdMat,
    SymMat,
    UnsupportedDof,
    WishartParams,
    conjugation_params,
    default_probes,
    mixture_marginal_params,
    random_mixture_spec,
    sample_hierarchical,
    sample_wishart,
    sym_sqrt,
    verify_closure,
    wishart_mean,
    wishart_mgf,
)
from wishartmix.closure import CHECKS, MIN_VERIFY_DRAWS, VERIFY_ALPHA, _hierarchical_factor, check_law
from conftest import random_psd, random_spd

# Relative bound on round trips such as ``C^{-1} (C X C) C^{-1} == X``.
RECONSTRUCTION = 1e-8


def scalar_spec(nu: float, h: float, delta: float) -> MixtureSpec:
    return MixtureSpec(
        nu,
        SpdMat(1.0),
        SpdMat(1.0),
        SpdMat(h),
        SpdMat(delta) if delta else None,
    )


class TestConjugationParams:
    def test_identity_leaves_params_unchanged(self, gen):
        p = WishartParams(4.0, random_spd(2, gen), random_psd(2, gen))
        q = conjugation_params(p, SpdMat(np.eye(2)))
        np.testing.assert_allclose(q.scale.array, p.scale.array, atol=1e-14)
        np.testing.assert_allclose(q.noncen.array, p.noncen.array, atol=1e-14)

    def test_scalar_case(self):
        p = WishartParams(3.0, SpdMat(2.0), SpdMat(1.5))
        q = conjugation_params(p, SpdMat(4.0))
        assert q.dof == 3.0
        assert q.scale.array[0, 0] == pytest.approx(16.0 * 2.0)
        assert q.noncen.array[0, 0] == pytest.approx(16.0 * 1.5)

    def test_monte_carlo_mean(self, gen):
        p = WishartParams(5.0, random_spd(2, gen), random_psd(2, gen))
        c = random_spd(2, gen)
        draws = sample_wishart(p, RngStream(30), size=200_000)
        transformed = c.array @ draws @ c.array
        target = wishart_mean(conjugation_params(p, c)).array
        err = np.linalg.norm(transformed.mean(axis=0) - target) / np.linalg.norm(target)
        assert err < 0.02

    def test_inverse_is_associative(self, gen):
        p = WishartParams(5.0, random_spd(3, gen), random_psd(3, gen))
        c = random_spd(3, gen)
        back = conjugation_params(conjugation_params(p, c), np.linalg.inv(c.array))
        for got, want in ((back.scale, p.scale), (back.noncen, p.noncen)):
            err = np.linalg.norm(got.array - want.array) / max(1.0, np.linalg.norm(want.array))
            assert err < RECONSTRUCTION

    def test_mgf_identity(self, gen):
        # M_{CXC}(T) == M_X(C T C) as closed forms, to 1e-10 relative.
        for _ in range(20):
            p = WishartParams(4.0, random_spd(2, gen), random_psd(2, gen))
            c = random_spd(2, gen)
            scale = 0.1 / float(conjugation_params(p, c).scale.eigenvalues[-1])
            t = SymMat(scale * (gen.random((2, 2)) - 0.5))
            lhs = wishart_mgf(conjugation_params(p, c), t)
            rhs = wishart_mgf(p, SymMat(c.array @ t.array @ c.array))
            assert abs(lhs - rhs) / abs(rhs) < 1e-10

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: MixtureSpec(3.0, np.eye(3), np.eye(2), np.eye(2)), "inner_scale is 3x3 but the mixing law is 2-dimensional"),
            (lambda: conjugation_params(WishartParams(3.0, np.eye(2)), np.eye(3)), "C is 3x3 but the distribution is 2-dimensional"),
        ],
        ids=["mixture-spec", "conjugation"],
    )
    def test_dimension_mismatch_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValueError


class TestMixtureMarginalParams:
    @pytest.mark.parametrize("h", [0.25, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 3.0])
    def test_scalar_reduction(self, h, delta):
        # Unit scales: V = 1 + h and theta = h delta / (1 + h).
        params = mixture_marginal_params(scalar_spec(4.0, h, delta))
        assert params.scale.array[0, 0] == pytest.approx(1.0 + h, rel=1e-12)
        theta = params.theta()[0, 0]
        assert theta == pytest.approx(h * delta / (1.0 + h), rel=1e-12, abs=1e-12)

    def test_central_mixing_gives_central_marginal(self, gen):
        spec = random_mixture_spec(3, 5.0, gen, central=True)
        params = mixture_marginal_params(spec)
        assert params.is_central
        ah = sym_sqrt(spec.inner_scale).array
        hh = sym_sqrt(spec.coupling).array
        expected = ah @ (np.eye(3) + hh @ spec.mixing_scale.array @ hh) @ ah
        np.testing.assert_allclose(params.scale.array, expected, atol=1e-12)

    def test_all_identity_case(self):
        spec = MixtureSpec(
            5.0,
            SpdMat(np.eye(2)),
            SpdMat(np.eye(2)),
            SpdMat(np.eye(2)),
            SpdMat(np.eye(2)),
        )
        params = mixture_marginal_params(spec)
        np.testing.assert_allclose(params.scale.array, 2.0 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(params.noncen.array, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(params.theta(), 0.5 * np.eye(2), atol=1e-14)


class TestSampleHierarchical:
    def test_vanishing_coupling_limit(self, gen):
        a = random_spd(2, gen)
        spec = MixtureSpec(4.0, a, SpdMat(np.eye(2)), SpdMat(1e-3 * np.eye(2)))
        draws = sample_hierarchical(spec, RngStream(33), size=50_000)
        target = 4.0 * a.array
        assert np.linalg.norm(draws.mean(axis=0) - target) / np.linalg.norm(target) < 0.02

    def test_marginal_mean_matches_prediction(self):
        spec = random_mixture_spec(2, 5.0, RngStream(34))
        predicted = wishart_mean(mixture_marginal_params(spec)).array
        draws = sample_hierarchical(spec, RngStream(35), size=200_000)
        err = np.linalg.norm(draws.mean(axis=0) - predicted) / np.linalg.norm(predicted)
        assert err < 0.01

    def test_non_integer_dof_rejected(self):
        with pytest.raises(UnsupportedDof):
            sample_hierarchical(scalar_spec(4.5, 1.0, 0.0), RngStream(36))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_entry_variances_match_marginal(self, dim):
        # Exact second moments of the predicted W(nu, V, Delta):
        # Var(X_ij) = nu (V_ii V_jj + V_ij^2) + V_ii D_jj + V_jj D_ii + 2 V_ij D_ij,
        # against batch means of per-batch sample variances.
        spec = random_mixture_spec(dim, dim + 3.0, RngStream(47, dim))
        p = mixture_marginal_params(spec)
        v, delta = p.scale.array, p.noncen.array
        dv, dd = np.diag(v), np.diag(delta)
        exact = p.dof * (np.outer(dv, dv) + v * v) + np.outer(dv, dd) + np.outer(dd, dv) + 2.0 * v * delta
        batches = 50
        draws = sample_hierarchical(spec, RngStream(48, dim), size=200_000)
        batch_vars = draws.reshape(batches, -1, dim, dim).var(axis=1, ddof=1)
        se = batch_vars.std(axis=0, ddof=1) / math.sqrt(batches)
        iu = np.triu_indices(dim)
        assert np.all(np.abs(batch_vars.mean(axis=0) - exact)[iu] <= 4.0 * se[iu])


def theorem_mgf_conditioning_oracle(spec: MixtureSpec, t: SymMat, n: int, seed: int) -> float:
    """Estimate E[M_{X|Y}(T)] by Monte Carlo over the mixing draw Y.

    The conditional MGF has the closed form
    ``etr{T_A (I - 2 T_A)^{-1} Y_H} / det(I - 2 T_A)^{nu/2}`` with
    ``T_A = A^{1/2} T A^{1/2}``, so only Y needs sampling.
    """
    ah = sym_sqrt(spec.inner_scale).array
    hh = sym_sqrt(spec.coupling).array
    t_a = ah @ t.array @ ah
    core = t_a @ np.linalg.inv(np.eye(spec.dim) - 2.0 * t_a)
    log_det = np.log(np.linalg.det(np.eye(spec.dim) - 2.0 * t_a))
    y = sample_wishart(spec.mixing_params(), RngStream(seed), size=n)
    y_h = hh @ y @ hh
    return float(np.exp(np.einsum("ij,nij->n", core, y_h)).mean() * math.exp(-0.5 * spec.dof * log_det))


class TestTheoremMgfIdentity:
    def test_conditioning_monte_carlo_matches_marginal(self):
        spec = random_mixture_spec(2, 5.0, RngStream(37))
        predicted = mixture_marginal_params(spec)
        for t in default_probes(predicted.scale)[1:3]:
            closed = wishart_mgf(predicted, t)
            estimated = theorem_mgf_conditioning_oracle(spec, t, 1_000_000, seed=38)
            assert abs(estimated - closed) / closed < 0.02


class TestVerifyClosure:
    def test_central_scalar_battery_passes(self):
        report = verify_closure(scalar_spec(4.0, 1.5, 0.0), 100_000, RngStream(39))
        assert report.passed
        assert report.n_draws == 100_000

    def test_zero_probe_has_exactly_zero_error(self):
        report = verify_closure(scalar_spec(4.0, 1.0, 0.0), 20_000, RngStream(40))
        assert report.errors["mgf"][0] == 0.0
        assert report.bounds["mgf"][0] == 0.0
        assert report.worst()["mgf"] < 1.0

    def test_corrupted_prediction_fails(self):
        spec = random_mixture_spec(2, 5.0, RngStream(41))
        good = mixture_marginal_params(spec)
        bad = WishartParams(good.dof, SpdMat(1.1 * good.scale.array), good.noncen)
        report = check_law(_hierarchical_factor(spec), bad, 50_000, RngStream(42))
        assert not report.passed

    def test_small_runs_never_pass(self):
        report = verify_closure(scalar_spec(4.0, 1.0, 0.0), 5_000, RngStream(43))
        assert report.n_draws < MIN_VERIFY_DRAWS
        assert not report.passed
        assert report.summary().endswith(f"(fewer than {MIN_VERIFY_DRAWS} draws, cannot pass)")

    def test_report_round_trips_to_dict(self):
        report = verify_closure(scalar_spec(4.0, 1.0, 0.0), 20_000, RngStream(44))
        d = report.to_dict()
        assert set(d) == {"n_draws", "alpha", "passed", *CHECKS}
        assert d["alpha"] == VERIFY_ALPHA
        for check in CHECKS:
            assert d[check] == {"errors": list(report.errors[check]), "bounds": list(report.bounds[check])}
        assert json.loads(json.dumps(d)) == d
        assert report.summary().split()[0] == ("PASS" if report.passed else "FAIL")

    def test_deterministic_given_stream(self):
        spec = random_mixture_spec(2, 5.0, RngStream(45))
        r1 = verify_closure(spec, 20_000, RngStream(46))
        r2 = verify_closure(spec, 20_000, RngStream(46))
        assert r1 == r2


class TestDefaultProbes:
    def test_count_and_domain_margin(self, gen):
        v = random_spd(3, gen)
        probes = default_probes(v)
        assert len(probes) == 5
        assert not np.any(probes[0].array)
        lam_min_inv = 1.0 / float(v.eigenvalues[-1])
        v_inv = np.linalg.inv(v.array)
        for t in probes:
            margin = np.linalg.eigvalsh(v_inv - 2.0 * t.array).min()
            assert margin >= 0.5 * lam_min_inv - 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_probes_are_distinct(self, gen, dim):
        # At d = 1, E_11 is I: a fourth probe eps * E_11 would repeat the second.
        probes = [t.array for t in default_probes(random_spd(dim, gen))]
        assert all(not np.array_equal(s, t) for i, s in enumerate(probes) for t in probes[i + 1 :])
