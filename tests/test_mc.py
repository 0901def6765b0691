"""Tests for the Monte Carlo p-value estimator and the calibration engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wishartmix import (
    BetaIIParams,
    McConfig,
    RngStream,
    SimulationSpec,
    StatisticFunctional,
    assert_pd,
    beta2_eigenvalues,
    mc_pvalue,
    null_calibration,
    scalar_statistic,
)

HL = StatisticFunctional.HOTELLING_LAWLEY


class TestEstimateAlgebra:
    @given(n_extreme=st.integers(0, 2000), n_mc=st.integers(1, 2000))
    @settings(max_examples=80, deadline=None)
    def test_add_one_identities(self, n_extreme, n_mc):
        from wishartmix.mc import _estimate

        n_extreme = min(n_extreme, n_mc)
        est = _estimate(n_extreme, n_mc)
        assert est.p_hat == pytest.approx((1 + n_extreme) / (1 + n_mc))
        assert est.mc_se == pytest.approx(np.sqrt(est.p_hat * (1 - est.p_hat) / n_mc))
        assert 1 / (1 + n_mc) <= est.p_hat <= 1.0
        assert est.p_raw == pytest.approx(n_extreme / n_mc)


class TestMcPvalue:
    def test_minimal_statistic_gives_one(self):
        est = mc_pvalue(0.0, 4.0, 20.0, 2, McConfig(n_mc=2000, seed=1, functional=HL))
        assert est.n_extreme == est.n_mc
        assert est.p_hat == 1.0

    def test_saturated_tail(self):
        est = mc_pvalue(1e12, 4.0, 20.0, 2, McConfig(n_mc=2000, seed=1, functional=HL))
        assert est.n_extreme == 0
        assert est.p_hat == pytest.approx(1.0 / 2001.0)

    def test_wilks_lower_tail(self):
        cfg = McConfig(n_mc=2000, seed=1, functional=StatisticFunctional.WILKS)
        assert mc_pvalue(0.0, 4.0, 20.0, 2, cfg).n_extreme == 0
        assert mc_pvalue(1.0, 4.0, 20.0, 2, cfg).p_hat == 1.0

    def test_monotone_in_observed(self):
        cfg = McConfig(n_mc=4000, seed=2, functional=HL)
        observed = np.linspace(0.0, 5.0, 25)
        p = [mc_pvalue(o, 4.0, 20.0, 2, cfg).p_hat for o in observed]
        assert all(a >= b for a, b in zip(p, p[1:]))
        cfg_w = dataclasses.replace(cfg, functional=StatisticFunctional.WILKS)
        p_w = [mc_pvalue(o, 4.0, 20.0, 2, cfg_w).p_hat for o in np.linspace(0.0, 1.0, 25)]
        assert all(a <= b for a, b in zip(p_w, p_w[1:]))

    def test_deterministic(self):
        cfg = McConfig(n_mc=70_000, seed=3, functional=HL)  # spans two draw chunks
        a = mc_pvalue(2.0, 4.0, 20.0, 2, cfg)
        b = mc_pvalue(2.0, 4.0, 20.0, 2, cfg)
        assert a == b

    def test_matching_dofs_share_draws(self):
        cfg = McConfig(n_mc=2000, seed=4, functional=HL)
        a = mc_pvalue(1.5, 4.0, 20.0, 2, cfg)
        b = mc_pvalue(1.5, 4.0, 20.0, 2, cfg)
        assert a.n_extreme == b.n_extreme

    def test_small_n_mc_warns(self):
        with pytest.warns(UserWarning):
            mc_pvalue(1.0, 4.0, 20.0, 2, McConfig(n_mc=100, seed=5))

    def test_dof_validation(self):
        with pytest.raises(ValueError):
            mc_pvalue(1.0, 1.0, 20.0, 2, McConfig(seed=6))

    def test_non_finite_observed_rejected(self):
        with pytest.raises(ValueError):
            mc_pvalue(float("nan"), 4.0, 20.0, 2, McConfig(seed=6))
        with pytest.raises(ValueError):
            mc_pvalue(float("inf"), 4.0, 20.0, 2, McConfig(seed=6))

    def test_self_calibration(self):
        # Statistics drawn from the null itself give uniform p_hat; fresh
        # null sets per replicate via the config seed.
        params = BetaIIParams(4.0, 20.0, 2)
        observed = scalar_statistic(beta2_eigenvalues(params, RngStream(777), 500), HL)
        p = [
            mc_pvalue(o, 4.0, 20.0, 2, McConfig(n_mc=2000, seed=1000 + i, functional=HL)).p_hat
            for i, o in enumerate(observed)
        ]
        assert stats.kstest(p, "uniform").statistic < 0.06


def _within_band(est, p_exact):
    return abs(est.p_hat - p_exact) <= 4.0 * est.mc_se + 1.0 / (est.n_mc + 1)


def _wilks_d2_exact_pvalue(lam, nu_h, nu_e):
    # Anderson (2003), section 8.4: for d = 2,
    # ((1 - sqrt(L)) / sqrt(L)) (nu_e - 1) / nu_h ~ F(2 nu_h, 2 (nu_e - 1)).
    root = np.sqrt(lam)
    return stats.f.sf((1.0 - root) / root * (nu_e - 1) / nu_h, 2 * nu_h, 2 * (nu_e - 1))


class TestExactOracles:
    DOFS = [(4, 60), (5, 60), (20, 60)]
    TAILS = [0.5, 0.1, 0.01]

    @pytest.mark.parametrize("nu1,nu2", DOFS)
    def test_d1_hotelling_lawley_matches_f(self, nu1, nu2):
        # d = 1: the single eigenvalue is (nu1 / nu2) F(nu1, nu2).
        cfg = McConfig(n_mc=20_000, seed=31, functional=HL)
        for tail in self.TAILS:
            observed = nu1 / nu2 * stats.f.isf(tail, nu1, nu2)
            est = mc_pvalue(observed, nu1, nu2, 1, cfg)
            assert _within_band(est, stats.f.sf(observed * nu2 / nu1, nu1, nu2))

    @pytest.mark.parametrize("nu_h,nu_e", DOFS)
    def test_d2_wilks_matches_exact_f_law(self, nu_h, nu_e):
        cfg = McConfig(n_mc=20_000, seed=32, functional=StatisticFunctional.WILKS)
        for tail in self.TAILS:
            f_crit = stats.f.isf(tail, 2 * nu_h, 2 * (nu_e - 1))
            observed = (1.0 / (1.0 + f_crit * nu_h / (nu_e - 1))) ** 2
            est = mc_pvalue(observed, nu_h, nu_e, 2, cfg)
            assert _within_band(est, _wilks_d2_exact_pvalue(observed, nu_h, nu_e))


def _per_dataset_pvalues(spec, n_datasets, cfg, rng, functionals):
    """Reference: ``null_calibration``'s p-values, each observed statistic taken from its own dataset's eigenvalues."""
    from wishartmix.manova import FACTORS, batched_statistic_eigs, dof_map, simulate_design, sop_arrays
    from wishartmix.mc import _DATASET_CHUNK, _null_stream

    dofs = dof_map(spec.levels_a, spec.levels_b, spec.reps)
    dof1 = dict(zip(FACTORS, (dofs.nu_a, dofs.nu_b, dofs.nu_ab)))
    pvals = {(f, fn): [] for f in FACTORS for fn in functionals}
    for chunk, done in enumerate(range(0, n_datasets, _DATASET_CHUNK)):
        m = min(_DATASET_CHUNK, n_datasets - done)
        sops = sop_arrays(simulate_design(spec, rng.generator(0, chunk), size=m))
        for factor, sop in zip(FACTORS, sops):
            eigs_obs = batched_statistic_eigs(sop, sops[3])
            params = BetaIIParams(dof1[factor], dofs.nu_e, spec.dim)
            stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
            for i in range(m):
                eigs_null = beta2_eigenvalues(params, stream.generator(done + i), cfg.n_mc)
                for fn in functionals:
                    stats_null = scalar_statistic(eigs_null, fn)
                    obs = float(scalar_statistic(eigs_obs[i], fn))
                    extreme = stats_null <= obs if fn.lower_tail else stats_null >= obs
                    pvals[(factor, fn)].append((1 + int(np.count_nonzero(extreme))) / (1 + cfg.n_mc))
    return pvals


class TestNullCalibration:
    def test_empty_run(self):
        spec = SimulationSpec(3, 3, 2, 2, assert_pd(np.eye(2)))
        summary = null_calibration(spec, 0, McConfig(n_mc=1000, seed=7), RngStream(8))
        assert summary.n_datasets == 0
        assert summary.results == {}

    def test_null_rates_near_nominal(self):
        spec = SimulationSpec(4, 4, 3, 2, assert_pd(np.eye(2)))
        summary = null_calibration(spec, 300, McConfig(n_mc=1000, seed=9), RngStream(10))
        res = summary.get("A", HL)
        assert res.ks_pvalue > 0.01
        assert 0.02 <= res.rejection_rates[0.05] <= 0.09

    def test_power_against_strong_effect(self):
        from wishartmix import RandomEffect

        spec = SimulationSpec(
            5, 6, 5, 2, assert_pd(np.eye(2)),
            effect_a=RandomEffect(assert_pd(10.0 * np.eye(2))),
        )
        summary = null_calibration(spec, 200, McConfig(n_mc=1000, seed=11), RngStream(12))
        assert summary.get("A", HL).rejection_rates[0.05] >= 0.99
        # the other factors stay null-calibrated
        assert summary.get("B", HL).rejection_rates[0.05] < 0.15

    @pytest.mark.parametrize("dim,n_datasets", [(1, 9), (2, 260), (3, 9)])
    def test_pvalues_match_per_dataset_loop(self, dim, n_datasets):
        # 260 datasets cross the 256-dataset chunk boundary.
        spec = SimulationSpec(4, 4, 3, dim, assert_pd(np.eye(dim)))
        cfg = McConfig(n_mc=1000, seed=15)
        fns = tuple(StatisticFunctional)
        summary = null_calibration(spec, n_datasets, cfg, RngStream(16), fns)
        ref = _per_dataset_pvalues(spec, n_datasets, cfg, RngStream(16), fns)
        for key, p in ref.items():
            assert summary.results[key].pvalues.tobytes() == np.array(p).tobytes()

    def test_deterministic(self):
        spec = SimulationSpec(3, 3, 2, 2, assert_pd(np.eye(2)))
        cfg = McConfig(n_mc=500, seed=13)
        with pytest.warns(UserWarning):
            a = null_calibration(spec, 50, cfg, RngStream(14))
            b = null_calibration(spec, 50, cfg, RngStream(14))
        np.testing.assert_array_equal(a.get("A", HL).pvalues, b.get("A", HL).pvalues)
