"""Tests for the Monte Carlo p-value estimator and the calibration engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wishartmix import (
    BetaIIParams,
    DesignTable,
    McConfig,
    RngStream,
    SimulationSpec,
    SpdMat,
    StatisticFunctional,
    beta2_eigenvalues,
    mc_pvalue,
    null_calibration,
    run_report,
    scalar_statistic,
    simulate_design,
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
        with pytest.warns(UserWarning) as record:
            mc_pvalue(1.0, 4.0, 20.0, 2, McConfig(n_mc=100, seed=5))
        assert record[0].filename == __file__

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


class TestNullStatistics:
    """``_null_count``'s statistics: closed form in ``tr(CC')`` and ``det(CC')`` at ``d = 2``, eigenvalues elsewhere."""

    N = 262_147  # one draw past a Beta II batch at d = 2

    @pytest.mark.parametrize("dim,dof1,dof2", [(2, 2.0, 1.001), (1, 2.0, 0.002), (3, 4.0, 2.001)])
    def test_overflowing_draws_raise(self, dim, dof1, dof2):
        # dof2 this close to d - 1 underflows the Bartlett diagonal, so C
        # holds inf.  Such draws must raise, with no numpy RuntimeWarning
        # (an error under this suite's warning filter), rather than drop
        # out of the tail count and stay in n_mc.
        for fn in StatisticFunctional:
            with pytest.raises(ValueError, match=rf"dof1 = {dof1}, dof2 = {dof2}, d = {dim}"):
                mc_pvalue(0.5, dof1, dof2, dim, McConfig(n_mc=10_000, seed=1, functional=fn))

    @pytest.mark.parametrize("dof1,dof2", [(2.5, 3.0), (4.0, 20.0), (20.0, 120.0)])
    def test_d2_closed_form_matches_eigenvalues(self, dof1, dof2):
        from wishartmix.mc import _null_count, _null_statistics

        params = BetaIIParams(dof1, dof2, 2)
        eigs = beta2_eigenvalues(params, RngStream(41).generator(), self.N)
        for fn in StatisticFunctional:
            ref = scalar_statistic(eigs, fn)
            got = _null_statistics(params, RngStream(41).generator(), self.N, fn)
            if fn is StatisticFunctional.ROY:
                np.testing.assert_array_equal(got, ref)
            else:
                np.testing.assert_array_max_ulp(got, ref, maxulp=8)
            # Observed values midway between sorted null values: no draw sits near one.
            s = np.sort(ref)
            for k in (self.N // 100, self.N // 2, self.N - self.N // 100):
                obs = (s[k - 1] + s[k]) / 2
                count = np.count_nonzero(ref <= obs if fn.lower_tail else ref >= obs)
                assert _null_count(params, RngStream(41).generator(), self.N, fn, obs) == count

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dims_keep_the_eigenvalue_route(self, dim):
        from wishartmix.mc import _null_statistics

        params = BetaIIParams(4.5, 12.0, dim)
        eigs = beta2_eigenvalues(params, RngStream(42).generator(), 5000)
        for fn in StatisticFunctional:
            got = _null_statistics(params, RngStream(42).generator(), 5000, fn)
            np.testing.assert_array_equal(got, scalar_statistic(eigs, fn))


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
    """Reference: ``null_calibration``'s p-values by ``(factor, functional)``, each from its own dataset's eigenvalues.

    One null draw per dataset and factor is shared by all ``functionals``.
    """
    from wishartmix.manova import batched_statistic_eigs, dof_map, simulate_design, sop_arrays
    from wishartmix.mc import _DATASET_CHUNK, _null_stream

    factors = ("A", "B", "AB")
    dofs = dof_map(spec.levels_a, spec.levels_b, spec.reps)
    dof1 = dict(zip(factors, (dofs.nu_a, dofs.nu_b, dofs.nu_ab)))
    pvals = {(f, fn): [] for f in factors for fn in functionals}
    for chunk, done in enumerate(range(0, n_datasets, _DATASET_CHUNK)):
        m = min(_DATASET_CHUNK, n_datasets - done)
        sops = sop_arrays(simulate_design(spec, rng.generator(0, chunk), size=m))
        for factor, sop in zip(factors, sops):
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
        spec = SimulationSpec(3, 3, 2, 2, SpdMat(np.eye(2)))
        summary = null_calibration(spec, 0, McConfig(n_mc=1000, seed=7), RngStream(8))
        assert summary.n_datasets == 0
        assert summary.results == {}

    def test_null_rates_near_nominal(self):
        spec = SimulationSpec(4, 4, 3, 2, SpdMat(np.eye(2)))
        summary = null_calibration(spec, 300, McConfig(n_mc=1000, seed=9), RngStream(10))
        assert list(summary.results) == ["A", "B", "AB"]
        res = summary.results["A"]
        assert res.ks_pvalue > 0.01
        assert 0.02 <= res.rejection_rates[0.05] <= 0.09

    def test_power_against_strong_effect(self):
        from wishartmix import RandomEffect

        spec = SimulationSpec(
            5, 6, 5, 2, SpdMat(np.eye(2)),
            effect_a=RandomEffect(SpdMat(10.0 * np.eye(2))),
        )
        summary = null_calibration(spec, 200, McConfig(n_mc=1000, seed=11), RngStream(12))
        assert summary.results["A"].rejection_rates[0.05] >= 0.99
        # the other factors stay null-calibrated
        assert summary.results["B"].rejection_rates[0.05] < 0.15

    @pytest.mark.parametrize("dim,n_datasets", [(1, 9), (2, 260), (3, 9)])
    def test_pvalues_match_per_dataset_loop(self, dim, n_datasets):
        # 260 datasets cross the 256-dataset chunk boundary.
        spec = SimulationSpec(4, 4, 3, dim, SpdMat(np.eye(dim)))
        cfg = McConfig(n_mc=1000, seed=15)
        ref = _per_dataset_pvalues(spec, n_datasets, cfg, RngStream(16), tuple(StatisticFunctional))
        for fn in StatisticFunctional:
            summary = null_calibration(spec, n_datasets, dataclasses.replace(cfg, functional=fn), RngStream(16))
            for factor, res in summary.results.items():
                assert res.pvalues.tobytes() == np.array(ref[(factor, fn)]).tobytes()

    def test_deterministic(self):
        spec = SimulationSpec(3, 3, 2, 2, SpdMat(np.eye(2)))
        cfg = McConfig(n_mc=500, seed=13)
        with pytest.warns(UserWarning) as record:
            a = null_calibration(spec, 50, cfg, RngStream(14))
            b = null_calibration(spec, 50, cfg, RngStream(14))
        assert {w.filename for w in record} == {__file__}
        np.testing.assert_array_equal(a.results["A"].pvalues, b.results["A"].pvalues)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_report_gives_dataset_zero_pvalues(self, dim):
        # At n_mc within one chunk, run_report (what manova prints) and
        # null_calibration (what calibrate certifies) draw the same null set
        # for dataset 0, so they give the same p-values bit for bit.
        spec = SimulationSpec(5, 4, 3, dim, SpdMat(np.eye(dim)))
        cfg = McConfig(n_mc=1000, seed=21)
        table = DesignTable(simulate_design(spec, RngStream(22).generator(0, 0), size=3)[0])
        for fn in StatisticFunctional:
            fn_cfg = dataclasses.replace(cfg, functional=fn)
            summary = null_calibration(spec, 3, fn_cfg, RngStream(22))
            for fr in run_report(table, fn_cfg).factors:
                assert fr.p.p_hat == summary.results[fr.name].pvalues[0]
            assert [line.split()[2] for line in summary.to_text().splitlines()[1:]] == [fn.value] * 3
