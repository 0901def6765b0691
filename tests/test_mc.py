"""Tests for the Monte Carlo p-value estimator and the calibration engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wishartmix import (
    BetaIIParams,
    DesignTable,
    McConfig,
    RandomEffect,
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


def _massart(ks_stat: float, n: int) -> float:
    """The DKW-Massart bound on the KS p-value at distance ``ks_stat`` over ``n`` samples."""
    return min(1.0, 2.0 * math.exp(-2.0 * n * ks_stat**2))


class TestEstimateAlgebra:
    @given(n_extreme=st.integers(0, 39), n_mc=st.integers(1, 2000))
    @settings(max_examples=80, deadline=None)
    def test_add_one_identities(self, n_extreme, n_mc):
        # A count short of h = 40 extreme draws has drawn all n_mc.
        from wishartmix.mc import _H, _estimate

        assert n_extreme < _H
        n_extreme = min(n_extreme, n_mc)
        est = _estimate(n_extreme, n_mc, n_mc)
        assert est.p_hat == pytest.approx((1 + n_extreme) / (1 + n_mc))
        assert est.mc_se == pytest.approx(np.sqrt(est.p_hat * (1 - est.p_hat) / n_mc))
        assert 1 / (1 + n_mc) <= est.p_hat <= 1.0
        assert est.p_raw == pytest.approx(n_extreme / n_mc)


def _estimate_table(n_mc):
    """``(p_hat, mc_se)`` of every outcome, as two tables.

    Row ``k`` of the first: the count stopped at draw ``k``.  Row ``g`` of
    the second: all ``n_mc`` drawn, ``g < h`` of them extreme.
    """
    from wishartmix.mc import _H, _estimate

    stopped = [_estimate(_H, k, n_mc) for k in range(_H, n_mc + 1)]
    drawn_all = [_estimate(g, n_mc, n_mc) for g in range(_H)]
    as_array = lambda ests: np.array([(e.p_hat, e.mc_se) for e in ests])  # noqa: E731
    return np.concatenate([np.full((_H, 2), np.nan), as_array(stopped)]), as_array(drawn_all)


class TestSequentialEstimate:
    """The Besag-Clifford count and estimate, apart from the sampler."""

    @pytest.mark.parametrize("cap", [1 << 16, 256])
    def test_stop_position_does_not_depend_on_batches(self, cap, monkeypatch):
        # The null statistics are fixed rows, so batching cannot change
        # them; one-draw batches then give the exact stopping draw.  All
        # rows are counted at once, and each row's count is its count alone.
        import itertools

        from wishartmix import mc

        values = np.random.default_rng(51).random((8, 3000))
        monkeypatch.setattr(
            mc, "_beta2_draws",
            lambda params, its, n, shape, kernel: np.array([np.fromiter(itertools.islice(it, n), float) for it in its]),
        )
        monkeypatch.setattr(mc, "_MC_CHUNK", cap)
        params = BetaIIParams(4.0, 20.0, 2)
        levels = [0.0, 0.003, 0.02, 0.3, 0.9, 0.97, 0.995, 1.0]
        observed = np.array([np.quantile(row, level) for row, level in zip(values, levels)])
        for fn in (HL, StatisticFunctional.WILKS):
            doubling = mc._null_counts(params, [iter(row) for row in values], values.shape[1], fn, observed)
            with monkeypatch.context() as one:
                one.setattr(mc, "_FIRST_BATCH", 1)
                one.setattr(mc, "_MC_CHUNK", 1)
                one_draw = mc._null_counts(params, [iter(row) for row in values], values.shape[1], fn, observed)
            np.testing.assert_array_equal(one_draw, doubling)
            for row, obs, g, k in zip(values, observed, *doubling):
                np.testing.assert_array_equal(mc._null_counts(params, [iter(row)], values.shape[1], fn, [obs]), ([g], [k]))

    @pytest.mark.parametrize("n_mc", [2000, 100_000])
    def test_stopped_se_keeps_the_benchmark_rule(self, n_mc):
        # perfbench/checks.py accepts |p_hat - p| <= 4 mc_se + 1 / (n_mc + 1).
        # Over p ~ U(0, 1), draw the position k of the h-th extreme draw
        # (negative binomial) and, past n_mc, the extreme count g among the
        # first n_mc (hypergeometric, given k).  The shrunk se keeps the rule
        # within a 2e-4 miss rate; the plain delta se p_hat sqrt((1 - p_hat) / h),
        # 0 at k = h, does not.
        from wishartmix.mc import _H

        gen = np.random.default_rng(52)
        n = 1_000_000
        p = 1.0 - gen.random(n)
        k = _H + gen.negative_binomial(_H, p)
        stopped = k <= n_mc
        g = gen.hypergeometric(_H - 1, k - _H, np.minimum(n_mc, k - 1))
        by_k, by_g = _estimate_table(n_mc)
        p_hat, se = np.where(stopped[:, None], by_k[np.minimum(k, n_mc)], by_g[np.minimum(g, _H - 1)]).T
        delta_se = np.where(stopped, p_hat * np.sqrt((1.0 - p_hat) / _H), se)
        slack = np.abs(p_hat - p) - 1.0 / (n_mc + 1)
        assert np.mean(slack > 4.0 * se) <= 2e-4
        assert np.mean(slack > 4.0 * delta_se) > 2e-4

    @pytest.mark.parametrize("n_mc", [50, 1000, 2000, 100_000])
    def test_exactly_valid(self, n_mc):
        # Under the null the observed tail probability u is U(0, 1).  Given u,
        # the stop k is negative binomial; over u, P(stop at k) = h / (k (k + 1))
        # for h <= k <= n_mc and P(all n_mc drawn, g extreme) = 1 / (n_mc + 1)
        # for each g < h.  So P(p_hat <= alpha) is an exact sum.
        import math

        from wishartmix.mc import CALIBRATION_LEVELS, _H

        by_k, by_g = _estimate_table(n_mc)
        ks = np.arange(_H, n_mc + 1)
        outcomes = [(_H / (k * (k + 1)), by_k[k, 0]) for k in ks] + [(1 / (n_mc + 1), p) for p in by_g[:, 0]]
        assert math.fsum(prob for prob, _ in outcomes) == pytest.approx(1.0, abs=1e-12)
        for alpha in CALIBRATION_LEVELS:
            assert math.fsum(prob for prob, p in outcomes if p <= alpha) <= alpha + 1e-12

    @pytest.mark.parametrize("n_mc", [50, 1000])
    def test_law_steps_at_each_value(self, n_mc):
        # The two sides of calibrate's KS comparison: by the exact sums, at
        # each value v of the estimate P(p_hat <= v) = v, and P(p_hat < v)
        # is _value_below, the next smaller value.
        from wishartmix.mc import _H, _estimate, _value_below

        ests = [_estimate(_H, k, n_mc) for k in range(_H, n_mc + 1)] + [_estimate(g, n_mc, n_mc) for g in range(_H)]
        probs = np.array([_H / (k * (k + 1)) for k in range(_H, n_mc + 1)] + [1 / (n_mc + 1)] * _H)
        order = np.argsort([est.p_hat for est in ests])
        cdf = np.cumsum(probs[order])
        np.testing.assert_allclose(cdf, [ests[i].p_hat for i in order], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.r_[0.0, cdf[:-1]], [_value_below(ests[i]) for i in order], rtol=0, atol=1e-12)

    def test_ks_distance_to_a_continuous_law_is_scipys(self):
        from wishartmix.mc import _ks_distance

        p = np.random.default_rng(53).random(500)
        p[:20] = p[20:40]  # ties
        assert _ks_distance(p, p) == pytest.approx(stats.kstest(p, "uniform").statistic, rel=0, abs=1e-15)


class TestMcPvalue:
    def test_minimal_statistic_gives_one(self):
        # Every draw is extreme, so the count stops at its h-th draw.
        from wishartmix.mc import _H

        est = mc_pvalue(0.0, 4.0, 20.0, 2, McConfig(n_mc=2000, seed=1, functional=HL))
        assert est.n_extreme == _H
        assert est.n_drawn == _H
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
        cfg = McConfig(n_mc=70_000, seed=3, functional=HL)  # a cap past the 65,536-draw batch cap
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
    """``_null_counts``' statistics: closed form in ``tr(CC')`` and ``det(CC')`` at ``d = 2``, eigenvalues elsewhere."""

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

    @staticmethod
    def _count_cases(ref, n, fn):
        """Observed values midway between sorted null values, and the ``(g, k)`` each gives over ``ref``.

        No draw sits near one; the outer two leave fewer than h draws in one tail.
        """
        from wishartmix.mc import _H

        s = np.sort(ref)
        observed, expected = [], []
        for k in (20, n // 100, n // 2, n - n // 100, n - 20):
            obs = (s[k - 1] + s[k]) / 2
            extreme = np.flatnonzero(ref <= obs if fn.lower_tail else ref >= obs)
            observed.append(obs)
            expected.append((_H, extreme[_H - 1] + 1) if extreme.size >= _H else (extreme.size, n))
        return observed, expected

    @pytest.mark.parametrize("dof1,dof2", [(2.5, 3.0), (4.0, 20.0), (20.0, 120.0)])
    def test_d2_closed_form_matches_eigenvalues(self, dof1, dof2, monkeypatch):
        from wishartmix import mc
        from wishartmix.distributions import _beta2_draws
        from wishartmix.mc import _d2_kernel, _null_counts

        # One batch of all N draws, so _null_counts draws what beta2_eigenvalues does.
        monkeypatch.setattr(mc, "_FIRST_BATCH", self.N)
        monkeypatch.setattr(mc, "_MC_CHUNK", self.N)

        params = BetaIIParams(dof1, dof2, 2)
        eigs = beta2_eigenvalues(params, RngStream(41).generator(), self.N)
        for fn in StatisticFunctional:
            ref = scalar_statistic(eigs, fn)
            got = _beta2_draws(params, [RngStream(41).generator()], self.N, (), _d2_kernel(fn))[0]
            if fn is StatisticFunctional.ROY:
                np.testing.assert_array_equal(got, ref)
            else:
                np.testing.assert_array_max_ulp(got, ref, maxulp=8)
            observed, expected = self._count_cases(ref, self.N, fn)
            g, k = _null_counts(params, [RngStream(41).generator() for _ in observed], self.N, fn, observed)
            assert list(zip(g.tolist(), k.tolist())) == expected

    @pytest.mark.parametrize("dim", [1, 3])
    def test_other_dims_keep_the_eigenvalue_route(self, dim, monkeypatch):
        from wishartmix import mc
        from wishartmix.mc import _null_counts

        monkeypatch.setattr(mc, "_FIRST_BATCH", 5000)
        monkeypatch.setattr(mc, "_MC_CHUNK", 5000)
        params = BetaIIParams(4.5, 12.0, dim)
        eigs = beta2_eigenvalues(params, RngStream(42).generator(), 5000)
        for fn in StatisticFunctional:
            observed, expected = self._count_cases(scalar_statistic(eigs, fn), 5000, fn)
            g, k = _null_counts(params, [RngStream(42).generator() for _ in observed], 5000, fn, observed)
            assert list(zip(g.tolist(), k.tolist())) == expected


class TestRowBatchedCounts:
    """``_null_counts`` over many generators gives each row the count it gets alone, bit for bit."""

    @pytest.mark.parametrize("patch", ["none", "row-groups", "draw-batches"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_count_as_alone(self, dim, patch, monkeypatch):
        # "row-groups": at most 256 draws per slab, so a round splits into
        # groups of rows.  "draw-batches": 50 Beta II draws per batch, so a
        # row's round spans several _draw_stack batches, as it does at d >= 5.
        from wishartmix import distributions, mc
        from wishartmix.mc import _H, _null_counts

        if patch == "row-groups":
            monkeypatch.setattr(mc, "_MC_CHUNK", 256)
        if patch == "draw-batches":
            monkeypatch.setattr(distributions, "_CHUNK_SCALARS", 4 * dim * dim * 50)
        params = BetaIIParams(dim + 2.5, dim + 14.0, dim)
        stream, n_mc = RngStream(61, dim), 3000
        levels = [0.0005, 0.005, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98, 0.995, 0.9995]
        for fn in StatisticFunctional:
            null = scalar_statistic(beta2_eigenvalues(params, RngStream(62, dim), 4000), fn)
            observed = np.quantile(null, levels)
            g, k = _null_counts(params, [stream.generator(i) for i in range(len(levels))], n_mc, fn, observed)
            assert g.max() == _H and k.max() == n_mc and k.min() < 256  # rows stop in different rounds
            for i, obs in enumerate(observed):
                alone = _null_counts(params, [stream.generator(i)], n_mc, fn, [obs])
                assert (g[i], k[i]) == (alone[0][0], alone[1][0])


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


def _sequential_pvalue(stats_null, observed, lower_tail, n_mc):
    """Besag-Clifford p-value, one null draw at a time: ``h / k`` at the ``h``-th extreme draw ``k``, else add-one."""
    from wishartmix.mc import _H

    g = 0
    for k, value in enumerate(stats_null, 1):
        g += bool(value <= observed if lower_tail else value >= observed)
        if g == _H:
            return _H / k
    return (g + 1) / (n_mc + 1)


def _null_eigenvalues(params, gen, n_mc):
    """All ``n_mc`` null eigenvalues, drawn in the sequential count's batches (64, 128, ..., at most ``_MC_CHUNK``)."""
    from wishartmix.mc import _FIRST_BATCH, _MC_CHUNK

    batches, done, batch = [], 0, _FIRST_BATCH
    while done < n_mc:
        batches.append(beta2_eigenvalues(params, gen, min(batch, n_mc - done)))
        done, batch = done + batches[-1].shape[0], min(2 * batch, _MC_CHUNK)
    return np.concatenate(batches)


def _per_dataset_pvalues(spec, n_datasets, cfg, rng, functionals):
    """Reference: ``null_calibration``'s p-values by ``(factor, functional)``, each from its own dataset's eigenvalues.

    One null draw per dataset and factor is shared by all ``functionals``.
    """
    from wishartmix.manova import batched_statistic_eigs, simulate_design, sop_arrays
    from wishartmix.mc import _DATASET_CHUNK, _null_stream

    factors = ("A", "B", "AB")
    a, b, n = spec.levels_a, spec.levels_b, spec.reps
    dof1, nu_e = dict(zip(factors, (a - 1, b - 1, (a - 1) * (b - 1)))), a * b * (n - 1)
    pvals = {(f, fn): [] for f in factors for fn in functionals}
    for chunk, done in enumerate(range(0, n_datasets, _DATASET_CHUNK)):
        m = min(_DATASET_CHUNK, n_datasets - done)
        sops = sop_arrays(simulate_design(spec, rng.generator(0, chunk), size=m))
        for factor, sop in zip(factors, sops):
            eigs_obs = batched_statistic_eigs(sop, sops[3])
            params = BetaIIParams(dof1[factor], nu_e, spec.dim)
            stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
            for i in range(m):
                eigs_null = _null_eigenvalues(params, stream.generator(done + i), cfg.n_mc)
                for fn in functionals:
                    obs = float(scalar_statistic(eigs_obs[i], fn))
                    p = _sequential_pvalue(scalar_statistic(eigs_null, fn), obs, fn.lower_tail, cfg.n_mc)
                    pvals[(factor, fn)].append(p)
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

    def test_ks_accepts_the_exact_sequential_law(self, monkeypatch):
        # A stand-in count draws (g, k) from the exact null law of the
        # sequential count: P(stop at k or later) = h / k, so k = floor(h / v)
        # for v ~ U(0, 1]; a k past n_mc leaves g uniform on 0, ..., h - 1.
        # The law's atom at 1 (mass 1 / 41) puts it 0.0244 from U(0, 1), which
        # 20,000 datasets reject; compared with the law itself, they do not.
        from wishartmix import mc

        rows = []

        def exact_law_counts(params, gens, n_mc, fn, observed):
            rows.append(len(gens))
            counts = []
            for gen in gens:
                k = int(mc._H / (1.0 - gen.random()))
                counts.append((mc._H, k) if k <= n_mc else (int(gen.integers(mc._H)), n_mc))
            g, k = zip(*counts)
            return np.array(g), np.array(k)

        monkeypatch.setattr(mc, "_null_counts", exact_law_counts)
        spec = SimulationSpec(2, 2, 2, 1, SpdMat(np.eye(1)))
        summary = null_calibration(spec, 20_000, McConfig(n_mc=1000, seed=17), RngStream(18))
        assert sum(rows) == 3 * 20_000  # the stand-in counted every dataset, not the null engine
        for res in summary.results.values():
            assert res.ks_pvalue > 0.01
            assert stats.kstest(res.pvalues, "uniform").pvalue < 1e-6
            assert _massart(mc._ks_distance(res.pvalues, res.pvalues), 20_000) < 1e-6

    @pytest.mark.parametrize("n_datasets", [1, 5, 20])
    def test_ks_pvalue_is_the_massart_bound(self, n_datasets):
        spec = SimulationSpec(3, 3, 2, 2, SpdMat(np.eye(2)))
        summary = null_calibration(spec, n_datasets, McConfig(n_mc=1000, seed=23), RngStream(24))
        for res in summary.results.values():
            assert res.ks_pvalue == _massart(res.ks_stat, n_datasets)

    @pytest.mark.parametrize("n", [1, 5, 20, 200, 500, 20_000])
    def test_massart_bound_is_never_below_kstwo(self, n):
        # The bound holds for any law, so it is at least the exact continuous-law p-value.  At
        # n = 20,000 kstwo.sf costs about 16 ms per distance below 0.13, so that n takes a grid
        # spacing of 0.001, which is 0.14 / sqrt(n).
        distances = np.linspace(0.0, 1.0, 1_001 if n == 20_000 else 10_001)[1:]
        bound = np.array([_massart(d, n) for d in distances.tolist()])
        assert np.all(bound >= stats.kstwo.sf(distances, n))

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

    def test_row_groups_bound_memory(self):
        # Every A row draws all 70,000 null draws.  Rows are counted in
        # groups of at most 65,536 draws, the batch cap of a lone count, so
        # the peak stays near that of one count that draws a full 65,536-draw
        # batch (at 70,000 a lone count's largest batch is 32,768 draws, half
        # a group's).  A slab of all 20 rows would take 20 times its memory.
        import tracemalloc

        from wishartmix import RandomEffect
        from wishartmix.mc import _H, _MC_CHUNK

        spec = SimulationSpec(5, 6, 5, 2, SpdMat(np.eye(2)), effect_a=RandomEffect(SpdMat(10.0 * np.eye(2))))
        cfg = McConfig(n_mc=70_000, seed=11)
        tracemalloc.start()
        try:
            assert mc_pvalue(1e12, 4.0, 20.0, 2, dataclasses.replace(cfg, n_mc=3 * _MC_CHUNK)).n_drawn == 3 * _MC_CHUNK
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            summary = null_calibration(spec, 20, cfg, RngStream(12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(summary.results["A"].pvalues < _H / cfg.n_mc)  # all 70,000 drawn
        assert peak <= 2 * one

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

    @pytest.mark.parametrize(
        "dim,n_mc,effect_a",
        [(1, 1000, 0.0), (2, 1000, 0.0), (3, 1000, 0.0), (2, 70_000, 10.0)],
        ids=["1", "2", "3", "2-strong-A-70000"],
    )
    def test_report_gives_dataset_zero_pvalues(self, dim, n_mc, effect_a):
        # run_report (what manova prints) and null_calibration (what
        # calibrate certifies) draw the same null stream for dataset 0, so
        # they give the same p-values bit for bit.  With a strong A effect,
        # A's count draws all 70,000, past the first 65,536 null draws.
        from wishartmix import RandomEffect

        effect = RandomEffect(SpdMat(effect_a * np.eye(dim))) if effect_a else None
        spec = SimulationSpec(5, 4, 3, dim, SpdMat(np.eye(dim)), effect_a=effect)
        cfg = McConfig(n_mc=n_mc, seed=21)
        table = DesignTable(simulate_design(spec, RngStream(22).generator(0, 0), size=3)[0])
        for fn in StatisticFunctional:
            fn_cfg = dataclasses.replace(cfg, functional=fn)
            summary = null_calibration(spec, 3, fn_cfg, RngStream(22))
            for fr in run_report(table, fn_cfg).factors:
                assert fr.p.p_hat == summary.results[fr.name].pvalues[0]
                assert fr.name != "A" or not effect_a or fr.p.n_drawn == n_mc
            assert [line.split()[2] for line in summary.to_text().splitlines()[1:]] == [fn.value] * 3


def _binomial_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Exact two-sided acceptance band ``[lo, hi]`` of a Binomial(n, p) count at level ``alpha``."""
    return int(stats.binom.ppf(alpha / 2, n, p)), int(stats.binom.isf(alpha / 2, n, p))


class TestRandomInteraction:
    # 5 x 6 x 3 at d = 2, Sigma_e = Sigma_AB = I, no A or B effect: the A and B nulls hold.
    SPEC = SimulationSpec(5, 6, 3, 2, SpdMat(np.eye(2)), effect_ab=RandomEffect(SpdMat(np.eye(2))))
    DATASETS = 200

    @pytest.mark.parametrize("functional", [HL, StatisticFunctional.WILKS])
    def test_main_effects_calibrated_only_against_ab(self, functional):
        # The rejection counts at 0.05 lie in the exact two-sided 1 - 1e-6 binomial band when A and
        # B are tested against SOP_AB, and far above it when they are tested against SOP_E.
        lo, hi = _binomial_band(self.DATASETS, 0.05, 1e-6)
        cfg = McConfig(n_mc=2000, seed=7, functional=functional)
        random = null_calibration(self.SPEC, self.DATASETS, cfg, RngStream(3), interaction="random")
        fixed = null_calibration(self.SPEC, self.DATASETS, cfg, RngStream(3), interaction="fixed")
        for factor in ("A", "B"):
            assert lo <= round(self.DATASETS * random.results[factor].rejection_rates[0.05]) <= hi
            assert round(self.DATASETS * fixed.results[factor].rejection_rates[0.05]) > hi
        # AB is tested against SOP_E in both modes, on the same tables and null streams.
        assert random.results["AB"].pvalues.tobytes() == fixed.results["AB"].pvalues.tobytes()

    def test_summary_names_each_denominator(self):
        summary = null_calibration(self.SPEC, 5, McConfig(n_mc=1000, seed=7), RngStream(3), interaction="random")
        assert summary.to_text().splitlines()[0] == (
            "null calibration over 5 datasets, n_mc = 1000, "
            "interaction = random (A against AB, B against AB, AB against E)"
        )
        fixed = null_calibration(self.SPEC, 5, McConfig(n_mc=1000, seed=7), RngStream(3))
        assert fixed.to_text().splitlines()[0] == "null calibration over 5 datasets, n_mc = 1000"
