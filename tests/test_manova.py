"""Tests for the factorial-design engine.

The SOP decomposition is checked against a brute-force straight-line
evaluation of the displayed sums, the statistic eigenvalues against their
scale-invariance and their relation to the residual matrix, and the
simulator against the closed-form marginal Wishart laws of the SOPs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wishartmix import (
    BetaIIParams,
    DegenerateDesign,
    DesignTable,
    FixedEffect,
    RandomEffect,
    RngStream,
    SimulationSpec,
    SingularErrorMatrix,
    StatisticFunctional,
    assert_pd,
    compute_sop,
    dof_map,
    sample_beta2,
    scalar_statistic,
    simulate_design,
    sop_arrays,
    ValidationError,
    univariate_f_test,
    wishart_mean,
    WishartParams,
)
from wishartmix.manova import batched_statistic_eigs
from conftest import random_spd

EYE2 = assert_pd(np.eye(2))


def brute_force_sop(y: np.ndarray) -> list[np.ndarray]:
    """Straight-line evaluation of the five displayed SOP sums."""
    a, b, n, d = y.shape
    grand = y.mean(axis=(0, 1, 2))
    mean_i = y.mean(axis=(1, 2))
    mean_j = y.mean(axis=(0, 2))
    mean_ij = y.mean(axis=2)
    sop_a = np.zeros((d, d))
    for i in range(a):
        dev = mean_i[i] - grand
        sop_a += b * n * np.outer(dev, dev)
    sop_b = np.zeros((d, d))
    for j in range(b):
        dev = mean_j[j] - grand
        sop_b += a * n * np.outer(dev, dev)
    sop_ab = np.zeros((d, d))
    for i in range(a):
        for j in range(b):
            dev = mean_ij[i, j] - mean_i[i] - mean_j[j] + grand
            sop_ab += n * np.outer(dev, dev)
    sop_e = np.zeros((d, d))
    sop_t = np.zeros((d, d))
    for i in range(a):
        for j in range(b):
            for k in range(n):
                dev = y[i, j, k] - mean_ij[i, j]
                sop_e += np.outer(dev, dev)
                dev = y[i, j, k] - grand
                sop_t += np.outer(dev, dev)
    return [sop_a, sop_b, sop_ab, sop_e, sop_t]


class TestComputeSop:
    def test_hand_dataset(self):
        # 2x2x2 scalar design with responses 1..8: frozen values computed by
        # the brute-force oracle below.
        y = np.arange(1.0, 9.0).reshape(2, 2, 2, 1)
        sop = compute_sop(DesignTable(y))
        assert sop.sop_a.array[0, 0] == pytest.approx(32.0)
        assert sop.sop_b.array[0, 0] == pytest.approx(8.0)
        assert sop.sop_ab.array[0, 0] == pytest.approx(0.0)
        assert sop.sop_e.array[0, 0] == pytest.approx(2.0)
        assert sop.sop_total.array[0, 0] == pytest.approx(42.0)
        for got, want in zip(
            (sop.sop_a, sop.sop_b, sop.sop_ab, sop.sop_e, sop.sop_total), brute_force_sop(y)
        ):
            np.testing.assert_allclose(got.array, want, atol=1e-12)

    def test_matches_brute_force_on_random_tables(self, gen):
        for _ in range(5):
            y = gen.standard_normal((3, 4, 2, 2)) * 3.0 + 10.0
            parts = sop_arrays(y)
            for got, want in zip(parts, brute_force_sop(y)):
                np.testing.assert_allclose(got, want, atol=1e-9)

    def test_additivity(self, gen):
        y = 1e4 + 50.0 * gen.standard_normal((4, 3, 3, 2))
        sop_a, sop_b, sop_ab, sop_e, sop_t = sop_arrays(y)
        total = sop_a + sop_b + sop_ab + sop_e
        assert np.linalg.norm(total - sop_t) / np.linalg.norm(sop_t) < 1e-10

    def test_constant_responses_give_zero_sops(self):
        y = np.full((3, 3, 2, 2), 7.0)
        sop = compute_sop(DesignTable(y))
        for m in (sop.sop_a, sop.sop_b, sop.sop_ab, sop.sop_e, sop.sop_total):
            assert not np.any(m.array)

    def test_rank_bounds(self, gen):
        y = gen.standard_normal((3, 4, 2, 3))
        sop = compute_sop(DesignTable(y))
        for m, bound in ((sop.sop_a, 2), (sop.sop_b, 3), (sop.sop_ab, 3)):
            w = np.linalg.eigvalsh(m.array)
            rank = int(np.sum(w > 1e-10 * max(w[-1], 1.0)))
            assert rank <= bound

    def test_level_relabeling_leaves_sops_unchanged(self, gen):
        y = gen.standard_normal((4, 3, 2, 2))
        base = sop_arrays(y)
        permuted = sop_arrays(y[[2, 0, 3, 1]][:, [1, 2, 0]])
        for got, want in zip(permuted, base):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_overflowing_responses_rejected(self):
        y = np.zeros((2, 2, 2, 1))
        y[0, :, :, 0] = 1e200
        with pytest.raises(ValidationError, match="overflow the sum of outer products.*rescale"):
            compute_sop(DesignTable(y))

    def test_single_replicate_rejected(self):
        with pytest.raises(DegenerateDesign):
            compute_sop(DesignTable(np.zeros((2, 2, 1, 1))))


class TestStatisticEigs:
    def test_residual_as_numerator_gives_unit_eigenvalues(self, gen):
        y = gen.standard_normal((3, 3, 4, 2))
        sop = compute_sop(DesignTable(y))
        eigs = batched_statistic_eigs(sop.sop_e.array, sop.sop_e.array)
        np.testing.assert_allclose(eigs, np.ones(2), atol=1e-10)

    def test_scalar_ratio(self, gen):
        y = gen.standard_normal((3, 3, 3, 1))
        sop = compute_sop(DesignTable(y))
        eigs = batched_statistic_eigs(sop.sop_a.array, sop.sop_e.array)
        expected = sop.sop_a.array[0, 0] / sop.sop_e.array[0, 0]
        assert eigs[0] == pytest.approx(expected, rel=1e-12)

    def test_sigma_invariance(self, gen):
        y = gen.standard_normal((4, 3, 3, 2))
        sop = compute_sop(DesignTable(y))
        base = batched_statistic_eigs(sop.sop_a.array, sop.sop_e.array)
        direct = np.sort(np.linalg.eigvals(sop.sop_a.array @ np.linalg.inv(sop.sop_e.array)).real)[::-1]
        np.testing.assert_allclose(base, direct, rtol=1e-8)
        for _ in range(5):
            sigma = random_spd(2, gen)
            eigs = batched_statistic_eigs(sop.sop_a.array, sop.sop_e.array, sigma)
            np.testing.assert_allclose(eigs, base, rtol=1e-8, atol=1e-10)

    def test_singular_residual_rejected(self):
        # One replicate pair per cell in a tiny design cannot span d = 3.
        y = np.zeros((2, 2, 2, 3))
        y[..., 0] = np.arange(8.0).reshape(2, 2, 2)
        sop = compute_sop(DesignTable(y))
        with pytest.raises(SingularErrorMatrix):
            batched_statistic_eigs(sop.sop_a.array, sop.sop_e.array)

    def test_ill_conditioned_residual_rejected_alone_and_in_a_stack(self, gen):
        # Condition number 1e14 is below the relative PD_TOL = 1e-12 floor.
        q, _ = np.linalg.qr(gen.standard_normal((2, 2)))
        bad = (q * np.array([1e-14, 1.0])) @ q.T
        num = np.eye(2)
        with pytest.raises(SingularErrorMatrix):
            batched_statistic_eigs(num, bad)
        good = np.stack([np.eye(2) + 0.1 * k * np.ones((2, 2)) for k in range(5)])
        batched_statistic_eigs(np.stack([num] * 5), good)
        with pytest.raises(SingularErrorMatrix):
            batched_statistic_eigs(np.stack([num] * 6), np.concatenate([good[:3], bad[None], good[3:]]))

    def test_batched_agrees_with_single(self, gen):
        y = gen.standard_normal((6, 3, 3, 4, 2))
        sop_a, _, _, sop_e, _ = sop_arrays(y)
        batched = batched_statistic_eigs(sop_a, sop_e)
        sigma = random_spd(2, gen)
        batched_sigma = batched_statistic_eigs(sop_a, sop_e, sigma)
        for m in range(6):
            assert np.array_equal(batched[m], batched_statistic_eigs(sop_a[m], sop_e[m]))
            assert np.array_equal(batched_sigma[m], batched_statistic_eigs(sop_a[m], sop_e[m], sigma))
            sop = compute_sop(DesignTable(y[m]))
            single = batched_statistic_eigs(sop.sop_a.array, sop.sop_e.array)
            np.testing.assert_allclose(batched[m], single, rtol=1e-9, atol=1e-12)


class TestScalarStatistic:
    def test_null_point(self):
        eigs = np.zeros(3)
        assert scalar_statistic(eigs, StatisticFunctional.WILKS) == 1.0
        assert scalar_statistic(eigs, StatisticFunctional.PILLAI) == 0.0
        assert scalar_statistic(eigs, StatisticFunctional.HOTELLING_LAWLEY) == 0.0
        assert scalar_statistic(eigs, StatisticFunctional.ROY) == 0.0

    def test_unit_eigenvalues(self):
        eigs = np.ones(2)
        assert scalar_statistic(eigs, StatisticFunctional.WILKS) == pytest.approx(0.25)
        assert scalar_statistic(eigs, StatisticFunctional.PILLAI) == pytest.approx(1.0)
        assert scalar_statistic(eigs, StatisticFunctional.HOTELLING_LAWLEY) == pytest.approx(2.0)
        assert scalar_statistic(eigs, StatisticFunctional.ROY) == pytest.approx(1.0)

    @given(lam=st.floats(0.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_scalar_monotone_pair(self, lam):
        wilks = scalar_statistic(np.array([lam]), StatisticFunctional.WILKS)
        hl = scalar_statistic(np.array([lam]), StatisticFunctional.HOTELLING_LAWLEY)
        assert wilks == pytest.approx(1.0 / (1.0 + lam))
        assert hl == pytest.approx(lam)

    def test_batched_reduction(self, gen):
        eigs = gen.random((10, 3))
        out = scalar_statistic(eigs, StatisticFunctional.PILLAI)
        assert out.shape == (10,)
        np.testing.assert_allclose(out, (eigs / (1 + eigs)).sum(axis=1))

    def test_tail_directions(self):
        assert StatisticFunctional.WILKS.lower_tail
        for fn in (StatisticFunctional.PILLAI, StatisticFunctional.HOTELLING_LAWLEY, StatisticFunctional.ROY):
            assert not fn.lower_tail


class TestDofMap:
    def test_reference_designs(self):
        assert tuple(dof_map(5, 6, 5)) == (4, 5, 20, 120)
        assert tuple(dof_map(5, 7, 3)) == (4, 6, 24, 70)
        assert tuple(dof_map(2, 2, 2)) == (1, 1, 1, 4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            dof_map(1, 3, 2)
        with pytest.raises(DegenerateDesign):
            dof_map(3, 3, 1)

    @given(a=st.integers(2, 8), b=st.integers(2, 8), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_dofs_partition_total(self, a, b, n):
        dofs = dof_map(a, b, n)
        assert dofs.nu_a + dofs.nu_b + dofs.nu_ab + dofs.nu_e == a * b * n - 1


class TestUnivariateFTest:
    def test_zero_statistic_has_pvalue_one(self):
        y = np.zeros((2, 2, 2, 1))
        y[..., 0] = [[[0.0, 2.0], [1.0, 3.0]], [[0.0, 2.0], [1.0, 3.0]]]  # A-means equal
        f, p = univariate_f_test(DesignTable(y), "A")
        assert f == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_hand_dataset_against_brute_force(self):
        y = np.arange(1.0, 9.0).reshape(2, 2, 2, 1)
        sop = brute_force_sop(y)
        f_expected = (sop[0][0, 0] / 1.0) / (sop[3][0, 0] / 4.0)
        f, p = univariate_f_test(DesignTable(y), "A")
        assert f == pytest.approx(f_expected)
        assert p == pytest.approx(float(stats.f.sf(f_expected, 1, 4)), rel=1e-12)

    def test_null_pvalues_uniform(self):
        # 500 all-null datasets; exact test, so p-values are exactly uniform.
        spec = SimulationSpec(5, 6, 5, 1, assert_pd(1.0))
        tables = simulate_design(spec, RngStream(50), size=500)
        sop_a, _, _, sop_e, _ = sop_arrays(tables)
        dofs = dof_map(5, 6, 5)
        f = (sop_a[:, 0, 0] / dofs.nu_a) / (sop_e[:, 0, 0] / dofs.nu_e)
        p = stats.f.sf(f, dofs.nu_a, dofs.nu_e)
        assert stats.kstest(p, "uniform").pvalue > 0.01

    def test_requires_univariate(self):
        with pytest.raises(ValueError):
            univariate_f_test(DesignTable(np.zeros((2, 2, 2, 2))), "A")


class TestSimulationSpecValidation:
    def test_fixed_effect_constraints_enforced(self):
        with pytest.raises(ValueError):
            SimulationSpec(2, 2, 2, 1, assert_pd(1.0), effect_a=FixedEffect([[1.0], [0.5]]))
        # zero-mean vectors pass
        SimulationSpec(2, 2, 2, 1, assert_pd(1.0), effect_a=FixedEffect([[1.0], [-1.0]]))

    def test_interaction_constraints(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            SimulationSpec(2, 2, 2, 1, assert_pd(1.0), effect_ab=FixedEffect(bad))
        good = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
        SimulationSpec(2, 2, 2, 1, assert_pd(1.0), effect_ab=FixedEffect(good))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimulationSpec(3, 2, 2, 1, assert_pd(1.0), effect_a=FixedEffect([[1.0], [-1.0]]))

    def test_is_null_detection(self):
        base = SimulationSpec(2, 2, 2, 2, EYE2)
        assert base.is_null
        zero_cov = SimulationSpec(2, 2, 2, 2, EYE2, effect_a=RandomEffect(assert_pd(np.zeros((2, 2)))))
        assert zero_cov.is_null
        live = SimulationSpec(2, 2, 2, 2, EYE2, effect_a=RandomEffect(EYE2))
        assert not live.is_null


class TestSimulateDesign:
    def test_pure_noise_grand_mean(self):
        spec = SimulationSpec(3, 3, 3, 2, EYE2)
        tables = simulate_design(spec, RngStream(51), size=2_000)
        grand = tables.mean(axis=(1, 2, 3))
        assert np.abs(grand.mean(axis=0)).max() < 4.0 / np.sqrt(2_000 * 27)

    def test_random_effect_marginal_sop_law(self):
        # SOP_A under a random A effect is central Wishart with scale
        # Sigma + b n Sigma_alpha and a - 1 degrees of freedom.
        sigma_alpha = assert_pd([[0.5, 0.2], [0.2, 0.8]])
        spec = SimulationSpec(3, 2, 2, 2, EYE2, effect_a=RandomEffect(sigma_alpha))
        tables = simulate_design(spec, RngStream(52), size=100_000)
        sop_a = sop_arrays(tables)[0]
        target = 2.0 * (np.eye(2) + 2 * 2 * sigma_alpha.array)
        err = np.linalg.norm(sop_a.mean(axis=0) - target) / np.linalg.norm(target)
        assert err < 0.01

    def test_fixed_effect_noncentral_sop_law(self):
        # SOP_A under fixed effects is noncentral Wishart with noncentrality
        # F = b n sum_i alpha_i alpha_i'; its mean is (a-1) Sigma + F.
        alpha = np.array([[1.0, 0.0], [-0.5, 1.0], [-0.5, -1.0]])
        spec = SimulationSpec(3, 2, 2, 2, EYE2, effect_a=FixedEffect(alpha))
        tables = simulate_design(spec, RngStream(53), size=100_000)
        sop_a = sop_arrays(tables)[0]
        f_mat = 2 * 2 * alpha.T @ alpha
        target = wishart_mean(WishartParams(2.0, EYE2, assert_pd(f_mat))).array
        err = np.linalg.norm(sop_a.mean(axis=0) - target) / np.linalg.norm(target)
        assert err < 0.01

    def test_null_statistic_matches_beta2_law(self):
        # Factor-A statistic under the global null is Beta Type II with
        # half-dofs ((a-1)/2, ab(n-1)/2): compare the mean trace against
        # direct draws from that law.
        spec = SimulationSpec(3, 3, 2, 2, EYE2)
        tables = simulate_design(spec, RngStream(54), size=100_000)
        sop_a, _, _, sop_e, _ = sop_arrays(tables)
        sim_stats = scalar_statistic(
            batched_statistic_eigs(sop_a, sop_e), StatisticFunctional.HOTELLING_LAWLEY
        )
        dofs = dof_map(3, 3, 2)
        direct = sample_beta2(BetaIIParams(dofs.nu_a, dofs.nu_e, 2), RngStream(55), size=100_000)
        direct_stats = np.trace(direct, axis1=1, axis2=2)
        assert abs(sim_stats.mean() - direct_stats.mean()) / direct_stats.mean() < 0.02

    def test_fixed_zero_and_random_zero_covariance_agree(self):
        # Same null law from both encodings of "no effect".
        fixed = SimulationSpec(3, 3, 2, 2, EYE2, effect_a=FixedEffect(np.zeros((3, 2))))
        random = SimulationSpec(3, 3, 2, 2, EYE2, effect_a=RandomEffect(assert_pd(np.zeros((2, 2)))))
        stats_pair = []
        for seed, spec in ((56, fixed), (57, random)):
            tables = simulate_design(spec, RngStream(seed), size=4_000)
            sop_a, _, _, sop_e, _ = sop_arrays(tables)
            eigs = batched_statistic_eigs(sop_a, sop_e)
            stats_pair.append(scalar_statistic(eigs, StatisticFunctional.HOTELLING_LAWLEY))
        assert stats.ks_2samp(*stats_pair).pvalue > 0.01

    def test_single_table_is_design_table(self):
        table = simulate_design(SimulationSpec(2, 3, 2, 2, EYE2), RngStream(58))
        assert isinstance(table, DesignTable)
        assert table.responses.shape == (2, 3, 2, 2)
