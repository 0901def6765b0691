"""Tests for the factorial-design engine.

The SOP decomposition is checked against a brute-force straight-line
evaluation of the displayed sums, the statistic eigenvalues against their
scale-invariance and their relation to the residual matrix, and the
simulator against the closed-form marginal Wishart laws of the SOPs.
"""

import re

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
    McConfig,
    RandomEffect,
    RngStream,
    SimulationSpec,
    SingularErrorMatrix,
    SpdMat,
    StatisticFunctional,
    UnbalancedDesign,
    factor_tests,
    run_report,
    sample_beta2,
    scalar_statistic,
    simulate_design,
    sop_arrays,
    ValidationError,
    wishart_mean,
    WishartParams,
)
from wishartmix.manova import _exact_pvalue, batched_statistic_eigs, statistic_eigs
from wishartmix.symmat import _mirror_upper, sym_inv_sqrt
from conftest import random_spd

EYE2 = SpdMat(np.eye(2))

# The two batteries written out, each test as (name, numerator, denominator, denominator name).
LITERAL_TESTS = {
    "fixed": (("A", 0, 3, "E"), ("B", 1, 3, "E"), ("AB", 2, 3, "E")),
    "random": (("A", 0, 2, "AB"), ("B", 1, 2, "AB"), ("AB", 2, 3, "E")),
}


def literal_dofs(a: int, b: int, n: int) -> tuple[int, int, int, int]:
    """The dofs of the four SOPs, written out: ``(a - 1, b - 1, (a - 1)(b - 1), ab(n - 1))``."""
    return a - 1, b - 1, (a - 1) * (b - 1), a * b * (n - 1)


def brute_force_sop(y: np.ndarray) -> list[np.ndarray]:
    """Straight-line evaluation of the four displayed SOP sums."""
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
    for i in range(a):
        for j in range(b):
            for k in range(n):
                dev = y[i, j, k] - mean_ij[i, j]
                sop_e += np.outer(dev, dev)
    return [sop_a, sop_b, sop_ab, sop_e]


class TestDesignTableValidation:
    @pytest.mark.parametrize(
        "responses,error,message",
        [
            ([[[[1.0]], [[1.0], [2.0]]]], UnbalancedDesign, "responses do not form a rectangular (a, b, n, d) array: "),
            (np.zeros((2, 2, 2)), UnbalancedDesign, "responses must have shape (a, b, n, d), got shape (2, 2, 2)"),
            (np.full((2, 2, 2, 1), np.nan), ValueError, "responses must be finite"),
        ],
        ids=["ragged", "three-axes", "non-finite"],
    )
    def test_rejected(self, responses, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}") as info:
            DesignTable(responses)
        assert type(info.value) is error


class TestComputeSop:
    def test_hand_dataset(self):
        # 2x2x2 scalar design with responses 1..8: frozen values computed by
        # the brute-force oracle below.
        y = np.arange(1.0, 9.0).reshape(2, 2, 2, 1)
        sop_a, sop_b, sop_ab, sop_e = sop = sop_arrays(y)
        assert sop_a[0, 0] == pytest.approx(32.0)
        assert sop_b[0, 0] == pytest.approx(8.0)
        assert sop_ab[0, 0] == pytest.approx(0.0)
        assert sop_e[0, 0] == pytest.approx(2.0)
        # the total SOP, sum (y - 4.5)^2 over 1..8
        assert sum(m[0, 0] for m in sop) == pytest.approx(42.0)
        for got, want in zip(sop, brute_force_sop(y), strict=True):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_brute_force_on_random_tables(self, gen):
        for _ in range(5):
            y = gen.standard_normal((3, 4, 2, 2)) * 3.0 + 10.0
            parts = sop_arrays(y)
            for got, want in zip(parts, brute_force_sop(y), strict=True):
                np.testing.assert_allclose(got, want, atol=1e-9)
                assert np.array_equal(got, np.swapaxes(got, -1, -2))  # symmetric bit for bit

    def test_additivity(self, gen):
        y = 1e4 + 50.0 * gen.standard_normal((4, 3, 3, 2))
        dev = y - y.mean(axis=(0, 1, 2), keepdims=True)
        sop_t = np.einsum("ijku,ijkv->uv", dev, dev)
        total = sum(sop_arrays(y))
        assert np.linalg.norm(total - sop_t) / np.linalg.norm(sop_t) < 1e-10

    def test_constant_responses_give_zero_sops(self):
        y = np.full((3, 3, 2, 2), 7.0)
        sop = sop_arrays(y)
        assert len(sop) == 4
        for m in sop:
            assert not np.any(m)

    def test_rank_bounds(self, gen):
        y = gen.standard_normal((3, 4, 2, 3))
        sop_a, sop_b, sop_ab, _ = sop_arrays(y)
        for m, bound in ((sop_a, 2), (sop_b, 3), (sop_ab, 3)):
            w = np.linalg.eigvalsh(m)
            rank = int(np.sum(w > 1e-10 * max(w[-1], 1.0)))
            assert rank <= bound

    def test_level_relabeling_leaves_sops_unchanged(self, gen):
        y = gen.standard_normal((4, 3, 2, 2))
        base = sop_arrays(y)
        permuted = sop_arrays(y[[2, 0, 3, 1]][:, [1, 2, 0]])
        for got, want in zip(permuted, base):
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_overflowing_responses_rejected(self, monkeypatch):
        # run_report checks the SOPs before any Monte Carlo.
        monkeypatch.setattr("wishartmix.design_io.mc_pvalue", lambda *args: pytest.fail("work began"))
        y = np.zeros((2, 2, 2, 1))
        y[0, :, :, 0] = 1e200
        with pytest.raises(ValidationError, match="overflow the sum of outer products.*rescale"):
            run_report(DesignTable(y), McConfig(n_mc=1000, seed=0))

    def test_single_replicate_rejected(self):
        with pytest.raises(DegenerateDesign, match="at least two replicates per cell are needed, got n=1"):
            run_report(DesignTable(np.zeros((2, 2, 1, 1))), McConfig(n_mc=1000, seed=0))


class TestStatisticEigs:
    def test_residual_as_numerator_gives_unit_eigenvalues(self, gen):
        y = gen.standard_normal((3, 3, 4, 2))
        sop_e = sop_arrays(y)[3]
        eigs = batched_statistic_eigs(sop_e, sop_e)
        np.testing.assert_allclose(eigs, np.ones(2), atol=1e-10)

    def test_scalar_ratio(self, gen):
        y = gen.standard_normal((3, 3, 3, 1))
        sop_a, _, _, sop_e = sop_arrays(y)
        eigs = batched_statistic_eigs(sop_a, sop_e)
        expected = sop_a[0, 0] / sop_e[0, 0]
        assert eigs[0] == pytest.approx(expected, rel=1e-12)

    def test_sigma_invariance(self, gen):
        y = gen.standard_normal((4, 3, 3, 2))
        sop_a, _, _, sop_e = sop_arrays(y)
        base = batched_statistic_eigs(sop_a, sop_e)
        direct = np.sort(np.linalg.eigvals(sop_a @ np.linalg.inv(sop_e)).real)[::-1]
        np.testing.assert_allclose(base, direct, rtol=1e-8)
        for _ in range(5):
            c = sym_inv_sqrt(random_spd(2, gen)).array
            eigs = batched_statistic_eigs(_mirror_upper(c @ sop_a @ c), _mirror_upper(c @ sop_e @ c))
            np.testing.assert_allclose(eigs, base, rtol=1e-8, atol=1e-10)

    def test_singular_residual_rejected(self):
        # One replicate pair per cell in a tiny design cannot span d = 3.
        y = np.zeros((2, 2, 2, 3))
        y[..., 0] = np.arange(8.0).reshape(2, 2, 2)
        sop_a, _, _, sop_e = sop_arrays(y)
        with pytest.raises(SingularErrorMatrix):
            batched_statistic_eigs(sop_a, sop_e)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^numerator SOPs \(2, 2\) and residual SOPs \(3, 3\) differ in shape$"):
            batched_statistic_eigs(np.eye(2), np.eye(3))

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
        sop_a, _, _, sop_e = sop_arrays(y)
        batched = batched_statistic_eigs(sop_a, sop_e)
        c = sym_inv_sqrt(random_spd(2, gen)).array
        conj_a, conj_e = _mirror_upper(c @ sop_a @ c), _mirror_upper(c @ sop_e @ c)
        batched_sigma = batched_statistic_eigs(conj_a, conj_e)
        for m in range(6):
            assert np.array_equal(batched[m], batched_statistic_eigs(sop_a[m], sop_e[m]))
            assert np.array_equal(batched_sigma[m], batched_statistic_eigs(conj_a[m], conj_e[m]))
            single_a, _, _, single_e = sop_arrays(y[m])
            single = batched_statistic_eigs(single_a, single_e)
            np.testing.assert_allclose(batched[m], single, rtol=1e-9, atol=1e-12)


class TestDenominatorScale:
    """A denominator SOP is singular relative to the total SOP, not to itself."""

    SHAPE = (4, 3, 3, 2)

    def tables(self):
        """Replicates identical per cell; exactly additive cell means; cell means all 0."""
        gen = RngStream(70).generator()
        a, b, n, d = self.SHAPE
        noise = gen.standard_normal(self.SHAPE)
        within = noise - noise.mean(axis=2, keepdims=True)
        identical = np.broadcast_to(gen.standard_normal((a, b, 1, d)), self.SHAPE)
        additive = gen.standard_normal((a, 1, 1, d)) + gen.standard_normal((1, b, 1, d)) + within
        return identical, additive, within

    def test_rounding_noise_denominators_rejected(self):
        identical, additive, centred = self.tables()
        cfg = McConfig(n_mc=1000, seed=0)
        message = r"^denominator SOP {} is singular: smallest eigenvalue \S+ is at most 1e-12 \* \S+, the largest eigenvalue of the total SOP$"
        for y, mode, den in ((identical, "fixed", "E"), (identical, "random", "E"), (additive, "random", "AB"), (centred, "random", "AB")):
            sops = sop_arrays(y)
            # the denominator's own largest eigenvalue is rounding noise too, so the pair test passes it
            batched_statistic_eigs(sops[0], sops[{"AB": 2, "E": 3}[den]])
            with pytest.raises(SingularErrorMatrix, match=message.format(den)):
                run_report(DesignTable(y), cfg, interaction=mode)
        # E is full rank in both, so the fixed-mode tests stand.
        for y in (additive, centred):
            run_report(DesignTable(y), cfg)

    def test_constant_responses_give_zero_statistics_first(self):
        for mode in ("fixed", "random"):
            report = run_report(DesignTable(np.full(self.SHAPE, 5.0)), McConfig(n_mc=1000, seed=1), interaction=mode)
            assert [(fr.observed, fr.p.p_hat) for fr in report.factors] == [(0.0, 1.0)] * 3

    def test_stack_rejected_if_any_table_is_singular(self, gen):
        y = gen.standard_normal((5, *self.SHAPE))
        tests = factor_tests(*self.SHAPE, "random")
        sops = sop_arrays(y)
        for t, eigs in zip(tests, statistic_eigs(sops, tests)):
            assert np.array_equal(eigs, batched_statistic_eigs(sops[t.num], sops[t.den]))
        y[3] = self.tables()[2]
        with pytest.raises(SingularErrorMatrix, match="^denominator SOP AB is singular"):
            statistic_eigs(sop_arrays(y), tests)

    def test_report_and_calibration_share_the_check(self, monkeypatch):
        import wishartmix.design_io as design_io_mod
        import wishartmix.mc as mc_mod

        calls = []

        def counting(sops, tests):
            calls.append(np.shape(sops[0]))
            return statistic_eigs(sops, tests)

        monkeypatch.setattr(design_io_mod, "statistic_eigs", counting)
        monkeypatch.setattr(mc_mod, "statistic_eigs", counting)
        run_report(DesignTable(RngStream(71).generator().standard_normal(self.SHAPE)), McConfig(n_mc=1000))
        mc_mod.null_calibration(SimulationSpec(*self.SHAPE, EYE2), 300, McConfig(n_mc=1000), RngStream(72))
        assert calls == [(2, 2), (256, 2, 2), (44, 2, 2)]


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
    """The dofs that :func:`factor_tests` gives each test."""

    def test_reference_designs(self):
        for (a, b, n), expected in (((5, 6, 5), (4, 5, 20, 120)), ((5, 7, 3), (4, 6, 24, 70)), ((2, 2, 2), (1, 1, 1, 4))):
            tests = factor_tests(a, b, n, 1)
            assert [t.dof_num for t in tests] == list(expected[:3])
            assert [t.dof_den for t in tests] == [expected[3]] * 3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            factor_tests(1, 3, 2, 1)
        with pytest.raises(DegenerateDesign):
            factor_tests(3, 3, 1, 1)

    @given(a=st.integers(2, 8), b=st.integers(2, 8), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_dofs_partition_total(self, a, b, n):
        fixed = factor_tests(a, b, n, 1)
        dofs = (*(t.dof_num for t in fixed), fixed[2].dof_den)
        assert dofs == literal_dofs(a, b, n)
        assert sum(dofs) == a * b * n - 1


class TestInteractionModes:
    @given(a=st.integers(2, 8), b=st.integers(2, 8), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_batteries(self, a, b, n):
        # The denominators derived from the expected mean squares are the written-out ones, in both modes.
        dofs = literal_dofs(a, b, n)
        for mode, literal in LITERAL_TESTS.items():
            derived = factor_tests(a, b, n, 1, mode)
            assert [(t.name, t.num, t.den, t.against) for t in derived] == list(literal)
            assert [(t.dof_num, t.dof_den) for t in derived] == [(dofs[num], dofs[den]) for _, num, den, _ in literal]
        assert factor_tests(a, b, n, 1) == factor_tests(a, b, n, 1, "fixed")

    def test_unknown_mode_raises(self):
        message = "interaction must be 'fixed' or 'random', got 'mixed'"
        with pytest.raises(ValueError, match=message):
            factor_tests(3, 3, 2, 1, "mixed")
        with pytest.raises(ValueError, match=message):
            run_report(DesignTable(np.zeros((3, 3, 2, 1))), McConfig(n_mc=1000), interaction="mixed")

    @given(a=st.integers(2, 8), b=st.integers(2, 8), n=st.integers(2, 4), dim=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_numerator_binds_first_in_both_modes(self, a, b, n, dim):
        # nu_AB >= nu_A, nu_B and nu_E > nu_AB, so both modes accept and reject the same designs, by the same factor.
        outcomes = []
        for interaction in ("fixed", "random"):
            try:
                outcomes.append(tuple(t.dof_num for t in factor_tests(a, b, n, dim, interaction)))
            except DegenerateDesign as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @given(a=st.integers(2, 12), b=st.integers(2, 12), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_denominator_has_at_least_the_numerator_dof(self, a, b, n):
        # Why factor_tests checks only the numerator's dof: its denominator's is never smaller.
        for mode in LITERAL_TESTS:
            for t in factor_tests(a, b, n, 1, mode):
                assert t.dof_den >= t.dof_num, (mode, t)

    def test_numerator_dof_message(self):
        message = (
            "factor A has 2 degrees of freedom, which cannot support a 3-dimensional statistic "
            "(need more factor levels or fewer responses)"
        )
        for mode in LITERAL_TESTS:
            with pytest.raises(DegenerateDesign, match=f"^{re.escape(message)}$"):
                factor_tests(3, 5, 2, 3, mode)


class TestUnivariateFTest:
    @staticmethod
    def f_test_of_a(y: np.ndarray) -> tuple[float, float]:
        """Factor A's ``F`` statistic, read off its eigenvalue, and exact p-value in a report on ``y``."""
        fr = run_report(DesignTable(y), McConfig(n_mc=1000, seed=0)).factors[0]
        assert fr.name == "A"
        nu_a, _, _, nu_e = literal_dofs(*y.shape[:3])
        return fr.eigenvalues[0] * nu_e / nu_a, fr.p_exact

    def test_zero_statistic_has_pvalue_one(self):
        y = np.zeros((2, 2, 2, 1))
        y[..., 0] = [[[0.0, 2.0], [1.0, 3.0]], [[0.0, 2.0], [1.0, 3.0]]]  # A-means equal
        f, p = self.f_test_of_a(y)
        assert f == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_hand_dataset_against_brute_force(self):
        y = np.arange(1.0, 9.0).reshape(2, 2, 2, 1)
        sop = brute_force_sop(y)
        f_expected = (sop[0][0, 0] / 1.0) / (sop[3][0, 0] / 4.0)
        f, p = self.f_test_of_a(y)
        assert f == pytest.approx(f_expected)
        assert p == pytest.approx(float(stats.f.sf(f_expected, 1, 4)), rel=1e-12)

    def test_null_pvalues_uniform(self):
        # 500 all-null datasets; exact test, so p-values are exactly uniform.
        spec = SimulationSpec(5, 6, 5, 1, SpdMat(1.0))
        tables = simulate_design(spec, RngStream(50), size=500)
        sop_a, _, _, sop_e = sop_arrays(tables)
        nu_a, _, _, nu_e = literal_dofs(5, 6, 5)
        f = (sop_a[:, 0, 0] / nu_a) / (sop_e[:, 0, 0] / nu_e)
        p = stats.f.sf(f, nu_a, nu_e)
        assert stats.kstest(p, "uniform").pvalue > 0.01

    def test_pvalue_is_scipy_f_sf(self):
        # _exact_pvalue calls scipy.special.fdtrc, which scipy.stats.f.sf calls, at F read off the
        # eigenvalue; the SOP ratio F agrees with it to rounding.
        dofs = (1, 2, 3, 4, 7, 12, 30, 100, 250, 600)
        f_values = (0.0, 1e-300, 1e-100, 1e-20, 1e-5, 0.01, 0.3, 1.0, 1.7, 5.0, 40.0, 1e3, 1e10, 1e100, 1e300)
        for nu_num in dofs:
            for nu_den in dofs:
                for f in f_values:
                    sop_num, sop_den = np.full((1, 1), f * nu_num), np.full((1, 1), float(nu_den))
                    f_ratio = (sop_num[0, 0] / nu_num) / (sop_den[0, 0] / nu_den)
                    p = _exact_pvalue(batched_statistic_eigs(sop_num, sop_den), nu_num, nu_den)
                    expected = float(stats.f.sf(f_ratio, nu_num, nu_den))
                    assert p == pytest.approx(expected, rel=1e-12, abs=0.0), (nu_num, nu_den, f)

    @pytest.mark.parametrize("functional", list(StatisticFunctional))
    def test_report_pvalue_is_scipy_f_sf_for_every_functional(self, functional):
        table = DesignTable(RngStream(8).generator().standard_normal((3, 4, 3, 1)))
        sops = sop_arrays(table.responses)
        dofs = literal_dofs(3, 4, 3)
        report = run_report(table, McConfig(n_mc=1000, seed=2, functional=functional))
        for fr, (_, num, den, _) in zip(report.factors, LITERAL_TESTS["fixed"]):
            f_ratio = (sops[num][0, 0] / dofs[num]) / (sops[den][0, 0] / dofs[den])
            assert fr.p_exact == pytest.approx(float(stats.f.sf(f_ratio, dofs[num], dofs[den])), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("functional", list(StatisticFunctional))
    def test_random_interaction_pvalue_is_f_against_ab(self, functional):
        # The exact d = 1 oracle of a random interaction: A and B against AB, F(nu_A, nu_AB), AB against E.
        spec = SimulationSpec(4, 5, 3, 1, SpdMat(1.0), effect_ab=RandomEffect(SpdMat(2.0)))
        table = simulate_design(spec, RngStream(31))
        sops = sop_arrays(table.responses)
        dofs = literal_dofs(4, 5, 3)
        report = run_report(table, McConfig(n_mc=1000, seed=2, functional=functional), interaction="random")
        for fr, (num, den) in zip(report.factors, ((0, 2), (1, 2), (2, 3))):
            f_ratio = (sops[num][0, 0] / dofs[num]) / (sops[den][0, 0] / dofs[den])
            assert fr.p_exact == pytest.approx(float(stats.f.sf(f_ratio, dofs[num], dofs[den])), rel=1e-12, abs=0.0)
        assert [fr.denominator for fr in report.factors] == ["AB", "AB", "E"]

    def test_random_interaction_null_is_f_against_ab_not_e(self):
        # 500 datasets, sigma_e = 1, sigma_AB = 1, no A effect: (SOP_A / nu_A) / (SOP_AB / nu_AB) is
        # F(nu_A, nu_AB); the ratio against SOP_E is not F(nu_A, nu_E) and over-rejects.
        spec = SimulationSpec(5, 6, 3, 1, SpdMat(1.0), effect_ab=RandomEffect(SpdMat(1.0)))
        sop_a, _, sop_ab, sop_e = sop_arrays(simulate_design(spec, RngStream(51), size=500))
        nu_a, _, nu_ab, nu_e = literal_dofs(5, 6, 3)
        p_random = stats.f.sf((sop_a[:, 0, 0] / nu_a) / (sop_ab[:, 0, 0] / nu_ab), nu_a, nu_ab)
        p_fixed = stats.f.sf((sop_a[:, 0, 0] / nu_a) / (sop_e[:, 0, 0] / nu_e), nu_a, nu_e)
        assert stats.kstest(p_random, "uniform").pvalue > 0.01
        assert stats.kstest(p_fixed, "uniform").pvalue < 1e-6

    @pytest.mark.parametrize("dim", [2, 3])
    def test_no_exact_pvalue_past_d1(self, dim):
        assert _exact_pvalue(np.ones(dim), 4, 20) is None
        table = DesignTable(RngStream(9).generator().standard_normal((4, 4, 3, dim)))
        assert all(fr.p_exact is None for fr in run_report(table, McConfig(n_mc=1000, seed=3)).factors)


class TestSimulationSpecValidation:
    def test_levels_named_like_factor_tests(self):
        message = "both factors need at least two levels, got a=1, b=2"
        with pytest.raises(ValueError, match=message):
            SimulationSpec(1, 2, 2, 1, SpdMat(1.0))
        with pytest.raises(ValueError, match=message):
            factor_tests(1, 2, 2, 1)

    def test_fixed_effect_constraints_enforced(self):
        with pytest.raises(ValueError):
            SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_a=FixedEffect([[1.0], [0.5]]))
        # zero-mean vectors pass
        SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_a=FixedEffect([[1.0], [-1.0]]))

    def test_interaction_constraints(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_ab=FixedEffect(bad))
        good = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
        SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_ab=FixedEffect(good))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimulationSpec(3, 2, 2, 1, SpdMat(1.0), effect_a=FixedEffect([[1.0], [-1.0]]))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: FixedEffect([[np.nan], [0.0]]), "fixed-effect values must be finite"),
            (lambda: SimulationSpec(2, 2, 2, 2, SpdMat(1.0)), "error_scale must be a 2x2 positive definite matrix"),
            (lambda: SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_b=RandomEffect(np.eye(2))),
             "effect_b covariance must be 1x1"),
        ],
        ids=["fixed-non-finite", "error-scale-size", "random-covariance-size"],
    )
    def test_rejected_with_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValueError

    def test_effect_slot_takes_none_or_an_effect(self):
        assert SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_b=None).effect_b is None
        with pytest.raises(TypeError, match="effect_b must be None, RandomEffect, or FixedEffect"):
            SimulationSpec(2, 2, 2, 1, SpdMat(1.0), effect_b=0.0)


class TestSimulateDesign:
    def test_pure_noise_grand_mean(self):
        spec = SimulationSpec(3, 3, 3, 2, EYE2)
        tables = simulate_design(spec, RngStream(51), size=2_000)
        grand = tables.mean(axis=(1, 2, 3))
        assert np.abs(grand.mean(axis=0)).max() < 4.0 / np.sqrt(2_000 * 27)

    def test_random_effect_marginal_sop_law(self):
        # SOP_A under a random A effect is central Wishart with scale
        # Sigma + b n Sigma_alpha and a - 1 degrees of freedom.
        sigma_alpha = SpdMat([[0.5, 0.2], [0.2, 0.8]])
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
        target = wishart_mean(WishartParams(2.0, EYE2, SpdMat(f_mat))).array
        err = np.linalg.norm(sop_a.mean(axis=0) - target) / np.linalg.norm(target)
        assert err < 0.01

    def test_null_statistic_matches_beta2_law(self):
        # Factor-A statistic under the global null is Beta Type II with
        # half-dofs ((a-1)/2, ab(n-1)/2): compare the mean trace against
        # direct draws from that law.
        spec = SimulationSpec(3, 3, 2, 2, EYE2)
        tables = simulate_design(spec, RngStream(54), size=100_000)
        sop_a, _, _, sop_e = sop_arrays(tables)
        sim_stats = scalar_statistic(
            batched_statistic_eigs(sop_a, sop_e), StatisticFunctional.HOTELLING_LAWLEY
        )
        nu_a, _, _, nu_e = literal_dofs(3, 3, 2)
        direct = sample_beta2(BetaIIParams(nu_a, nu_e, 2), RngStream(55), size=100_000)
        direct_stats = np.trace(direct, axis1=1, axis2=2)
        assert abs(sim_stats.mean() - direct_stats.mean()) / direct_stats.mean() < 0.02

    def test_fixed_zero_and_random_zero_covariance_agree(self):
        # Same null law from both encodings of "no effect".
        fixed = SimulationSpec(3, 3, 2, 2, EYE2, effect_a=FixedEffect(np.zeros((3, 2))))
        random = SimulationSpec(3, 3, 2, 2, EYE2, effect_a=RandomEffect(SpdMat(np.zeros((2, 2)))))
        stats_pair = []
        for seed, spec in ((56, fixed), (57, random)):
            tables = simulate_design(spec, RngStream(seed), size=4_000)
            sop_a, _, _, sop_e = sop_arrays(tables)
            eigs = batched_statistic_eigs(sop_a, sop_e)
            stats_pair.append(scalar_statistic(eigs, StatisticFunctional.HOTELLING_LAWLEY))
        assert stats.ks_2samp(*stats_pair).pvalue > 0.01

    def test_single_table_is_design_table(self):
        table = simulate_design(SimulationSpec(2, 3, 2, 2, EYE2), RngStream(58))
        assert isinstance(table, DesignTable)
        assert table.responses.shape == (2, 3, 2, 2)
