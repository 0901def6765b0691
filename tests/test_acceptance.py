"""Acceptance suite: one test per published criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure).  Monte Carlo criteria run with fixed seeds so the suite is
deterministic; tolerances and draw counts are the contractual ones, not
calibrated to the seeds.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from wishartmix import (
    FixedEffect,
    McConfig,
    RandomEffect,
    RngStream,
    SimulationSpec,
    SpdMat,
    StatisticFunctional,
    SymMat,
    WishartParams,
    conjugation_params,
    null_calibration,
    random_mixture_spec,
    sample_hierarchical,
    sample_noncentral_chisq,
    sample_wishart,
    scalar_statistic,
    simulate_design,
    sop_arrays,
    verify_closure,
    wishart_mean,
    wishart_mgf,
)
from wishartmix.cli import EXIT_OK, main
from wishartmix.closure import VERIFY_ALPHA, MixtureSpec
from wishartmix.manova import batched_statistic_eigs, factor_tests
from conftest import random_psd, random_spd

RATE_BAND = (0.032, 0.071)  # binomial 99% band around 5% at 500 datasets


def run_battery(central: bool) -> tuple[int, dict]:
    """Failures over the 30 specs, and the worst ``error / bound`` of each check with the CDF gap and its bound."""
    start = time.time()
    worst = {"cdf": 0.0, "mean": 0.0, "mgf": 0.0, "gap": 0.0, "eps": 0.0}
    failures = 0
    for d in (1, 2, 3):
        for k in range(10):
            spec = random_mixture_spec(d, d + 3, RngStream(20260809, 10 * d + k), central=central)
            report = verify_closure(spec, 200_000, RngStream(77, 10 * d + k))
            for check, ratio in report.worst().items():
                worst[check] = max(worst[check], ratio)
            worst["gap"] = max(worst["gap"], max(report.errors["cdf"]))
            worst["eps"] = max(worst["eps"], report.bounds["cdf"][0])
            failures += not report.passed
    worst["seconds"] = time.time() - start
    return failures, worst


def battery_line(worst: dict) -> str:
    return (
        f"worst CDF gap {worst['gap']:.4f} (DKW bound up to {worst['eps']:.4f}), "
        f"worst error/bound cdf {worst['cdf']:.2f}, mean {worst['mean']:.2f}, mgf {worst['mgf']:.2f} "
        f"at family level {VERIFY_ALPHA:g}, {worst['seconds']:.0f}s"
    )


class TestAcceptance:
    def test_criterion_01_closure_theorem(self):
        """Noncentral mixing: 10 random specs per d in {1,2,3}, nu = d+3."""
        failures, worst = run_battery(central=False)
        assert failures == 0
        assert worst["seconds"] < 120.0
        print(f"ACCEPTANCE 1 PASS: closure theorem, 30/30 specs at 2e5 draws ({battery_line(worst)})")

    def test_criterion_02_central_corollary(self):
        """Central mixing (zero noncentrality): same battery, same bounds."""
        failures, worst = run_battery(central=True)
        assert failures == 0
        print(f"ACCEPTANCE 2 PASS: central-mixing corollary, 30/30 specs ({battery_line(worst)})")

    @pytest.mark.parametrize("nu,h,delta", [(4, 1.0, 0.0), (5, 2.0, 3.0)])
    def test_criterion_03_scalar_reduction(self, nu, h, delta):
        """d = 1: X / (1 + h) is noncentral chi-square with h*delta/(1+h)."""
        spec = MixtureSpec(
            float(nu), SpdMat(1.0), SpdMat(1.0), SpdMat(h),
            SpdMat(delta) if delta else None,
        )
        n = 100_000
        x = sample_hierarchical(spec, RngStream(301, nu), size=n)[:, 0, 0] / (1.0 + h)
        ref = sample_noncentral_chisq(float(nu), h * delta / (1.0 + h), RngStream(302, nu), size=n)
        ks = stats.ks_2samp(x, ref).statistic
        assert ks < 0.01
        print(f"ACCEPTANCE 3 PASS: scalar reduction (nu={nu}, h={h}, delta={delta}), KS {ks:.4f} < 0.01")

    def test_criterion_04_conjugation_law(self):
        """MGF identity exact to 1e-10; Monte Carlo mean of CXC within 1% at 1e6."""
        gen = RngStream(401).generator()
        worst = 0.0
        for _ in range(100):
            d = int(gen.integers(1, 4))
            p = WishartParams(d + 2.5, random_spd(d, gen), random_psd(d, gen))
            c = random_spd(d, gen)
            q = conjugation_params(p, c)
            scale = 0.1 / float(q.scale.eigenvalues[-1])
            t = SymMat(scale * (gen.random((d, d)) - 0.5))
            lhs = wishart_mgf(q, t)
            rhs = wishart_mgf(p, SymMat(c.array @ t.array @ c.array))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst < 1e-10

        p = WishartParams(5.0, random_spd(2, gen), random_psd(2, gen))
        c = random_spd(2, gen)
        draws = sample_wishart(p, RngStream(402), size=1_000_000)
        mean_transformed = (c.array @ draws @ c.array).mean(axis=0)
        target = wishart_mean(conjugation_params(p, c)).array
        err = np.linalg.norm(mean_transformed - target) / np.linalg.norm(target)
        assert err < 0.01
        print(
            f"ACCEPTANCE 4 PASS: conjugation law, MGF identity worst {worst:.2e} < 1e-10, "
            f"MC mean err {err:.4f} < 0.01 at 1e6 draws"
        )

    def test_criterion_05_sop_identity(self):
        """Additivity to 1e-10 relative and rank bounds on 1000 random tables."""
        gen = RngStream(501).generator()
        checked = 0
        worst_add = 0.0
        while checked < 1000:
            a, b = int(gen.integers(2, 6)), int(gen.integers(2, 6))
            n, d = int(gen.integers(2, 5)), int(gen.integers(1, 4))
            batch = min(50, 1000 - checked)
            spec = SimulationSpec(
                a, b, n, d, random_spd(d, gen),
                effect_a=RandomEffect(random_psd(d, gen)),
                effect_b=RandomEffect(random_psd(d, gen)),
                effect_ab=RandomEffect(random_psd(d, gen)),
            )
            tables = simulate_design(spec, gen, size=batch)
            sop_a, sop_b, sop_ab, sop_e = sop_arrays(tables)
            dev = tables - tables.mean(axis=(1, 2, 3), keepdims=True)
            sop_t = np.einsum("mijku,mijkv->muv", dev, dev)
            err = np.linalg.norm(sop_a + sop_b + sop_ab + sop_e - sop_t, axis=(1, 2))
            rel = err / np.linalg.norm(sop_t, axis=(1, 2))
            worst_add = max(worst_add, float(rel.max()))
            assert np.all(rel < 1e-10)
            for sop, bound in ((sop_a, a - 1), (sop_b, b - 1), (sop_ab, (a - 1) * (b - 1))):
                w = np.linalg.eigvalsh(sop)
                lam_max = np.maximum(w[:, -1], 1e-300)
                ranks = (w > 1e-10 * lam_max[:, None]).sum(axis=1)
                assert np.all(ranks <= min(bound, d))
            checked += batch
        print(f"ACCEPTANCE 5 PASS: SOP additivity worst {worst_add:.2e} < 1e-10 and rank bounds on 1000 tables")

    def test_criterion_06_sigma_invariance_cli(self, tmp_path):
        """Eigenvalue lists agree to 1e-8 across sigma choices, through the CLI."""
        from test_cli import write_design_csv

        csv_path, names = write_design_csv(tmp_path / "d.csv", a=4, b=4, n_raw=5, seed=601)
        gen = RngStream(602).generator()
        common = [
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--subsample-seed", "6", "--n-mc", "1000", "--mc-seed", "6",
        ]
        base_json = tmp_path / "base.json"
        assert main(common + ["--json", str(base_json)]) == EXIT_OK
        base = json.loads(base_json.read_text())
        for trial in range(5):
            g = gen.standard_normal((2, 2))
            m = g @ g.T + 0.5 * np.eye(2)
            sigma_path = tmp_path / f"sigma{trial}.txt"
            sigma_path.write_text(
                f"2\n{float(m[0, 0])!r} {float(m[0, 1])!r}\n{float(m[1, 0])!r} {float(m[1, 1])!r}\n"
            )
            out_json = tmp_path / f"out{trial}.json"
            assert main(common + ["--sigma", str(sigma_path), "--json", str(out_json)]) == EXIT_OK
            other = json.loads(out_json.read_text())
            for fb, fo in zip(base["factors"], other["factors"]):
                np.testing.assert_allclose(fo["eigenvalues"], fb["eigenvalues"], rtol=1e-8, atol=1e-12)
                assert fo["p"] == fb["p"]
        print("ACCEPTANCE 6 PASS: statistic eigenvalues sigma-invariant to 1e-8 through the CLI (identity + 5 random)")

    def test_criterion_07_null_calibration(self):
        """500 all-null 5x6x5 d=2 datasets, n_mc = 2000, all factors and functionals."""
        start = time.time()
        spec = SimulationSpec(5, 6, 5, 2, SpdMat(np.eye(2)))
        # One call per functional; all four draw the same tables and null sets.
        summaries = {
            fn: null_calibration(spec, 500, McConfig(n_mc=2000, seed=11, functional=fn), RngStream(12))
            for fn in StatisticFunctional
        }
        elapsed = time.time() - start
        assert elapsed < 600.0
        worst_rate_gap, worst_ks_p = 0.0, 1.0
        for fn, summary in summaries.items():
            for factor, res in summary.results.items():
                rate = res.rejection_rates[0.05]
                assert RATE_BAND[0] <= rate <= RATE_BAND[1], (factor, fn, rate)
                assert res.ks_pvalue > 0.01, (factor, fn, res.ks_pvalue)
                worst_rate_gap = max(worst_rate_gap, abs(rate - 0.05))
                worst_ks_p = min(worst_ks_p, res.ks_pvalue)
        print(
            f"ACCEPTANCE 7 PASS: null calibration, 12 factor/functional pairs, "
            f"5% rates within {RATE_BAND}, min KS p {worst_ks_p:.3f} > 0.01 ({elapsed:.0f}s)"
        )

    def test_criterion_08_fixed_random_null_equivalence(self):
        """Fixed-all-zero and random-zero-covariance nulls are KS-indistinguishable."""
        a, b, n, d = 3, 3, 2, 2
        eye = SpdMat(np.eye(d))
        zero_cov = SpdMat(np.zeros((d, d)))
        specs = {
            "fixed": SimulationSpec(
                a, b, n, d, eye,
                effect_a=FixedEffect(np.zeros((a, d))),
                effect_b=FixedEffect(np.zeros((b, d))),
                effect_ab=FixedEffect(np.zeros((a, b, d))),
            ),
            "random": SimulationSpec(
                a, b, n, d, eye,
                effect_a=RandomEffect(zero_cov),
                effect_b=RandomEffect(zero_cov),
                effect_ab=RandomEffect(zero_cov),
            ),
        }
        samples = {}
        for seed, (name, spec) in zip((801, 802), specs.items()):
            tables = simulate_design(spec, RngStream(seed), size=10_000)
            sop_a, sop_b, sop_ab, sop_e = sop_arrays(tables)
            samples[name] = {
                factor: scalar_statistic(
                    batched_statistic_eigs(num, sop_e), StatisticFunctional.HOTELLING_LAWLEY
                )
                for factor, num in (("A", sop_a), ("B", sop_b), ("AB", sop_ab))
            }
        min_p = 1.0
        for factor in ("A", "B", "AB"):
            p = stats.ks_2samp(samples["fixed"][factor], samples["random"][factor]).pvalue
            assert p > 0.01, (factor, p)
            min_p = min(min_p, p)
        print(f"ACCEPTANCE 8 PASS: fixed/random null equivalence, min KS p {min_p:.3f} > 0.01 at 1e4 tables")

    def test_criterion_09_strong_effect_pipeline(self, tmp_path):
        """5x7x3 d=2 pipeline with strong factor effects: p_A, p_B < 0.01 for 10 subsample seeds."""
        from test_cli import write_design_csv

        csv_path, names = write_design_csv(
            tmp_path / "strong.csv", a=5, b=7, n_raw=12, seed=901, effect_scale=25.0,
        )
        worst = 0.0
        for sub_seed in range(10):
            out_json = tmp_path / f"r{sub_seed}.json"
            code = main([
                "manova", "--input", str(csv_path), "--responses", ",".join(names),
                "--n-per-cell", "3", "--subsample-seed", str(sub_seed),
                "--n-mc", "10000", "--mc-seed", "9", "--json", str(out_json),
            ])
            assert code == EXIT_OK
            doc = json.loads(out_json.read_text())
            by_name = {f["name"]: f["p"]["p_hat"] for f in doc["factors"]}
            assert by_name["A"] < 0.01 and by_name["B"] < 0.01, (sub_seed, by_name)
            worst = max(worst, by_name["A"], by_name["B"])
        print(f"ACCEPTANCE 9 PASS: strong-effect 5x7x3 pipeline, p_A and p_B < 0.01 for 10 seeds (worst {worst:.4f})")

    def test_criterion_10_univariate_f(self):
        """d = 1: exact F p-values calibrate, and the Beta II eigenvalue is (nu_x/nu_e) F."""
        spec = SimulationSpec(5, 6, 5, 1, SpdMat(1.0))
        tables = simulate_design(spec, RngStream(1001), size=500)
        sops = sop_arrays(tables)
        tests = factor_tests(5, 6, 5, 1)
        nu_e = tests[0].dof_den
        numerators = dict(zip(("A", "B", "AB"), sops[:3]))
        nu_x = {t.name: t.dof_num for t in tests}
        sop_e = sops[3]
        min_ks_p = 1.0
        for factor in ("A", "B", "AB"):
            f_stats = (numerators[factor][:, 0, 0] / nu_x[factor]) / (sop_e[:, 0, 0] / nu_e)
            pvals = stats.f.sf(f_stats, nu_x[factor], nu_e)
            rate = float(np.mean(pvals <= 0.05))
            ks_p = float(stats.kstest(pvals, "uniform").pvalue)
            assert RATE_BAND[0] <= rate <= RATE_BAND[1], (factor, rate)
            assert ks_p > 0.01, (factor, ks_p)
            min_ks_p = min(min_ks_p, ks_p)

            eigs = batched_statistic_eigs(numerators[factor], sop_e)[:, 0]
            identity_err = np.max(np.abs(eigs - (nu_x[factor] / nu_e) * f_stats) / eigs)
            assert identity_err < 1e-10
        print(
            f"ACCEPTANCE 10 PASS: univariate F calibration (min KS p {min_ks_p:.3f}) and "
            f"Beta II eigenvalue identity to 1e-10"
        )
