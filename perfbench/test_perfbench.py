"""Tests of the benchmark's own checks and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402


def _report(p_hat_shift: float = 0.0) -> dict:
    a, b, n = 5, 7, 3
    nu_e = a * b * (n - 1)
    factors = []
    for name, nu_h, eigs in (("A", a - 1, [4.0, 0.5]), ("B", b - 1, [0.1, 0.02]), ("AB", 24, [0.4, 0.2])):
        exact = checks.wilks_d2_exact_pvalue(eigs, nu_h, nu_e)
        se = (exact * (1 - exact) / 100_000) ** 0.5
        factors.append(
            {"name": name, "eigenvalues": eigs, "p": {"p_hat": exact, "mc_se": se, "n_mc": 100_000}}
        )
    factors[1]["p"]["p_hat"] += p_hat_shift
    return {"factors": factors, "config": {"functional": "wilks", "a": a, "b": b, "n": n, "d": 2}}


def test_manova_check_accepts_exact_pvalues():
    assert checks.check_manova_report(_report()) == []


def test_manova_check_rejects_perturbed_pvalue():
    problems = checks.check_manova_report(_report(p_hat_shift=0.01))
    assert len(problems) == 1 and problems[0].startswith("factor B")


def test_wilks_oracle_agrees_with_monte_carlo_pvalue():
    from wishartmix import McConfig, StatisticFunctional, mc_pvalue, scalar_statistic

    eigs = [0.3, 0.05]
    observed = scalar_statistic(eigs, StatisticFunctional.WILKS)
    cfg = McConfig(n_mc=20_000, seed=7, functional=StatisticFunctional.WILKS)
    p = mc_pvalue(observed, 6, 70, 2, cfg)
    exact = checks.wilks_d2_exact_pvalue(eigs, 6, 70)
    assert abs(p.p_hat - exact) <= 4 * p.mc_se + 1 / (p.n_mc + 1)


def test_verify_check_uses_exit_code():
    assert checks.check_verify_exit(0) == []
    assert checks.check_verify_exit(3) == ["verify exited with code 3"]


def _calibration_text(rate_b: float = 0.05, ks_a: float = 0.05) -> str:
    return "\n".join(
        [
            "null calibration over 200 datasets, n_mc = 2000",
            f"  factor A  hotelling-lawley  @0.01: 0.0100  @0.05: 0.0450  @0.1: 0.1000  KS {ks_a:.4f} (p 0.672)",
            f"  factor B  hotelling-lawley  @0.01: 0.0150  @0.05: {rate_b:.4f}  @0.1: 0.1100  KS 0.0400 (p 0.900)",
            "  factor AB hotelling-lawley  @0.01: 0.0050  @0.05: 0.0600  @0.1: 0.0900  KS 0.0610 (p 0.441)",
        ]
    )


def test_calibration_check_accepts_nominal_rates():
    assert checks.check_calibration_text(_calibration_text(), 200) == []


@pytest.mark.parametrize(
    "text, factor",
    [
        (_calibration_text(rate_b=0.2), "factor B"),
        (_calibration_text(ks_a=0.3), "factor A"),
        ("\n".join(_calibration_text().splitlines()[:-1]), "factor AB"),
    ],
)
def test_calibration_check_rejects_out_of_band(text, factor):
    problems = checks.check_calibration_text(text, 200)
    assert len(problems) == 1 and problems[0].startswith(factor)


def test_binomial_band_is_exact():
    from scipy.stats import binom

    lo, hi = checks.binomial_band(200, 0.05, 1e-3)
    assert binom.cdf(lo - 1, 200, 0.05) < 5e-4 <= binom.cdf(lo, 200, 0.05)
    assert binom.sf(hi, 200, 0.05) <= 5e-4 < binom.sf(hi - 1, 200, 0.05)


def test_tracer_counts_streams_and_restores_functions():
    from wishartmix import cli, design_io, mc
    from wishartmix.rng import RngStream

    originals = (cli.main, design_io.mc_pvalue, mc.beta2_eigenvalues, RngStream.generator)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert design_io.mc_pvalue.__wrapped__ is originals[1]
        argv = ["calibrate", "--a", "2", "--b", "3", "--n", "2", "--dim", "1", "--datasets", "5", "--n-mc", "50"]
        with pytest.warns(UserWarning):
            assert cli.main([*argv, "--seed", "3"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, design_io.mc_pvalue, mc.beta2_eigenvalues, RngStream.generator) == originals
    m = tracing.op_metrics(tracer.spans)
    m.update(tracing.derived_metrics(m))
    assert m["rng.generators"] == 1 + 3 * 5
    assert m["distributions.beta2_calls"] == 3 * 5
    assert m["distributions.beta2_eigenvalues_count"] == 3 * 5 * 50
    assert m["cli.calls"] == 1
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    assert m["cli.main_s"] == pytest.approx(sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS if f"{layer}.self_s" in m))


def test_self_time_subtracts_children():
    spans = [
        tracing.Span(1, None, "mc.mc_pvalue", 0.0, 1.0, 0, False, 0),
        tracing.Span(2, 1, "distributions.beta2_eigenvalues", 0.1, 0.4, 0, False, 10),
        tracing.Span(3, 1, "distributions.beta2_eigenvalues", 0.5, 0.7, 0, True, 0),
        tracing.Span(4, 3, "symmat.sym_sqrt", 0.55, 0.6, 0, False, 0),
        tracing.Span(5, 4, "symmat.assert_pd", 0.56, 0.58, 0, False, 0),
    ]
    m = tracing.op_metrics(spans)
    assert m["mc.mc_pvalue_self_s"] == pytest.approx(0.5)
    assert m["distributions.beta2_eigenvalues_s"] == pytest.approx(0.5)
    assert m["distributions.beta2_eigenvalues_self_s"] == pytest.approx(0.45)
    assert m["distributions.errors"] == 1
    assert m["symmat.calls"] == 1 and m["symmat.s"] == pytest.approx(0.05)
    assert tracing.derived_metrics(m)["distributions.beta2_draws_per_s"] == pytest.approx(20.0)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "manova_csv", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_marks_direction():
    import compare

    spec = {"end_to_end": [{"name": "op_ref_p50", "unit": "ref", "better": "lower"}], "per_layer": []}
    base = {"manova_csv": {"op_ref_p50": 100.0, "draws_per_s": 10.0}}
    new = {"manova_csv": {"op_ref_p50": 80.0, "draws_per_s": 8.0}, "closure_verify": {"op_ref_p50": 1.0}}
    lines = compare.compare(base, new, spec)
    assert len(lines) == 3
    assert "0.800  better (ref)" in lines[1]
    assert lines[2].startswith("manova_csv") and "0.800  worse (1/s)" in lines[2]
