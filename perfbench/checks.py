"""Correctness checks for the three benchmark workloads.

Each checker returns a list of problems; an empty list means the operation's
output is correct.  The checks use exact laws where theory gives one, so the
oracle side needs no Monte Carlo:

* ``manova_csv`` — for ``d = 2`` Wilks' Lambda has an exact F law
  (Anderson 2003, section 8.4):
  ``F = ((1 - sqrt(L)) / sqrt(L)) (nu_E - 1) / nu_H ~ F(2 nu_H, 2 (nu_E - 1))``.
  Each Monte Carlo p-value must sit within ``4 mc_se + 1 / (n_mc + 1)`` of it.
* ``closure_verify`` — the CLI's exit code (0 means every spec passed the
  published thresholds).
* ``null_calibrate`` — per factor, the exact one-sample KS p-value of the
  printed KS distance and the number of rejections at 0.05 against the exact
  binomial band for the dataset count.
"""

from __future__ import annotations

import math
import re

from scipy.stats import binom, f as f_dist, kstwo

#: Two-sided false-alarm level of each calibration check.  One check per
#: factor and per distinct calibration seed; at 1e-6 a correct engine fails a
#: benchmark run about once in 10^5 runs, while a rate at 0.05 outside
#: [0, 0.13] or a KS distance above 0.19 (200 datasets) is still caught.
CALIBRATION_ALPHA = 1e-6
CALIBRATION_LEVEL = 0.05

_CAL_LINE = re.compile(r"^\s*factor (\S+)\s+(\S+)\s+(.*?)\s+KS (\S+) \(p \S+\)\s*$")
_CAL_RATE = re.compile(r"@(\S+): (\S+)")


def wilks_d2_exact_pvalue(eigenvalues, nu_h: int, nu_e: int) -> float:
    """Exact lower-tail p-value of Wilks' Lambda for ``d = 2`` (Anderson 2003, 8.4)."""
    if len(eigenvalues) != 2:
        raise ValueError(f"the exact Wilks F law needs d = 2, got d = {len(eigenvalues)}")
    lam = 1.0
    for ev in eigenvalues:
        lam /= 1.0 + float(ev)
    root = math.sqrt(lam)
    f_stat = (1.0 - root) / root * (nu_e - 1) / nu_h
    return float(f_dist.sf(f_stat, 2 * nu_h, 2 * (nu_e - 1)))


def check_manova_report(report: dict) -> list[str]:
    """Check every factor p-value of a ``manova --functional wilks --json`` report."""
    cfg = report["config"]
    if cfg["functional"] != "wilks" or cfg["d"] != 2:
        return [f"report is {cfg['functional']} with d = {cfg['d']}; the exact check needs wilks, d = 2"]
    a, b, n = cfg["a"], cfg["b"], cfg["n"]
    dof = {"A": a - 1, "B": b - 1, "AB": (a - 1) * (b - 1)}
    nu_e = a * b * (n - 1)
    problems = []
    names = [fr["name"] for fr in report["factors"]]
    if sorted(names) != sorted(dof):
        problems.append(f"report factors {names}, expected {sorted(dof)}")
    for fr in report["factors"]:
        if fr["name"] not in dof:
            continue
        p = fr["p"]
        exact = wilks_d2_exact_pvalue(fr["eigenvalues"], dof[fr["name"]], nu_e)
        tol = 4.0 * p["mc_se"] + 1.0 / (p["n_mc"] + 1)
        if not abs(p["p_hat"] - exact) <= tol:
            problems.append(
                f"factor {fr['name']}: p_hat {p['p_hat']:.6g} vs exact {exact:.6g}, tolerance {tol:.3g}"
            )
    return problems


def check_verify_exit(code: int) -> list[str]:
    """``wishartmix verify`` exits 0 only when every spec passed."""
    return [] if code == 0 else [f"verify exited with code {code}"]


def binomial_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Exact two-sided acceptance band ``[lo, hi]`` for a Binomial(n, p) count."""
    return int(binom.ppf(alpha / 2, n, p)), int(binom.isf(alpha / 2, n, p))


def check_calibration_text(text: str, datasets: int, factors=("A", "B", "AB")) -> list[str]:
    """Check the ``wishartmix calibrate`` summary for every factor.

    The KS p-value is recomputed exactly from the printed distance, because the
    printed p has three decimals only.
    """
    lo, hi = binomial_band(datasets, CALIBRATION_LEVEL, CALIBRATION_ALPHA)
    seen = {}
    for line in text.splitlines():
        m = _CAL_LINE.match(line)
        if m:
            rates = {float(lvl): float(rate) for lvl, rate in _CAL_RATE.findall(m.group(3))}
            seen[m.group(1)] = (rates, float(m.group(4)))
    problems = []
    for factor in factors:
        if factor not in seen:
            problems.append(f"factor {factor}: no calibration line")
            continue
        rates, ks_stat = seen[factor]
        if CALIBRATION_LEVEL not in rates:
            problems.append(f"factor {factor}: no rejection rate at {CALIBRATION_LEVEL:g}")
            continue
        rejections = round(rates[CALIBRATION_LEVEL] * datasets)
        if not lo <= rejections <= hi:
            problems.append(
                f"factor {factor}: {rejections}/{datasets} rejections at {CALIBRATION_LEVEL:g}, "
                f"outside the exact band [{lo}, {hi}]"
            )
        ks_p = float(kstwo.sf(ks_stat, datasets))
        if not ks_p >= CALIBRATION_ALPHA:
            problems.append(f"factor {factor}: KS {ks_stat:.4f} has p {ks_p:.3g} < {CALIBRATION_ALPHA:g}")
    return problems
