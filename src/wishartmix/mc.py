"""Monte Carlo calibration of the matrix-variate Beta Type II null law.

The factor statistics of a balanced design follow an exact Beta Type II
distribution under the null, but the scalar functionals of its eigenvalues
have no convenient closed-form CDFs.  p-values are therefore estimated by
sampling the null: draw eigenvalue lists, apply the functional, and count the
draws at least as extreme as the observed value in the functional's tail
direction.  The add-one estimator ``(1 + n_extreme) / (1 + n_mc)`` is
reported; it is never exactly zero and is exactly valid at finite ``n_mc``.
Ties count as extreme.

Determinism: the null stream is derived from ``(seed, dof1, dof2, dim)``, so
factor tests whose degrees of freedom coincide automatically share one draw
set, while different degrees of freedom get independent sets.  Draws are
produced in fixed-quota chunks with one child stream each, making every
estimate independent of worker scheduling.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import kstest

from .distributions import BetaIIParams, _nonnegative_int, _positive_int, beta2_eigenvalues
from .manova import (
    FACTOR_TESTS,
    FACTORS,
    SimulationSpec,
    StatisticFunctional,
    _test_dofs,
    batched_statistic_eigs,
    scalar_statistic,
    simulate_design,
    sop_arrays,
)
from .rng import RngStream, _as_stream, _chunk_spans

__all__ = [
    "McConfig",
    "PValueEstimate",
    "mc_pvalue",
    "FactorCalibration",
    "CalibrationSummary",
    "null_calibration",
]

_MC_CHUNK = 1 << 16
_DATASET_CHUNK = 256

#: Nominal levels reported by :func:`null_calibration`.
CALIBRATION_LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: draw count, base seed, and scalar functional."""

    n_mc: int = 10_000
    seed: int = 0
    functional: StatisticFunctional = StatisticFunctional.HOTELLING_LAWLEY

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mc", _positive_int(self.n_mc, "n_mc"))
        object.__setattr__(self, "functional", StatisticFunctional(self.functional))


@dataclass(frozen=True)
class PValueEstimate:
    """Add-one Monte Carlo p-value with its binomial standard error.

    ``p_hat = (1 + n_extreme) / (1 + n_mc)`` lies in ``(0, 1]``;
    ``mc_se = sqrt(p_hat (1 - p_hat) / n_mc)``.  The raw proportion
    ``n_extreme / n_mc`` stays available for reporting.
    """

    p_hat: float
    mc_se: float
    n_mc: int
    n_extreme: int

    @property
    def p_raw(self) -> float:
        return self.n_extreme / self.n_mc


def _estimate(n_extreme: int, n_mc: int) -> PValueEstimate:
    p_hat = (1 + n_extreme) / (1 + n_mc)
    return PValueEstimate(p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_mc)), n_mc, int(n_extreme))


def _null_stream(seed: int, dof1: float, dof2: float, dim: int) -> RngStream:
    tag = zlib.crc32(f"beta2|{dof1:.17g}|{dof2:.17g}|{dim}".encode())
    return RngStream(seed, tag)


def _count_extreme(stats: np.ndarray, observed: float, functional: StatisticFunctional) -> int:
    if functional.lower_tail:
        return int(np.count_nonzero(stats <= observed))
    return int(np.count_nonzero(stats >= observed))


def mc_pvalue(observed: float, dof1: float, dof2: float, dim: int, cfg: McConfig) -> PValueEstimate:
    """Monte Carlo p-value of an observed functional value under the Beta II null.

    Draws ``cfg.n_mc`` eigenvalue lists from the Beta Type II law with
    half-dof parameters ``(dof1/2, dof2/2)``, applies ``cfg.functional``, and
    counts draws at least as extreme as ``observed`` (lower tail for Wilks,
    upper tail otherwise, ties inclusive).
    """
    params = BetaIIParams(dof1, dof2, dim)
    observed = float(observed)
    if not np.isfinite(observed):
        raise ValueError(f"observed statistic must be finite, got {observed}")
    if cfg.n_mc < 1000:
        warnings.warn(
            f"n_mc = {cfg.n_mc} is below 1000; the p-value estimate will be coarse",
            stacklevel=2,
        )
    stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
    n_extreme = 0
    for k, _, n in _chunk_spans(cfg.n_mc, _MC_CHUNK):
        eigs = beta2_eigenvalues(params, stream.generator(k), n)
        n_extreme += _count_extreme(scalar_statistic(eigs, cfg.functional), observed, cfg.functional)
    return _estimate(n_extreme, cfg.n_mc)


@dataclass(frozen=True)
class FactorCalibration:
    """Calibration result for one factor under one functional."""

    factor: str
    functional: StatisticFunctional
    pvalues: np.ndarray
    rejection_rates: dict[float, float]
    ks_stat: float
    ks_pvalue: float


@dataclass(frozen=True)
class CalibrationSummary:
    """Null-calibration results keyed by ``(factor, functional)``."""

    n_datasets: int
    n_mc: int
    results: dict[tuple[str, StatisticFunctional], FactorCalibration]

    def get(self, factor: str, functional: StatisticFunctional) -> FactorCalibration:
        return self.results[(factor, StatisticFunctional(functional))]

    def to_text(self) -> str:
        lines = [f"null calibration over {self.n_datasets} datasets, n_mc = {self.n_mc}"]
        for (factor, functional), res in self.results.items():
            rates = "  ".join(f"@{lvl:g}: {rate:.4f}" for lvl, rate in res.rejection_rates.items())
            lines.append(
                f"  factor {factor:<2} {functional.value:<16} {rates}  KS {res.ks_stat:.4f} (p {res.ks_pvalue:.3f})"
            )
        return "\n".join(lines)


def null_calibration(
    spec: SimulationSpec,
    n_datasets: int,
    cfg: McConfig,
    rng: RngStream | int,
    functionals: tuple[StatisticFunctional, ...] | None = None,
) -> CalibrationSummary:
    """Self-check of the three-factor battery on simulated tables.

    Simulates ``n_datasets`` tables from ``spec``, runs the full battery on
    each, and summarizes the per-factor p-value samples: empirical rejection
    rates at the nominal levels ``(0.01, 0.05, 0.10)`` and a KS test against
    uniformity.  Uniformity is only the expected outcome when ``spec`` is an
    all-null configuration; with genuine effects the rejection rates report
    power instead.

    ``functionals`` defaults to ``(cfg.functional,)``; pass
    ``tuple(StatisticFunctional)`` to calibrate all four from one shared set
    of null draws.  Every dataset gets an independent null draw set, derived
    deterministically from ``cfg.seed``.
    """
    rng = _as_stream(rng, "null_calibration")
    n_datasets = _nonnegative_int(n_datasets, "n_datasets")
    functionals = tuple(StatisticFunctional(f) for f in (functionals or (cfg.functional,)))
    dofs = _test_dofs(spec.levels_a, spec.levels_b, spec.reps, spec.dim)
    if cfg.n_mc < 1000 and n_datasets > 0:
        warnings.warn(
            f"n_mc = {cfg.n_mc} is below 1000; the p-value estimates will be coarse",
            stacklevel=2,
        )
    if n_datasets == 0:
        return CalibrationSummary(0, cfg.n_mc, {})

    pvals: dict[tuple[str, StatisticFunctional], list[float]] = {
        (f, fn): [] for f in FACTORS for fn in functionals
    }

    for chunk_idx, done, m in _chunk_spans(n_datasets, _DATASET_CHUNK):
        tables = simulate_design(spec, rng.generator(0, chunk_idx), size=m)
        sops = sop_arrays(tables)
        for factor, num, den in FACTOR_TESTS:
            eigs_obs = batched_statistic_eigs(sops[num], sops[den])
            observed = {fn: scalar_statistic(eigs_obs, fn).tolist() for fn in functionals}
            params = BetaIIParams(dofs[num], dofs[den], spec.dim)
            null_stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
            for i in range(m):
                eigs_null = beta2_eigenvalues(params, null_stream.generator(done + i), cfg.n_mc)
                for fn in functionals:
                    n_extreme = _count_extreme(scalar_statistic(eigs_null, fn), observed[fn][i], fn)
                    pvals[(factor, fn)].append((1 + n_extreme) / (1 + cfg.n_mc))

    results = {}
    for factor in FACTORS:
        for fn in functionals:
            p = np.array(pvals[(factor, fn)])
            rates = {lvl: float(np.mean(p <= lvl)) for lvl in CALIBRATION_LEVELS}
            ks = kstest(p, "uniform")
            results[(factor, fn)] = FactorCalibration(
                factor, fn, p, rates, float(ks.statistic), float(ks.pvalue)
            )
    return CalibrationSummary(n_datasets, cfg.n_mc, results)
