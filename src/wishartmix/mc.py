"""Monte Carlo calibration of the matrix-variate Beta Type II null law.

The factor statistics of a balanced design follow an exact Beta Type II
distribution under the null, but the scalar functionals of its eigenvalues
have no convenient closed-form CDFs.  p-values are therefore estimated by
sampling the null statistic (:func:`_null_statistics`: at ``d = 2`` a closed
form in each draw's ``tr(C C')`` and ``det(C C')``, with no eigenvalue list)
and counting the draws at least as extreme as the observed value in the
functional's tail direction.  The draws come from ``distributions``' one
Beta II draw routine, which raises on a draw that overflows.  The add-one
estimator ``(1 + n_extreme) / (1 + n_mc)`` is reported; it is never exactly
zero and is exactly valid at finite ``n_mc``.  Ties count as extreme.

Determinism: the null stream is derived from ``(seed, dof1, dof2, dim)``, so
factor tests whose degrees of freedom coincide automatically share one draw
set, while different degrees of freedom get independent sets.  One step,
:func:`_null_count`, draws a null set from a given child stream and counts
the tail of ``cfg.functional``: :func:`mc_pvalue` takes one per fixed-quota
chunk (child ``k`` for chunk ``k``), :func:`null_calibration` one of ``n_mc``
draws per dataset (child ``i`` for dataset ``i``).  So at ``n_mc`` up to one
chunk, 65,536 draws, a report on calibration's dataset 0 gives its p-values.

Imports: ``scipy.stats``, over a second to import on a 2-core x86-64 host,
is imported inside its one user, :func:`null_calibration` (for the KS
test), so only ``calibrate`` pays for it.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .distributions import BetaIIParams, _beta2_draws, _beta2_quotient, _beta2_top, beta2_eigenvalues
from .manova import (
    FACTOR_TESTS,
    SimulationSpec,
    StatisticFunctional,
    _test_dofs,
    batched_statistic_eigs,
    scalar_statistic,
    simulate_design,
    sop_arrays,
)
from .rng import RngStream, _as_stream, _chunk_spans, _count

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
        object.__setattr__(self, "n_mc", _count(self.n_mc, "n_mc"))
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


def _null_statistics(params: BetaIIParams, gen: np.random.Generator, n: int, fn: StatisticFunctional) -> np.ndarray:
    """``fn`` of ``n`` null draws from ``gen``.

    At ``d = 2``, a closed form in ``tr = c00^2 + c10^2 + c11^2`` and
    ``det = (c00 c11)^2`` of ``C C'``, ``C = T2^{-1} T1`` drawn by
    ``distributions._beta2_draws`` as for :func:`beta2_eigenvalues` (same stream, same batches):
    Hotelling-Lawley ``tr``, Wilks ``1 / (1 + tr + det)``, Pillai
    ``(tr + 2 det) / (1 + tr + det)``, Roy the larger eigenvalue.  ``d = 1``,
    whose eigenvalue is the statistic's one input, and ``d >= 3``, with no
    short closed form, take :func:`scalar_statistic` of the eigenvalues.  A
    draw that overflows as ``dof2 -> d - 1`` raises ``ValueError`` there, so
    no draw is silently dropped from the count.
    """
    if params.dim != 2:
        return scalar_statistic(beta2_eigenvalues(params, gen, n), fn)

    def d2(t1: list[list[np.ndarray]], t2: list[list[np.ndarray]]) -> np.ndarray:
        (c00,), (c10, c11) = _beta2_quotient(t1, t2)
        del t1, t2  # free the columns, so the statistic's arrays reuse their memory, not fresh pages
        if fn is StatisticFunctional.ROY:
            return _beta2_top(c00, c10, c11)
        tr = c00 * c00 + c10 * c10 + c11 * c11
        if fn is StatisticFunctional.HOTELLING_LAWLEY:
            return tr
        det = (c00 * c11) ** 2
        return 1.0 / (1.0 + tr + det) if fn is StatisticFunctional.WILKS else (tr + 2.0 * det) / (1.0 + tr + det)

    return _beta2_draws(params, gen, n, (), d2)


def _null_count(params: BetaIIParams, gen: np.random.Generator, n: int, fn: StatisticFunctional, observed: float) -> int:
    """Count the :func:`_null_statistics` that are at least as extreme as ``observed``."""
    stats = _null_statistics(params, gen, n, fn)
    return int(np.count_nonzero(stats <= observed if fn.lower_tail else stats >= observed))


def _warn_if_coarse(n_mc: int) -> None:
    """Warn, at the caller of the public function that calls this, when ``n_mc`` is below 1000."""
    if n_mc < 1000:
        warnings.warn(f"n_mc = {n_mc} is below 1000; the p-value estimates will be coarse", stacklevel=3)


def mc_pvalue(observed: float, dof1: float, dof2: float, dim: int, cfg: McConfig) -> PValueEstimate:
    """Monte Carlo p-value of an observed functional value under the Beta II null.

    Draws ``cfg.n_mc`` null values of ``cfg.functional`` (Beta Type II law,
    half-dof parameters ``(dof1/2, dof2/2)``) and counts those at least as
    extreme as ``observed`` (lower tail for Wilks, upper otherwise, ties included).
    """
    params = BetaIIParams(dof1, dof2, dim)
    observed = float(observed)
    if not np.isfinite(observed):
        raise ValueError(f"observed statistic must be finite, got {observed}")
    _warn_if_coarse(cfg.n_mc)
    stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
    n_extreme = sum(
        _null_count(params, stream.generator(k), n, cfg.functional, observed)
        for k, _, n in _chunk_spans(cfg.n_mc, _MC_CHUNK)
    )
    return _estimate(n_extreme, cfg.n_mc)


@dataclass(frozen=True)
class FactorCalibration:
    """Calibration result for the factor it is keyed by in :class:`CalibrationSummary`."""

    pvalues: np.ndarray
    rejection_rates: dict[float, float]
    ks_stat: float
    ks_pvalue: float


@dataclass(frozen=True)
class CalibrationSummary:
    """Null-calibration results of ``cfg.functional``, keyed by factor name in ``FACTOR_TESTS`` order."""

    n_datasets: int
    cfg: McConfig
    results: dict[str, FactorCalibration]

    def to_text(self) -> str:
        lines = [f"null calibration over {self.n_datasets} datasets, n_mc = {self.cfg.n_mc}"]
        for factor, res in self.results.items():
            rates = "  ".join(f"@{lvl:g}: {rate:.4f}" for lvl, rate in res.rejection_rates.items())
            lines.append(
                f"  factor {factor:<2} {self.cfg.functional.value:<16} {rates}  KS {res.ks_stat:.4f} (p {res.ks_pvalue:.3f})"
            )
        return "\n".join(lines)


def null_calibration(
    spec: SimulationSpec,
    n_datasets: int,
    cfg: McConfig,
    rng: RngStream | int,
) -> CalibrationSummary:
    """Self-check of the three-factor battery on simulated tables.

    Simulates ``n_datasets`` tables from ``spec``, runs the full battery on
    each, and summarizes the per-factor p-value samples: empirical rejection
    rates at the nominal levels ``(0.01, 0.05, 0.10)`` and a KS test against
    uniformity.  Uniformity is only the expected outcome when ``spec`` is an
    all-null configuration; with genuine effects the rejection rates report
    power instead.

    Only ``cfg.functional`` is calibrated.  Every dataset gets an
    independent null draw set, derived deterministically from ``cfg.seed``
    and not from the functional, so calls that differ only in
    ``cfg.functional`` draw the same tables and null sets.
    """
    rng = _as_stream(rng, "null_calibration")
    n_datasets = _count(n_datasets, "n_datasets", 0)
    dofs = _test_dofs(spec.levels_a, spec.levels_b, spec.reps, spec.dim)
    if n_datasets == 0:
        return CalibrationSummary(0, cfg, {})
    _warn_if_coarse(cfg.n_mc)

    pvals: dict[str, list[float]] = {factor: [] for factor, _, _ in FACTOR_TESTS}

    for chunk_idx, done, m in _chunk_spans(n_datasets, _DATASET_CHUNK):
        tables = simulate_design(spec, rng.generator(0, chunk_idx), size=m)
        sops = sop_arrays(tables)
        for factor, num, den in FACTOR_TESTS:
            observed = scalar_statistic(batched_statistic_eigs(sops[num], sops[den]), cfg.functional).tolist()
            params = BetaIIParams(dofs[num], dofs[den], spec.dim)
            null_stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
            for i, obs in enumerate(observed):
                n_extreme = _null_count(params, null_stream.generator(done + i), cfg.n_mc, cfg.functional, obs)
                pvals[factor].append(_estimate(n_extreme, cfg.n_mc).p_hat)

    from scipy.stats import kstest  # deferred: see the module docstring

    results = {}
    for factor, values in pvals.items():
        p = np.array(values)
        rates = {lvl: float(np.mean(p <= lvl)) for lvl in CALIBRATION_LEVELS}
        ks = kstest(p, "uniform")
        results[factor] = FactorCalibration(p, rates, float(ks.statistic), float(ks.pvalue))
    return CalibrationSummary(n_datasets, cfg, results)
