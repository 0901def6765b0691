"""Monte Carlo calibration of the matrix-variate Beta Type II null law.

The factor statistics of a balanced design follow an exact Beta Type II
distribution under the null, but the scalar functionals of its eigenvalues
have no convenient closed-form CDFs.  p-values are therefore estimated by
sampling the null statistic (at ``d = 2`` :func:`_d2_kernel`, a closed form
in each draw's ``tr(C C')`` and ``det(C C')``, with no eigenvalue list)
and counting the draws at least as extreme as the observed value in the
functional's tail direction.  The draws come from ``distributions``' one
Beta II draw routine, which raises on a draw that overflows.  Ties count as
extreme.

The count is sequential (Besag and Clifford, "Sequential Monte Carlo
p-values", *Biometrika* 78, 1991): :func:`_null_counts` draws in batches of
64, 128, 256 and so on, at most ``_MC_CHUNK``, and stops at the ``h``-th
extreme draw, ``h = 40``.  Stopped after ``k`` draws, the estimate is
``h / k``; after all ``n_mc`` draws with ``g < h`` extreme, the add-one
``(g + 1) / (n_mc + 1)``.  Both are exactly valid at finite ``n_mc``, never
zero, and a null p-value costs about ``h (1 + ln(n_mc / h))`` draws instead
of ``n_mc``; a small p-value still draws all ``n_mc``.

Determinism: the null stream is derived from ``(seed, dof1, dof2, dim)``, so
factor tests whose degrees of freedom coincide automatically share one draw
set, while different degrees of freedom get independent sets.  Each p-value
counts one child stream: :func:`mc_pvalue` child 0, :func:`null_calibration`
child ``i`` for dataset ``i``.  A chunk's datasets are counted together,
one row per dataset per round, each from its own child stream in the
batches it would draw alone.  So a report on calibration's dataset 0 gives
its p-values at every ``n_mc``.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .distributions import BetaIIParams, _beta2_draws, _beta2_quotient, _beta2_top, beta2_eigenvalues
from .errors import ValidationError
from .manova import FactorTest, SimulationSpec, StatisticFunctional, factor_tests, scalar_statistic, simulate_design
from .manova import sop_arrays, statistic_eigs
from .rng import RngStream, _as_stream, _chunk_spans, _count

__all__ = [
    "McConfig",
    "PValueEstimate",
    "mc_pvalue",
    "FactorCalibration",
    "CalibrationSummary",
    "null_calibration",
]

# Null draws per batch of a sequential count: _FIRST_BATCH, doubling, at most _MC_CHUNK.
_FIRST_BATCH = 64
_MC_CHUNK = 1 << 16
_DATASET_CHUNK = 256

# Extreme null draws at which a sequential count stops.
_H = 40

#: Nominal levels reported by :func:`null_calibration`.
CALIBRATION_LEVELS = (0.01, 0.05, 0.10)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings: null draws per p-value at most, base seed, and scalar functional."""

    n_mc: int = 10_000
    seed: int = 0
    functional: StatisticFunctional = StatisticFunctional.HOTELLING_LAWLEY

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_mc", _count(self.n_mc, "n_mc"))
        object.__setattr__(self, "functional", StatisticFunctional(self.functional))


@dataclass(frozen=True)
class PValueEstimate:
    """Sequential Monte Carlo p-value with its standard error.

    ``n_extreme`` of the first ``n_drawn`` null draws are extreme; ``n_mc``
    is the cap on ``n_drawn``.  A count stopped at its ``h``-th extreme draw
    (``n_extreme = h``, ``n_drawn = k``) gives ``p_hat = h / k`` and the
    negative-binomial delta-method ``mc_se = p~ sqrt((1 - p~) / h)`` at the
    shrunk ``p~ = (h + 8) / (k + 16)``, which is not 0 at ``k = h``.  A count
    that drew all ``n_mc`` gives the add-one ``p_hat = (1 + n_extreme) /
    (1 + n_mc)`` and ``mc_se = sqrt(p_hat (1 - p_hat) / n_mc)``.  Either way
    ``p_hat`` lies in ``(0, 1]``.  The raw proportion ``n_extreme / n_drawn``
    stays available for reporting.
    """

    p_hat: float
    mc_se: float
    n_mc: int
    n_extreme: int
    n_drawn: int

    @property
    def p_raw(self) -> float:
        return self.n_extreme / self.n_drawn


def _estimate(n_extreme: int, n_drawn: int, n_mc: int) -> PValueEstimate:
    """The estimate of a count with ``n_extreme`` extreme draws in ``n_drawn``, at most ``n_mc``.

    ``n_extreme = h``: the count stopped at draw ``n_drawn``; else it drew all ``n_mc``.
    """
    if n_extreme < _H:
        p_hat = (1 + n_extreme) / (1 + n_mc)
        return PValueEstimate(p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_mc)), n_mc, int(n_extreme), int(n_drawn))
    p_tilde = (n_extreme + 8) / (n_drawn + 16)
    se = p_tilde * np.sqrt((1.0 - p_tilde) / n_extreme)
    return PValueEstimate(n_extreme / n_drawn, float(se), n_mc, int(n_extreme), int(n_drawn))


def _value_below(est: PValueEstimate) -> float:
    """The largest value under ``est.p_hat`` that a sequential p-value with cap ``est.n_mc`` takes.

    Under the null, a sequential p-value takes ``h / k`` (stopped at draw
    ``k``) with probability ``h / (k (k + 1))``, and ``(g + 1) / (n_mc + 1)``
    (all drawn, ``g < h`` extreme) with ``1 / (n_mc + 1)``.  Summed, its CDF
    at each of these values ``v`` is ``v`` itself, and just below ``v`` it is
    this value.
    """
    if est.n_extreme < _H:
        return est.n_extreme / (est.n_mc + 1)
    return est.n_extreme / (est.n_drawn + 1)


def _ks_distance(p: np.ndarray, below: np.ndarray) -> float:
    """KS distance of the null p-values ``p`` to their exact law, ``below[i]`` from :func:`_value_below`.

    The law is discrete: ``F(p) = p`` and ``F(p-) = below``.  The sample's
    step function differs most from ``F`` at a sample point, on one side of
    its jump or the other, so both sides are compared.  With ``below = p``
    this is the KS distance to U(0, 1).
    """
    ordered = np.sort(p)
    at = np.searchsorted(ordered, p, side="right") / p.size
    before = np.searchsorted(ordered, p, side="left") / p.size
    return float(max(np.max(np.abs(at - p)), np.max(np.abs(before - below))))


def _null_stream(seed: int, dof1: float, dof2: float, dim: int) -> RngStream:
    tag = zlib.crc32(f"beta2|{dof1:.17g}|{dof2:.17g}|{dim}".encode())
    return RngStream(seed, tag)


def _d2_kernel(fn: StatisticFunctional):
    """The :func:`_beta2_draws` kernel of ``fn``'s null value at ``d = 2``: a closed form in ``tr`` and ``det`` of ``C C'``.

    ``tr = c00^2 + c10^2 + c11^2`` and ``det = (c00 c11)^2``, for ``C = T2^{-1} T1``
    from :func:`_beta2_quotient`: Hotelling-Lawley ``tr``, Wilks
    ``1 / (1 + tr + det)``, Pillai ``(tr + 2 det) / (1 + tr + det)``, Roy the
    larger eigenvalue.  No eigenvalue pair is formed.
    """

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

    return d2


def _null_counts(params: BetaIIParams, gens: list[np.random.Generator], n_mc: int, fn: StatisticFunctional, observed):
    """``(g, k)`` arrays: ``g[r]`` of the first ``k[r]`` null values from ``gens[r]`` are at least as extreme as ``observed[r]``.

    Each row draws batches of ``_FIRST_BATCH``, doubling up to ``_MC_CHUNK``,
    and stops at the ``_H``-th extreme draw, whose position is ``k`` (the
    rest of its batch is not counted: stopping at the batch end would break
    the estimate's validity); else ``k = n_mc``.  Open rows have drawn
    alike, so a round draws one batch size for all of them, as ``(rows, n)``
    slabs of at most ``_MC_CHUNK`` draws: at ``d = 2`` one :func:`_beta2_draws`
    call with :func:`_d2_kernel`, else the rows' stacked
    :func:`beta2_eigenvalues`.  The tail test and the stop positions take one
    pass per slab.  Each row draws from its own generator in its own
    batches, so its count is the one it gets alone.
    """
    observed = np.asarray(observed, dtype=float)
    g, k, rows_open = np.zeros(len(gens), dtype=np.int64), np.full(len(gens), n_mc), np.arange(len(gens))
    done, batch = 0, _FIRST_BATCH
    while done < n_mc and rows_open.size:
        n = min(batch, n_mc - done)
        still = []
        for _, start, m in _chunk_spans(rows_open.size, max(1, _MC_CHUNK // n)):
            rows = rows_open[start : start + m]
            group = [gens[r] for r in rows]
            if params.dim == 2:
                stats = _beta2_draws(params, group, n, (), _d2_kernel(fn))
            else:
                stats = scalar_statistic(np.stack([beta2_eigenvalues(params, gen, n) for gen in group]), fn)
            obs = observed[rows, None]
            hits = np.cumsum(stats <= obs if fn.lower_tail else stats >= obs, axis=1)
            hits += g[rows, None]
            stop = hits[:, -1] >= _H
            g[rows] = np.minimum(hits[:, -1], _H)
            k[rows[stop]] = done + np.argmax(hits[stop] >= _H, axis=1) + 1
            still.append(rows[~stop])
            del stats, hits  # free this group's slab before the next group draws
        rows_open, done, batch = np.concatenate(still), done + n, min(2 * batch, _MC_CHUNK)
    return g, k


def _warn_if_coarse(n_mc: int) -> None:
    """Warn, at the caller of the public function that calls this, when ``n_mc`` is below 1000."""
    if n_mc < 1000:
        warnings.warn(f"n_mc = {n_mc} is below 1000; the p-value estimates will be coarse", stacklevel=3)


def mc_pvalue(observed: float, dof1: float, dof2: float, dim: int, cfg: McConfig) -> PValueEstimate:
    """Monte Carlo p-value of an observed functional value under the Beta II null.

    Draws null values of ``cfg.functional`` (Beta Type II law, half-dof
    parameters ``(dof1/2, dof2/2)``) and counts those at least as extreme as
    ``observed`` (lower tail for Wilks, upper otherwise, ties included), up to
    the 40th such draw or ``cfg.n_mc`` draws, whichever comes first.
    """
    params = BetaIIParams(dof1, dof2, dim)
    observed = float(observed)
    if not np.isfinite(observed):
        raise ValueError(f"observed statistic must be finite, got {observed}")
    _warn_if_coarse(cfg.n_mc)
    stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
    g, k = _null_counts(params, [stream.generator(0)], cfg.n_mc, cfg.functional, [observed])
    return _estimate(int(g[0]), int(k[0]), cfg.n_mc)


@dataclass(frozen=True)
class FactorCalibration:
    """Calibration result for the factor it is keyed by in :class:`CalibrationSummary`.

    ``ks_pvalue`` is the DKW-Massart bound at ``ks_stat``, conservative for the discrete null law.
    """

    pvalues: np.ndarray
    rejection_rates: dict[float, float]
    ks_stat: float
    ks_pvalue: float


@dataclass(frozen=True)
class CalibrationSummary:
    """Null-calibration results of ``cfg.functional``, keyed by factor name in test order, the interaction mode and the tests run.

    A random-interaction summary's first line names the mode and each
    factor's denominator SOP; a fixed one names neither.
    """

    n_datasets: int
    cfg: McConfig
    results: dict[str, FactorCalibration]
    interaction: str = "fixed"
    tests: tuple[FactorTest, ...] = ()

    def to_text(self) -> str:
        lines = [f"null calibration over {self.n_datasets} datasets, n_mc = {self.cfg.n_mc}"]
        if self.interaction == "random":
            against = ", ".join(f"{t.name} against {t.against}" for t in self.tests)
            lines[0] += f", interaction = random ({against})"
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
    interaction: str = "fixed",
) -> CalibrationSummary:
    """Self-check of the three-factor battery on simulated tables.

    Simulates ``n_datasets`` tables from ``spec``, runs the tests of
    :func:`~wishartmix.manova.factor_tests` for ``interaction`` on each, and
    summarizes the per-factor p-value samples: empirical rejection
    rates at the nominal levels ``(0.01, 0.05, 0.10)`` and a KS test against
    the exact null law of a sequential p-value (:func:`_value_below`), which
    is U(0, 1) but for its steps: its atom at 1, of mass ``1 / (h + 1)``,
    alone puts it 0.0244 from U(0, 1).  The KS p-value is the DKW-Massart bound
    ``min(1, 2 exp(-2 n D^2))`` (Massart, *Ann. Probab.* 18, 1990), as in
    :func:`~wishartmix.closure.check_law`: it holds for any law, so it is
    conservative for this discrete one.  That law is only the expected
    outcome when ``spec`` is an all-null configuration; with genuine effects
    the rejection rates report power instead.

    Only ``cfg.functional`` is calibrated.  Every dataset gets an
    independent null draw set, derived deterministically from ``cfg.seed``
    and not from the functional, so calls that differ only in
    ``cfg.functional`` draw the same tables and null streams.  A chunk's
    datasets are counted together, one row per dataset per round, each from
    its own child stream (:func:`_null_counts`).
    """
    rng = _as_stream(rng, "null_calibration")
    n_datasets = _count(n_datasets, "n_datasets", 0)
    tests = factor_tests(spec.levels_a, spec.levels_b, spec.reps, spec.dim, interaction)
    if n_datasets == 0:
        return CalibrationSummary(0, cfg, {}, interaction, tests)
    _warn_if_coarse(cfg.n_mc)

    ests: dict[str, list[PValueEstimate]] = {t.name: [] for t in tests}

    for chunk_idx, done, m in _chunk_spans(n_datasets, _DATASET_CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):
            sops = sop_arrays(simulate_design(spec, rng.generator(0, chunk_idx), size=m))
        if not np.isfinite(sops).all():
            raise ValidationError("the simulated responses overflow the sum of outer products; rescale the covariances")
        for t, eigs in zip(tests, statistic_eigs(sops, tests)):
            observed = scalar_statistic(eigs, cfg.functional)
            params = BetaIIParams(t.dof_num, t.dof_den, spec.dim)
            null_stream = _null_stream(cfg.seed, params.dof1, params.dof2, params.dim)
            gens = [null_stream.generator(done + i) for i in range(m)]
            g, k = _null_counts(params, gens, cfg.n_mc, cfg.functional, observed)
            ests[t.name] += [_estimate(*count, cfg.n_mc) for count in zip(g.tolist(), k.tolist())]

    results = {}
    for factor, values in ests.items():
        p = np.array([est.p_hat for est in values])
        rates = {lvl: float(np.mean(p <= lvl)) for lvl in CALIBRATION_LEVELS}
        ks_stat = _ks_distance(p, np.array([_value_below(est) for est in values]))
        results[factor] = FactorCalibration(p, rates, ks_stat, min(1.0, 2.0 * math.exp(-2.0 * n_datasets * ks_stat**2)))
    return CalibrationSummary(n_datasets, cfg, results, interaction, tests)
