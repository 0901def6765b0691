"""Samplers and the closure checked against their exact laws with ``check_law``.

``check_law`` judges Gram draws against a Wishart law's closed forms (CDF of
each projection ``a'Xa``, entry means, MGF) at family level ``VERIFY_ALPHA``.
Each sampler test is gated by mutation: the same draws, judged against the
law with dof ``nu + 1`` or scale ``x 1.02``, must fail at the test's size.

The one-sample laws, the noncentral chi-square, the ``d = 1`` Beta Type II
eigenvalue ``(nu_1 / nu_2) F(nu_1, nu_2)``, the projections ``a'Ba`` of
``sample_beta2``'s matrix draws at ``d = 2`` and ``3``, and the ``d = 2``
null Wilks statistic (from ``mc``'s closed form and from the eigenvalues), are judged
as ``check_law`` judges a projection: the empirical CDF at the exact
quantiles of the levels ``k / 1000`` against the DKW-Massart band at
``VERIFY_ALPHA``, with the same mutation gate (dof + 1, draws x 1.02).
"""

import math

import numpy as np
import pytest
from scipy.special import chndtrix, fdtri

from wishartmix import (
    BetaIIParams,
    RngStream,
    SpdMat,
    StatisticFunctional,
    WishartParams,
    beta2_eigenvalues,
    mixture_marginal_params,
    random_mixture_spec,
    sample_beta2,
    sample_noncentral_chisq,
    scalar_statistic,
    verify_closure,
)
from wishartmix.closure import VERIFY_ALPHA, _hierarchical_factor, check_law
from wishartmix.distributions import _beta2_draws, _wishart_factor
from wishartmix.mc import _d2_kernel
from conftest import random_psd, random_spd

# Draws per sampler check: enough for scale x 1.02 to fail.
N_LAW = 200_000


def mutations(law: WishartParams) -> dict[str, WishartParams]:
    return {
        "dof + 1": WishartParams(law.dof + 1.0, law.scale, law.noncen),
        "scale x 1.02": WishartParams(law.dof, SpdMat(1.02 * law.scale.array), law.noncen),
    }


def _wishart_case(dim: int, dof: float, noncentral: bool, seed: int):
    gen = RngStream(seed).generator()
    law = WishartParams(dof, random_spd(dim, gen), random_psd(dim, gen) if noncentral else None)
    return _wishart_factor(law), law


def _hierarchical_case(dim: int, dof: float, seed: int, central: bool = False):
    spec = random_mixture_spec(dim, dof, RngStream(seed), central=central)
    return _hierarchical_factor(spec), mixture_marginal_params(spec)


# ``sample_wishart`` and ``sample_hierarchical`` return the Grams of these
# factor sources, drawn the same way.
SAMPLERS = {
    "bartlett-d2-nu2.5": lambda: _wishart_case(2, 2.5, False, 1601),
    "bartlett-d3-nu3.7": lambda: _wishart_case(3, 3.7, False, 1602),
    "matrix-normal-d2-nu4": lambda: _wishart_case(2, 4.0, True, 1603),
    "matrix-normal-d3-nu5": lambda: _wishart_case(3, 5.0, True, 1604),
    "hierarchical-d2-nu5": lambda: _hierarchical_case(2, 5.0, 1605),
    "hierarchical-d3-nu6": lambda: _hierarchical_case(3, 6.0, 1606),
    "bartlett-d1-nu2.5": lambda: _wishart_case(1, 2.5, False, 1607),
    "matrix-normal-d1-nu4": lambda: _wishart_case(1, 4.0, True, 1608),
    "hierarchical-d1-nu4-central": lambda: _hierarchical_case(1, 4.0, 1609, central=True),
}


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_follows_its_exact_law(name):
    source, law = SAMPLERS[name]()
    stream = RngStream(1610, list(SAMPLERS).index(name))
    report = check_law(source, law, N_LAW, stream)
    assert report.passed, report.summary()
    for wrong, bad in mutations(law).items():
        assert not check_law(source, bad, N_LAW, stream).passed, wrong


def test_no_false_alarms_on_correct_closures():
    # 40 noncentral specs per d at the draw floor.
    failed = [
        (d, k)
        for d in (1, 2, 3)
        for k in range(40)
        if not verify_closure(random_mixture_spec(d, d + 3, RngStream(161, 100 * d + k)), 10_000, RngStream(162, 100 * d + k)).passed
    ]
    assert failed == []


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_wrong_laws_fail(dim):
    spec = random_mixture_spec(dim, dim + 3, RngStream(161, dim))
    law = mixture_marginal_params(spec)
    wrong = {**mutations(law), "noncentrality dropped": WishartParams(law.dof, law.scale)}
    for name, bad in wrong.items():
        report = check_law(_hierarchical_factor(spec), bad, 200_000, RngStream(162, dim))
        assert not report.passed, name


def test_check_law_rejects_a_generator():
    source, law = _wishart_case(2, 4.0, False, 1601)
    with pytest.raises(TypeError, match="check_law needs an RngStream"):
        check_law(source, law, 10_000, np.random.default_rng(0))


LEVELS = np.arange(1, 1000) / 1000


def follows(draws: np.ndarray, quantiles: np.ndarray) -> bool:
    """Whether the empirical CDF of ``draws`` at the ``LEVELS`` quantiles of a law lies in its DKW-Massart band."""
    gap = np.abs(np.searchsorted(np.sort(draws), quantiles, "right") / draws.size - LEVELS).max()
    return gap <= math.sqrt(math.log(2 / VERIFY_ALPHA) / (2 * draws.size))


@pytest.mark.parametrize("dof,noncen", [(3.0, 1.5), (4.5, 3.0)])
def test_noncentral_chisq_follows_its_exact_law(dof, noncen):
    draws = sample_noncentral_chisq(dof, noncen, RngStream(1620), size=N_LAW)
    assert follows(draws, chndtrix(LEVELS, dof, noncen))
    assert not follows(draws, chndtrix(LEVELS, dof + 1.0, noncen)), "dof + 1"
    assert not follows(1.02 * draws, chndtrix(LEVELS, dof, noncen)), "draws x 1.02"


def beta2_d1_quantiles(dof1: float, dof2: float) -> np.ndarray:
    """``LEVELS`` quantiles of the ``d = 1`` Beta II eigenvalue: ``(nu_2 / nu_1) lambda`` is ``F(nu_1, nu_2)``."""
    return dof1 / dof2 * fdtri(dof1, dof2, LEVELS)


BETA2_D1 = {
    "beta2_eigenvalues": lambda params, rng: beta2_eigenvalues(params, rng, N_LAW)[:, 0],
    "sample_beta2": lambda params, rng: sample_beta2(params, rng, size=N_LAW)[:, 0, 0],
}


@pytest.mark.parametrize("sampler", BETA2_D1)
def test_beta2_d1_follows_the_f_law(sampler):
    dof1, dof2 = 4.5, 12.0
    draws = BETA2_D1[sampler](BetaIIParams(dof1, dof2, 1), RngStream(1621))
    assert follows(draws, beta2_d1_quantiles(dof1, dof2))
    assert not follows(draws, beta2_d1_quantiles(dof1 + 1.0, dof2)), "dof1 + 1"
    assert not follows(draws, beta2_d1_quantiles(dof1, dof2 + 1.0)), "dof2 + 1"
    assert not follows(1.02 * draws, beta2_d1_quantiles(dof1, dof2)), "draws x 1.02"


def beta2_projection_quantiles(dof1: float, dof2: float, dim: int) -> np.ndarray:
    """``LEVELS`` quantiles of ``a'Ba`` for a unit ``a``: ``((nu_2 - d + 1) / nu_1) a'Ba`` is ``F(nu_1, nu_2 - d + 1)``.

    Given ``S2``, ``B = S2^{-1/2} S1 S2^{-1/2}`` is ``W(nu_1, S2^{-1})``, so
    ``a'Ba`` is ``(a'S2^{-1}a) chi^2_{nu_1}``, and ``1 / (a'S2^{-1}a)`` is
    ``chi^2_{nu_2 - d + 1}``, independent of it (Muirhead 1982, Thm 3.2.11).
    """
    dof = dof2 - dim + 1.0
    return dof1 / dof * fdtri(dof1, dof, LEVELS)


@pytest.mark.parametrize("dim,dof1,dof2", [(2, 4.0, 20.0), (3, 5.0, 14.0)])
def test_sample_beta2_projections_follow_the_f_law(dim, dof1, dof2):
    # The basis vectors matter: a sampler with the right eigenvalues but the
    # wrong matrix law, C C' with C = T2^{-1} T1, passes at 1/sqrt(d) only.
    draws = sample_beta2(BetaIIParams(dof1, dof2, dim), RngStream(1623, dim), size=N_LAW)
    units = {"e_1": np.eye(dim)[0], "e_d": np.eye(dim)[-1], "1/sqrt(d)": np.full(dim, 1.0 / math.sqrt(dim))}
    for name, a in units.items():
        proj = np.einsum("i,nij,j->n", a, draws, a)
        assert follows(proj, beta2_projection_quantiles(dof1, dof2, dim)), name
        assert not follows(proj, beta2_projection_quantiles(dof1, dof2 + 1.0, dim)), f"{name}: dof2 + 1"
        assert not follows(1.02 * proj, beta2_projection_quantiles(dof1, dof2, dim)), f"{name}: draws x 1.02"


def wilks_d2_quantiles(dof1: float, dof2: float) -> np.ndarray:
    """``LEVELS`` quantiles of the ``d = 2`` null Wilks ``Lambda``.

    Anderson (2003), section 8.4: ``F = ((1 - sqrt(Lambda)) / sqrt(Lambda))
    (nu_2 - 1) / nu_1`` is ``F(2 nu_1, 2 (nu_2 - 1))``, and ``Lambda`` falls
    as ``F`` rises.
    """
    return (1.0 / (1.0 + dof1 / (dof2 - 1.0) * fdtri(2.0 * dof1, 2.0 * (dof2 - 1.0), 1.0 - LEVELS))) ** 2


WILKS = StatisticFunctional.WILKS
WILKS_D2 = {
    "null-statistics": lambda params, rng: _beta2_draws(params, [rng.generator()], N_LAW, (), _d2_kernel(WILKS))[0],
    "beta2_eigenvalues": lambda params, rng: scalar_statistic(beta2_eigenvalues(params, rng, N_LAW), WILKS),
}


@pytest.mark.parametrize("route", WILKS_D2)
@pytest.mark.parametrize("dof1,dof2", [(4.0, 20.0), (4.5, 12.0)])
def test_null_wilks_d2_follows_anderson_law(route, dof1, dof2):
    draws = WILKS_D2[route](BetaIIParams(dof1, dof2, 2), RngStream(1622))
    assert follows(draws, wilks_d2_quantiles(dof1, dof2))
    assert not follows(draws, wilks_d2_quantiles(dof1 + 1.0, dof2)), "dof1 + 1"
    assert not follows(draws, wilks_d2_quantiles(dof1, dof2 + 1.0)), "dof2 + 1"
    assert not follows(1.02 * draws, wilks_d2_quantiles(dof1, dof2)), "draws x 1.02"
