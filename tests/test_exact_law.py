"""Samplers and the closure checked against their exact laws with ``check_law``.

``check_law`` judges Gram draws against a Wishart law's closed forms (CDF of
each projection ``a'Xa``, entry means, MGF) at family level ``VERIFY_ALPHA``.
Each sampler test is gated by mutation: the same draws, judged against the
law with dof ``nu + 1`` or scale ``x 1.02``, must fail at the test's size.
"""

import numpy as np
import pytest

from wishartmix import (
    RngStream,
    SpdMat,
    WishartParams,
    mixture_marginal_params,
    random_mixture_spec,
    verify_closure,
)
from wishartmix.closure import _hierarchical_factor, check_law
from wishartmix.distributions import _wishart_factor
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


def _hierarchical_case(dim: int, dof: float, seed: int):
    spec = random_mixture_spec(dim, dof, RngStream(seed))
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
