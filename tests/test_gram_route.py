"""Differential tests of the Gram route against the stack path it replaced.

Every Wishart draw is the Gram ``L' L`` of a factor ``L``, computed once as
upper-triangle entry columns (``distributions._gram_columns``).  The stack
path kept here is the former construction: a batched matmul
``swapaxes(L) @ L`` mirrored from its upper triangle, and a
``verify_closure`` loop that gathers entries, MGF terms and KS distances from
``(n, d, d)`` stacks.  Both paths consume the same streams, so KS statistics
(which depend on the ranks only) agree bitwise, and the floating-point
summaries agree to rounding.
"""

import math

import numpy as np
import pytest

from wishartmix import (
    BetaIIParams,
    RngStream,
    WishartParams,
    assert_pd,
    default_probes,
    mixture_marginal_params,
    random_mixture_spec,
    sample_beta2,
    sample_hierarchical,
    sample_wishart,
    verify_closure,
    wishart_mean,
    wishart_mgf,
)
from wishartmix.closure import _VERIFY_CHUNK, _hierarchical_factor
from wishartmix.distributions import _bartlett_factor, _draw_stack, _wishart_factor
from wishartmix.rng import _chunk_spans
from wishartmix.symmat import _mirror_upper


def stack_gram(factor: np.ndarray) -> np.ndarray:
    return _mirror_upper(np.swapaxes(factor, -1, -2) @ factor)


def stack_draws(source, dim: int, gen: np.random.Generator, n: int) -> np.ndarray:
    factor, per_draw = source
    return _draw_stack(n, (dim, dim), per_draw, lambda b: stack_gram(factor(gen, b)))


def searchsorted_ks(x: np.ndarray, y: np.ndarray) -> float:
    x, y = np.sort(x), np.sort(y)
    points = np.concatenate([x, y])
    diff = np.searchsorted(x, points, side="right") / x.size - np.searchsorted(y, points, side="right") / y.size
    d = float(np.abs(diff).max())
    if max(x.size, y.size) <= 10_000:
        lcm = math.lcm(x.size, y.size)
        d = round(d * lcm) / lcm
    return d


def stack_verify_closure(spec, n_draws: int, rng: RngStream):
    """``(mean_rel_err, mgf_rel_errs, ks_stats)`` from ``(n, d, d)`` stacks, as verify_closure once ran."""
    predicted = mixture_marginal_params(spec)
    probes = default_probes(predicted.scale)
    mgf_closed = np.array([wishart_mgf(predicted, t) for t in probes])
    dim = spec.dim
    iu, ju = np.triu_indices(dim)
    sum_x = np.zeros((dim, dim))
    etr_sums = np.zeros(len(probes))
    hier = np.empty((n_draws, iu.size))
    direct = np.empty((n_draws, iu.size))
    for k, pos, n in _chunk_spans(n_draws, _VERIFY_CHUNK):
        x = stack_draws(_hierarchical_factor(spec), dim, rng.generator(1, k), n)
        sum_x += x.sum(axis=0)
        for idx, t in enumerate(probes):
            etr_sums[idx] += np.exp(np.einsum("ij,nij->n", t.array, x)).sum()
        hier[pos : pos + n] = x[:, iu, ju]
        direct[pos : pos + n] = stack_draws(_wishart_factor(predicted), dim, rng.generator(2, k), n)[:, iu, ju]
    mean_predicted = wishart_mean(predicted).array
    mean_rel = float(np.linalg.norm(sum_x / n_draws - mean_predicted) / np.linalg.norm(mean_predicted))
    mgf_rel = [float(abs(s / n_draws - c) / c) for s, c in zip(etr_sums, mgf_closed)]
    ks = [searchsorted_ks(hier[:, e], direct[:, e]) for e in range(iu.size)]
    return mean_rel, mgf_rel, ks


@pytest.mark.parametrize(
    "dim,dof,central,n_draws",
    [
        (1, 3.0, False, 30_000),
        (2, 4.0, True, 20_000),
        # Nine verify chunks of 1 << 13 draws, the last one short
        # (8 * 8,192 + 4,464).
        (3, 11.0, False, 70_000),
        # At most 10,000 draws: the KS distance is rounded to its lattice.
        (3, 6.0, False, 10_000),
    ],
)
def test_verify_matches_stack_path(dim, dof, central, n_draws):
    spec = random_mixture_spec(dim, dof, RngStream(90, dim), central=central)
    report = verify_closure(spec, n_draws, RngStream(91, dim))
    mean_rel, mgf_rel, ks = stack_verify_closure(spec, n_draws, RngStream(91, dim))
    assert list(report.ks_stats) == ks
    np.testing.assert_allclose(report.mean_rel_err, mean_rel, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(report.mgf_rel_errs, mgf_rel, rtol=1e-9, atol=0.0)


def _beta2_stack(params: BetaIIParams, gen: np.random.Generator, n: int) -> np.ndarray:
    s1 = stack_gram(np.swapaxes(_bartlett_factor(params.dof1, params.dim, gen, n), -1, -2))
    s2 = stack_gram(np.swapaxes(_bartlett_factor(params.dof2, params.dim, gen, n), -1, -2))
    w, v = np.linalg.eigh(s2)
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return _mirror_upper(inv_root @ s1 @ inv_root)


SCALE_3D = assert_pd([[2.0, 0.5, 0.3], [0.5, 1.5, -0.2], [0.3, -0.2, 1.0]])
NONCEN_3D = assert_pd([[1.0, 0.4, 0.0], [0.4, 2.0, 0.3], [0.0, 0.3, 0.5]])


def _cases():
    central = WishartParams(4.5, SCALE_3D)
    noncentral = WishartParams(5.0, SCALE_3D, NONCEN_3D)
    spec = random_mixture_spec(3, 5.0, RngStream(92))
    beta = BetaIIParams(5.0, 9.0, 3)
    return [
        ("wishart-central", lambda rng, n: sample_wishart(central, rng, size=n),
         lambda gen, n: stack_draws(_wishart_factor(central), 3, gen, n)),
        ("wishart-noncentral", lambda rng, n: sample_wishart(noncentral, rng, size=n),
         lambda gen, n: stack_draws(_wishart_factor(noncentral), 3, gen, n)),
        ("hierarchical", lambda rng, n: sample_hierarchical(spec, rng, size=n),
         lambda gen, n: stack_draws(_hierarchical_factor(spec), 3, gen, n)),
        ("beta2", lambda rng, n: sample_beta2(beta, rng, size=n),
         lambda gen, n: _beta2_stack(beta, gen, n)),
    ]


@pytest.mark.parametrize("name,draw,stack", _cases(), ids=[c[0] for c in _cases()])
def test_stacks_are_symmetric_and_match_matmul_gram(name, draw, stack):
    x = draw(RngStream(93), 5_000)
    ref = stack(RngStream(93).generator(), 5_000)
    assert np.array_equal(x, np.swapaxes(x, -1, -2))
    scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(x - ref) <= 1e-12 * scale)
