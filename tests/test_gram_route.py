"""Differential tests of the Gram route against the stack path it replaced.

Every Wishart draw is the Gram ``L' L`` of a factor ``L``, computed once as
upper-triangle entry columns (``distributions._gram_columns``).  The stack
path kept here is the former construction: a batched matmul
``swapaxes(L) @ L`` mirrored from its upper triangle, and a
exact-law check of ``verify_closure`` computed from ``(n, d, d)`` stacks, with
its quantile grid and normal quantile from ``scipy.stats``.  Both paths
consume the same streams, so the CDF grid counts (which depend on
comparisons only) agree bitwise, and the floating-point summaries agree to
rounding.
"""

import math

import numpy as np
import pytest
from scipy import stats

from wishartmix import (
    BetaIIParams,
    MatrixNormalParams,
    RngStream,
    SpdMat,
    WishartParams,
    default_probes,
    mixture_marginal_params,
    random_mixture_spec,
    sample_beta2,
    sample_hierarchical,
    sample_matrix_normal,
    sample_wishart,
    verify_closure,
    wishart_mean,
    wishart_mgf,
)
from wishartmix.closure import _VERIFY_CHUNK, CHECKS, VERIFY_ALPHA, _hierarchical_factor, check_law
from wishartmix.distributions import _bartlett_factor, _batch, _draw_stack, _gram, _wishart_factor, _Workspace
from wishartmix.rng import _chunk_spans
from wishartmix.symmat import _mirror_upper, sym_sqrt


def stack_gram(factor: np.ndarray) -> np.ndarray:
    return _mirror_upper(np.swapaxes(factor, -1, -2) @ factor)


def stack_draws(source, dim: int, gen: np.random.Generator, n: int) -> np.ndarray:
    factor, per_draw = source
    ws = _Workspace()
    return _draw_stack(n, (dim, dim), per_draw, lambda b: stack_gram(factor(gen, b, ws)))


def stack_check_law(spec, n_draws: int, rng: RngStream):
    """``(errors, bounds)`` of the exact-law check from ``(n, d, d)`` stacks, by check name.

    The quantile grid comes from ``scipy.stats.ncx2``, the projections from
    ``a' X a`` on each stack, the normal quantile from ``scipy.stats.norm``.
    """
    law = mixture_marginal_params(spec)
    probes = default_probes(law.scale)
    dim, dof = spec.dim, law.dof
    v, delta = law.scale.array, law.noncen.array
    iu, ju = np.triu_indices(dim)
    a = [np.eye(dim)[i] + (np.eye(dim)[j] if i != j else 0.0) for i, j in zip(iu, ju)]
    a_scale = np.array([u @ v @ u for u in a])
    levels = np.arange(1, 1000) / 1000
    grid = [stats.ncx2.ppf(levels, dof, (u @ delta @ u) / s) * s for u, s in zip(a, a_scale)]
    counts = np.zeros((iu.size, levels.size), dtype=np.int64)
    sum_x = np.zeros((dim, dim))
    etr_sums = np.zeros(len(probes))
    for k, _, n in _chunk_spans(n_draws, _VERIFY_CHUNK):
        x = stack_draws(_hierarchical_factor(spec), dim, rng.generator(1, k), n)
        sum_x += x.sum(axis=0)
        for idx, t in enumerate(probes):
            etr_sums[idx] += np.exp(np.einsum("ij,nij->n", t.array, x)).sum()
        for p, u in enumerate(a):
            projections = np.einsum("i,nij,j->n", u, x, u)
            counts[p] += (projections[:, None] <= grid[p]).sum(axis=0)
    mgf = np.array([wishart_mgf(law, t) for t in probes])
    mgf_twice = np.array([wishart_mgf(law, 2.0 * t.array) for t in probes])
    exact_var = np.array([
        dof * (v[i, i] * v[j, j] + v[i, j] ** 2) + v[i, i] * delta[j, j] + v[j, j] * delta[i, i] + 2 * v[i, j] * delta[i, j]
        for i, j in zip(iu, ju)
    ])
    checks = 2 * iu.size + len(probes)
    z = stats.norm.isf(VERIFY_ALPHA / (2 * checks))
    errors = {
        "cdf": np.abs(counts / n_draws - levels).max(axis=1),
        "mean": np.abs(sum_x / n_draws - wishart_mean(law).array)[iu, ju],
        "mgf": np.abs(etr_sums / n_draws - mgf),
    }
    bounds = {
        "cdf": np.full(iu.size, math.sqrt(math.log(2 * checks / VERIFY_ALPHA) / (2 * n_draws))),
        "mean": z * np.sqrt(exact_var / n_draws),
        "mgf": z * np.sqrt((mgf_twice - mgf**2) / n_draws),
    }
    return errors, bounds


@pytest.mark.parametrize(
    "dim,dof,central,n_draws",
    [
        (1, 3.0, False, 30_000),
        (2, 4.0, True, 20_000),
        # Nine verify chunks of 1 << 13 draws, the last one short
        # (8 * 8,192 + 4,464).
        (3, 11.0, False, 70_000),
        # At the draw floor.
        (3, 6.0, False, 10_000),
        # 540 scalars per draw: the first chunk is drawn in two batches
        # (7,767 + 425), as _draw_stack splits it.
        (3, 90.0, False, 10_000),
    ],
)
def test_verify_matches_stack_path(dim, dof, central, n_draws):
    spec = random_mixture_spec(dim, dof, RngStream(90, dim), central=central)
    report = verify_closure(spec, n_draws, RngStream(91, dim))
    errors, bounds = stack_check_law(spec, n_draws, RngStream(91, dim))
    # The grid counts depend on comparisons only, so the CDF gaps agree bitwise.
    assert list(report.errors["cdf"]) == list(errors["cdf"])
    for check in CHECKS:
        np.testing.assert_allclose(report.errors[check], errors[check], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(report.bounds[check], bounds[check], rtol=1e-9, atol=0.0)


def explicit_normal_factor(mean: np.ndarray, rows: int, root: np.ndarray, gen: np.random.Generator, n: int):
    """``n`` factors ``Z root + M``, ``M`` added to the leading rows, with the product as one 2-D product."""
    factor = (gen.standard_normal((n * rows, root.shape[0])) @ root).reshape(n, rows, root.shape[0])
    factor[:, : mean.shape[-2]] += mean
    return factor


def explicit_hierarchical_factor(spec, gen: np.random.Generator, n: int) -> np.ndarray:
    """The hierarchy's conditional factors, drawn step by step with plain numpy calls.

    ``G' = (A^{1/2} H^{1/2})'`` is folded into the mixing level's root ``R``
    and mean first.  Mixing level: ``M = Z0 (R G') + [Delta^{1/2} G'; 0]``,
    or ``T' (R G')`` with the Bartlett factor ``T`` for a central mixing
    law; then ``Z A^{1/2} + M``.  Two products per batch, each over the
    whole ``(n * rows, d)`` normals as one 2-D product, as the sampler forms
    them.
    """
    dim, nu = spec.dim, int(spec.dof)
    ah = sym_sqrt(spec.inner_scale).array
    g = ah @ sym_sqrt(spec.coupling).array
    rg = sym_sqrt(spec.mixing_scale).array @ g.T
    if spec.mixing_params().is_central:
        t = np.zeros((n, dim, dim))
        below = np.tril_indices(dim, -1)
        t[:, below[0], below[1]] = gen.standard_normal((n, dim * (dim - 1) // 2))
        for j in range(dim):
            t[:, j, j] = np.sqrt(gen.chisquare(nu - j, n))
        mean = np.swapaxes(t, 1, 2) @ rg
    else:
        mean = explicit_normal_factor(sym_sqrt(spec.mixing_noncen).array @ g.T, nu, rg, gen, n)
    return explicit_normal_factor(mean, nu, ah, gen, n)


@pytest.mark.parametrize("central", [False, True], ids=["noncentral", "central"])
@pytest.mark.parametrize("dim", [2, 3])
def test_hierarchical_factor_matches_explicit_draws(dim, central):
    spec = random_mixture_spec(dim, dim + 3.0, RngStream(94, dim), central=central)
    factor, _ = _hierarchical_factor(spec)
    ws = _Workspace()
    gen, ref = RngStream(95, dim).generator(), RngStream(95, dim).generator()
    # A full chunk, then a short last one drawn into the same workspace.
    for n in (1_000, 357):
        got = factor(gen, n, ws)
        assert got.shape == (n, dim + 3, dim)
        np.testing.assert_array_equal(got, explicit_hierarchical_factor(spec, ref, n))


@pytest.mark.parametrize("central", [False, True], ids=["noncentral", "central"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hierarchy_draws_the_mixing_level(dim, central):
    # The hierarchy's factor is Z A^{1/2} + M, and M is L G' for the mixing
    # level's own draws L: those of _wishart_factor(spec.mixing_params())
    # from the same stream, before the conditional normals Z.  So verify
    # samples the two levels, never the marginal law it checks against.
    spec = random_mixture_spec(dim, dim + 3.0, RngStream(100, dim), central=central)
    n, nu = 2_000, dim + 3
    got = _hierarchical_factor(spec)[0](RngStream(101, dim).generator(), n, _Workspace())
    gen = RngStream(101, dim).generator()
    mixing = _wishart_factor(spec.mixing_params())[0](gen, n, _Workspace())
    ah = sym_sqrt(spec.inner_scale).array
    g = ah @ sym_sqrt(spec.coupling).array
    want_m = mixing @ g.T
    zah = (gen.standard_normal((n * nu, dim)) @ ah).reshape(n, nu, dim)
    m = got - zah
    scale = np.abs(want_m).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(m[:, : mixing.shape[1]] - want_m) <= 1e-12 * scale)
    # Below the mixing factor's rows (a central mixing law has dim of them), M is zero.
    np.testing.assert_array_equal(got[:, mixing.shape[1] :], zah[:, mixing.shape[1] :])


@pytest.mark.parametrize("case", ["hierarchical-noncentral", "hierarchical-central", "matrix-normal"])
def test_sampler_batches_match_explicit_draws(case):
    # One call drawn in two batches, the second of 3 draws, into one
    # workspace: each batch must equal the explicit draws of the same
    # stream, so drawing the second left the first intact.
    ref = RngStream(99).generator()
    if case == "matrix-normal":
        rows = 400
        params = MatrixNormalParams(rows, np.linspace(-1.0, 1.0, rows * 3).reshape(rows, 3), SCALE_3D)
        n = _batch(rows * 3) + 3
        got = sample_matrix_normal(params, RngStream(99), n)
        root = sym_sqrt(params.scale).array
        want = [explicit_normal_factor(params.mean, rows, root, ref, b) for b in (n - 3, 3)]
    else:
        spec = random_mixture_spec(2, 200.0, RngStream(98), central=case.endswith("-central"))
        n = _batch(2 * 200 * 2) + 3
        got = sample_hierarchical(spec, RngStream(99), n)
        want = [_gram(explicit_hierarchical_factor(spec, ref, b)) for b in (n - 3, 3)]
    np.testing.assert_array_equal(got, np.concatenate(want))


def test_check_law_keeps_no_state_between_calls():
    spec = random_mixture_spec(3, 6.0, RngStream(96))
    source, law = _hierarchical_factor(spec), mixture_marginal_params(spec)
    first = check_law(source, law, 12_345, RngStream(97))
    # A larger run on the same source, then the first run again.
    check_law(source, law, 30_000, RngStream(98))
    assert check_law(source, law, 12_345, RngStream(97)) == first
    assert check_law(_hierarchical_factor(spec), law, 12_345, RngStream(97)) == first


def _beta2_stack(params: BetaIIParams, gen: np.random.Generator, n: int) -> np.ndarray:
    s1 = stack_gram(np.swapaxes(_bartlett_factor(params.dof1, params.dim, gen, n), -1, -2))
    s2 = stack_gram(np.swapaxes(_bartlett_factor(params.dof2, params.dim, gen, n), -1, -2))
    w, v = np.linalg.eigh(s2)
    inv_root = (v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v, -1, -2)
    return _mirror_upper(inv_root @ s1 @ inv_root)


SCALE_3D = SpdMat([[2.0, 0.5, 0.3], [0.5, 1.5, -0.2], [0.3, -0.2, 1.0]])
NONCEN_3D = SpdMat([[1.0, 0.4, 0.0], [0.4, 2.0, 0.3], [0.0, 0.3, 0.5]])


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
