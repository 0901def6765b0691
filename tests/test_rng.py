"""Tests for the random streams and the chunk iterator shared by the samplers and Monte Carlo engines."""

import numpy as np
import pytest

from wishartmix.rng import RngStream, _chunk_spans, as_generator


@pytest.mark.parametrize("total", [0, 1, 12, 13])
def test_chunk_spans_cover_range_contiguously(total):
    spans = list(_chunk_spans(total, 4))
    assert [k for k, _, _ in spans] == list(range(len(spans)))
    assert [i for _, start, n in spans for i in range(start, start + n)] == list(range(total))
    assert all(n == 4 for _, _, n in spans[:-1])
    assert len(spans) == -(-total // 4)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: RngStream(2**64), ValueError, f"seed must fit in an unsigned 64-bit integer, got {2**64}"),
        (lambda: as_generator("1"), TypeError, "expected RngStream, numpy Generator, or int seed, got str"),
    ],
    ids=["seed-past-u64", "not-a-source"],
)
def test_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert type(info.value) is error
    assert RngStream(2**64 - 1).seed == 2**64 - 1


# The first three integers(2**63) of two children, pinned so that any change to
# the derivation (key encoding, hash, or how the digest seeds PCG64) fails here
# as a stream change.
@pytest.mark.parametrize(
    "stream,subkeys,expected",
    [
        (RngStream(0), (), [3562403901048938692, 1674423727609275407, 1442876303480480967]),
        (RngStream(2**64 - 1, 2**40), (1, 0), [1886653013028859305, 7676989330267808519, 1823478933062801110]),
    ],
    ids=["zero", "largest-seed"],
)
def test_golden_values(stream, subkeys, expected):
    assert stream.generator(*subkeys).integers(2**63, size=3).tolist() == expected


def _first_draws(gen):
    return gen.integers(2**63, size=4).tolist()


def test_keys_are_injective():
    s = RngStream(1)
    children = [_first_draws(s.generator(1, 2)), _first_draws(s.generator(12)), _first_draws(s.generator(1, 2, 0))]
    assert len({tuple(c) for c in children}) == 3
    assert _first_draws(RngStream(1, 23).generator()) != _first_draws(RngStream(12, 3).generator())


def test_generator_replays_and_ignores_integer_type():
    # The key is a repr, and repr(np.int64(3)) is not repr(3): subkeys must be
    # made Python ints first, or a numpy index would select another stream.
    s = RngStream(7, 2)
    assert _first_draws(s.generator(3, 4)) == _first_draws(s.generator(np.int64(3), np.uint8(4)))


def test_negative_subkey_rejected():
    with pytest.raises(ValueError, match=r"^subkeys must be non-negative integers, got \(1, -1\)$"):
        RngStream(1).generator(1, -1)


def test_child_has_no_spawn():
    with pytest.raises(TypeError):
        RngStream(1).generator().spawn(1)


def test_adjacent_children_uncorrelated():
    # Over n uniforms the sample correlation of independent streams has sd
    # 1/sqrt(n), so 6/sqrt(n) is missed by chance about once in 5e8 pairs.
    n = 10**5
    u = [RngStream(3).generator(1, k).random(n) for k in range(65)]
    for k in range(64):
        assert abs(np.corrcoef(u[k], u[k + 1])[0, 1]) < 6 / np.sqrt(n), k
