"""Tests for the random streams and the chunk iterator shared by the samplers and Monte Carlo engines."""

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
