"""Tests for the chunk iterator shared by the samplers and Monte Carlo engines."""

import pytest

from wishartmix.rng import _chunk_spans


@pytest.mark.parametrize("total", [0, 1, 12, 13])
def test_chunk_spans_cover_range_contiguously(total):
    spans = list(_chunk_spans(total, 4))
    assert [k for k, _, _ in spans] == list(range(len(spans)))
    assert [i for _, start, n in spans for i in range(start, start + n)] == list(range(total))
    assert all(n == 4 for _, _, n in spans[:-1])
    assert len(spans) == -(-total // 4)
