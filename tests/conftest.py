import numpy as np
import pytest

from wishartmix import RngStream, SpdMat


def random_spd(dim: int, gen: np.random.Generator, jitter: float = 0.5) -> SpdMat:
    g = gen.standard_normal((dim, dim))
    return SpdMat(g @ g.T / dim + jitter * np.eye(dim))


def random_psd(dim: int, gen: np.random.Generator) -> SpdMat:
    g = gen.standard_normal((dim, dim))
    return SpdMat(g @ g.T / dim)


@pytest.fixture
def gen() -> np.random.Generator:
    return RngStream(20260809).generator()


@pytest.fixture
def cdf_calls(monkeypatch) -> list:
    """``(points, dof, lam, levels)`` of each ``scipy.special.chndtr`` call, as ``check_law`` makes them.

    ``check_law`` imports ``chndtr`` when it runs, so it finds this wrapper.
    """
    import scipy.special

    calls, chndtr = [], scipy.special.chndtr

    def recording(x, dof, lam):
        levels = chndtr(x, dof, lam)
        calls.append((np.array(x), dof, np.array(lam), levels))
        return levels

    monkeypatch.setattr(scipy.special, "chndtr", recording)
    return calls
