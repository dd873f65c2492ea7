import numpy as np
import pytest

from cellpp.geom import Rectangle
from cellpp.models import Poisson
from cellpp.rng import RngStreamSpec
from cellpp.samplers import sample

UNIT_SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)


def ppp(intensity=100.0, window=UNIT_SQUARE, seed=0):
    """Poisson test pattern drawn from an isolated stream."""
    return sample(Poisson(intensity), window, RngStreamSpec(seed))


@pytest.fixture
def unit_square():
    return UNIT_SQUARE


@pytest.fixture
def ppp100(unit_square):
    return ppp(100.0, unit_square, seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
