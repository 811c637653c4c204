import pytest

from lambdaset.numerics import PrecisionConfig


@pytest.fixture(scope="session")
def cfg():
    return PrecisionConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    # cheaper solver settings for property sweeps that do many solves
    return PrecisionConfig(64, width_bits=40)
