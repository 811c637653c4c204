import sys
from pathlib import Path

import pytest

from lambdaset.numerics import MEMO_TABLES, PrecisionConfig

# the benchmark's modules, `exact` among them: tier-1's one exact reference
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


@pytest.fixture(scope="session")
def cfg():
    return PrecisionConfig()


@pytest.fixture(scope="session")
def fast_cfg():
    # cheaper solver settings for property sweeps that do many solves
    return PrecisionConfig(64, width_bits=40)


@pytest.fixture
def clear_memo_tables():
    """The function that empties every memo table of numerics.MEMO_TABLES
    and zeroes its counts, so the next run solves and counts anew."""
    def clear():
        for table in MEMO_TABLES.values():
            table.cache_clear()
    return clear
