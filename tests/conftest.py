import numpy as np
import pytest

try:
    import threadpoolctl
    threadpoolctl.threadpool_limits(limits=1)
except ImportError:
    pass


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
