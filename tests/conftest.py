import numpy as np
import pytest
from hypothesis import settings

from groversim import PureState

# Property tests draw the same examples on every run, whatever ran before.
settings.register_profile("groversim", derandomize=True)
settings.load_profile("groversim")


def random_state(n: int, rng: np.random.Generator) -> PureState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    amps /= np.linalg.norm(amps)
    return PureState(n, amps)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
