import numpy as np
import pytest

from delayreach import default_certificate, recorded_escape, rfc_sweep


@pytest.fixture(scope="session")
def cert():
    return default_certificate()


@pytest.fixture(scope="session")
def escape_run():
    """Greedy switching escape, computed once for the whole session."""
    return recorded_escape()


@pytest.fixture(scope="session")
def rfc_run():
    """The smoothing sweep at its defaults, computed once for the whole session."""
    return rfc_sweep()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
