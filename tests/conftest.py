import pytest
from hypothesis import settings

from hypfrob import ensemble as ens

# one profile for every property test: the same examples on every run
settings.register_profile("hypfrob", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("hypfrob")


@pytest.fixture(scope="session")
def data_g1():
    return ens.compute_ensemble_data(3, 1, 6)


@pytest.fixture(scope="session")
def data_g2():
    return ens.compute_ensemble_data(3, 2, 8)


@pytest.fixture(scope="session")
def data_q5g1():
    return ens.compute_ensemble_data(5, 1, 6)
