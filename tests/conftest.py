import pytest
from hypothesis import settings

from hypfrob import ensemble as ens
from hypfrob import polyfield as pf

# one profile for every property test: the same examples on every run
settings.register_profile("hypfrob", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("hypfrob")


@pytest.fixture
def fresh_prime_residues():
    """An empty `prime_residues` memo for the test and after it: for tests
    that patch what its tables are built from."""
    pf.prime_residues.cache_clear()
    yield
    pf.prime_residues.cache_clear()


@pytest.fixture(scope="session")
def data_g1():
    return ens.compute_ensemble_data(3, 1, 6)


@pytest.fixture(scope="session")
def data_g2():
    return ens.compute_ensemble_data(3, 2, 8)


@pytest.fixture(scope="session")
def data_q5g1():
    return ens.compute_ensemble_data(5, 1, 6)
