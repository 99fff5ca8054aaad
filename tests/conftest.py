import pytest
from hypothesis import settings

from permpoly.field import make_field

# fixed example sequence and no example database: tier-1 runs are reproducible
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def f4():
    return make_field(2, 1)


@pytest.fixture(scope="session")
def f16():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def f4096():
    return make_field(2, 6)
