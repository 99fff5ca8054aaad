import pytest

from permpoly.field import make_field


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
