import pytest
from hypothesis import settings

from permpoly import scan
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


@pytest.fixture(scope="session")
def kept_rows():
    """ctx -> {(points, *args): {d: row}}, the rows that ctx keeps for
    each point set it has read."""
    build = scan._power_rows.__wrapped__
    return lambda ctx: {key[1:]: rows.kept for key, rows in ctx._cache.items()
                        if key[0] is build}


@pytest.fixture(scope="session")
def row_point_sets(kept_rows):
    """ctx -> the point-set functions that ctx has read rows for."""
    return lambda ctx: {key[0] for key in kept_rows(ctx)}
