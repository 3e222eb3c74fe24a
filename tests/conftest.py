"""Checks shared by every test module."""

import pytest

from xyquench import correlations


@pytest.fixture(autouse=True)
def no_cache_outlives_a_test():
    """Every correlations cache is empty once a test ends, whatever order the tests run in."""
    yield
    held = {cache.__name__: cache.cache_info().currsize for cache in correlations._FACTOR_CACHES}
    assert not any(held.values()), f"cached after the test: {held}"
