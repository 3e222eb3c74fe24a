"""Checks and fixtures shared by every test module."""

import numpy as np
import pytest

from xyquench import correlations


@pytest.fixture(autouse=True)
def no_cache_outlives_a_test():
    """Every correlations cache and the held Gamma are empty once a test ends, in any test order."""
    yield
    held = {cache.__name__: cache.cache_info().currsize for cache in correlations._FACTOR_CACHES}
    held["held Gamma"] = correlations.contraction_table.cache_info().currsize
    assert not any(held.values()), f"cached after the test: {held}"


@pytest.fixture
def mode_rule(monkeypatch):
    """install(nodes) makes correlations sum over another rule than the paper grid.

    nodes(n_sites) gives the nodes phi in (0, pi] and their weights; every mode
    sum becomes sum_i weight_i f(phi_i), with delta_i = 2 gamma sin(phi_i), for
    the rest of the test.
    """
    def install(nodes):
        def grid_arrays(config):
            phi, weight = map(np.array, nodes(config.n_sites))
            return phi, 2.0 * config.gamma * np.sin(phi), weight

        monkeypatch.setattr(correlations, "grid_arrays", grid_arrays)

    return install
