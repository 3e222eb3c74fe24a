"""Configuration, momentum grid, and dispersion."""

import math
import re

import numpy as np
import pytest

from xyquench import correlations
from xyquench.correlations import factor_scope
from xyquench.lattice import PARAMETER_BOUND, ChainConfig, dispersion, grid_arrays


def test_dispersion_values():
    assert dispersion(0.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert dispersion(math.pi, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert dispersion(math.pi / 2, 0.5, 0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_dispersion_even_in_phi():
    rng = np.random.default_rng(0)
    for _ in range(50):
        phi = rng.uniform(-math.pi, math.pi)
        h = rng.uniform(-2.0, 4.0)
        gamma = rng.uniform(0.0, 2.0)
        assert dispersion(phi, h, gamma) == pytest.approx(dispersion(-phi, h, gamma), rel=1e-14)


def test_dispersion_zone_boundary_is_field_gap():
    for gamma in (0.0, 0.3, 1.0, 2.5):
        for h in (-1.0, 0.0, 0.7, 1.0, 3.2):
            assert dispersion(math.pi, h, gamma) == pytest.approx(abs(h - 1.0), abs=1e-15)


def test_chain_config_validation():
    ChainConfig(4, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ChainConfig(2, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ChainConfig(5, 1.0, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        ChainConfig(8, 1.0, -0.1, 1.0, 0.5)
    ChainConfig(8, 1.0, math.inf, 1.0, 0.5)  # the infinite-temperature state
    for bad in ((math.nan, 0.0, 1.0, 0.5), (1.0, math.nan, 1.0, 0.5), (math.inf, 0.0, 1.0, 0.5),
                (1.0, 0.0, math.nan, 0.5), (1.0, 0.0, -math.inf, 0.5), (1.0, 0.0, 1.0, math.inf)):
        with pytest.raises(ValueError):
            ChainConfig(8, *bad)


def test_chain_config_bounds_gamma_and_the_fields():
    # Up to the bound Lambda^2 and delta^2 stay normal floats; just past it,
    # and at NaN and +-inf, each parameter is rejected by name.
    ChainConfig(8, -PARAMETER_BOUND, 0.0, PARAMETER_BOUND, -PARAMETER_BOUND)
    for i, name in enumerate(("gamma", "field_before", "field_after")):
        for bad in (math.nextafter(PARAMETER_BOUND, math.inf), -1e200, math.nan, math.inf):
            values = [1.0, 1.0, 1.0]
            values[i] = bad
            with pytest.raises(ValueError, match=rf"^{name} must be finite and at most 1e\+150 in magnitude, "
                               rf"got {re.escape(str(bad))}$"):
                ChainConfig(8, values[0], 0.0, *values[1:])


def test_mode_grid_small_chains():
    phis4 = [phi for phi, _ in zip(*grid_arrays(ChainConfig(4, 1.0, 0.0, 1.0, 1.0))[:2])]
    assert phis4 == pytest.approx([math.pi / 2, math.pi])
    modes8 = list(zip(*grid_arrays(ChainConfig(8, 1.0, 0.0, 1.0, 1.0))[:2]))
    assert [phi for phi, _ in modes8] == pytest.approx(
        [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    )


def test_mode_grid_is_pure():
    config = ChainConfig(16, 0.7, 0.2, 1.0, 2.0)
    assert list(zip(*grid_arrays(config))) == list(zip(*grid_arrays(config)))


def test_grid_pins_zone_boundary_exactly():
    # sin(pi) in floats is ~1.2e-16; the grid must not leak that into delta.
    phi, delta, _ = grid_arrays(ChainConfig(10, 1.0, 0.0, 1.0, 1.0))
    assert phi[-1] == math.pi
    assert delta[-1] == 0.0
    # Production's Lambda row keeps the exact zero that DEGENERACY_EPS relies on.
    with factor_scope():
        assert correlations._dispersion(10, 1.0, 1.0)[-1] == 0.0
        assert correlations._dispersion(10, 1.0, 3.0)[-1] == 2.0


def test_mode_quantities():
    config = ChainConfig(12, 0.5, 0.0, 1.0, 1.0)
    phi, delta, _ = grid_arrays(config)
    for p, d in zip(phi, delta):
        assert 0.0 < p <= math.pi
        assert d == pytest.approx(2 * 0.5 * math.sin(p), abs=1e-15)
    with factor_scope():
        for h in (-1.0, 0.0, 1.0, 1.3):
            lam = correlations._dispersion(12, 0.5, h)
            assert (lam >= 0.0).all()
            assert lam[:-1] == pytest.approx([dispersion(p, h, 0.5) for p in phi[:-1]], abs=1e-14)
            assert lam[-1] == abs(h - 1.0)  # phi = pi, where dispersion's sin(pi) leaves 1e-16


def test_mode_count():
    for n in (4, 8, 30, 200):
        assert len(list(zip(*grid_arrays(ChainConfig(n, 1.0, 0.0, 0.0, 0.0))))) == n // 2
        weight = grid_arrays(ChainConfig(n, 1.0, 0.0, 0.0, 0.0))[2]
        assert (weight == 2.0 / n).all()
        assert abs(math.fsum(weight) - 1.0) <= 1e-15
