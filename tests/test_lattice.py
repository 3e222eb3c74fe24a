"""Configuration, momentum grid, and dispersion."""

import math

import numpy as np
import pytest

from xyquench.lattice import ChainConfig, Mode, dispersion, grid_arrays, mode_grid


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


def test_mode_grid_small_chains():
    phis4 = [m.phi for m in mode_grid(ChainConfig(4, 1.0, 0.0, 1.0, 1.0))]
    assert phis4 == pytest.approx([math.pi / 2, math.pi])
    modes8 = mode_grid(ChainConfig(8, 1.0, 0.0, 1.0, 1.0))
    assert [m.p for m in modes8] == [1, 2, 3, 4]
    assert [m.phi for m in modes8] == pytest.approx(
        [math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    )


def test_mode_grid_is_pure():
    config = ChainConfig(16, 0.7, 0.2, 1.0, 2.0)
    assert mode_grid(config) == mode_grid(config)


def test_grid_pins_zone_boundary_exactly():
    # sin(pi) in floats is ~1.2e-16; the grid must not leak that into delta.
    phi, delta = grid_arrays(ChainConfig(10, 1.0, 0.0, 1.0, 1.0))
    assert phi[-1] == math.pi
    assert delta[-1] == 0.0
    m = mode_grid(ChainConfig(10, 1.0, 0.0, 1.0, 1.0))[-1]
    assert m.delta == 0.0
    assert m.lambda_of(1.0) == 0.0
    assert m.lambda_of(3.0) == 2.0


def test_mode_quantities():
    config = ChainConfig(12, 0.5, 0.0, 1.0, 1.0)
    for m in mode_grid(config):
        assert 0.0 < m.phi <= math.pi
        assert m.delta == pytest.approx(2 * 0.5 * math.sin(m.phi), abs=1e-15)
        for h in (-1.0, 0.0, 1.3):
            assert m.lambda_of(h) >= 0.0
            assert m.lambda_of(h) == pytest.approx(dispersion(m.phi, h, 0.5), abs=1e-14)


def test_mode_count():
    for n in (4, 8, 30, 200):
        assert len(mode_grid(ChainConfig(n, 1.0, 0.0, 0.0, 0.0))) == n // 2
