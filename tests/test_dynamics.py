"""Per-mode states: production's closed form mode_blocks and the oracle routes."""

import math

import numpy as np
import pytest

from xyquench import ed
from xyquench import correlations
from xyquench.correlations import factor_scope, mode_blocks
from xyquench.dynamics import _mode_hamiltonian, evolve_mode_numeric, spectral_mode_state
from xyquench.lattice import ChainConfig, dispersion, grid_arrays


def _modes(n=10, gamma=1.0):
    """The (phi, delta) of each grid mode."""
    return list(zip(*grid_arrays(ChainConfig(n, gamma, 0.0, 1.0, 1.0))))


def _random_mode(rng, gamma=None):
    """A random grid mode (phi, delta), its ring size and anisotropy, and its index on the grid."""
    n = int(rng.choice([6, 8, 12, 16]))
    g = float(rng.uniform(0.1, 2.0)) if gamma is None else gamma
    modes = _modes(n, g)
    k = int(rng.integers(len(modes)))
    return modes[k], n, g, k


def _block(config, t, k):
    """(rho22 - rho11, rho12) of mode k from mode_blocks."""
    blocks = mode_blocks(config, t)
    return np.array([blocks.population[k], blocks.coherence[k]])


def test_thermal_infinite_temperature_is_uniform():
    c = ChainConfig(10, 1.0, 1e12, 1.3, 1.3)
    assert np.max(np.abs(mode_blocks(c, 0.0).population)) < 1e-11
    assert np.max(np.abs(mode_blocks(c, 0.0).coherence)) < 1e-11
    for m in _modes():
        mat = spectral_mode_state(*m, 1.3, 1.3, 1e12, 0.0)
        assert np.allclose(np.diag(mat), 0.25, atol=1e-11)
        assert abs(mat[0, 1]) < 1e-11


def test_thermal_zero_temperature_is_ground_projector():
    rng = np.random.default_rng(1)
    for _ in range(30):
        (phi, delta), n, g, k = _random_mode(rng)
        a = float(rng.uniform(-1.0, 3.0))
        if dispersion(phi, a, g) < 1e-9:
            continue
        block = np.array(
            [[2 * a, -1j * delta], [1j * delta, -4 * math.cos(phi) - 2 * a]]
        )
        vals, vecs = np.linalg.eigh(block)
        ground = vecs[:, [0]] @ vecs[:, [0]].conj().T
        expected = [ground[1, 1] - ground[0, 0], ground[0, 1]]
        assert np.max(np.abs(_block(ChainConfig(n, g, 0.0, a, a), 0.0, k) - expected)) < 1e-12


def test_thermal_trace_is_one():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = _random_mode(rng)[0]
        st = spectral_mode_state(*m, float(rng.uniform(0, 4)), 1.0, float(rng.uniform(0, 3)), 0.0)
        assert np.trace(st).real == pytest.approx(1.0, abs=1e-14)


def test_thermal_rejects_negative_temperature():
    with pytest.raises(ValueError):
        spectral_mode_state(*_modes()[0], 1.0, 1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        mode_blocks(ChainConfig(10, 1.0, -0.5, 1.0, 1.0), 0.0)


def test_thermal_weight_is_tanh_over_lambda_on_both_sides_of_the_series_switch():
    # The phi = pi mode has delta = 0, so its rho22 - rho11 is the weight
    # tanh(Lambda_a/kT)/Lambda_a times x_a = cos(pi) + a = Lambda_a = 0.5.
    # The weight switches to its series 1 - x^2/3 below x = Lambda_a/kT = 1e-6.
    for x in (0.5e-6, 0.99e-6, 1.01e-6, 2e-6):
        kt = 0.5 / x
        arg = 0.5 / kt
        population = mode_blocks(ChainConfig(8, 1.0, kt, 1.5, 1.5), 0.0).population[-1]
        assert abs(population / 0.5 - math.tanh(arg) / arg / kt) <= 1e-15 * population / 0.5


def test_thermal_zero_temperature_limit_is_continuous():
    rng = np.random.default_rng(3)
    for _ in range(10):
        (phi, _), n, g, k = _random_mode(rng)
        a = float(rng.uniform(0.0, 3.0))
        if dispersion(phi, a, g) < 1e-3:
            continue
        cold = _block(ChainConfig(n, g, 0.0, a, a), 0.0, k)
        errs = [
            np.max(np.abs(_block(ChainConfig(n, g, kt, a, a), 0.0, k) - cold))
            for kt in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-14


def test_evolve_is_stationary_without_quench():
    rng = np.random.default_rng(5)
    for _ in range(20):
        _, n, g, k = _random_mode(rng)
        a = float(rng.uniform(0, 3))
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        c = ChainConfig(n, g, kt, a, a)
        for t in (0.3, 2.0, 17.0):
            assert np.max(np.abs(_block(c, t, k) - _block(c, 0.0, k))) < 1e-12


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = _random_mode(rng)[0]
        a, b = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        st = spectral_mode_state(*m, a, b, float(rng.uniform(0, 2)), float(rng.uniform(0, 20)))
        assert np.trace(st).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(st - st.conj().T)) < 1e-12
        assert min(np.linalg.eigvalsh(st)) > -1e-10


def test_numeric_route_at_reference_quench():
    for m in _modes(8)[:2]:
        for t in (0.5, 5.0, 20.0):
            num = evolve_mode_numeric(*m, 1.001, 0.5, 0.5, t)
            exact = spectral_mode_state(*m, 1.001, 0.5, 0.5, t)
            assert np.max(np.abs(num - exact)) < 1e-8


def test_numeric_route_t0_and_stationarity():
    m = _modes()[2]
    st = ed.thermal_state(_mode_hamiltonian(*m, 1.1), 0.3)
    assert np.max(np.abs(evolve_mode_numeric(*m, 1.1, 0.7, 0.3, 0.0) - st)) == 0
    out = evolve_mode_numeric(*m, 1.1, 1.1, 0.3, 8.0)
    assert np.max(np.abs(out - st)) < 1e-8


def test_asymptotic_equals_thermal_without_quench():
    rng = np.random.default_rng(8)
    for _ in range(20):
        _, n, g, k = _random_mode(rng)
        a = float(rng.uniform(0, 3))
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        c = ChainConfig(n, g, kt, a, a)
        assert np.max(np.abs(_block(c, math.inf, k) - _block(c, 0.0, k))) < 1e-12


def test_asymptotic_matches_windowed_average():
    rng = np.random.default_rng(9)
    for _ in range(8):
        (phi, _), n, g, k = _random_mode(rng)
        a, b = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        if dispersion(phi, b, g) < 1e-3:
            continue
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        c = ChainConfig(n, g, kt, a, b)
        window = np.linspace(1000.0, 2000.0, 400)
        mean = np.mean([_block(c, float(t), k) for t in window], axis=0)
        assert np.max(np.abs(mean - _block(c, math.inf, k))) < 1e-2


def test_asymptotic_degenerate_mode_stays_thermal():
    # gamma = 1, b = 1, phi = pi: Lambda(b) = 0 exactly, so the series limit
    # sin(2 t Lambda)/Lambda -> 2t applies and the mode never evolves.
    with factor_scope():
        assert correlations._dispersion(8, 1.0, 1.0)[-1] == 0.0
    c = ChainConfig(8, 1.0, 0.4, 2.0, 1.0)
    for t in (3.7, math.inf):
        assert np.max(np.abs(_block(c, t, -1) - _block(c, 0.0, -1))) < 1e-14


def test_mode_hamiltonian_structure():
    phi, delta = _modes(8)[0]
    ham = _mode_hamiltonian(phi, delta, 0.8)
    assert np.max(np.abs(ham - ham.conj().T)) == 0
    assert ham[0, 0] == pytest.approx(2 * 0.8)
    assert ham[1, 1] == pytest.approx(-4 * math.cos(phi) - 2 * 0.8)
    assert ham[2, 2] == ham[3, 3] == pytest.approx(-2 * math.cos(phi))
    lam, c = dispersion(phi, 0.8, 1.0), math.cos(phi)
    expected = [-2 * c - 2 * lam, -2 * c, -2 * c, -2 * c + 2 * lam]
    assert np.linalg.eigvalsh(ham) == pytest.approx(expected, rel=1e-12)
