"""Per-mode thermal states, propagators, and the three evolution routes."""

import math

import numpy as np
import pytest

from xyquench.dynamics import (
    ModeState,
    asymptotic_mode,
    closed_form_mode_state,
    evolve_mode,
    evolve_mode_numeric,
    step_propagator,
    thermal_mode_state,
    _mode_hamiltonian,
    _pair_generator,
)
from xyquench.lattice import ChainConfig, Mode, mode_grid


def _modes(n=10, gamma=1.0):
    return mode_grid(ChainConfig(n, gamma, 0.0, 1.0, 1.0))


def _random_mode(rng, gamma=None):
    n = int(rng.choice([6, 8, 12, 16]))
    g = float(rng.uniform(0.1, 2.0)) if gamma is None else gamma
    modes = mode_grid(ChainConfig(n, g, 0.0, 1.0, 1.0))
    return modes[rng.integers(len(modes))]


def test_thermal_infinite_temperature_is_uniform():
    for m in _modes():
        st = thermal_mode_state(m, 1.3, 1e12)
        mat = st.as_matrix()
        assert np.allclose(np.diag(mat), 0.25, atol=1e-11)
        assert abs(mat[0, 1]) < 1e-11


def test_thermal_zero_temperature_is_ground_projector():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m = _random_mode(rng)
        a = float(rng.uniform(-1.0, 3.0))
        if m.lambda_of(a) < 1e-9:
            continue
        st = thermal_mode_state(m, a, 0.0)
        assert st.single_occ == 0.0
        block = np.array(
            [[2 * a, -1j * m.delta], [1j * m.delta, -4 * math.cos(m.phi) - 2 * a]]
        )
        vals, vecs = np.linalg.eigh(block)
        ground = vecs[:, [0]] @ vecs[:, [0]].conj().T
        assert np.max(np.abs(st.occ_block - ground)) < 1e-12


def test_thermal_trace_is_one():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = _random_mode(rng)
        st = thermal_mode_state(m, float(rng.uniform(0, 4)), float(rng.uniform(0, 3)))
        assert st.trace() == pytest.approx(1.0, abs=1e-14)


def test_thermal_rejects_negative_temperature():
    with pytest.raises(ValueError):
        thermal_mode_state(_modes()[0], 1.0, -0.5)


def test_thermal_zero_temperature_limit_is_continuous():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = _random_mode(rng)
        a = float(rng.uniform(0.0, 3.0))
        if m.lambda_of(a) < 1e-3:
            continue
        cold = thermal_mode_state(m, a, 0.0).as_matrix()
        errs = [
            np.max(np.abs(thermal_mode_state(m, a, kt).as_matrix() - cold))
            for kt in (1e-2, 1e-3, 1e-4)
        ]
        assert errs[0] > errs[1] > errs[2] or errs[2] < 1e-14


def test_propagator_identity_at_t0():
    for m in _modes():
        prop = step_propagator(m, 0.5, 0.0)
        assert np.allclose(prop.u_block, np.eye(2), atol=1e-15)


def test_propagator_unitary():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = _random_mode(rng)
        prop = step_propagator(m, float(rng.uniform(-1, 4)), float(rng.uniform(0, 30)))
        assert np.max(np.abs(prop.u_block @ prop.u_block.conj().T - np.eye(2))) < 1e-12


def test_propagator_boundary_mode_is_diagonal():
    m = _modes(8)[-1]
    assert m.delta == 0.0
    prop = step_propagator(m, 2.0, 1.7)
    assert prop.u_block[0, 1] == 0 and prop.u_block[1, 0] == 0
    assert abs(abs(prop.u_block[0, 0]) - 1.0) < 1e-14
    assert abs(abs(prop.u_block[1, 1]) - 1.0) < 1e-14


def test_propagator_degenerate_mode_series_limit():
    # gamma=1, b=1, phi=pi: Lambda(b)=0 exactly; sin(2 t Lambda)/Lambda -> 2t,
    # but the generator itself vanishes, so the block must be the identity.
    m = _modes(8)[-1]
    assert m.lambda_of(1.0) == 0.0
    prop = step_propagator(m, 1.0, 3.7)
    assert np.allclose(prop.u_block, np.eye(2), atol=1e-12)


def test_evolve_identity_propagator():
    m = _modes()[1]
    st = thermal_mode_state(m, 1.2, 0.7)
    out = evolve_mode(st, step_propagator(m, 0.9, 0.0))
    assert np.max(np.abs(out.as_matrix() - st.as_matrix())) < 1e-15


def test_evolve_is_stationary_without_quench():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = _random_mode(rng)
        a = float(rng.uniform(0, 3))
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        st = thermal_mode_state(m, a, kt)
        for t in (0.3, 2.0, 17.0):
            out = evolve_mode(st, step_propagator(m, a, t))
            assert np.max(np.abs(out.as_matrix() - st.as_matrix())) < 1e-12


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = _random_mode(rng)
        st = thermal_mode_state(m, float(rng.uniform(0, 3)), float(rng.uniform(0, 2)))
        out = evolve_mode(st, step_propagator(m, float(rng.uniform(0, 3)), float(rng.uniform(0, 20))))
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        blk = out.occ_block
        assert np.max(np.abs(blk - blk.conj().T)) < 1e-12
        assert min(np.linalg.eigvalsh(blk)) > -1e-10


def test_closed_form_matches_conjugation_route():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        m = _random_mode(rng)
        a = float(rng.uniform(0, 3))
        b = float(rng.uniform(0, 3))
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        t = float(rng.uniform(0, 20))
        if m.lambda_of(a) < 1e-8 or m.lambda_of(b) < 1e-8:
            continue
        evolved = evolve_mode(thermal_mode_state(m, a, kt), step_propagator(m, b, t))
        closed = closed_form_mode_state(m, a, b, kt, t)
        assert np.max(np.abs(evolved.as_matrix() - closed.as_matrix())) < 1e-10
        checked += 1


def test_numeric_route_at_reference_quench():
    modes = mode_grid(ChainConfig(8, 1.0, 0.5, 1.001, 0.5))
    for m in modes[:2]:
        for t in (0.5, 5.0, 20.0):
            num = evolve_mode_numeric(m, 1.001, 0.5, 0.5, t, tol=1e-9)
            ana = evolve_mode(thermal_mode_state(m, 1.001, 0.5), step_propagator(m, 0.5, t))
            assert np.max(np.abs(num.as_matrix() - ana.as_matrix())) < 1e-8


def test_numeric_route_t0_and_stationarity():
    m = _modes()[2]
    st = thermal_mode_state(m, 1.1, 0.3)
    assert np.max(np.abs(evolve_mode_numeric(m, 1.1, 0.7, 0.3, 0.0).as_matrix() - st.as_matrix())) == 0
    out = evolve_mode_numeric(m, 1.1, 1.1, 0.3, 8.0, tol=1e-9)
    assert np.max(np.abs(out.as_matrix() - st.as_matrix())) < 1e-8


def test_numeric_route_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        evolve_mode_numeric(_modes()[0], 1.0, 0.5, 0.0, 1.0, tol=0.0)


def test_asymptotic_equals_thermal_without_quench():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = _random_mode(rng)
        a = float(rng.uniform(0, 3))
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        limit = asymptotic_mode(m, a, a, kt)
        st = thermal_mode_state(m, a, kt)
        assert np.max(np.abs(limit.as_matrix() - st.as_matrix())) < 1e-12


def test_asymptotic_matches_windowed_average():
    rng = np.random.default_rng(9)
    for _ in range(8):
        m = _random_mode(rng)
        a, b = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        if m.lambda_of(b) < 1e-3:
            continue
        kt = float(rng.choice([0.0, rng.uniform(0.05, 2)]))
        st = thermal_mode_state(m, a, kt)
        window = np.linspace(1000.0, 2000.0, 400)
        mean = np.mean(
            [evolve_mode(st, step_propagator(m, b, float(t))).as_matrix() for t in window],
            axis=0,
        )
        limit = asymptotic_mode(m, a, b, kt).as_matrix()
        assert np.max(np.abs(mean - limit)) < 1e-2


def test_asymptotic_degenerate_mode_stays_thermal():
    m = _modes(8)[-1]
    assert m.lambda_of(1.0) == 0.0
    limit = asymptotic_mode(m, 2.0, 1.0, 0.4)
    st = thermal_mode_state(m, 2.0, 0.4)
    assert np.max(np.abs(limit.as_matrix() - st.as_matrix())) < 1e-14


def test_mode_hamiltonian_structure():
    m = _modes(8)[0]
    ham = _mode_hamiltonian(m, 0.8)
    assert np.max(np.abs(ham - ham.conj().T)) == 0
    assert ham[0, 0] == pytest.approx(2 * 0.8)
    assert ham[1, 1] == pytest.approx(-4 * math.cos(m.phi) - 2 * 0.8)
    assert ham[2, 2] == ham[3, 3] == pytest.approx(-2 * math.cos(m.phi))
    gen = _pair_generator(math.cos(m.phi) + 0.8, m.delta)
    vals = np.linalg.eigvalsh(gen)
    assert vals[1] == pytest.approx(2 * m.lambda_of(0.8), rel=1e-12)
