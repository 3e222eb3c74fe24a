"""Brute-force oracle checks and its agreement envelope with the mode pipeline."""

import functools
import math

import numpy as np
import pytest

from xyquench import ed
from xyquench.correlations import (
    correlator_xx,
    correlator_yy,
    correlator_zz,
    magnetization_z,
)
from xyquench.entanglement import concurrence_general, concurrence_x, two_site_state
from xyquench.lattice import ChainConfig, dispersion


def _up_projector(n):
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_spectrum_symmetric_at_zero_field():
    evals = np.linalg.eigvalsh(ed.build_hamiltonian(4, 1.0, 0.0))
    assert np.max(np.abs(evals + evals[::-1])) < 1e-12


def test_polarized_diagonal_element():
    ham = ed.build_hamiltonian(4, 0.6, 0.7)
    assert ham[0, 0].real == pytest.approx(-4 * 0.7, abs=1e-13)
    assert ham[0, 0].imag == 0.0


# (gamma, h) pairs for the Hamiltonian checks: the Ising point at zero field,
# and fields on both sides of the transition.
FIELDS = ((1.0, 0.0), (1.0, 1.5), (0.8, 1.1), (0.6, 0.4), (0.3, 2.0))


def _kron_hamiltonian(n, gamma, h):
    """Reference H as a sum of Kronecker products, site 0 as the first factor."""
    def site_product(ops):
        return functools.reduce(np.kron, [ops.get(k, np.eye(2)) for k in range(n)])

    ham = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        ham -= 0.5 * (1.0 + gamma) * site_product({i: ed.SX, j: ed.SX})
        ham -= 0.5 * (1.0 - gamma) * site_product({i: ed.SY, j: ed.SY})
        ham -= h * site_product({i: ed.SZ})
    return ham


def test_hamiltonian_matches_kronecker_reference():
    for n in (4, 6, 8):
        for gamma, h in FIELDS:
            ham = ed.build_hamiltonian(n, gamma, h)
            assert ham.dtype == np.float64
            assert np.max(np.abs(ham - _kron_hamiltonian(n, gamma, h))) < 1e-14


def test_hamiltonian_commutes_with_parity():
    # Entries between even- and odd-popcount states are exactly zero, so the
    # two parity blocks of quench_series drop nothing.
    for n in (4, 6, 8):
        odd = np.array([bin(k).count("1") % 2 for k in range(2**n)], dtype=bool)
        for gamma, h in FIELDS:
            ham = ed.build_hamiltonian(n, gamma, h)
            assert not ham[np.ix_(odd, ~odd)].any()
            assert not ham[np.ix_(~odd, odd)].any()


def test_site_range_validation():
    for bad in (3, 2, 14):
        with pytest.raises(ValueError):
            ed.build_hamiltonian(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            ed.quench_series(bad, 1.0, 0.0, 1.0, 0.5, (0.0,))


def test_ground_energy_matches_free_fermion_sum():
    # Away from criticality the ground state lives in the even parity sector,
    # whose momenta are the N/2 pairs +-pi(2j-1)/N; each pair contributes
    # -2 Lambda to the ground energy.
    n, gamma, h = 8, 1.0, 1.3
    exact = -sum(2.0 * dispersion(math.pi * (2 * j - 1) / n, h, gamma) for j in range(1, n // 2 + 1))
    evals = np.linalg.eigvalsh(ed.build_hamiltonian(n, gamma, h))
    assert evals[0] == pytest.approx(exact, abs=1e-12)


def test_thermal_infinite_temperature_is_maximally_mixed():
    ham = ed.build_hamiltonian(4, 1.0, 0.9)
    rho = ed.thermal_state(ham, 1e12)
    assert np.max(np.abs(rho - np.eye(16) / 16)) < 1e-12


def test_thermal_state_is_a_valid_equilibrium():
    ham = ed.build_hamiltonian(6, 0.7, 1.2)
    rho = ed.thermal_state(ham, 0.8)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-14
    assert np.max(np.abs(ham @ rho - rho @ ham)) < 1e-10


def test_thermal_ground_space_projector_handles_degeneracy():
    # gamma = 1, h = 0 is diagonal in the x basis with an exactly two-fold
    # degenerate ground pair; both states must share the weight.
    rho = ed.thermal_state(ed.build_hamiltonian(4, 1.0, 0.0), 0.0)
    evals = np.sort(np.linalg.eigvalsh(rho))
    assert evals[-1] == pytest.approx(0.5, abs=1e-12)
    assert evals[-2] == pytest.approx(0.5, abs=1e-12)
    assert abs(evals[-3]) < 1e-12


def test_thermal_rejects_negative_temperature():
    # NaN too: it fails every comparison, and would give all-NaN rows.
    for kt in (-1.0, math.nan):
        with pytest.raises(ValueError):
            ed.thermal_state(ed.build_hamiltonian(4, 1.0, 1.0), kt)
        with pytest.raises(ValueError):
            ed.quench_series(4, 1.0, kt, 1.5, 0.5, [0.0, 1.0])


def test_evolve_identity_and_spectrum_preservation():
    ham_a = ed.build_hamiltonian(4, 1.0, 1.5)
    ham_b = ed.build_hamiltonian(4, 1.0, 0.3)
    rho = ed.thermal_state(ham_a, 0.5)
    assert np.max(np.abs(ed.evolve(rho, ham_b, 0.0) - rho)) < 1e-12
    out = ed.evolve(rho, ham_b, 3.7)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(rho))) < 1e-10


def test_evolve_is_stationary_without_quench():
    ham = ed.build_hamiltonian(4, 0.6, 1.1)
    rho = ed.thermal_state(ham, 0.4)
    assert np.max(np.abs(ed.evolve(rho, ham, 11.3) - rho)) < 1e-10


def test_evolve_conserves_energy():
    ham_a = ed.build_hamiltonian(6, 1.0, 1.001)
    ham_b = ed.build_hamiltonian(6, 1.0, 0.5)
    rho = ed.thermal_state(ham_a, 0.5)
    ref = np.trace(rho @ ham_b).real
    for t in (0.5, 2.0, 9.0):
        drift = np.trace(ed.evolve(rho, ham_b, t) @ ham_b).real - ref
        assert abs(drift) < 1e-10


def test_reduce_pair_of_product_state():
    rho2 = ed.reduce_pair(_up_projector(4), 0, 2)
    assert np.max(np.abs(rho2 - np.diag([1.0, 0, 0, 0]))) < 1e-14


def test_reduce_pair_is_a_density_matrix():
    rho = ed.thermal_state(ed.build_hamiltonian(6, 0.9, 0.8), 0.6)
    rho2 = ed.reduce_pair(rho, 1, 4)
    assert np.trace(rho2).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho2 - rho2.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho2).min() > -1e-12


def test_reduce_pair_translation_invariance():
    rho = ed.thermal_state(ed.build_hamiltonian(6, 1.0, 1.2), 0.7)
    ref = ed.reduce_pair(rho, 0, 1)
    for i in range(1, 6):
        shifted = ed.reduce_pair(rho, i, (i + 1) % 6)
        assert np.max(np.abs(shifted - ref)) < 1e-12


def test_reduce_pair_index_validation():
    rho = _up_projector(4)
    for i, j in ((0, 0), (-1, 2), (0, 4)):
        with pytest.raises(ValueError):
            ed.reduce_pair(rho, i, j)


def test_magnetization_of_polarized_state():
    assert ed.magnetization(_up_projector(4)) == pytest.approx(0.5)


def test_quench_series_matches_manual_composition():
    # The parity-blocked route against thermal_state + evolve on the full
    # matrix.  At gamma = 1, a = 0 the kT = 0 ground pair is exactly degenerate
    # with one state in each sector, so a ground space kept to one sector
    # fails there; at a != 0 the odd sector's lowest level lies above the
    # ground, so weights shifted per sector fail; weights normalized per
    # sector fail everywhere.  At gamma = 0.3, a = 0.2 the ground state is odd,
    # so at kT = 0 the even block keeps no columns.  d = n - 1 is the pair
    # across the ring's seam.
    times = (0.0, 1.3, 4.1)
    for n in (6, 8):
        for gamma, a, b in ((1.0, 0.0, 0.5), (1.0, 1.001, 0.5), (0.6, 1.3, 0.4), (0.3, 0.2, 0.5)):
            ham_a = ed.build_hamiltonian(n, gamma, a)
            ham_b = ed.build_hamiltonian(n, gamma, b)
            if (gamma, a) == (0.3, 0.2):
                odd = ed._popcounts(n) % 2 == 1
                lowest = [np.linalg.eigvalsh(ham_a[np.ix_(s, s)])[0] for s in (~odd, odd)]
                assert lowest[1] < lowest[0] - 1e-3
            for kt in (0.0, 0.5):
                rho0 = ed.thermal_state(ham_a, kt)
                states = [ed.evolve(rho0, ham_b, t) for t in times]
                for d in (1, 2, n - 1):
                    rows = ed.quench_series(n, gamma, kt, a, b, times, d=d)
                    for rho_t, (mz, sx, sy, sz, pair) in zip(states, rows):
                        assert mz == pytest.approx(ed.magnetization(rho_t), abs=1e-12)
                        expected = ed.pair_correlators(rho_t, 0, d)
                        assert (sx, sy, sz) == pytest.approx(expected, abs=1e-12)
                        assert np.max(np.abs(pair - ed.reduce_pair(rho_t, 0, d))) < 1e-12


@pytest.mark.parametrize("t", [0.0, pytest.param(0.7, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="two_site_state drops Im rho14, which after a quench carries "
    "<S^x S^y> + <S^y S^x> at finite t (-0.0655 here), so concurrence_x gives 0, not 0.0117"))])
def test_same_axis_pair_state_matches_ed(t):
    # The X state from ED's own (M_z, S^x, S^y, S^z) against ED's reduced pair
    # state: no mode pipeline, so only the assembly from same-axis correlators
    # is tested.
    (mz, sx, sy, sz, rho), = ed.quench_series(8, 1.0, 0.0, 1.5, 0.5, [t], d=1)
    state = two_site_state(mz, sx, sy, sz)
    assert np.max(np.abs(state.matrix() - rho)) < 1e-12
    assert concurrence_x(state) == pytest.approx(concurrence_general(rho), abs=1e-12)


def _pipeline_gaps(n, gamma, kt, a, b, times):
    """(magnetization gap, worst correlator gap) between pipeline and oracle."""
    config = ChainConfig(n, gamma, kt, a, b)
    rows = ed.quench_series(n, gamma, kt, a, b, times, d=1)
    gap_mz, gap_corr = 0.0, 0.0
    for t, (mz, sx, sy, sz, _) in zip(times, rows):
        gap_mz = max(gap_mz, abs(magnetization_z(config, t) - mz))
        gap_corr = max(
            gap_corr,
            abs(correlator_xx(config, 1, t) - sx),
            abs(correlator_yy(config, 1, t) - sy),
            abs(correlator_zz(config, 1, t) - sz),
        )
    return gap_mz, gap_corr


def test_pipeline_oracle_gap_shrinks_with_n():
    # The mode picture differs from the true ring by a boundary term, so the
    # gap is O(1/N): magnetization bounded at N = 8 and every gap strictly
    # shrinking through N = 10.
    times = (0.5, 2.0)
    gaps = [_pipeline_gaps(n, 1.0, 0.5, 1.001, 0.5, times) for n in (6, 8, 10)]
    assert gaps[1][0] < 0.06
    assert gaps[0][0] > gaps[1][0] > gaps[2][0]
    assert gaps[0][1] > gaps[1][1] > gaps[2][1]


def test_equilibrium_oracle_gap_shrinks_with_n():
    gaps = [max(_pipeline_gaps(n, 1.0, 0.0, 1.4, 1.4, (0.0,))) for n in (6, 8, 10)]
    assert gaps[0] > gaps[1] > gaps[2]
