"""Brute-force oracle checks and its agreement envelope with the mode pipeline."""

import functools
import math
import tracemalloc

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


def _site_product(n, ops):
    """Kronecker product of ops[k] on site k (identity elsewhere), site 0 as the first factor."""
    return functools.reduce(np.kron, [ops.get(k, np.eye(2)) for k in range(n)])


def _kron_hamiltonian(n, gamma, h):
    """Reference H as a sum of Kronecker products."""
    ham = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        j = (i + 1) % n
        ham -= 0.5 * (1.0 + gamma) * _site_product(n, {i: ed.SX, j: ed.SX})
        ham -= 0.5 * (1.0 - gamma) * _site_product(n, {i: ed.SY, j: ed.SY})
        ham -= h * _site_product(n, {i: ed.SZ})
    return ham


def test_hamiltonian_matches_kronecker_reference():
    for n in (4, 6, 8):
        for gamma, h in FIELDS:
            ham = ed.build_hamiltonian(n, gamma, h)
            assert ham.dtype == np.float64
            assert np.max(np.abs(ham - _kron_hamiltonian(n, gamma, h))) < 1e-14


def test_hamiltonian_commutes_with_parity():
    # Entries between even- and odd-popcount states are exactly zero, so no
    # block of quench_series couples the two sectors.
    for n in (4, 6, 8):
        odd = np.array([bin(k).count("1") % 2 for k in range(2**n)], dtype=bool)
        for gamma, h in FIELDS:
            ham = ed.build_hamiltonian(n, gamma, h)
            assert not ham[np.ix_(odd, ~odd)].any()
            assert not ham[np.ix_(~odd, odd)].any()


def _translation_powers(n):
    """T^r for r = 0..n-1 as permutation matrices, T moving site i to site i + 1."""
    states = np.arange(2**n)
    image = sum(((states >> (n - 1 - i)) & 1) << (n - 1 - (i + 1) % n) for i in range(n))
    t = np.zeros((2**n, 2**n))
    t[image, states] = 1.0
    return [np.linalg.matrix_power(t, r) for r in range(n)]


def _momentum_basis(n, p, m, powers):
    """Representatives and orbit sums e^(-ikr) T^r |a> / sqrt(R), r < R, of block (p, m), by definition."""
    orbits = np.array([power.argmax(axis=0) for power in powers])  # orbits[r, a] = T^r a
    reps, columns = [], []
    for a in range(2**n):
        period = next(r for r in range(1, n + 1) if r == n or orbits[r, a] == a)
        if a == orbits[:, a].min() and bin(a).count("1") % 2 == p and m * period % n == 0:
            reps.append(a)
            columns.append(sum(np.exp(-2j * np.pi * m * r / n) * powers[r][:, a] for r in range(period))
                           / math.sqrt(period))
    return reps, np.array(columns).T


def _pair_sum(n, d, op, powers):
    """sum_l op on sites (l, l + d), op in the basis 00, 01, 10, 11, from Kronecker products and T."""
    ket = np.eye(2)
    pair = sum(op[j, i] * _site_product(n, {0: np.outer(ket[j >> 1], ket[i >> 1]), d: np.outer(ket[j & 1], ket[i & 1])})
               for j in range(4) for i in range(4))
    return sum(power @ pair @ power.T for power in powers)


def test_momentum_blocks_are_the_blocks_of_the_full_hamiltonian():
    # Each (parity, momentum) block of H, and of a dense pair operator summed
    # over the ring as the X-state entries are, equals B^dagger O B with B the
    # block's orbit sums built from T as a permutation matrix.  The blocks'
    # columns together are a unitary, so no state is lost or counted twice.
    op = np.random.default_rng(0).standard_normal((4, 4))
    for n in (4, 5, 6, 7, 8):
        powers = _translation_powers(n)
        hams = [ed.build_hamiltonian(n, gamma, h) for gamma, h in FIELDS]
        pair_sums = {d: _pair_sum(n, d, op, powers) for d in (1, 2, n - 1)}
        bases = []
        for p, m, reps in ed._blocks(n):
            want, basis = _momentum_basis(n, p, m, powers)
            assert reps.tolist() == want
            for (gamma, h), ham in zip(FIELDS, hams):
                block = ed._block_operator(n, m, reps, 1, [ed._bond(gamma, h)])[0]
                assert np.max(np.abs(block - basis.conj().T @ ham @ basis)) < 1e-12
            for d, full in pair_sums.items():
                block = ed._block_operator(n, m, reps, d, [op])[0]
                assert np.max(np.abs(block - basis.conj().T @ full @ basis)) < 1e-12
            bases.append(basis)
        assert sum(len(reps) for _, _, reps in ed._blocks(n)) == 2**n
        unitary = np.hstack(bases)
        assert np.max(np.abs(unitary.conj().T @ unitary - np.eye(2**n))) < 1e-12


def test_mirror_block_is_the_conjugate_block():
    # H, the pair operators and T are real in the z basis, so the block of -k
    # (m -> n - m) has the representatives of the block of k and conjugate
    # entries; quench_series solves only the blocks with 2m <= n and adds
    # each mirror's part as the conjugate.  A block that is its own mirror
    # (m = 0, and m = n/2 for even n) is real.
    op = np.random.default_rng(1).standard_normal((4, 4))
    for n in range(4, 10):
        blocks = {(p, m): reps for p, m, reps in ed._blocks(n)}
        terms = [(1, ed._bond(gamma, h)) for gamma, h in FIELDS] + [(d, op) for d in (1, 2, n - 1)]
        for (p, m), reps in blocks.items():
            mirror = (n - m) % n
            assert np.array_equal(blocks[p, mirror], reps)
            for d, term in terms:
                block = ed._block_operator(n, m, reps, d, [term])[0]
                want = block if mirror == m else ed._block_operator(n, mirror, reps, d, [term])[0]
                assert np.max(np.abs(block - want.conj())) < 1e-14, (n, p, m, d)


def _sector_lowest(n, gamma, h):
    """Lowest level of the even and of the odd parity sector, each the minimum over its momentum blocks."""
    lowest = [math.inf, math.inf]
    for p, m, reps in ed._blocks(n):
        block = ed._block_operator(n, m, reps, 1, [ed._bond(gamma, h)])[0]
        lowest[p] = min(lowest[p], np.linalg.eigvalsh(block)[0])
    return lowest


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
        with pytest.raises(ValueError, match="distinct sites"):
            ed.reduce_pair(rho, i, j)
    with pytest.raises(ValueError, match="not a power of two"):
        ed.reduce_pair(np.eye(6) / 6.0, 0, 1)


def test_magnetization_of_polarized_state():
    assert ed.magnetization(_up_projector(4)) == pytest.approx(0.5)


def _assert_matches_full_route(n, gamma, kt, a, b, times, d):
    """quench_series against thermal_state + evolve + reduce_pair on the full matrix."""
    rho0 = ed.thermal_state(ed.build_hamiltonian(n, gamma, a), kt)
    ham_b = ed.build_hamiltonian(n, gamma, b)
    rows = ed.quench_series(n, gamma, kt, a, b, times, d=d)
    assert len(rows) == len(times)
    for t, (mz, sx, sy, sz, pair) in zip(times, rows):
        rho_t = ed.evolve(rho0, ham_b, t)
        assert mz == pytest.approx(ed.magnetization(rho_t), abs=1e-12)
        assert (sx, sy, sz) == pytest.approx(ed.pair_correlators(rho_t, 0, d), abs=1e-12)
        assert np.max(np.abs(pair - ed.reduce_pair(rho_t, 0, d))) < 1e-12


def test_quench_series_matches_manual_composition():
    # The block route against thermal_state + evolve on the full matrix.  At
    # gamma = 1, a = 0 the kT = 0 ground pair is exactly degenerate with one
    # state in each parity sector, so a ground space kept to one block fails
    # there; at a != 0 the other blocks' lowest levels lie above the ground,
    # so weights shifted per block fail; weights normalized per block fail
    # everywhere.  At gamma = 0.3, a = 0.2 the ground state is odd at n = 6
    # and 8, so at kT = 0 the even blocks have no weight and are skipped.
    # n = 4 has orbits of period 1 and 2 (0000, 0101); n = 5 is an odd ring,
    # with no k = pi block.  d = n - 1 is the pair across the ring's seam;
    # t = 25 is past the small rings' revivals.
    times = (0.0, 1.3, 4.1, 25.0)
    for n in (4, 5, 6, 8):
        for gamma, a, b in ((1.0, 0.0, 0.5), (1.0, 1.001, 0.5), (0.6, 1.3, 0.4), (0.3, 0.2, 0.5)):
            if (gamma, a) == (0.3, 0.2) and n in (6, 8):
                even, odd = _sector_lowest(n, gamma, a)
                assert odd < even - 1e-3
            for kt in (0.0, 0.5):
                for d in (1, 2, n - 1):
                    _assert_matches_full_route(n, gamma, kt, a, b, times, d)
    # kT = 0.02 at n = 8: part of the Gibbs weights underflow to 0, leaving
    # 157 of the 256 factor columns, 8 to 13 in each of the 16 blocks.
    _assert_matches_full_route(8, 1.0, 0.02, 1.5, 0.5, times, 2)
    # Times as a numpy array, and no times at all.
    _assert_matches_full_route(6, 1.0, 0.0, 1.5, 0.5, np.linspace(0.0, 25.0, 26), 1)
    assert ed.quench_series(6, 1.0, 0.5, 1.5, 0.5, []) == []


def test_two_sector_ground_solves_h_b_only_in_its_blocks(monkeypatch):
    # At gamma = 1, a = 0 the kT = 0 ground pair is the even and the odd
    # combination of the two x-polarized states, both at k = 0: beside the
    # H(a) eigensolves of the blocks with 2m <= n, whose mirrors m -> n - m
    # are never solved, only those two blocks solve H(b).
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: sizes.append(len(matrix)) or eigh(matrix))
    rows = ed.quench_series(10, 1.0, 0.0, 0.0, 0.5, np.linspace(0.0, 5.0, 6))
    blocks = ed._blocks(10)
    assert [(p, m) for p, m, _ in blocks[::10]] == [(0, 0), (1, 0)]
    assert sizes == [len(reps) for _, m, reps in blocks if 2 * m <= 10] + [len(blocks[0][2]), len(blocks[10][2])]
    for *_, pair in rows:
        assert np.trace(pair).real == pytest.approx(1.0, abs=1e-12)


def test_quench_series_rejects_a_pair_on_one_site():
    for n in (4, 6):
        for d in (0, n, -n, 2 * n):
            with pytest.raises(ValueError, match=f"d = {d} is a multiple of n = {n}"):
                ed.quench_series(n, 1.0, 0.5, 1.5, 0.5, [0.0, 1.0], d=d)
        # d = n + 1 is the pair at distance 1 and d = n - 1 the pair across the seam.
        near, far = (ed.quench_series(n, 1.0, 0.5, 1.5, 0.5, [1.0], d=d) for d in (1, n + 1))
        assert np.array_equal(near[0][4], far[0][4])
        _assert_matches_full_route(n, 1.0, 0.5, 1.5, 0.5, [1.0], n - 1)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_pair_at_d_and_at_n_minus_d_is_one_pair(n):
    # (0, n - d) is the pair (0, d) with its sites swapped: translation by d
    # maps it onto (d, 0).  The swap exchanges rho22 and rho33 and conjugates
    # rho23, so compare C, not rho_pair.
    times = [0.0, 0.7, 3.3]
    for gamma, kt, a, b in ((1.0, 0.0, 1.5, 0.5), (0.6, 0.5, 0.6, 1.4), (1.0, 0.5, 1.001, 0.5)):
        for d in range(1, n // 2 + 1):
            near, far = (ed.quench_series(n, gamma, kt, a, b, times, d=e) for e in (d, n - d))
            for (*obs, rho), (*obs_far, rho_far) in zip(near, far):
                assert np.allclose(obs, obs_far, rtol=0.0, atol=1e-12)
                assert abs(concurrence_general(rho) - concurrence_general(rho_far)) <= 1e-12


def test_quench_series_reverses_time_by_conjugation():
    # H is real, so rho(-t) = rho(t)*: M_z and the same-axis correlators are
    # even in t, and Im rho14, which carries <S^x S^y> + <S^y S^x>, is odd.
    # Im rho14 reaches 0.15 here, so this pins the sign that a cross
    # correlator of the pipeline must reproduce.
    times = np.array([0.7, 3.3, 25.0])
    largest = 0.0
    for n in (6, 8, 10):
        for gamma, kt, a, b in ((1.0, 0.0, 1.5, 0.5), (0.6, 0.5, 0.6, 1.4), (1.0, 0.5, 1.001, 0.5)):
            for d in (1, 2, 3):
                rows = ed.quench_series(n, gamma, kt, a, b, np.concatenate([times, -times]), d=d)
                for (*obs, rho), (*obs_back, rho_back) in zip(rows[:len(times)], rows[len(times):]):
                    assert np.max(np.abs(rho_back - rho.conj())) <= 1e-12
                    assert np.allclose(obs_back, obs, rtol=0.0, atol=1e-12)
                    largest = max(largest, abs(rho[0, 3].imag))
    assert largest > 0.1


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_quench_series_rejects_non_finite_times(t):
    # ED has no dephased limit (the mode pipeline's t = inf); such a time
    # would only give NaN rows.
    with pytest.raises(ValueError, match=f"ED needs finite times, got t = {t}$"):
        ed.quench_series(6, 1.0, 0.5, 1.5, 0.5, [0.0, t, 1.0])


def test_quench_series_memory_does_not_grow_with_the_gibbs_rank():
    # At kT = 0.5 each block's Gibbs factor F has all its columns, at kT = 0
    # only the ground block's one.  The H(a) eigenvectors of the solved
    # blocks, the 12 of 20 with 2m <= n, are kept through the loop over
    # blocks: 0.48 MiB at n = 10, or 0.60 of the unit below, 16 sum K^2 over
    # all 20 blocks (0.80 MiB, blocks of K = 48 to 56 states).  The peaks are
    # about 1.73 units at kT = 0 and 2.00 at kT = 0.5, the rest being one
    # block's H(b) eigenvectors and its six pair operators on their way to
    # the X arrays.  One 2^n x 2^n float64 array (8 MiB), or one K x K array
    # of a parity block (2 MiB), would exceed both bounds; so would holding
    # the eigenvectors of the 8 mirror blocks too.
    unit = 16 * sum(len(reps) ** 2 for _, _, reps in ed._blocks(10))  # also builds the cached tables
    peaks = []
    for kt in (0.0, 0.5):
        tracemalloc.start()
        try:
            ed.quench_series(10, 1.0, kt, 1.001, 0.5, np.linspace(0.0, 5.0, 6))
            peaks.append(tracemalloc.get_traced_memory()[1] / unit)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.8 and peaks[1] <= 2.1, [f"{peak:.2f} x all blocks' eigenvectors" for peak in peaks]


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


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_ring_rule_equals_ed_at_zero_temperature(mode_rule, n):
    # On the even parity sector's nodes (2p - 1) pi/N, p = 1..N/2, with weight
    # 2/N, the mode sums are those of the finite ring wherever its ground state
    # is even, as it is at each of these fields, at every offset up to half
    # the ring.  At n = 4 the ground state of (gamma, a) = (0.6, 0.6) is odd,
    # 0.073 below the even sector's lowest level, so that set is left out
    # there.
    mode_rule(lambda n_sites: ((2.0 * np.arange(1, n_sites // 2 + 1) - 1.0) * np.pi / n_sites,
                               np.full(n_sites // 2, 2.0 / n_sites)))
    times = [0.0, 0.7, 3.3, 25.0]
    for gamma, a, b in ((1.0, 1.5, 0.5), (0.6, 0.6, 1.4), (1.0, 0.5, 1.5), (1.0, 1.001, 0.5)):
        if (n, gamma, a) == (4, 0.6, 0.6):
            continue
        even, odd = _sector_lowest(n, gamma, a)
        assert even < odd - ed.GROUND_TOL
        config = ChainConfig(n, gamma, 0.0, a, b)
        for d in range(1, n // 2 + 1):
            want = [row[:4] for row in ed.quench_series(n, gamma, 0.0, a, b, times, d=d)]
            got = np.column_stack([magnetization_z(config, times), correlator_xx(config, d, times),
                                   correlator_yy(config, d, times), correlator_zz(config, d, times)])
            assert np.max(np.abs(got - want)) <= 1e-12


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
