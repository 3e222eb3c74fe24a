"""Pfaffians, elementary contractions, and string correlators."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from xyquench import correlations
from xyquench.correlations import (
    ModeBlocks,
    contraction_table,
    correlator_xx,
    correlator_yy,
    correlator_zz,
    factor_scope,
    magnetization_z,
    mode_blocks,
    pfaffian,
)
from xyquench import ed
from xyquench.cli import pair_observables
from xyquench.dynamics import spectral_mode_state
from xyquench.lattice import ChainConfig, grid_arrays


def _random_skew(rng, dim, complex_entries=True):
    m = rng.standard_normal((dim, dim))
    if complex_entries:
        m = m + 1j * rng.standard_normal((dim, dim))
    return m - m.T


def _random_config(rng, quench=True):
    n = int(rng.choice([8, 12, 16, 30]))
    gamma = float(rng.uniform(0.2, 1.5))
    kt = float(rng.choice([0.0, rng.uniform(0.05, 2.0)]))
    a = float(rng.uniform(0.0, 3.0))
    b = float(rng.uniform(0.0, 3.0)) if quench else a
    return ChainConfig(n, gamma, kt, a, b)


# ---------------------------------------------------------------- pfaffian


def test_pfaffian_two_by_two():
    z = 3.7 - 1.2j
    assert pfaffian(np.array([[0, z], [-z, 0]])) == pytest.approx(z)


def test_pfaffian_four_by_four_closed_form():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = _random_skew(rng, 4)
        expected = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert pfaffian(a) == pytest.approx(expected, rel=1e-12)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 6, 8, 10, 14):
        for _ in range(10):
            a = _random_skew(rng, dim, complex_entries=bool(dim % 4))
            assert pfaffian(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_pfaffian_empty_matrix_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0 + 0.0j


def test_pfaffian_odd_dimension_raises():
    for shape in ((3, 3), (2, 3), (4, 3, 3), (2, 2, 2, 2)):
        with pytest.raises(ValueError):
            pfaffian(np.zeros(shape))


def test_pfaffian_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        pfaffian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = 1.0  # only the middle member is broken
    with pytest.raises(ValueError):
        pfaffian(stack)


def test_pfaffian_of_a_stack_is_each_matrix_pfaffian():
    rng = np.random.default_rng(18)
    for dim in range(0, 10, 2):
        stack = np.array([_random_skew(rng, dim) for _ in range(7)])
        values = pfaffian(stack)
        assert values.shape == (7,)
        assert np.array_equal(values, [pfaffian(m) for m in stack])
        if dim:
            assert np.allclose(values**2, np.linalg.det(stack), rtol=1e-9, atol=0.0)
        else:
            assert np.array_equal(values, np.ones(7))


def test_pfaffian_zero_pivot_zeroes_only_its_matrix():
    rng = np.random.default_rng(19)
    first_column = _random_skew(rng, 6)
    first_column[:, 0] = first_column[0, :] = 0.0  # zero pivot at the first step
    later = np.zeros((6, 6), dtype=complex)
    later[:4, :4] = _random_skew(rng, 4)  # zero pivot once the last pair is reached
    stack = np.array([_random_skew(rng, 6), first_column, _random_skew(rng, 6), later,
                      _random_skew(rng, 6)])
    values = pfaffian(stack)
    assert values[1] == 0.0 and values[3] == 0.0
    for i in (0, 2, 4):
        assert values[i] == pfaffian(stack[i]) != 0.0


def test_pfaffian_signed_permutation_covariance():
    # pf(P^T A P) = det(P) pf(A) for any signed permutation P.
    rng = np.random.default_rng(13)
    for _ in range(15):
        a = _random_skew(rng, 6)
        perm = rng.permutation(6)
        signs = rng.choice([-1.0, 1.0], size=6)
        p = np.zeros((6, 6))
        p[perm, np.arange(6)] = signs
        lhs = pfaffian(p.T @ a @ p)
        assert lhs == pytest.approx(np.linalg.det(p) * pfaffian(a), rel=1e-10)


# ------------------------------------------------------------ contractions


def test_contractions_are_sums_over_mode_states():
    # Ties production to the spectral oracle of `dynamics`: mode_blocks holds
    # each mode's rho22 - rho11 and rho12, and
    # <B_l A_{l+d}> = (1/N) sum_p [2(rho22 - rho11) cos(d phi) + 4 Im rho12 sin(d phi)]
    # and Im <A_l A_{l+d}> = -(4/N) sum_p Re rho12 sin(d phi), read from Gamma
    # with l = max(0, -d).
    rng = np.random.default_rng(17)
    configs = [_random_config(rng) for _ in range(30)]
    # The last config is at kT = 0 with Lambda(a) = 1e-6 on its phi = pi mode: a
    # live ground state for both the degeneracy rule and the oracle.
    configs += [ChainConfig(16, 1.0, 0.0, 1.0, 0.4), ChainConfig(12, 0.7, 0.0, 0.3, 1.0),
                ChainConfig(10, 1.0, 0.8, 1.0, 1.0), ChainConfig(8, 1.0, 0.0, 1.0, 1.0),
                ChainConfig(12, 0.8, 0.0, 1.0 - 1e-6, 0.4)]
    for c in configs:
        phi, delta = grid_arrays(c)
        times = (0.0, float(rng.uniform(0, 20)), math.inf)
        batch = mode_blocks(c, times)
        for i, t in enumerate(times):
            rho = np.array([spectral_mode_state(*m, c.field_before, c.field_after, c.kt, t)
                            for m in zip(phi, delta)])
            blocks = mode_blocks(c, t)
            assert np.array_equal(batch.population[i], blocks.population)
            assert np.array_equal(batch.coherence[i], blocks.coherence)
            assert np.max(np.abs(blocks.population - (rho[:, 1, 1] - rho[:, 0, 0]).real)) < 1e-13
            assert np.max(np.abs(blocks.coherence - rho[:, 0, 1])) < 1e-13
            gamma = contraction_table(c, t, 3)
            for d in range(-3, 4):
                l, m = max(0, -d), max(0, d)
                cos_d, sin_d = np.cos(d * phi), np.sin(d * phi)
                ba = np.sum(2.0 * (rho[:, 1, 1] - rho[:, 0, 0]).real * cos_d
                            + 4.0 * rho[:, 0, 1].imag * sin_d) / c.n_sites
                aa = -4.0 * np.sum(rho[:, 0, 1].real * sin_d) / c.n_sites
                assert abs(gamma[2 * l + 1, 2 * m] - ba) < 1e-13
                assert abs(gamma[2 * l, 2 * m].imag - aa) < 1e-13


def test_finite_time_columns_near_the_poles_of_tan():
    # _batch forms w = sin^2(2 t L)/L^2 and v = sin(4 t L)/L from one
    # u = tan(2 t L).  The times put 2 t L of mode 1 within an ulp of pi/2
    # (|u| ~ 1e16, both signs) and of pi (u ~ 1e-16, both signs); b = 1 freezes
    # the phi = pi mode (L = 0), which takes the series limits instead.
    config = ChainConfig(8, 2.0, 0.3, 0.4, 1.0)
    phi, delta = grid_arrays(config)
    lam = np.hypot(np.cos(phi) + config.field_after, 0.5 * delta)
    assert lam[-1] < correlations.SERIES_EPS <= lam[:-1].min()
    times = []
    for angle in (math.pi / 2, math.pi):
        t = angle / (2.0 * lam[1])
        times += [t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, 1.0))]
    u = np.tan(2.0 * np.array(times) * lam[1])
    assert np.abs(u[:3]).min() > 1e15 and u[:3].min() < 0.0 < u[:3].max()
    assert np.abs(u[3:]).max() < 1e-15 and u[3:].min() < 0.0 < u[3:].max()
    with factor_scope():
        _, (w, _, v) = correlations._batch((config,) * len(times), tuple(times))
        blocks = mode_blocks(config, times)
    for i, t in enumerate(times):
        arg = 2.0 * t * lam[:-1]
        assert np.max(np.abs(w[i, :-1] - np.sin(arg) ** 2 / lam[:-1] ** 2)) <= 1e-15
        assert np.max(np.abs(v[i, :-1] - np.sin(2.0 * arg) / lam[:-1])) <= 1e-15
        assert (w[i, -1], v[i, -1]) == ((2.0 * t) ** 2, 4.0 * t)
        rho = np.array([spectral_mode_state(*m, config.field_before, config.field_after,
                                            config.kt, t) for m in zip(phi, delta)])
        assert np.max(np.abs(blocks.population[i] - (rho[:, 1, 1] - rho[:, 0, 0]).real)) < 1e-13
        assert np.max(np.abs(blocks.coherence[i] - rho[:, 0, 1])) < 1e-13


def test_a_finite_time_chunk_allocates_only_its_columns():
    # One timeseries chunk at N = 20000: 4 points x 10000 modes.  Beyond its
    # three (points x modes) columns w, x_b w and v, _batch may allocate only
    # rows over the modes (1/Lambda_b and the like), fewer than one column's
    # worth; a (points x modes) temporary would cross the bound.
    config = ChainConfig(20000, 1.0, 0.5, 1.001, 0.5)
    modes = config.n_sites // 2
    with factor_scope():
        correlations._batch((config,) * 4, (1.0, 2.0, 3.0, 4.0))  # the a and b factors
        correlations._batch.cache_clear()
        tracemalloc.start()
        try:
            correlations._batch((config,) * 4, (5.0, 6.0, 7.0, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 * 4 * modes * 8 + 3 * modes * 8


def _gamma_from_mode_sums(config, t, d_max):
    """Gamma of one point, summed mode by mode from mode_blocks of that point alone."""
    with factor_scope():
        blocks = mode_blocks(config, t)
    phi = grid_arrays(config)[0]
    gamma = np.zeros((d_max + 1, 2, d_max + 1, 2), dtype=complex)
    for s in range(d_max + 1):
        for s2 in range(d_max + 1):
            cos_d, sin_d = np.cos((s2 - s) * phi), np.sin((s2 - s) * phi)
            c = 2.0 * np.sum(blocks.population * cos_d) / config.n_sites
            odd = 4.0 * np.sum(blocks.coherence.imag * sin_d) / config.n_sites
            aa = -4.0 * np.sum(blocks.coherence.real * sin_d) / config.n_sites
            gamma[s, 1, s2, 0] = c + odd  # <B_s A_s2>
            gamma[s, 0, s2, 1] = odd - c  # <A_s B_s2>
            if s != s2:
                gamma[s, 0, s2, 0] = gamma[s, 1, s2, 1] = 1j * aa
    return gamma.reshape(2 * d_max + 2, 2 * d_max + 2)


def test_surface_batches_equal_point_by_point_mode_sums():
    # A field grid, row-major (consecutive points share a with different b)
    # and column-major (they share b with different a).  a = 1 at kT = 0 puts
    # the phi = pi mode at Lambda_a = 0 (degenerate weight) and b = 1 puts it
    # at Lambda_b = 0 (frozen); one batch holds t = 0, a finite t and inf.
    fields = (0.3, 1.0, 1.7)
    times = (0.0, 2.9, math.inf)
    for gamma, kt in ((1.0, 0.0), (0.7, 0.0), (0.7, 0.4)):
        rows = [ChainConfig(16, gamma, kt, a, b) for a in fields for b in fields]
        columns = [ChainConfig(16, gamma, kt, a, b) for b in fields for a in fields]
        points = [(c, t) for grid in (rows, columns) for t in times for c in grid]
        configs, batch_times = tuple(c for c, _ in points), tuple(t for _, t in points)
        with factor_scope():
            batch = contraction_table(configs, batch_times, 3)
        for config, t, gamma_batch in zip(configs, batch_times, batch):
            assert np.max(np.abs(gamma_batch - _gamma_from_mode_sums(config, t, 3))) <= 1e-13


def test_configs_differing_only_in_kt_or_gamma_share_no_factors():
    base = ChainConfig(16, 0.7, 0.0, 0.6, 1.4)
    for other in (replace(base, kt=0.5), replace(base, gamma=1.1)):
        for t in (1.3, math.inf):
            with factor_scope():
                fresh = mode_blocks(other, t), magnetization_z(other, t)
                alone = mode_blocks(base, t)
            with factor_scope():
                magnetization_z(base, t)  # base's factors are cached from here on
                warm = mode_blocks(other, t), magnetization_z(other, t)
                pair = mode_blocks((base, other), t)
            assert not np.allclose(fresh[0].population, alone.population)
            assert warm[1] == fresh[1]
            for blocks in (warm[0], ModeBlocks(*(x[1] for x in pair))):
                assert np.array_equal(blocks.population, fresh[0].population)
                assert np.array_equal(blocks.coherence, fresh[0].coherence)


def test_calls_outside_a_scope_leave_no_factors_cached():
    config = ChainConfig(200, 1.0, 0.5, 0.3, 1.7)
    calls = (lambda t: mode_blocks(config, t), lambda t: magnetization_z(config, t),
             lambda t: contraction_table(config, t, 2), lambda t: correlator_xx(config, 2, t),
             lambda t: correlator_yy([config, config], 1, [t, 0.5]),
             lambda t: correlator_zz(config, 3, t))
    names = ("_grid", "_dispersion", "_terms", "_tables", "_batch", "_trig_table",
             "contraction_table")
    for call in calls:
        for t in (1.3, math.inf):
            call(t)
            held = {name: getattr(correlations, name).cache_info().currsize for name in names}
            assert held == dict.fromkeys(names, 0)


def test_contraction_table_counts_its_lookups_across_runs():
    # Each run empties the cache; its hits and misses still add up, as the
    # benchmark's hit ratio reads them after the run.
    config = ChainConfig(12, 0.8, 0.3, 1.5, 0.5)
    before = contraction_table.cache_info()
    for _ in range(2):
        with factor_scope():
            contraction_table(config, 1.0, 2)
            contraction_table(config, 1.0, 2)
    after = contraction_table.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses, after.currsize) == (2, 2, 0)


def test_batches_take_matching_points_of_one_ring_size():
    c = ChainConfig(12, 0.8, 0.3, 1.5, 0.5)
    assert magnetization_z([c, c], 2.0).shape == (2,)
    assert contraction_table(c, (0.0, 1.0, math.inf), 2).shape == (3, 6, 6)
    with pytest.raises(ValueError):
        magnetization_z([c, c, c], [1.0, 2.0])
    with pytest.raises(ValueError):
        magnetization_z([c, ChainConfig(16, 0.8, 0.3, 1.5, 0.5)], 2.0)
    with pytest.raises(ValueError):
        correlator_xx([], 1, [])
    # A batch of times may be any sequence; NaN is no time.
    times = (0.0, 1.0, math.inf)
    for call in (lambda t: np.array(mode_blocks(c, t)), lambda t: magnetization_z(c, t),
                 lambda t: contraction_table(c, t, 2), lambda t: correlator_xx(c, 2, t),
                 lambda t: correlator_yy(c, 2, t), lambda t: correlator_zz(c, 2, t)):
        stack = call(times)
        for same in (list(times), np.array(times)):
            assert np.array_equal(call(same), stack)
        for bad in (math.nan, [1.0, math.nan], np.array([math.nan, 2.0])):
            with pytest.raises(ValueError):
                call(bad)


def test_magnetization_is_half_ba_zero():
    rng = np.random.default_rng(14)
    for _ in range(20):
        c = _random_config(rng)
        for t in (0.0, float(rng.uniform(0, 20)), math.inf):
            assert abs(magnetization_z(c, t) - 0.5 * contraction_table(c, t, 0)[1, 0].real) < 1e-12


def test_aa_and_bb_contractions_are_odd_off_diagonal():
    # Gamma[0, 2d] = <A_0 A_d> and Gamma[2d, 0] = <A_d A_0> = <A_0 A_{-d}>.
    c = ChainConfig(12, 0.8, 0.3, 1.5, 0.5)
    gamma = contraction_table(c, 3.1, 11)
    for d in (1, 2, 5, 11):
        aa = gamma[0, 2 * d]
        assert aa.real == 0.0
        assert aa + gamma[2 * d, 0] == 0.0 + 0.0j
        assert gamma[1, 2 * d + 1].imag == aa.imag


def test_contraction_offset_bounds():
    c = ChainConfig(8, 1.0, 0.0, 1.0, 0.5)
    for bad in (8, -1, 11):
        with pytest.raises(ValueError):
            contraction_table(c, 1.0, bad)
    assert contraction_table(c, 1.0, 7).shape == (16, 16)


def test_infinite_temperature_kills_everything():
    c = ChainConfig(16, 1.0, 1e9, 1.2, 0.4)
    gamma = contraction_table(c, 3.0, 1)
    assert abs(magnetization_z(c, 3.0)) < 1e-6
    assert abs(gamma[1, 2]) < 1e-6
    assert abs(gamma[0, 2].imag) < 1e-6
    assert abs(correlator_xx(c, 2, 3.0)) < 1e-6


def test_equilibrium_correlators_are_stationary():
    rng = np.random.default_rng(15)
    for _ in range(10):
        c = _random_config(rng, quench=False)
        for d in (1, 2):
            for corr in (correlator_xx, correlator_yy, correlator_zz):
                ref = corr(c, d, 0.0)
                assert corr(c, d, 6.7) == pytest.approx(ref, abs=1e-12)
                assert corr(c, d, math.inf) == pytest.approx(ref, abs=1e-12)


def test_zero_field_isotropic_ring_values():
    # gamma = 1, h = 0: Lambda = 1 on the whole grid, so the sums collapse to
    # plain trigonometric identities with exactly known values.
    c = ChainConfig(64, 1.0, 0.0, 0.0, 0.0)
    assert magnetization_z(c, 0.0) == pytest.approx(-1.0 / 64, abs=1e-12)
    assert correlator_xx(c, 1, 0.0) == pytest.approx(0.25, abs=1e-12)
    assert correlator_yy(c, 1, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_strong_field_product_state():
    # N must be large here: the paired-mode grid leaves a -2/N residue in the
    # odd-offset <BA> contraction even at infinite field, so the transverse
    # correlators only vanish like 1/N^2.
    c = ChainConfig(400, 0.7, 0.0, 500.0, 500.0)
    assert magnetization_z(c, 0.0) == pytest.approx(0.5, abs=1e-4)
    assert correlator_zz(c, 2, 0.0) == pytest.approx(0.25, abs=1e-4)
    assert abs(correlator_xx(c, 2, 0.0)) < 1e-4


def test_nearest_neighbor_strings_reduce_to_single_contractions():
    rng = np.random.default_rng(16)
    for _ in range(10):
        c = _random_config(rng)
        t = float(rng.uniform(0, 10))
        gamma = contraction_table(c, t, 1)  # <B_0 A_1> and <B_1 A_0>
        assert correlator_xx(c, 1, t) == pytest.approx(0.25 * gamma[1, 2].real, abs=1e-14)
        assert correlator_yy(c, 1, t) == pytest.approx(0.25 * gamma[3, 0].real, abs=1e-14)


def test_correlator_distance_validation():
    c = ChainConfig(8, 1.0, 0.0, 1.0, 0.5)
    for corr in (correlator_xx, correlator_yy, correlator_zz):
        with pytest.raises(ValueError):
            corr(c, 0, 1.0)
        with pytest.raises(ValueError):
            corr(c, 8, 1.0)
        corr(c, 7, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            corr(c, 0, math.nan)  # the point is checked before the distance
    with pytest.raises(ValueError):
        pair_observables(c, 1, math.nan)


def test_ring_periodicity_of_ba_and_zz():
    c = ChainConfig(12, 0.9, 0.2, 1.4, 0.6)
    t = 2.7
    gamma = contraction_table(c, t, 11)
    for d in range(1, 6):
        # <B_0 A_{12-d}> against <B_d A_0>
        assert gamma[1, 2 * (12 - d)] == pytest.approx(gamma[2 * d + 1, 0], abs=1e-10)
        assert correlator_zz(c, 12 - d, t) == pytest.approx(correlator_zz(c, d, t), abs=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="the d -> N-d image of an x or y correlator threads the string the "
    "long way around the ring; that object is a string order parameter, not "
    "the two-spin correlator, and the two differ at order one",
)
def test_ring_periodicity_of_xx_and_yy():
    c = ChainConfig(8, 1.0, 0.0, 0.5, 0.5)
    assert correlator_xx(c, 7, 0.0) == pytest.approx(correlator_xx(c, 1, 0.0), abs=1e-6)
    assert correlator_yy(c, 7, 0.0) == pytest.approx(correlator_yy(c, 1, 0.0), abs=1e-6)


def test_contraction_table_matches_direct_functions():
    # Gamma is over (A_0, B_0, ..., A_3, B_3): A_s is row 2s and B_s row 2s + 1.
    # Each entry depends on the offset d = s2 - s only: it equals the entry of
    # the table that reaches offset d alone, and <B_s A_s> = 2 M_z.
    c = ChainConfig(10, 1.1, 0.4, 0.9, 1.7)
    t = 4.2
    gamma = contraction_table(c, t, 3)
    assert gamma.shape == (8, 8)
    assert np.array_equal(gamma, -gamma.T)
    assert np.all(np.diag(gamma) == 0.0)
    for s in range(4):
        assert gamma[2 * s, 2 * s + 1] == pytest.approx(-2.0 * magnetization_z(c, t), abs=1e-15)
        for s2 in range(s + 1, 4):
            d = s2 - s
            alone = contraction_table(c, t, d)
            for i, j in ((1, 2 * d), (0, 2 * d + 1), (0, 2 * d), (1, 2 * d + 1)):
                assert gamma[2 * s + i, 2 * s + j] == pytest.approx(alone[i, j], abs=1e-15)


def test_quench_tracks_exact_diagonalization():
    # The mode picture drops an O(1/N) boundary term, so at N = 8 agreement
    # is loose; the acceptance suite checks that it tightens with N.
    n, gamma, kt, a, b = 8, 1.0, 0.5, 1.001, 0.5
    times = (0.0, 0.7, 2.3)
    rows = ed.quench_series(n, gamma, kt, a, b, times, d=1)
    c = ChainConfig(n, gamma, kt, a, b)
    worst = 0.0
    for t, (mz, sx, sy, sz, _) in zip(times, rows):
        worst = max(
            worst,
            abs(magnetization_z(c, t) - mz),
            abs(correlator_xx(c, 1, t) - sx),
            abs(correlator_yy(c, 1, t) - sy),
            abs(correlator_zz(c, 1, t) - sz),
        )
    assert worst < 0.15
