"""X-state assembly, concurrence (both routes), and entanglement of formation."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

import xyquench.entanglement as ent
from xyquench.entanglement import (
    TwoSiteState,
    concurrence_general,
    concurrence_x,
    entanglement_of_formation,
    two_site_state,
)
from xyquench.errors import InvalidStateError

BELL = TwoSiteState(0.5, 0.0, 0.0, 0.5, 0.5, 0.0)
POLARIZED = TwoSiteState(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _random_x_state(rng) -> TwoSiteState:
    diag = rng.dirichlet(np.ones(4))
    r14 = float(rng.uniform(-1, 1)) * math.sqrt(diag[0] * diag[3])
    r23 = float(rng.uniform(-1, 1)) * math.sqrt(diag[1] * diag[2])
    return TwoSiteState(*diag, r14, r23)


def test_assembly_places_correlators():
    st = two_site_state(mz=0.1, sx=0.03, sy=-0.02, sz=0.05)
    assert st.rho11 == pytest.approx(0.1 + 0.05 + 0.25)
    assert st.rho22 == st.rho33 == pytest.approx(-0.05 + 0.25)
    assert st.rho44 == pytest.approx(-0.1 + 0.05 + 0.25)
    assert st.rho14 == pytest.approx(0.03 + 0.02)
    assert st.rho23 == pytest.approx(0.03 - 0.02)
    mat = st.matrix()
    assert mat[0, 3] == mat[3, 0] == st.rho14
    assert mat[1, 2] == mat[2, 1] == st.rho23
    assert np.trace(mat).real == pytest.approx(1.0)
    assert np.count_nonzero(mat) == 8


def test_assembly_rejects_negative_population():
    with pytest.raises(InvalidStateError):
        two_site_state(mz=0.4, sx=0.0, sy=0.0, sz=0.4)


def test_assembly_rejects_x_positivity_violation():
    # Each message names the excess: |rho14| = 0.8 against sqrt(rho11 rho44)
    # = 0.45, and |rho23| = 0.8 against rho22 = 0.45.
    with pytest.raises(InvalidStateError, match=r"rho14.* by 3\.5e-01$"):
        two_site_state(mz=0.0, sx=0.4, sy=-0.4, sz=0.2)
    with pytest.raises(InvalidStateError, match=r"rho23.* by 3\.5e-01$"):
        two_site_state(mz=0.0, sx=0.4, sy=0.4, sz=-0.2)


def test_assembly_rejects_non_finite_inputs():
    # Every NaN comparison is False, so a NaN would pass each gate below and
    # come out as C = 0; it is rejected first, by name.
    for args, label in (((0.0, math.nan, 0.0, 0.0), "S^x"), ((math.nan, 0.0, 0.0, 0.0), "M_z"),
                        ((0.0, 0.0, -math.inf, 0.0), "S^y"), ((0.0, 0.0, 0.0, math.inf), "S^z")):
        with pytest.raises(InvalidStateError, match=rf"^{re.escape(label)} = .* is not finite$"):
            two_site_state(*args)


def test_assembly_clamps_rounding_debris():
    eps = 5e-11
    before = ent.clamp_warnings
    with pytest.warns(UserWarning, match="clamping rho11"):
        st = two_site_state(mz=-0.125 - eps, sx=0.0, sy=0.0, sz=-0.125)
    assert st.rho11 == 0.0
    assert ent.clamp_warnings == before + 1


def test_assembly_rejects_a_trace_off_one():
    # rho22 = -6e-11 is clamped to 0, and it counts twice in the trace, which
    # then reads 1 + 1.2e-10, past CLAMP_TOL.
    with pytest.warns(UserWarning, match="clamping rho22"):
        with pytest.raises(InvalidStateError, match=r"^two-site trace 1\.00000000012 differs from 1"):
            two_site_state(-0.5, 0.0, 0.0, 0.25 + 6e-11)


def test_concurrence_of_bell_state():
    assert concurrence_x(BELL) == pytest.approx(1.0)
    assert concurrence_general(BELL.matrix()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_product_state():
    assert concurrence_x(POLARIZED) == 0.0
    assert concurrence_general(POLARIZED.matrix()) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_routes_agree_on_random_x_states():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        st = _random_x_state(rng)
        assert concurrence_x(st) == pytest.approx(concurrence_general(st.matrix()), abs=1e-9)


def test_concurrence_of_werner_states():
    # p |psi-><psi-| + (1-p)/4 I has concurrence max(0, (3p-1)/2).
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        st = TwoSiteState((1 - p) / 4, (1 + p) / 4, (1 + p) / 4, (1 - p) / 4, 0.0, -p / 2)
        expected = max(0.0, (3 * p - 1) / 2)
        assert concurrence_x(st) == pytest.approx(expected, abs=1e-12)
        assert concurrence_general(st.matrix()) == pytest.approx(expected, abs=1e-9)


def test_concurrence_general_validates_input():
    with pytest.raises(ValueError):
        concurrence_general(np.eye(3))
    bad_herm = BELL.matrix()
    bad_herm[0, 3] = 0.2
    with pytest.raises(InvalidStateError):
        concurrence_general(bad_herm)
    with pytest.raises(InvalidStateError):
        concurrence_general(2.0 * BELL.matrix())
    negative = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(InvalidStateError):
        concurrence_general(negative)


def test_concurrence_ignores_off_diagonal_signs():
    rng = np.random.default_rng(18)
    for _ in range(50):
        st = _random_x_state(rng)
        flipped = TwoSiteState(st.rho11, st.rho22, st.rho33, st.rho44, -st.rho14, -st.rho23)
        assert concurrence_x(flipped) == concurrence_x(st)
        assert concurrence_general(flipped.matrix()) == pytest.approx(
            concurrence_general(st.matrix()), abs=1e-10
        )


def test_entanglement_of_formation_endpoints():
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == 1.0
    assert entanglement_of_formation(-1e-13) == 0.0


def test_entanglement_of_formation_frozen_value():
    assert entanglement_of_formation(0.5) == pytest.approx(0.35457890266527003, abs=1e-15)


@pytest.mark.parametrize("c", [1e-8, 1e-5, 1e-3, 0.019])
def test_entanglement_of_formation_small_concurrence_is_accurate(c):
    # Reference in 60-digit decimal arithmetic on the same float C.  Forming
    # 1 - x by subtraction loses digits as C -> 0, all of them at C = 1e-8.
    with localcontext() as ctx:
        ctx.prec = 60
        y = (1 - (1 - Decimal(c) ** 2).sqrt()) / 2
        x = 1 - y
        reference = float(-(x * x.ln() + y * y.ln()) / Decimal(2).ln())
    assert entanglement_of_formation(c) == pytest.approx(reference, rel=1e-14, abs=0.0)


def test_entanglement_of_formation_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    vals = [entanglement_of_formation(float(c)) for c in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_entanglement_of_formation_rejects_out_of_range():
    for bad in (-0.1, 1.1, 2.0):
        with pytest.raises(ValueError):
            entanglement_of_formation(bad)
