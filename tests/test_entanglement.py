"""X-state assembly, concurrence (closed form and spectral route), and entanglement of formation."""

import math
import re
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

import xyquench.entanglement as ent
from xyquench.entanglement import (
    C_TOL,
    CLAMP_TOL,
    X_POSITIVITY_TOL,
    TwoSiteState,
    concurrence_general,
    concurrence_x,
    entanglement_of_formation,
    two_site_state,
    x_concurrences,
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


def test_concurrence_general_rejects_non_finite_entries():
    # NaN compares False, so it would pass the Hermiticity and trace checks
    # and fail inside eigvalsh; an infinity warns in the Hermiticity check.
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.nan)):
        for row, col in ((0, 0), (0, 3), (1, 2)):
            rho = BELL.matrix()
            rho[row, col] = bad
            with pytest.raises(InvalidStateError, match=r"^density matrix has a non-finite entry$"):
                concurrence_general(rho)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_concurrence_x_rejects_non_finite_entries(bad):
    # Each entry is named.  The closed form alone would give a finite C for
    # some: an infinite rho11 makes sqrt(rho11 rho44) infinite and C = 0.
    for label in ("rho11", "rho22", "rho33", "rho44", "rho14", "rho23"):
        state = replace(TwoSiteState(0.25, 0.25, 0.25, 0.25, 0.0, 0.0), **{label: bad})
        with pytest.raises(InvalidStateError, match=rf"^{label} = {bad} is not finite$"):
            concurrence_x(state)


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
    for bad in (-0.1, 1.1, 1.5, 2.0):
        with pytest.raises(ValueError):
            entanglement_of_formation(bad)


def test_concurrence_above_one_is_an_invalid_state():
    # |rho23| = 1/2 + 8e-9 passes its gate, rho22 + 1e-8, but C = 1 + 1.6e-8.
    state = two_site_state(0.0, 0.25 + 4e-9, 0.25 + 4e-9, -0.25)
    with pytest.raises(InvalidStateError, match=r"^concurrence 1\.000000016 exceeds 1 beyond 1e-12$"):
        concurrence_x(state)
    assert concurrence_x(TwoSiteState(0.0, 0.5, 0.5, 0.0, 0.0, 0.5 + C_TOL / 2)) == 1.0 + C_TOL


def _one_point(point):
    """((state, C) or the InvalidStateError, clamp warning texts) of one point, by two_site_state and concurrence_x."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            state = two_site_state(*point)
            result = state, concurrence_x(state)
        except InvalidStateError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def _batch(points):
    """(C or the InvalidStateError, clamp warning texts) of x_concurrences over the points."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = x_concurrences(*np.array(points, dtype=float).T)
        except InvalidStateError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def _ulps(x, k):
    """x and its k floats on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(k):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def _gate_points():
    """(M_z, S^x, S^y, S^z) points at, inside and past each gate, keyed by the error text past it."""
    gates = {}
    # Each diagonal entry at 0, in the clamp band [-CLAMP_TOL, 0), and below it.
    gates["negative beyond"] = [point for e in (0.0, 5e-11, CLAMP_TOL, 2e-10) for point in (
        (-0.125 - e, 0.0, 0.0, -0.125), (0.0, 0.0, 0.0, 0.25 + e), (0.125 + e, 0.0, 0.0, -0.125))]
    # A clamped rho22 counts twice in the trace, which reads 1 + 2e; around
    # e = CLAMP_TOL / 2 the trace steps past CLAMP_TOL ulp by ulp.
    gates["two-site trace"] = [(0.0, 0.0, 0.0, sz) for sz in _ulps(0.25 + CLAMP_TOL / 2, 8)]
    # |rho14| = S^x - S^y at sqrt(rho11 rho44) + X_POSITIVITY_TOL, exactly and
    # one ulp either side (halves of a float sum back to it exactly).
    mz, sz = 0.1, 0.05
    outer = math.sqrt((mz + sz + 0.25) * (-mz + sz + 0.25)) + X_POSITIVITY_TOL
    gates["|rho14|"] = [(mz, x, -x, sz) for x in _ulps(outer / 2, 2)]
    # |rho23| = S^x + S^y at rho22 + X_POSITIVITY_TOL.
    mz, sz = 0.0, -0.2
    gates["|rho23|"] = [(mz, x, x, sz) for x in _ulps((-sz + 0.25 + X_POSITIVITY_TOL) / 2, 2)]
    # C = 4 S^x at 1 + C_TOL (rho22 = 1/2, rho11 = rho44 = 0), at 1 and past
    # the gate's slack; no positivity gate fails there.
    gates["concurrence"] = [(0.0, x, x, -0.25) for x in [*_ulps((1.0 + C_TOL) / 4, 2), 0.25, 0.25 + 4e-9]]
    # A NaN or an infinity in each input.
    gates["is not finite"] = []
    for i, bad in ((i, bad) for i in range(4) for bad in (math.nan, math.inf, -math.inf)):
        point = [0.1, 0.03, -0.02, 0.05]
        point[i] = bad
        gates["is not finite"].append(tuple(point))
    return gates


def _random_points(rng, count):
    """Pair states near and inside the gates, and correlators drawn with no regard for them."""
    p = rng.dirichlet(np.ones(3), count)
    rho11, rho22, rho44 = p[:, 0], p[:, 1] / 2, p[:, 2]
    r14 = rng.uniform(-1.01, 1.01, count) * np.sqrt(rho11 * rho44)
    r23 = rng.uniform(-1.01, 1.01, count) * rho22
    physical = np.stack([(rho11 - rho44) / 2, (r23 + r14) / 2, (r23 - r14) / 2, 0.25 - rho22], axis=1)
    return [*map(tuple, physical), *map(tuple, rng.uniform(-0.3, 0.3, (count, 4)))]


def test_batches_equal_one_point_calls_and_the_spectral_route():
    # A batch gives each point its one-point C bit for bit, never -0.0, and
    # warns and fails as its points would one at a time.  The spectral route
    # shares no code with the closed form; it agrees within 1e-12 on physical
    # states and within 4 X_POSITIVITY_TOL on states inside a positivity
    # gate's slack (their smallest eigenvalue goes down to -1e-8).
    gates = _gate_points()
    points = [point for group in gates.values() for point in group]
    points += _random_points(np.random.default_rng(29), 2000)
    outcomes = [_one_point(point) for point in points]
    failing = [i for i, (result, _) in enumerate(outcomes) if isinstance(result, InvalidStateError)]
    valid = sorted(set(range(len(points))) - set(failing))
    c, caught = _batch([points[i] for i in valid])
    assert [x.hex() for x in c.tolist()] == [outcomes[i][0][1].hex() for i in valid]
    assert caught == [text for i in valid for text in outcomes[i][1]]
    assert "-0.0" not in map(str, c.tolist()) and any(c > 0.0) and any(c == 0.0)
    slack = 0
    for i in valid:
        state, closed = outcomes[i][0]
        physical = abs(state.rho14) <= math.sqrt(state.rho11 * state.rho44) and abs(state.rho23) <= state.rho22
        slack += not physical
        bound = 1e-12 if physical else 4 * X_POSITIVITY_TOL
        assert abs(closed - concurrence_general(state.matrix())) <= bound, points[i]
    assert 0 < slack < len(valid)
    # Batches of valid points with clamps, two failing points among them: the
    # first of those fails, with its one-point text, after the clamps before it.
    warned = [i for i in valid if outcomes[i][1]]
    rng = np.random.default_rng(31)
    for _ in range(300):
        batch = rng.permutation([*rng.choice(valid, 36), *rng.choice(warned, 2), *rng.choice(failing, 2)]).tolist()
        first = min(k for k, i in enumerate(batch) if i in failing)
        error, caught = _batch([points[i] for i in batch])
        assert (str(error), error.index) == (str(outcomes[batch[first]][0]), first)
        assert caught == [text for i in batch[: first + 1] for text in outcomes[i][1]]
    # Every gate is met from both sides, but a NaN or an infinity always fails.
    for error, group in gates.items():
        results = [_one_point(point)[0] for point in group]
        failed = [error in str(r) for r in results if isinstance(r, InvalidStateError)]
        assert any(failed) and (error == "is not finite") != any(isinstance(r, tuple) for r in results), error
    caught = {text.split(" = ")[0] for _, texts in outcomes for text in texts}
    assert caught == {"clamping rho11", "clamping rho22", "clamping rho44"}


# One point past each gate: its InvalidStateError text in full and the clamp
# warnings it gives before that gate.
GATE_TEXTS = {
    "M_z": ((math.nan, 0.03, -0.02, 0.05), "M_z = nan is not finite", []),
    "S^x": ((0.1, math.inf, -0.02, 0.05), "S^x = inf is not finite", []),
    "S^y": ((0.1, 0.03, -math.inf, 0.05), "S^y = -inf is not finite", []),
    "S^z": ((0.1, 0.03, -0.02, math.nan), "S^z = nan is not finite", []),
    # rho11 = -2e-10 fails before rho22 = -5e-11 clamps.
    "rho11": ((-0.5 - 2.5e-10, 0.0, 0.0, 0.25 + 5e-11), "rho11 = -2.000000e-10 is negative beyond 1e-10", []),
    "rho22": ((-0.5 - 2.5e-10, 0.0, 0.0, 0.25 + 2e-10), "rho22 = -2.000000e-10 is negative beyond 1e-10",
              ["clamping rho11 = -5.000e-11 to zero"]),
    "rho44": ((7.5e-11, 0.0, 0.0, -0.25 - 1.25e-10), "rho44 = -2.000000e-10 is negative beyond 1e-10",
              ["clamping rho11 = -5.000e-11 to zero"]),
    "trace": ((0.0, 0.0, 0.0, 0.25000000005000006), "two-site trace 1.0000000001 differs from 1 beyond 1e-10",
              ["clamping rho22 = -5.000e-11 to zero"]),
    "rho14": ((0.1, 0.14142136123730956, -0.14142136123730956, 0.05),
              "|rho14| = 2.828427e-01 exceeds sqrt(rho11 rho44) = 2.828427e-01 by 1.0e-08", []),
    "rho14-clamped": ((0.0, 0.3, -0.3, 0.25 + 3e-11),
                      "|rho14| = 6.000000e-01 exceeds sqrt(rho11 rho44) = 5.000000e-01 by 1.0e-01",
                      ["clamping rho22 = -3.000e-11 to zero"]),
    "rho23": ((0.0, 0.22500000500000003, 0.22500000500000003, -0.2),
              "|rho23| = 4.500000e-01 exceeds rho22 = 4.500000e-01 by 1.0e-08", []),
    "C": ((0.0, 0.2500000000002501, 0.2500000000002501, -0.25),
          "concurrence 1.0000000000010003 exceeds 1 beyond 1e-12", []),
}


@pytest.mark.parametrize("gate", GATE_TEXTS)
def test_each_gate_text_is_pinned_whole(gate):
    point, text, clamps = GATE_TEXTS[gate]
    # One point at a time, and second in a batch after a clean point.
    error, caught = _one_point(point)
    assert (str(error), caught) == (text, clamps)
    error, caught = _batch([(0.1, 0.03, -0.02, 0.05), point, (0.0, 0.0, 0.0, 0.25 + 3e-11)])
    assert (str(error), error.index, caught) == (text, 1, clamps)
