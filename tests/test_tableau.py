"""Tableau and dense engines: gate agreement, measurement, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfold.circuits import ScheduledCircuit, run_on_state
from loopfold.pauli import PauliString, gf2_rank
from loopfold.tableau import DenseState, StabilizerState, UnsupportedGateError

GATES_1Q = ["H", "S", "SDG", "X", "Y", "Z"]
GATES_2Q = ["CNOT", "CZ", "SWAP"]


def random_circuit(rng, n, depth):
    ops = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.4:
            g = GATES_2Q[rng.integers(len(GATES_2Q))]
            tg = tuple(rng.choice(n, size=2, replace=False).tolist())
        else:
            g = GATES_1Q[rng.integers(len(GATES_1Q))]
            tg = (int(rng.integers(n)),)
        ops.append((g, tg))
    return ops


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    depth = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, depth, seed


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_circuits(params):
    n, depth, seed = params
    rng = np.random.default_rng(seed)
    ops = random_circuit(rng, n, depth)
    tab = StabilizerState(n)
    den = DenseState(n)
    for g, tg in ops:
        tab.apply_gate(g, tg)
        den.apply_gate(g, tg)
    assert abs(tab.to_dense().fidelity(den) - 1) < 1e-9
    assert abs(den.norm() - 1) < 1e-12


def test_engines_agree_including_measurements():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        ops = random_circuit(rng, n, 20)
        tab = StabilizerState(n)
        den = DenseState(n)
        for g, tg in ops:
            tab.apply_gate(g, tg)
            den.apply_gate(g, tg)
        q = int(rng.integers(n))
        basis = "Y" if rng.random() < 0.3 else "Z"
        out, det = tab.measure(q, basis, rng=rng)
        out2, det2 = den.measure(q, basis, force=out)
        assert (out, det) == (out2, det2)
        assert abs(tab.to_dense().fidelity(den) - 1) < 1e-9


def test_twelve_qubit_agreement_spot_check():
    rng = np.random.default_rng(5)
    n = 12
    tab = StabilizerState(n)
    den = DenseState(n)
    for g, tg in random_circuit(rng, n, 60):
        tab.apply_gate(g, tg)
        den.apply_gate(g, tg)
    assert abs(tab.to_dense().fidelity(den) - 1) < 1e-9


def test_h_involution_and_s_definition():
    st1 = StabilizerState(1)
    st1.apply_gate("H", (0,)).apply_gate("H", (0,))
    out, det = st1.measure(0, "Z")
    assert (out, det) == (0, True)

    den = DenseState(1)
    den.apply_gate("H", (0,)).apply_gate("S", (0,))
    assert np.allclose(den.vec, np.array([1, 1j]) / np.sqrt(2))


def test_cnot_conjugates_x_to_xx():
    tab = StabilizerState(2)
    p = PauliString.from_label("X", 2, [0])
    p.conjugate_by_gate("CNOT", (0, 1))
    assert repr(p) == "+XX"


def test_t_gate_rejected_on_tableau_supported_on_dense():
    tab = StabilizerState(2)
    with pytest.raises(UnsupportedGateError):
        tab.apply_gate("T", (0,))
    den = DenseState(1)
    den.apply_gate("H", (0,)).apply_gate("T", (0,))
    assert np.allclose(den.vec, np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


def test_z_measure_of_zero_state_deterministic():
    tab = StabilizerState(3)
    out, det = tab.measure(1, "Z")
    assert (out, det) == (0, True)


def test_y_measure_of_plus_i_eigenstate():
    tab = StabilizerState(1)
    tab.apply_gate("H", (0,)).apply_gate("S", (0,))   # |i>
    out, det = tab.measure(0, "Y")
    assert (out, det) == (0, True)


def test_gate_application_preserves_tableau_rank():
    rng = np.random.default_rng(23)
    n = 6
    tab = StabilizerState(n)
    for g, tg in random_circuit(rng, n, 80):
        tab.apply_gate(g, tg)
        rows = np.concatenate([tab.x, tab.z], axis=1)
        assert gf2_rank(rows) == 2 * n


def test_dense_norm_stays_unit_after_long_circuits():
    rng = np.random.default_rng(7)
    den = DenseState(5)
    for g, tg in random_circuit(rng, 5, 300):
        den.apply_gate(g, tg)
    assert abs(den.norm() - 1) < 1e-12


def test_measure_pauli_bell_pair():
    tab = StabilizerState(2)
    tab.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1))
    assert tab.expectation_sign(PauliString.from_label("XX", 2, [0, 1])) == 1
    assert tab.expectation_sign(PauliString.from_label("ZZ", 2, [0, 1])) == 1
    assert tab.expectation_sign(PauliString.from_label("YY", 2, [0, 1])) == -1
    assert tab.expectation_sign(PauliString.from_label("ZI", 2, [0, 1])) is None


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_conjunctive_condition_on_both_engines(engine, a, b):
    circ = ScheduledCircuit(3)
    circ.add(0, "H", (0,))
    circ.add(0, "H", (1,))
    circ.add(1, "MEASURE", (0,), key="a")
    circ.add(1, "MEASURE", (1,), key="b")
    circ.add(2, "X", (2,), condition="a&!b")
    circ.add(3, "MEASURE", (2,), key="c")
    record = run_on_state(circ, engine(3), forced_outcomes={"a": a, "b": b})
    assert record == {"a": a, "b": b, "c": int(a == 1 and b == 0)}
