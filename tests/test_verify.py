"""The dense oracle: the encoded basis written from the X-type generators, against
the projector construction it replaced, and circuits it must reject."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loopfold.circuits import run_on_state
from loopfold.patches import build_patch
from loopfold.protocols import transversal_h_circuit, transversal_s_circuit
from loopfold.verify import (_LOGICAL_1Q, _TEST_STATES, FIDELITY_TOL, _logical_basis,
                             dense_protocol_fidelity)

from test_tableau import apply_pauli_dense, ref_DenseState


def ref_logical_basis(patch):
    """Reference: |0>_L as |0...0> under each X-type projector (I + S)/2 in
    turn, normalized, and |1>_L = X_L |0>_L, as full amplitude vectors."""
    n = patch.num_qubits
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = 1.0
    for s in patch.x_stabilizers():
        vec = 0.5 * (vec + apply_pauli_dense(vec, patch.stabilizer_pauli(s), n))
    vec /= np.linalg.norm(vec)
    return vec, apply_pauli_dense(vec, patch.logical_x_pauli(), n)


def ref_fidelity(patch, circuit, gate, alpha, beta):
    """Reference: encode, replay and compare on full vectors from the projector
    basis, on the full-vector engine."""
    zero, one = ref_logical_basis(patch)

    def encode(a, b):
        out = a * zero + b * one
        return out / np.linalg.norm(out)
    st = ref_DenseState(patch.num_qubits)
    st.vec = encode(alpha, beta)
    run_on_state(circuit, st)
    a2, b2 = _LOGICAL_1Q[gate] @ np.array([alpha, beta])
    return float(abs(np.vdot(st.vec, encode(a2, b2))) ** 2)


def _full(support, n):
    idx, amps = support
    vec = np.zeros(2**n, dtype=complex)
    vec[idx] = amps
    return vec


@pytest.mark.parametrize("kind", ["folded", "rotated"])
def test_logical_basis_matches_the_projector_construction(kind):
    patch = build_patch(3, kind)
    n = patch.num_qubits
    for got, want in zip(_logical_basis(patch), ref_logical_basis(patch)):
        assert len(set(got[0].tolist())) == len(got[0]) == 2 ** len(patch.x_stabilizers())
        assert np.abs(_full(got, n) - want).max() < 1e-12


@pytest.mark.parametrize("gate", ["S", "H"])
def test_dense_fidelity_matches_the_full_vector_reference(gate):
    patch = build_patch(3, "folded")
    circ = (transversal_s_circuit if gate == "S" else transversal_h_circuit)(patch)
    rng = np.random.default_rng(7)
    unnormalized = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
    for alpha, beta in list(_TEST_STATES) + [unnormalized]:
        for want_gate in (gate, "SDG"):
            got = dense_protocol_fidelity(patch, circ, want_gate, alpha, beta)
            assert abs(got - ref_fidelity(patch, circ, want_gate, alpha, beta)) < 1e-12


def _worst(patch, circuit, gate):
    return min(dense_protocol_fidelity(patch, circuit, gate, a, b) for a, b in _TEST_STATES)


def test_dense_oracle_rejects_the_wrong_gate_and_a_stray_pauli():
    patch = build_patch(3, "folded")
    circ = transversal_s_circuit(patch)
    assert 1 - _worst(patch, circ, "S") < FIDELITY_TOL
    for wrong in ("SDG", "H"):
        assert 1 - _worst(patch, circ, wrong) >= FIDELITY_TOL
    for pauli in ("X", "Z"):
        stray = transversal_s_circuit(patch)
        stray.add(max(stray.slots()) + 1, pauli, (0,))   # qubit 0 is a data qubit
        assert 1 - _worst(patch, stray, "S") >= FIDELITY_TOL


def test_s_teleport_draws_its_states_without_numpy_random():
    # numpy.random pulls in secrets and OpenSSL, megabytes of resident memory
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from loopfold.verify import verify_s_teleport\n"
            "assert all(c.passed for c in verify_s_teleport(range(3)))\n"
            "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
