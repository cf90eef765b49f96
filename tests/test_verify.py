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
from loopfold.tableau import DenseState
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


def ref_fidelities(patch, circuit, gates, alpha, beta):
    """Reference: encode, replay once and compare on full vectors from the
    projector basis, on the full-vector engine; the output's fidelity with
    the encoding of each of `gates` applied to the input."""
    zero, one = ref_logical_basis(patch)

    def encode(a, b):
        out = a * zero + b * one
        return out / np.linalg.norm(out)
    st = ref_DenseState(patch.num_qubits)
    st.vec = encode(alpha, beta)
    run_on_state(circuit, st)
    return [float(abs(np.vdot(st.vec, encode(*(_LOGICAL_1Q[g] @ np.array([alpha, beta]))))) ** 2)
            for g in gates]


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
    """At the oracle's test states and 50 seeded unnormalized random ones,
    against the right gate and a wrong one; the pairs-first H layer changes
    only the rounding."""
    patch = build_patch(3, "folded")
    circ = (transversal_s_circuit if gate == "S" else transversal_h_circuit)(patch)
    rng = np.random.default_rng(7)
    random_states = [tuple(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(50)]
    for alpha, beta in list(_TEST_STATES) + random_states:
        want = ref_fidelities(patch, circ, (gate, "SDG"), alpha, beta)
        got = [dense_protocol_fidelity(patch, circ, g, alpha, beta) for g in (gate, "SDG")]
        assert np.abs(np.subtract(got, want)).max() < 1e-12


@pytest.mark.parametrize("gate, most", [("S", 512), ("H", 4096)])
def test_the_oracle_support_peaks_where_the_pairs_first_order_keeps_it(monkeypatch, gate, most):
    """The largest support the d = 3 oracle stores, read after every Hadamard,
    the only gate that grows it.  In circuit order the transversal H layer
    reached 32,768 of the 2^17 amplitudes; pairs first it stays at 4,096."""
    sizes = []
    hadamard = DenseState._hadamard

    def recorded(self, bit, partner):
        hadamard(self, bit, partner)
        sizes.append(self._idx.size)

    monkeypatch.setattr(DenseState, "_hadamard", recorded)
    patch = build_patch(3, "folded")
    circ = (transversal_s_circuit if gate == "S" else transversal_h_circuit)(patch)
    for alpha, beta in _TEST_STATES:
        assert 1 - dense_protocol_fidelity(patch, circ, gate, alpha, beta) < FIDELITY_TOL
    assert max(sizes) <= most


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
