"""End-to-end protocol verification: tableau identification plus dense oracles.

The dense route is the independent brute-force check used at d=3: |0>_L
and |1>_L are written down from the X-type generators as the 2^r basis
states of their group (and its logical-X shift), an arbitrary logical state
goes onto those supports, the protocol circuit runs on the full data+ancilla
register (a `DenseState`, which stores only the amplitudes it needs), and
the overlap with the expected output, read on the same supports, must be
fidelity 1.  The tableau route scales to any odd d and names the logical
gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import ScheduledCircuit, run_on_state, walk_outcomes
from .logical import logical_action
from .patches import PatchSpec, build_patch, embed_stack
from .protocols import (
    inverted_alternation,
    s_teleport_circuit,
    transversal_h_circuit,
    transversal_s_circuit,
    transversal_two_qubit,
)
from .tableau import DenseState


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        self.passed = bool(self.passed)   # fidelity comparisons give numpy.bool_

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


# -- dense encoding -------------------------------------------------------------

def _logical_basis(patch: PatchSpec) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """|0>_L and |1>_L on the data + ancilla register, as (indices, amplitudes).

    Data qubits occupy the low indices (patch.index order), ancillas follow,
    qubit 0 the top index bit.  |0>_L is |0...0> projected onto the r X-type
    generators: 2^(-r/2) times the sum of g|0...0> over the 2^r elements g of
    their group, and g, a product of all-X generators, sends |0...0> to the
    basis state of its bit mask with phase 1.  |1>_L = X_L |0>_L, with X_L
    all-X too, shifts every mask by X_L's and keeps every amplitude 2^(-r/2).
    """
    n = patch.num_qubits
    if n > 20:
        raise ValueError("patch too large for dense encoding")
    place = 1 << np.arange(n - 1, -1, -1)
    masks = np.zeros(1, dtype=np.int64)
    for s in patch.x_stabilizers():
        masks = np.concatenate([masks, masks ^ int(patch.stabilizer_pauli(s).x @ place)])
    amps = np.full(len(masks), 1 / np.sqrt(len(masks)), dtype=complex)
    return (masks, amps), (masks ^ int(patch.logical_x_pauli().x @ place), amps)


_LOGICAL_1Q = {
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}


def dense_protocol_fidelity(patch: PatchSpec, circuit: ScheduledCircuit,
                            expected_gate: str, alpha: complex, beta: complex) -> float:
    """Fidelity of the protocol output with the expected encoded state.

    Writes alpha|0>_L + beta|1>_L (normalized) onto the basis supports in one
    `DenseState`, runs the full circuit on it (including ancilla
    measurements, all deterministic on the codespace) and reads the overlap
    with the encoding of expected_gate |psi> on the same supports; no vector
    of all 2^n amplitudes is built.
    """
    (zero, amp0), (one, amp1) = _logical_basis(patch)
    st = DenseState(patch.num_qubits)
    norm = np.hypot(abs(alpha), abs(beta))
    st.set_amplitudes(np.concatenate([zero, one]),
                      np.concatenate([amp0 * (alpha / norm), amp1 * (beta / norm)]))
    run_on_state(circuit, st)
    a2, b2 = _LOGICAL_1Q[expected_gate.upper()] @ np.array([alpha, beta])
    overlap = np.vdot(st.amplitudes(zero), amp0) * a2 + np.vdot(st.amplitudes(one), amp1) * b2
    return float(abs(overlap) ** 2 / (abs(a2) ** 2 + abs(b2) ** 2))


# -- the protocol checks --------------------------------------------------------

FIDELITY_TOL = 1e-9

_TEST_STATES = [
    (1.0, 0.0),
    (1 / np.sqrt(2), 1 / np.sqrt(2)),
    (1 / np.sqrt(2), 1j / np.sqrt(2)),
    (0.6, 0.8j),
]


def _twice(circ: ScheduledCircuit) -> ScheduledCircuit:
    return circ.extended(circ, slot_offset=max(circ.slots()) + 1)


# gate -> (protocol circuit, second check's label, its expected action, its circuit)
_SINGLE_QUBIT_CHECKS = {
    "S": (transversal_s_circuit, "inverted pattern", "SDG",
          lambda patch, d: transversal_s_circuit(patch, inverted_alternation(d))),
    "H": (transversal_h_circuit, "applied twice", "I",
          lambda patch, d: _twice(transversal_h_circuit(patch))),
}


def verify_single_qubit(d: int, gate: str) -> list[CheckResult]:
    """Transversal S or H on the tableau, one more tableau check, dense at d=3.

    S: the canonical pattern gives logical S and the inverted one S-dagger.
    H: the circuit gives logical H and applied twice the identity.  The
    dense oracle passes when every test state's fidelity is within
    FIDELITY_TOL of 1.
    """
    build, label, want, second = _SINGLE_QUBIT_CHECKS[gate]
    patch = build_patch(d, "folded")
    circ = build(patch)
    act = logical_action(circ, patch)
    act2 = logical_action(second(patch, d), patch)
    results = [
        CheckResult(f"transversal-{gate} d={d} tableau", act.name == gate,
                    f"logical action = {act.name}"),
        CheckResult(f"transversal-{gate} d={d} {label}", act2.name == want,
                    f"logical action = {act2.name}"),
    ]
    if d == 3:
        worst = min(dense_protocol_fidelity(patch, circ, gate, alpha, beta)
                    for alpha, beta in _TEST_STATES)
        results.append(CheckResult(f"transversal-{gate} d={d} dense oracle",
                                   1 - worst < FIDELITY_TOL,
                                   f"min fidelity {worst:.12f}"))
    return results


def verify_two_qubit(d: int, gate: str) -> list[CheckResult]:
    a = build_patch(d, "folded")
    b = build_patch(d, "folded")
    stack = embed_stack([a, b])
    circ = transversal_two_qubit(stack, 0, 1, gate, [a, b])
    act = logical_action(circ, [a, b])
    results = [CheckResult(f"transversal-{gate} d={d}", act.name == gate.upper(),
                           f"logical action = {act.name}")]
    if gate.upper() == "SWAP":
        act2 = logical_action(_twice(circ), [a, b])
        results.append(CheckResult(f"transversal-SWAP d={d} applied twice", act2.name == "I",
                                   f"logical action = {act2.name}"))
    return results


_DATA_ONLY = [0b00, 0b10]   # the basis states |0>|0> and |1>|0> of (data, ancilla)


def verify_s_teleport(seeds: Sequence[int] = range(50),
                      tol: float = FIDELITY_TOL) -> list[CheckResult]:
    """Both S gadgets on random states, dense; y_measure on both outcomes, which sum to 1."""
    s_mat = _LOGICAL_1Q["S"]
    y_measure, i_state = s_teleport_circuit("y_measure"), s_teleport_circuit("i_state")
    minus_i = np.array([1.0, -1j]) / np.sqrt(2)
    worst_y, worst_i, worst_sum = 1.0, 1.0, 0.0
    for seed in seeds:
        rng = random.Random(seed)   # the stdlib draw; numpy.random costs megabytes to import
        v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)])
        v /= np.linalg.norm(v)

        st = DenseState(2).set_amplitudes(_DATA_ONLY, v)   # |psi>|0>
        want = s_mat @ v
        leaves = list(walk_outcomes(y_measure, st))
        worst_sum = max(worst_sum, abs(sum(prob for _, prob, _ in leaves) - 1))
        for _, _, leaf in leaves:   # the ancilla is traced out
            worst_y = min(worst_y, leaf.fidelity((0,), want))

        st = DenseState(2).set_amplitudes(_DATA_ONLY, v)
        run_on_state(i_state, st)
        # expected output: S|psi> on the data, Z|i> = |-i> on the resource
        expect = np.outer(want, minus_i).ravel()
        worst_i = min(worst_i, st.fidelity((0, 1), expect))
    return [
        CheckResult("s-teleport y_measure dense", 1 - worst_y < tol and worst_sum < tol,
                    f"min fidelity {worst_y:.12f}"),
        CheckResult("s-teleport i_state dense", 1 - worst_i < tol, f"min fidelity {worst_i:.12f}"),
    ]

