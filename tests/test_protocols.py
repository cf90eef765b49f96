"""Transversal protocol circuits and their verified logical actions."""

import itertools

import numpy as np
import pytest

from loopfold.circuits import ScheduledCircuit, run_on_state
from loopfold.logical import (CodespaceViolationError, encode_stack, logical_action,
                              prepare_logical_state)
from loopfold.patches import (build_patch, embed_stack, first_half_circuit,
                              midcycle_diagonal, midcycle_fold_pairs,
                              second_half_circuit)
from loopfold.protocols import (canonical_alternation, inverted_alternation,
                                transversal_h_circuit, transversal_s_circuit,
                                transversal_two_qubit)
from loopfold.verify import verify_s_teleport, verify_single_qubit, verify_two_qubit


@pytest.mark.parametrize("d", [3, 5])
def test_transversal_s_canonical_and_inverted(d):
    p = build_patch(d, "folded")
    assert logical_action(transversal_s_circuit(p), p).name == "S"
    assert logical_action(transversal_s_circuit(p, inverted_alternation(d)), p).name == "SDG"


def test_transversal_s_dense_oracle_d3():
    for r in verify_single_qubit(3, "S", dense=True):
        assert r.passed, str(r)


def test_transversal_s_composed_twice_is_logical_z():
    p = build_patch(3, "folded")
    c = transversal_s_circuit(p)
    cc = c.extended(transversal_s_circuit(p), slot_offset=max(c.slots()) + 1)
    act = logical_action(cc, p)
    assert act.name == "Z"
    assert act.images == {"X": ("X", -1), "Z": ("Z", 1)}


def test_alternation_validation():
    p = build_patch(3, "folded")
    with pytest.raises(ValueError):
        transversal_s_circuit(p, ["S", "SDG"])          # wrong length
    with pytest.raises(ValueError):
        transversal_s_circuit(p, ["S", "T", "S"])       # bad gate
    with pytest.raises(ValueError):
        transversal_s_circuit(build_patch(3, "rotated"))


def test_frozen_crease_pattern_regression():
    """One-time d=3 search, frozen: walking the crease, the working patterns
    are exactly the two strict alternations (S on data sites with S-dagger on
    crease ancillas gives logical S; the inverse gives S-dagger), and they
    are the only patterns with no syndrome flips at all."""
    p = build_patch(3, "folded")
    stack = encode_stack([p])
    diag = midcycle_diagonal(p)
    clean = {}
    for pattern in itertools.product(["S", "SDG"], repeat=len(diag)):
        circ = first_half_circuit(p)
        for coord, g in zip(diag, pattern):
            circ.add(4, g, (p.index[coord],))
        for a, b in midcycle_fold_pairs(p):
            circ.add(4, "CZ", (p.index[a], p.index[b]))
        circ = circ.extended(second_half_circuit(p), slot_offset=1)
        flips = 0
        for basis in ("Z", "X"):
            st = prepare_logical_state(stack, [basis])
            rec = run_on_state(circ, st, rng=None)
            flips += sum(rec.values())
        act = logical_action(circ, p)
        if flips == 0 and act.name in ("S", "SDG"):
            clean[pattern] = act.name
    strict_s = ("S", "SDG", "S", "SDG", "S")
    strict_sdg = ("SDG", "S", "SDG", "S", "SDG")
    assert clean.get(strict_s) == "S"
    assert clean.get(strict_sdg) == "SDG"
    canonical_full = tuple(
        canonical_alternation(3)[c[0] // 2] if c[0] % 2 == 0
        else ("SDG" if canonical_alternation(3)[(c[0] - 1) // 2] == "S" else "S")
        for c in diag)
    assert canonical_full == strict_s


@pytest.mark.parametrize("d", [3, 5])
def test_transversal_h(d):
    p = build_patch(d, "folded")
    act = logical_action(transversal_h_circuit(p), p)
    assert act.name == "H"


def test_transversal_h_dense_oracle_and_involution():
    for r in verify_single_qubit(3, "H", dense=True):
        assert r.passed, str(r)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("gate", ["CNOT", "SWAP"])
def test_transversal_two_qubit(d, gate):
    for r in verify_two_qubit(d, gate):
        assert r.passed, str(r)


def test_transversal_cnot_conjugation_images():
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    act = logical_action(transversal_two_qubit(emb, 0, 1, "CNOT", [a, b]), [a, b])
    assert act.images == {"Z0": ("ZI", 1), "Z1": ("ZZ", 1),
                          "X0": ("XX", 1), "X1": ("IX", 1)}


def test_two_qubit_rejects_same_patch():
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    with pytest.raises(ValueError):
        transversal_two_qubit(emb, 1, 1, "CNOT", [a, b])


def test_stack_gate_touches_two_qubits_per_loop_per_pass():
    patches = [build_patch(3, "folded") for _ in range(8)]
    emb = embed_stack(patches)
    circ = transversal_two_qubit(emb, 0, 7, "CNOT", patches)
    # one gate per data site; the per-loop schedule has a top and bottom pass
    per_pass = {0: 0, 1: 0}
    for e in circ.events:
        per_pass[e.slot] += 1
    d = 3
    assert per_pass[0] == d * (d + 1) // 2      # top-layer sites
    assert per_pass[1] == d * (d - 1) // 2      # bottom-layer sites


def test_s_teleport_gadgets():
    for r in verify_s_teleport():
        assert r.passed, str(r)


def test_s_teleport_logical_composition():
    """y_measure at the logical level: transversal CNOT to an encoded |0>,
    logical Y measurement, conditional logical Z gives logical S."""
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    stack = encode_stack([a, b])
    from loopfold.logical import _find_image
    for basis, want in (("Z", ("ZI", 1)), ("X", ("YI", 1))):
        st = prepare_logical_state(stack, [basis, "Z"])
        run_on_state(transversal_two_qubit(emb, 0, 1, "CNOT", [a, b]), st)
        ylog = stack.logical_pauli(1, "X") * stack.logical_pauli(1, "Z")
        ylog.phase = (ylog.phase + 1) % 4
        out, _ = st.measure_pauli(ylog, rng=np.random.default_rng(5))
        if out == 0:
            for q in stack.logical_pauli(0, "Z").support():
                st.apply_gate("Z", (q,))
        found = _find_image(st, stack)
        assert want in found


def _then_logical_pauli(circ, patches, idx, kind):
    """The circuit followed, in the next slot, by physical `kind` on the
    support of patch idx's logical `kind`."""
    out = circ.extended(ScheduledCircuit(circ.num_qubits), slot_offset=0)
    slot = max(circ.slots()) + 1
    for q in encode_stack(patches).logical_pauli(idx, kind).support():
        out.add(slot, kind, (q,))
    return out


@pytest.mark.parametrize("gate,idx,kind,name,images,frame", [
    ("S", 0, "X", "X*SDG", {"X": ("Y", -1), "Z": ("Z", -1)}, "sign flips on X,Z"),
    ("S", 0, "Z", "SDG", {"X": ("Y", -1), "Z": ("Z", 1)}, "sign flips on X"),
    ("H", 0, "X", "X*H", {"X": ("Z", -1), "Z": ("X", 1)}, "sign flips on X"),
    ("H", 0, "Z", "Z*H", {"X": ("Z", 1), "Z": ("X", -1)}, "sign flips on Z"),
    ("CNOT", 1, "X", "CNOT+frame",
     {"Z0": ("ZI", 1), "Z1": ("ZZ", -1), "X0": ("XX", 1), "X1": ("IX", 1)}, "sign flips on Z1"),
    ("CNOT", 0, "Z", "CNOT+frame",
     {"Z0": ("ZI", 1), "Z1": ("ZZ", 1), "X0": ("XX", -1), "X1": ("IX", 1)}, "sign flips on X0"),
    ("SWAP", 1, "X", "SWAP+frame",
     {"Z0": ("IZ", -1), "Z1": ("ZI", 1), "X0": ("IX", 1), "X1": ("XI", 1)}, "sign flips on Z0"),
    ("SWAP", 0, "Z", "SWAP+frame",
     {"Z0": ("IZ", 1), "Z1": ("ZI", 1), "X0": ("IX", 1), "X1": ("XI", -1)}, "sign flips on X1"),
])
def test_pauli_frame_after_protocol(gate, idx, kind, name, images, frame):
    if gate in ("S", "H"):
        p = build_patch(3, "folded")
        patches = [p]
        circ = (transversal_s_circuit if gate == "S" else transversal_h_circuit)(p)
    else:
        patches = [build_patch(3, "folded"), build_patch(3, "folded")]
        circ = transversal_two_qubit(embed_stack(patches), 0, 1, gate, patches)
    act = logical_action(_then_logical_pauli(circ, patches, idx, kind), patches)
    assert act.name == name
    assert act.images == images
    assert act.frame == frame


def test_logical_action_replays_the_circuit_once(monkeypatch):
    replays = []

    def counting_run(circuit, state, *args, **kwargs):
        replays.append(circuit)
        return run_on_state(circuit, state, *args, **kwargs)
    monkeypatch.setattr("loopfold.logical.run_on_state", counting_run)
    p = build_patch(3, "folded")
    assert logical_action(transversal_s_circuit(p), p).name == "S"
    assert len(replays) == 1
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    act = logical_action(transversal_two_qubit(embed_stack([a, b]), 0, 1, "SWAP", [a, b]), [a, b])
    assert act.name == "SWAP"
    assert len(replays) == 2


def test_protocols_preserve_codespace_and_corrupted_circuit_fails():
    p = build_patch(3, "folded")
    circ = transversal_s_circuit(p)
    # corrupt: an extra H on a data qubit breaks codespace preservation
    bad = transversal_s_circuit(p)
    bad.add(4, "H", (0,))
    with pytest.raises(CodespaceViolationError):
        logical_action(bad, p)
    logical_action(circ, p)   # clean circuit passes
