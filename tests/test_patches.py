"""Patch construction, check circuits, stacking, and serialization."""

import numpy as np
import pytest

from loopfold.circuits import run_on_state
from loopfold.patches import (build_patch, check_circuit, embed_stack, first_half_circuit,
                              second_half_circuit)
from loopfold.tableau import StabilizerState


def commutes(a, b) -> bool:
    """Whether two Pauli strings commute: their symplectic product is even."""
    return int(np.sum(a.x & b.z) + np.sum(a.z & b.x)) % 2 == 0


def encode_zero(patch):
    st = StabilizerState(patch.num_qubits)
    for s in patch.stabilizers:
        st.measure_pauli(patch.stabilizer_pauli(s), force=0)
    st.measure_pauli(patch.logical_z_pauli(), force=0)
    return st


@pytest.mark.parametrize("d", [3, 5, 7])
def test_counts_and_commutation(d):
    p = build_patch(d, "rotated")
    assert p.num_data == d * d
    assert len(p.stabilizers) == d * d - 1
    assert len(p.x_stabilizers()) == (d * d - 1) // 2
    assert len([s for s in p.stabilizers if s.kind == "Z"]) == (d * d - 1) // 2
    # brute-force symplectic check over all generator pairs
    paulis = [p.stabilizer_pauli(s) for s in p.stabilizers]
    for i in range(len(paulis)):
        for j in range(i + 1, len(paulis)):
            assert commutes(paulis[i], paulis[j])
    lx, lz = p.logical_x_pauli(), p.logical_z_pauli()
    assert not commutes(lx, lz)
    for q in paulis:
        assert commutes(lx, q) and commutes(lz, q)


def test_d3_rotated_has_9_sites_8_stabilizers():
    p = build_patch(3, "rotated")
    assert p.num_data == 9
    kinds = sorted(s.kind for s in p.stabilizers)
    assert kinds == ["X"] * 4 + ["Z"] * 4


@pytest.mark.parametrize("d", [3, 5, 7])
def test_folded_fold_map_involution(d):
    p = build_patch(d, "folded")
    for a, b in p.data_coords:   # the fold pairs (a, b) with (b, a) on the other layer
        site, layer = p.loop_of((a, b))
        assert p.loop_of((b, a)) == (site, layer if a == b else 1 - layer)
    assert len(p.data_sites) == d * (d + 1) // 2   # triangular footprint


def test_folded_stabilizers_identical_to_rotated():
    rot = build_patch(5, "rotated")
    fol = build_patch(5, "folded")
    assert [(s.kind, s.center, s.support) for s in rot.stabilizers] == \
           [(s.kind, s.center, s.support) for s in fol.stabilizers]


def test_bad_distance_rejected():
    with pytest.raises(ValueError):
        build_patch(4)
    with pytest.raises(ValueError):
        build_patch(1)
    for d in (3.0, True, "3"):
        with pytest.raises(ValueError, match="odd integer >= 3"):
            build_patch(d)
    with pytest.raises(ValueError):
        build_patch(3, "weird")


@pytest.mark.parametrize("d,cnots", [(3, 24), (5, 80)])
def test_check_circuit_cnot_count(d, cnots):
    p = build_patch(d, "rotated")
    circ = check_circuit(p)
    assert circ.gate_count("CNOT") == cnots == sum(s.weight() for s in p.stabilizers)


@pytest.mark.parametrize("kind", ["rotated", "folded"])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_check_round_is_its_two_halves(d, kind):
    p = build_patch(d, kind)
    first, second = first_half_circuit(p), second_half_circuit(p)
    assert check_circuit(p).events == first.events + second.events
    assert (first.slots(), second.slots()) == ([0, 1, 2, 3], [4, 5, 6, 7])


def test_each_data_qubit_touched_at_most_once_per_layer():
    for d in (3, 5):
        p = build_patch(d, "rotated")
        circ = check_circuit(p)
        for layer_slot in (2, 3, 4, 5):
            touched = [q for e in circ.events if e.slot == layer_slot and e.action == "CNOT"
                       for q in e.targets]
            assert len(touched) == len(set(touched))


@pytest.mark.parametrize("d", [3, 5])
def test_check_circuit_deterministic_and_group_preserving(d):
    p = build_patch(d, "rotated")
    st = encode_zero(p)
    # two successive rounds: all syndromes deterministic and trivial
    for _ in range(2):
        rec = run_on_state(check_circuit(p), st, rng=None)
        assert all(v == 0 for v in rec.values())
    for s in p.stabilizers:
        assert st.expectation_sign(p.stabilizer_pauli(s)) == 1
    assert st.expectation_sign(p.logical_z_pauli()) == 1


def test_hook_orderings_differ_between_x_and_z():
    # the two orderings traverse second/third layers differently, as drawn
    p = build_patch(3, "rotated")
    from loopfold.patches import X_ORDER, Z_ORDER
    assert X_ORDER == ("ul", "ur", "dl", "dr")
    assert Z_ORDER == ("ul", "dl", "ur", "dr")
    assert X_ORDER != Z_ORDER


def test_embed_stack_folded_occupancies():
    p = build_patch(3, "folded")
    emb = embed_stack([p])
    assert emb.qubits_per_loop == 2
    diag = [l for l in emb.loops.values() if l.coord[0] == l.coord[1]]
    off = [l for l in emb.loops.values() if l.coord[0] != l.coord[1]]
    assert all(len(l.slots) == 1 for l in diag)
    assert all(l.speed_class == "double" for l in diag)
    assert all(len(l.slots) <= 2 for l in off)
    data_off = [l for l in off if l.coord[0] % 2 == 0]   # data sit at even coords
    assert all(len(l.slots) == 2 for l in data_off)


def test_embed_stack_published_occupancies():
    patches8 = [build_patch(25, "folded") for _ in range(8)]
    emb = embed_stack(patches8)
    assert emb.qubits_per_loop == 16
    rot12 = [build_patch(25, "rotated") for _ in range(12)]
    emb12 = embed_stack(rot12)
    assert emb12.qubits_per_loop == 12


def test_embed_stack_rejects_mixed():
    with pytest.raises(ValueError):
        embed_stack([build_patch(3, "folded"), build_patch(3, "rotated")])
    with pytest.raises(ValueError):
        embed_stack([build_patch(3, "folded"), build_patch(5, "folded")])


def test_embedding_doc_stable_fields():
    emb = embed_stack([build_patch(3, "folded")])
    assert emb.qubits_per_loop == 2
    assert emb.patch_kind == "folded" and emb.distance == 3
    parities = {l.coord[0] % 2 for l in emb.loops.values()}
    assert parities == {0, 1}   # data and ancilla loops
    diag = [l for l in emb.loops.values() if l.coord[0] == l.coord[1]]
    assert diag and all(l.speed_class == "double" for l in diag)
