"""GF(2) kernel: rank, group membership and reduced echelon form against the
row-by-row elimination."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfold.pauli import (PauliString, gf2_rank, in_group_up_to_sign, pack_rows,
                            reduced_echelon, unpack_rows, xor_basis, xor_reduce)


def ref_gf2_rank(rows: np.ndarray) -> int:
    """Reference: Gauss-Jordan elimination on a uint8 matrix."""
    m = rows.copy() % 2
    rank = 0
    ncols = m.shape[1] if m.ndim == 2 else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, m.shape[0]) if m[r, col]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(m.shape[0]):
            if r != rank and m[r, col]:
                m[r] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def ref_reduce_mod_group(p: PauliString, generators) -> PauliString:
    """Reference: reduce `p` by generator products, clearing pivots greedily."""
    if not generators:
        return p.copy()
    gens = [g.copy() for g in generators]
    vecs = np.array([g.symplectic() for g in gens], dtype=np.uint8)
    residue = p.copy()
    row = 0
    for col in range(vecs.shape[1]):
        pivot = next((r for r in range(row, len(gens)) if vecs[r, col]), None)
        if pivot is None:
            continue
        vecs[[row, pivot]] = vecs[[pivot, row]]
        gens[row], gens[pivot] = gens[pivot], gens[row]
        for r in range(len(gens)):
            if r != row and vecs[r, col]:
                vecs[r] ^= vecs[row]
                gens[r] = gens[r] * gens[row]
        if residue.symplectic()[col]:
            residue = residue * gens[row]
        row += 1
        if row == len(gens):
            break
    return residue


@st.composite
def gf2_matrices(draw):
    """A random 0/1 matrix, sometimes with rows that are sums of earlier rows."""
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(1, 20))
    m = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), dtype=np.uint8).reshape(rows, cols)
    for i in range(1, rows):
        if draw(st.booleans()):
            picks = draw(st.lists(st.integers(0, i - 1), max_size=3))
            m[i] = np.bitwise_xor.reduce(m[picks], axis=0) if picks else 0
    return m


@given(gf2_matrices())
@settings(max_examples=100, deadline=None)
def test_rank_matches_the_reference(m):
    assert gf2_rank(m) == ref_gf2_rank(m)


@given(gf2_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_membership_matches_the_reference(m, data):
    cols = m.shape[1] + m.shape[1] % 2          # x | z halves of n qubits
    m = np.pad(m, ((0, 0), (0, cols - m.shape[1])))
    n = cols // 2
    gens = [PauliString(n, row[:n], row[n:]) for row in m]
    if gens and data.draw(st.booleans()):     # a product of some generators
        picks = data.draw(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=4))
        p = PauliString(n)
        for i in picks:
            p = p * gens[i]
    else:
        bits = data.draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols))
        p = PauliString(n, bits[:n], bits[n:])
    assert in_group_up_to_sign(p, gens) == (ref_reduce_mod_group(p, gens).weight() == 0)


def test_tags_record_the_combination():
    m = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]], dtype=np.uint8)
    basis = xor_basis((v, 1 << i) for i, v in enumerate(pack_rows(m)))
    assert len(basis) == 3                      # row 2 = row 0 + row 1
    residue, tag = xor_reduce(pack_rows([[1, 0, 1, 1]])[0], basis)
    assert residue == 0
    picked = [i for i in range(4) if tag >> i & 1]
    assert np.array_equal(np.bitwise_xor.reduce(m[picked], axis=0), [1, 0, 1, 1])
    assert xor_reduce(pack_rows([[0, 1, 0, 0]])[0], basis)[0] != 0


def test_pack_rows_puts_column_zero_highest():
    assert pack_rows(np.array([[1, 0, 0], [0, 0, 1], [1, 1, 1]])) == [4, 1, 7]
    assert pack_rows(np.zeros((2, 0), dtype=np.uint8)) == [0, 0]
    assert pack_rows(np.zeros((0, 5), dtype=np.uint8)) == []


@given(gf2_matrices())
@settings(max_examples=100, deadline=None)
def test_unpack_rows_inverts_pack_rows(m):
    assert np.array_equal(unpack_rows(pack_rows(m), m.shape[1]), m)


@given(gf2_matrices())
@settings(max_examples=100, deadline=None)
def test_reduced_echelon_spans_the_rows_with_lone_pivots(m):
    if gf2_rank(m) < len(m):
        with pytest.raises(ValueError, match="dependent"):
            reduced_echelon(pack_rows(m))
        return
    red = unpack_rows(reduced_echelon(pack_rows(m)), m.shape[1])
    assert gf2_rank(red) == gf2_rank(np.concatenate([red, m])) == len(m)
    pivots = [int(np.argmax(row)) for row in red]
    assert pivots == sorted(pivots)                       # leading bits descend
    assert np.array_equal(red[:, pivots], np.eye(len(m)))  # each pivot in one row only
