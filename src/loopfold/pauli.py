"""Pauli strings, symplectic arithmetic, and stabilizer-group linear algebra.

Pauli operators are stored as a pair of GF(2) vectors (x, z) plus a phase
exponent: P = i^phase * prod_q X_q^x[q] Z_q^z[q].  Group membership and
rank are one GF(2) elimination: the symplectic vectors are packed into
Python ints and reduced to an XOR basis keyed by leading bit, and a tag per
row records which rows each basis vector combines.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class PauliString:
    """An n-qubit Pauli operator with a power-of-i phase.

    The phase exponent is mod 4; Hermitian Paulis have phase 0 or 2
    (sign +1 / -1).
    """

    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x=None, z=None, phase: int = 0):
        self.n = n
        self.x = np.zeros(n, dtype=np.uint8) if x is None else np.asarray(x, dtype=np.uint8)
        self.z = np.zeros(n, dtype=np.uint8) if z is None else np.asarray(z, dtype=np.uint8)
        self.phase = phase % 4

    @classmethod
    def from_label(cls, label: str, n: int, sites: Sequence[int]) -> "PauliString":
        """Build P acting with `label[k]` on qubit `sites[k]`, identity elsewhere."""
        p = cls(n)
        for ch, q in zip(label, sites):
            if ch == "X":
                p.x[q] = 1
            elif ch == "Z":
                p.z[q] = 1
            elif ch == "Y":
                p.x[q] = 1
                p.z[q] = 1
                p.phase = (p.phase + 1) % 4  # Y = i XZ
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return p

    def copy(self) -> "PauliString":
        return PauliString(self.n, self.x.copy(), self.z.copy(), self.phase)

    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit-count mismatch")
        # Commuting other's X block left past self's Z block costs a sign per
        # qubit where both hit; X and Z exponents then add mod 2.
        phase = self.phase + other.phase + 2 * int(np.sum(self.z & other.x))
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase % 4)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n == other.n
            and self.phase == other.phase
            and bool(np.array_equal(self.x, other.x))
            and bool(np.array_equal(self.z, other.z))
        )

    def symplectic(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])

    def __repr__(self) -> str:
        letters = []
        for q in range(self.n):
            letters.append("IXZY"[int(self.x[q]) + 2 * int(self.z[q])])
        # letterwise form absorbs one i per Y; show the residual prefactor
        y_count = int(np.sum(self.x & self.z))
        pre = {0: "+", 1: "+i", 2: "-", 3: "-i"}[(self.phase - y_count) % 4]
        return pre + "".join(letters)


def pack_rows(rows: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as one int; column j is bit (columns - 1 - j)."""
    bits = np.asarray(rows, dtype=np.uint8)
    pad = -bits.shape[1] % 8
    packed = np.packbits(bits, axis=1)
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "big") >> pad
            for i in range(len(packed))]


def unpack_rows(vecs: Sequence[int], columns: int) -> np.ndarray:
    """Inverse of `pack_rows`: a (len(vecs), columns) uint8 0/1 matrix."""
    pad = -columns % 8
    width = (columns + pad) // 8
    data = b"".join((v << pad).to_bytes(width, "big") for v in vecs)
    rows = np.frombuffer(data, dtype=np.uint8).reshape(len(vecs), width)
    return np.unpackbits(rows, axis=1)[:, :columns]


def reduced_echelon(vecs: Sequence[int]) -> list[int]:
    """Reduced row-echelon form of independent GF(2) vectors packed as ints.

    Each returned vector's leading bit (its pivot) is set in no other
    returned vector; leading bits descend.  Dependent vectors raise ValueError.
    """
    basis = xor_basis((v, 0) for v in vecs)
    if len(basis) < len(vecs):
        raise ValueError("dependent generators")
    pivots = sorted(basis, reverse=True)
    rows = [basis[b][0] for b in pivots]
    # clearing pivot b from a row above it brings in lower bits only, which
    # the later, lower pivots clear
    for i, b in enumerate(pivots):
        bit, row = 1 << b, rows[i]
        for j in range(i):
            if rows[j] & bit:
                rows[j] ^= row
    return rows


def xor_basis(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]]:
    """Echelon basis of the span of GF(2) vectors packed as ints.

    Each row is a (vector, tag) pair.  The basis maps the leading bit of each
    reduced vector to that vector and the XOR of the tags of the rows it was
    combined from.  Rows in the span of earlier rows are dropped.
    """
    basis: dict[int, tuple[int, int]] = {}
    for vec, tag in rows:
        vec, tag = xor_reduce(vec, basis, tag)
        if vec:
            basis[vec.bit_length() - 1] = (vec, tag)
    return basis


def xor_reduce(vec: int, basis: dict[int, tuple[int, int]], tag: int = 0) -> tuple[int, int]:
    """Clear `vec`'s leading bits against the basis; (residue, tag).

    The residue is 0 exactly when `vec` lies in the span; the tag then
    accumulates the tags of the basis vectors that sum to `vec`.
    """
    while vec:
        entry = basis.get(vec.bit_length() - 1)
        if entry is None:
            break
        vec ^= entry[0]
        tag ^= entry[1]
    return vec, tag


def gf2_rank(rows: np.ndarray) -> int:
    """Rank of a GF(2) matrix (rows are vectors)."""
    return len(xor_basis((v, 0) for v in pack_rows(np.asarray(rows) % 2)))


def in_group_up_to_sign(p: PauliString, generators: Sequence[PauliString]) -> bool:
    """Whether +-p (or +-i p) is a product of the generators."""
    vecs = pack_rows(np.array([g.symplectic() for g in generators] + [p.symplectic()]))
    return xor_reduce(vecs[-1], xor_basis((v, 0) for v in vecs[:-1]))[0] == 0
