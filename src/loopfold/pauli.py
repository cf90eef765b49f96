"""Pauli strings, symplectic arithmetic, and stabilizer-group linear algebra.

Pauli operators are stored as a pair of GF(2) vectors (x, z) plus a phase
exponent: P = i^phase * prod_q X_q^x[q] Z_q^z[q].  All group-level reasoning
(membership, rank, quotients) reduces to GF(2) row operations on the
symplectic vectors, with phases multiplied alongside.
"""

from __future__ import annotations

from typing import Sequence

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

    def support(self) -> list[int]:
        return [q for q in range(self.n) if self.x[q] or self.z[q]]

    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def commutes(self, other: "PauliString") -> bool:
        alt = int(np.sum(self.x & other.z) + np.sum(self.z & other.x)) % 2
        return alt == 0

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


def gf2_rank(rows: np.ndarray) -> int:
    """Rank of a GF(2) matrix (rows are vectors)."""
    m = rows.copy() % 2
    rank = 0
    ncols = m.shape[1] if m.ndim == 2 else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, m.shape[0]):
            if m[r, col]:
                pivot = r
                break
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


def reduce_mod_group(p: PauliString, generators: Sequence[PauliString]) -> PauliString:
    """Reduce `p` by multiplying group generators, greedily clearing pivots.

    Returns the residue Pauli; if the residue is the identity (up to phase),
    `p` lies in the generated group up to sign.
    """
    if not generators:
        return p.copy()
    gens = [g.copy() for g in generators]
    vecs = np.array([g.symplectic() for g in gens], dtype=np.uint8)
    residue = p.copy()
    used = np.zeros(len(gens), dtype=bool)
    ncols = vecs.shape[1]
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(gens)):
            if vecs[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        vecs[[row, pivot]] = vecs[[pivot, row]]
        gens[row], gens[pivot] = gens[pivot], gens[row]
        for r in range(len(gens)):
            if r != row and vecs[r, col]:
                vecs[r] ^= vecs[row]
                gens[r] = gens[r] * gens[row]
        rvec = residue.symplectic()
        if rvec[col]:
            residue = residue * gens[row]
        row += 1
        if row == len(gens):
            break
    return residue


def in_group_up_to_sign(p: PauliString, generators: Sequence[PauliString]) -> bool:
    return reduce_mod_group(p, generators).weight() == 0


def group_weight_enumerator(generators: Sequence[PauliString]) -> dict[int, int]:
    """Weight histogram of every element of a (small) stabilizer group."""
    k = len(generators)
    if k > 20:
        raise ValueError("group too large to enumerate")
    counts: dict[int, int] = {}
    n = generators[0].n if generators else 0
    for mask in range(1 << k):
        acc = PauliString(n)
        m = mask
        idx = 0
        while m:
            if m & 1:
                acc = acc * generators[idx]
            m >>= 1
            idx += 1
        w = acc.weight()
        counts[w] = counts.get(w, 0) + 1
    return counts
