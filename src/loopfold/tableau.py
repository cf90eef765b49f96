"""Stabilizer-tableau engine and a small dense-statevector oracle.

The tableau follows the Aaronson-Gottesman layout: 2n rows of (x | z) bits
with a sign bit per row, rows 0..n-1 destabilizers, rows n..2n-1 stabilizers.
Any Hermitian Pauli is measured directly on the rows, with the row phases
taken in the explicit-i convention of `PauliString`.
The dense engine is the independent brute-force reference used to certify
protocol claims on small instances; it supports the non-Clifford T gate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .pauli import PauliString

CLIFFORD_GATES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ", "SWAP")


class UnsupportedGateError(ValueError):
    """Raised when a gate cannot act on the given engine (e.g. T on a tableau)."""


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has zero probability."""


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        n = self.n = num_qubits
        self.x = np.eye(2 * n, n, dtype=np.uint8)          # destabilizer X_i
        self.z = np.eye(2 * n, n, k=-n, dtype=np.uint8)    # stabilizer Z_i
        self.r = np.zeros(2 * n, dtype=np.uint8)  # sign bit: 0 -> +, 1 -> -

    # -- gates ----------------------------------------------------------------

    def apply_gate(self, gate: str, targets: Sequence[int]) -> "StabilizerState":
        g = gate.upper()
        if g == "T":
            raise UnsupportedGateError("T gate is not Clifford; use DenseState")
        if g not in CLIFFORD_GATES:
            raise UnsupportedGateError(f"unknown gate {gate!r}")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate targets")
        for q in targets:
            if not 0 <= q < self.n:
                raise ValueError(f"target {q} out of range")
        if g == "H":
            (q,) = targets
            self.r ^= self.x[:, q] & self.z[:, q]
            self.x[:, q], self.z[:, q] = self.z[:, q].copy(), self.x[:, q].copy()
        elif g == "S":
            (q,) = targets
            self.r ^= self.x[:, q] & self.z[:, q]
            self.z[:, q] ^= self.x[:, q]
        elif g == "SDG":
            self.apply_gate("S", targets)
            self.apply_gate("Z", targets)
        elif g == "X":
            (q,) = targets
            self.r ^= self.z[:, q]
        elif g == "Z":
            (q,) = targets
            self.r ^= self.x[:, q]
        elif g == "Y":
            (q,) = targets
            self.r ^= self.x[:, q] ^ self.z[:, q]
        elif g == "CNOT":
            c, t = targets
            self.r ^= self.x[:, c] & self.z[:, t] & (self.x[:, t] ^ self.z[:, c] ^ 1)
            self.x[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.z[:, t]
        elif g == "CZ":
            c, t = targets
            self.apply_gate("H", (t,))
            self.apply_gate("CNOT", (c, t))
            self.apply_gate("H", (t,))
        elif g == "SWAP":
            a, b = targets
            self.apply_gate("CNOT", (a, b))
            self.apply_gate("CNOT", (b, a))
            self.apply_gate("CNOT", (a, b))
        return self

    # -- measurement -----------------------------------------------------------

    def measure(
        self,
        qubit: int,
        basis: str = "Z",
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> tuple[int, bool]:
        """Measure a qubit in the Z or Y basis; see `measure_pauli`."""
        b = basis.upper()
        if b not in ("Z", "Y"):
            raise ValueError(f"unsupported measurement basis {basis!r}")
        return self.measure_pauli(PauliString.from_label(b, self.n, [qubit]), rng, force)

    def measure_pauli(
        self,
        pauli: PauliString,
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> tuple[int, bool]:
        """Measure a Hermitian Pauli P directly on the rows (Aaronson-Gottesman).

        Returns (outcome, deterministic); outcome 0 is the +1 eigenvalue of P.
        `force` selects the branch of a random outcome (used for projective
        state preparation); it must not disagree with a deterministic outcome.
        """
        n = self.n
        anti, sign = self._anticommuting(pauli)
        stab = np.flatnonzero(anti[n:])
        if stab.size == 0:
            outcome = self._product_sign(anti[:n], pauli)
            if force is not None and int(force) != outcome:
                raise ImpossibleOutcomeError("forced branch contradicts deterministic outcome")
            return outcome, True
        if force is not None:
            outcome = int(force)
        elif rng is not None:
            outcome = int(rng.integers(2))
        else:
            raise ValueError("random measurement needs an rng or forced branch")
        # multiply the first anticommuting stabilizer p into every other
        # anticommuting row: in the explicit-i convention P_p * P_h has phase
        # phase(p) + phase(h) + 2 z_p.x_h
        p = n + stab[0]
        rows = np.flatnonzero(anti)
        rows = rows[rows != p]
        x, z = self.x[rows], self.z[rows]
        xp, zp = self.x[p], self.z[p]
        phase = _phase(x, z, self.r[rows]) + _phase(xp, zp, self.r[p]) + 2 * (x @ zp)
        x ^= xp
        z ^= zp
        self.x[rows], self.z[rows] = x, z
        self.r[rows] = ((phase - _phase(x, z, 0)) & 3) >> 1
        # row p becomes its own destabilizer and is replaced by +-P
        for a in (self.x, self.z, self.r):
            a[p - n] = a[p]
        self.x[p], self.z[p], self.r[p] = pauli.x, pauli.z, outcome ^ sign
        return outcome, False

    def _anticommuting(self, pauli: PauliString) -> tuple[np.ndarray, int]:
        """Which of the 2n rows anticommute with `pauli`, and its sign bit."""
        if pauli.n != self.n:
            raise ValueError(f"{pauli.n}-qubit Pauli on a {self.n}-qubit state")
        support = np.flatnonzero(pauli.x | pauli.z)
        if support.size == 0:
            raise ValueError("cannot measure the identity")
        sign = _sign_bit(pauli)
        # uint8 products wrap mod 256, which keeps their parity
        anti = (self.x[:, support] @ pauli.z[support]
                + self.z[:, support] @ pauli.x[support]) & 1
        return anti.astype(bool), sign

    def _product_sign(self, destabilizers: np.ndarray, pauli: PauliString) -> int:
        """Sign bit of +-P = product of the stabilizers paired with the marked destabilizers.

        In row order, moving each row's X part left past the Z parts of the
        earlier rows costs (-1)^(sum over a < b of z_a.x_b).
        """
        rows = self.n + np.flatnonzero(destabilizers)
        x, z = self.x[rows], self.z[rows]
        earlier_z = (np.cumsum(z, axis=0, dtype=np.uint8) - z) & 1
        phase = int(np.sum(_phase(x, z, self.r[rows]))) + 2 * np.count_nonzero(x & earlier_z)
        return (int(phase - pauli.phase) & 3) >> 1

    # -- inspection -------------------------------------------------------------

    def _row_pauli(self, i: int) -> PauliString:
        phase = int(_phase(self.x[i], self.z[i], self.r[i]))
        return PauliString(self.n, self.x[i].copy(), self.z[i].copy(), phase)

    def stabilizer_generators(self) -> list[PauliString]:
        return [self._row_pauli(i) for i in range(self.n, 2 * self.n)]

    def expectation_sign(self, pauli: PauliString) -> Optional[int]:
        """+1/-1 if `pauli` is (up to sign) in the stabilizer group, else None.

        Reads the tableau without changing it; the identity and non-Hermitian
        Paulis give None.
        """
        try:
            anti, _ = self._anticommuting(pauli)
        except ValueError:
            return None
        if anti[self.n:].any():
            return None
        return 1 - 2 * self._product_sign(anti[:self.n], pauli)

    def copy(self) -> "StabilizerState":
        st = StabilizerState.__new__(StabilizerState)
        st.n = self.n
        st.x = self.x.copy()
        st.z = self.z.copy()
        st.r = self.r.copy()
        return st

    def to_dense(self) -> "DenseState":
        """Dense amplitudes of the stabilizer state (small n only)."""
        if self.n > 14:
            raise ValueError("too many qubits for dense conversion")
        dense = DenseState(self.n)
        # find a computational basis state inside the support by measuring a
        # copy, then project it onto the stabilizer group
        probe = self.copy()
        rng = np.random.default_rng(7)
        bits = [probe.measure(q, "Z", rng=rng)[0] for q in range(self.n)]
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        vec = np.zeros(2**self.n, dtype=complex)
        vec[idx] = 1.0
        for g in self.stabilizer_generators():
            vec = 0.5 * (vec + _apply_pauli_dense(vec, g, self.n))
        dense.vec = vec / np.linalg.norm(vec)
        return dense


class DenseState:
    """Dense statevector on <= 20 qubits; the brute-force oracle engine."""

    def __init__(self, num_qubits: int):
        if not 1 <= num_qubits <= 20:
            raise ValueError("DenseState supports 1..20 qubits")
        self.n = num_qubits
        self.vec = np.zeros(2**num_qubits, dtype=complex)
        self.vec[0] = 1.0

    _GATES_1Q = {
        "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        "S": np.array([[1, 0], [0, 1j]], dtype=complex),
        "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
        "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }

    def apply_gate(self, gate: str, targets: Sequence[int]) -> "DenseState":
        g = gate.upper()
        if g in self._GATES_1Q:
            (q,) = targets
            self._apply_1q(self._GATES_1Q[g], q)
        elif g == "CNOT":
            c, t = targets
            self._apply_cnot(c, t)
        elif g == "CZ":
            c, t = targets
            self._apply_cz(c, t)
        elif g == "SWAP":
            a, b = targets
            self._apply_cnot(a, b)
            self._apply_cnot(b, a)
            self._apply_cnot(a, b)
        else:
            raise UnsupportedGateError(f"unknown gate {gate!r}")
        return self

    def _apply_1q(self, u: np.ndarray, q: int) -> None:
        # qubit 0 is the most significant axis so bitstrings read left to right
        v = self.vec.reshape([2] * self.n)
        v = np.tensordot(u, v, axes=([1], [q]))
        v = np.moveaxis(v, 0, q)
        self.vec = np.ascontiguousarray(v).reshape(-1)

    def _apply_cnot(self, c: int, t: int) -> None:
        v = self.vec.reshape([2] * self.n)
        sl1 = [slice(None)] * self.n
        sl1[c] = 1
        block = v[tuple(sl1)]
        t_after = t if t < c else t - 1
        v[tuple(sl1)] = np.flip(block, axis=t_after).copy()
        self.vec = v.reshape(-1)

    def _apply_cz(self, c: int, t: int) -> None:
        v = self.vec.reshape([2] * self.n)
        sl = [slice(None)] * self.n
        sl[c] = 1
        sl[t] = 1
        v[tuple(sl)] *= -1
        self.vec = v.reshape(-1)

    def measure(
        self,
        qubit: int,
        basis: str = "Z",
        rng: Optional[np.random.Generator] = None,
        force: Optional[int] = None,
    ) -> tuple[int, bool]:
        b = basis.upper()
        if b == "Y":
            self.apply_gate("SDG", (qubit,))
            self.apply_gate("H", (qubit,))
            out = self.measure(qubit, "Z", rng, force)
            self.apply_gate("H", (qubit,))
            self.apply_gate("S", (qubit,))
            return out
        if b != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r}")
        v = self.vec.reshape([2] * self.n)
        sl0 = [slice(None)] * self.n
        sl0[qubit] = 0
        p0 = float(np.sum(np.abs(v[tuple(sl0)]) ** 2))
        deterministic = p0 < 1e-12 or p0 > 1 - 1e-12
        if force is not None:
            outcome = int(force)
        elif deterministic:
            outcome = 0 if p0 > 0.5 else 1
        elif rng is not None:
            outcome = int(rng.random() >= p0)
        else:
            raise ValueError("random measurement needs an rng or forced branch")
        prob = p0 if outcome == 0 else 1.0 - p0
        if prob < 1e-12:
            raise ImpossibleOutcomeError("forced branch has zero amplitude")
        sl = [slice(None)] * self.n
        sl[qubit] = 1 - outcome
        v[tuple(sl)] = 0.0
        self.vec = v.reshape(-1) / np.sqrt(prob)
        return outcome, deterministic

    def branch_probability(self, qubit: int, outcome: int) -> float:
        v = self.vec.reshape([2] * self.n)
        sl = [slice(None)] * self.n
        sl[qubit] = outcome
        return float(np.sum(np.abs(v[tuple(sl)]) ** 2))

    def fidelity(self, other: "DenseState") -> float:
        """|<self|other>|^2 — global phase quotiented out."""
        return float(np.abs(np.vdot(self.vec, other.vec)) ** 2)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def copy(self) -> "DenseState":
        d = DenseState.__new__(DenseState)
        d.n = self.n
        d.vec = self.vec.copy()
        return d


def _apply_pauli_dense(vec: np.ndarray, pauli: PauliString, n: int) -> np.ndarray:
    out = vec.copy().reshape([2] * n)
    phase = (1j) ** pauli.phase
    for q in range(n):
        xq, zq = int(pauli.x[q]), int(pauli.z[q])
        if xq == 0 and zq == 0:
            continue
        sl1 = [slice(None)] * n
        sl1[q] = 1
        if zq:
            out[tuple(sl1)] *= -1
        if xq:
            out = np.flip(out, axis=q)
    return (phase * out).reshape(-1)


def _phase(x: np.ndarray, z: np.ndarray, r) -> np.ndarray:
    """Explicit-i phase exponent (mod 4) of AG rows: 2r plus one i per Y site."""
    return (2 * r + np.count_nonzero(x & z, axis=-1)) & 3


def _sign_bit(pauli: PauliString) -> int:
    """Sign bit of a Hermitian Pauli relative to its letterwise I/X/Y/Z form."""
    k = (pauli.phase - int(np.count_nonzero(pauli.x & pauli.z))) % 4
    if k % 2:
        raise ValueError("Pauli is not Hermitian")
    return k >> 1
