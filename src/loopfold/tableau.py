"""Stabilizer-tableau engine and a small dense-statevector oracle.

The tableau follows the Aaronson-Gottesman layout: 2n rows of (x | z) bits
with a sign bit per row, rows 0..n-1 destabilizers, rows n..2n-1 stabilizers.
Any Hermitian Pauli is measured directly on the rows, with the row phases
taken in the explicit-i convention of `PauliString`.  `from_css` writes a
CSS codespace state down from its generators, with its destabilizers, from
one reduced row-echelon form instead of one measurement per generator.
The dense engine is the independent brute-force reference used to certify
protocol claims on small instances; it supports the non-Clifford T gate.
Its gates update the amplitude vector in place on the halves (or, for a
pair, the quarter-blocks) that a qubit's bit splits it into, and a Z or Y
measurement projects with (I +- P)/2 on those halves directly.  Both engines
validate gate and measurement targets through one shared check.

Gates come in layers: `apply_layer` applies one gate kind to pairwise
disjoint target tuples.  The tableau does a whole layer with one
fancy-indexed update of each column array (a SWAP layer is a plain column
exchange); the dense engine applies the layer's gates one by one.  A Z or Y
measurement with a deterministic outcome is read from the qubit's columns.

Neither engine draws random numbers.  A measurement projects: a
deterministic outcome is read, and a random one is taken from `force`
(without it, `RandomOutcomeError`).  `branch_probabilities` gives both
outcomes' probabilities, from which `circuits.run_on_state` samples and
`circuits.walk_outcomes` branches; an outcome below ZERO_PROBABILITY counts
as impossible everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .pauli import PauliString, pack_rows, reduced_echelon, unpack_rows, xor_basis

CLIFFORD_GATES = ("H", "S", "SDG", "X", "Y", "Z", "CNOT", "CZ", "SWAP")
ZERO_PROBABILITY = 1e-12   # an outcome less likely than this is impossible


class UnsupportedGateError(ValueError):
    """Raised when a gate cannot act on the given engine (e.g. T on a tableau)."""


class ImpossibleOutcomeError(ValueError):
    """Raised when a forced measurement outcome has zero probability."""


class RandomOutcomeError(ValueError):
    """Raised when a measurement with two possible outcomes is not forced."""


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        n = self.n = num_qubits
        self.x = np.eye(2 * n, n, dtype=np.uint8)          # destabilizer X_i
        self.z = np.eye(2 * n, n, k=-n, dtype=np.uint8)    # stabilizer Z_i
        self.r = np.zeros(2 * n, dtype=np.uint8)  # sign bit: 0 -> +, 1 -> -

    @classmethod
    def from_css(cls, num_qubits: int, generators: Sequence[PauliString]) -> "StabilizerState":
        """|0...0> projected onto the +1 eigenspace of every generator, written down.

        Each generator must be a +1-signed pure X or pure Z Pauli; the X-type
        ones independent, the Z-type ones independent and commuting with the
        X-type ones, else ValueError.  |0...0> is already a +1 eigenstate of
        the Z-type ones, so they are checked, not applied.  From the reduced
        row-echelon form R_1..R_r of the X-type generators, with pivot qubits
        p_i: each R_i is a stabilizer with destabilizer Z_(p_i), and each other
        qubit q gives the stabilizer Z_q prod_(R_i[q] = 1) Z_(p_i) with
        destabilizer X_q.  Every sign is +.  This is the state that measuring
        the generators in turn with `measure_pauli(g, force=0)` reaches.
        """
        n = num_qubits
        xs, zs = [], []
        for g in generators:
            if g.n != n:
                raise ValueError(f"{g.n}-qubit generator for {n} qubits")
            has_x, has_z = g.x.any(), g.z.any()
            if g.phase != 0 or has_x == has_z:
                raise ValueError(f"{g!r} is not a +1-signed pure X or Z Pauli")
            (xs if has_x else zs).append(g.x if has_x else g.z)
        x_rows = reduced_echelon(pack_rows(np.reshape(xs, (-1, n))))
        z_gens = np.reshape(zs, (-1, n)).astype(np.uint8)
        if len(xor_basis((v, 0) for v in pack_rows(z_gens))) < len(zs):
            raise ValueError("dependent generators")
        red = unpack_rows(x_rows, n)
        # a Z generator's overlap parities with every R_i: the XOR of R's columns
        # on its support (generators are sparse, so no dense product)
        gen, qubit = np.nonzero(z_gens)
        starts = np.flatnonzero(np.diff(gen, prepend=-1))
        if len(qubit) and np.bitwise_xor.reduceat(red.T[qubit], starts).any():
            raise ValueError("anticommuting generators")

        r = len(x_rows)
        pivots = np.array([n - bits.bit_length() for bits in x_rows], dtype=np.intp)
        free = np.setdiff1d(np.arange(n), pivots)
        st = cls.__new__(cls)
        st.n = n
        st.x = np.zeros((2 * n, n), dtype=np.uint8)
        st.z = np.zeros((2 * n, n), dtype=np.uint8)
        st.r = np.zeros(2 * n, dtype=np.uint8)
        st.x[n:n + r] = red
        st.z[np.arange(r), pivots] = 1
        st.x[r + np.arange(n - r), free] = 1
        z_stabs = st.z[n + r:]
        z_stabs[np.arange(n - r), free] = 1
        z_stabs[:, pivots] = red[:, free].T
        return st

    # -- gates ----------------------------------------------------------------

    def apply_gate(self, gate: str, targets: Sequence[int]) -> "StabilizerState":
        return self.apply_layer(gate, [targets])

    def apply_layer(self, gate: str, targets: Sequence[Sequence[int]]) -> "StabilizerState":
        """Apply `gate` to every target tuple at once; the tuples must be disjoint.

        Gates on disjoint qubits commute, so the layer equals applying them one
        by one.  Each array gets one fancy-indexed column update.
        """
        g = gate.upper()
        if g == "T":
            raise UnsupportedGateError("T gate is not Clifford; use DenseState")
        if g not in CLIFFORD_GATES:
            raise UnsupportedGateError(f"unknown gate {gate!r}")
        _check_layer(self.n, targets, _ARITY[g])
        if g == "CZ":
            self.apply_layer("H", [(t,) for _, t in targets])
            self.apply_layer("CNOT", targets)
            return self.apply_layer("H", [(t,) for _, t in targets])
        cols = np.array(targets, dtype=np.intp).reshape(-1, _ARITY[g]).T   # one row per position
        x, z = self.x, self.z
        if g == "SWAP":
            ab, ba = cols.ravel(), cols[::-1].ravel()
            x[:, ab], z[:, ab] = x[:, ba], z[:, ba]
            return self
        if g == "CNOT":
            c, t = cols
            xc, xt, zc, zt = x[:, c], x[:, t], z[:, c], z[:, t]
            self.r ^= _parity(xc & zt & (xt ^ zc ^ 1))
            x[:, t] = xt ^ xc
            z[:, c] = zc ^ zt
            return self
        (q,) = cols
        xq, zq = x[:, q], z[:, q]
        if g == "H":
            self.r ^= _parity(xq & zq)
            x[:, q], z[:, q] = zq, xq
        elif g == "S":
            self.r ^= _parity(xq & zq)
            z[:, q] = zq ^ xq
        elif g == "SDG":
            self.r ^= _parity(xq & (zq ^ 1))
            z[:, q] = zq ^ xq
        elif g == "X":
            self.r ^= _parity(zq)
        elif g == "Z":
            self.r ^= _parity(xq)
        else:   # Y
            self.r ^= _parity(xq ^ zq)
        return self

    # -- measurement -----------------------------------------------------------

    def measure(self, qubit: int, basis: str = "Z",
                force: Optional[int] = None) -> tuple[int, bool]:
        """Measure a qubit in the Z or Y basis; see `measure_pauli`.

        A deterministic outcome is read from the qubit's columns; only a
        random one builds the n-qubit Pauli.
        """
        _check_force(force)
        b, anti = self._qubit_rows(qubit, basis)
        if anti[self.n:].any():
            return self.measure_pauli(PauliString.from_label(b, self.n, [qubit]), force)
        return self._deterministic(anti[:self.n], 1 if b == "Y" else 0, force)

    def branch_probabilities(self, qubit: int, basis: str = "Z") -> tuple[float, float]:
        """(p0, p1) for measuring `qubit` in `basis`: both 1/2, or one of them 1."""
        b, anti = self._qubit_rows(qubit, basis)
        if anti[self.n:].any():
            return 0.5, 0.5
        one = self._product_sign(anti[:self.n], 1 if b == "Y" else 0)
        return (0.0, 1.0) if one else (1.0, 0.0)

    def _qubit_rows(self, qubit: int, basis: str) -> tuple[str, np.ndarray]:
        """The checked basis, and which rows anticommute with it on `qubit`."""
        b = _check_basis(basis)
        _check_targets(self.n, (qubit,))
        return b, self.x[:, qubit] if b == "Z" else self.x[:, qubit] ^ self.z[:, qubit]

    def measure_pauli(self, pauli: PauliString,
                      force: Optional[int] = None) -> tuple[int, bool]:
        """Measure a Hermitian Pauli P directly on the rows (Aaronson-Gottesman).

        Returns (outcome, deterministic); outcome 0 is the +1 eigenvalue of P.
        `force` (0 or 1) selects the branch of a random outcome, and a random
        outcome without it raises `RandomOutcomeError`; a forced branch that
        disagrees with a deterministic outcome raises
        `ImpossibleOutcomeError`.  Any other `force` raises `ValueError`.
        All of these are raised before the state is written.
        """
        _check_force(force)
        n = self.n
        anti, sign = self._anticommuting(pauli)
        stab = np.flatnonzero(anti[n:])
        if stab.size == 0:
            return self._deterministic(anti[:n], pauli.phase, force)
        if force is None:
            raise RandomOutcomeError("random measurement needs a forced branch")
        outcome = int(force)
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

    def _deterministic(self, destabilizers: np.ndarray, phase: int,
                       force: Optional[int]) -> tuple[int, bool]:
        """(outcome, True) for a Pauli of explicit-i phase `phase` in the group."""
        outcome = self._product_sign(destabilizers, phase)
        if force is not None and int(force) != outcome:
            raise ImpossibleOutcomeError("forced branch contradicts deterministic outcome")
        return outcome, True

    def _product_sign(self, destabilizers: np.ndarray, phase: int) -> int:
        """Sign bit of +-P = product of the stabilizers paired with the marked destabilizers.

        `phase` is P's explicit-i phase exponent.

        In row order, moving each row's X part left past the Z parts of the
        earlier rows costs (-1)^(sum over a < b of z_a.x_b).
        """
        rows = self.n + np.flatnonzero(destabilizers)
        x, z = self.x[rows], self.z[rows]
        earlier_z = (np.cumsum(z, axis=0, dtype=np.uint8) - z) & 1
        product = int(np.sum(_phase(x, z, self.r[rows]))) + 2 * np.count_nonzero(x & earlier_z)
        return (int(product - phase) & 3) >> 1

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
        return 1 - 2 * self._product_sign(anti[:self.n], pauli.phase)

    def copy(self) -> "StabilizerState":
        st = StabilizerState.__new__(StabilizerState)
        st.n = self.n
        st.x = self.x.copy()
        st.z = self.z.copy()
        st.r = self.r.copy()
        return st


class DenseState:
    """Dense statevector on <= 20 qubits; the brute-force oracle engine.

    Qubit 0 is the most significant bit of the amplitude index, so bitstrings
    read left to right.  Every gate updates `vec` in place: a one-qubit gate
    acts on the two halves `vec.reshape(1 << q, 2, -1)[:, 0]` and `[:, 1]`
    of its qubit, a two-qubit gate on quarter-blocks of its pair.  `vec` is
    always a contiguous complex array of 2^n amplitudes; assigning it copies
    only when the value is not one already.
    """

    # diagonal gates scale the 1-half
    _PHASES = {"Z": -1.0, "S": 1j, "SDG": -1j, "T": np.exp(1j * np.pi / 4)}
    # X, Y: the new 0-half is the first phase times the old 1-half, and the
    # new 1-half the second phase times the old 0-half
    _EXCHANGES = {"X": (1.0, 1.0), "Y": (-1j, 1j)}

    def __init__(self, num_qubits: int):
        if not 1 <= num_qubits <= 20:
            raise ValueError("DenseState supports 1..20 qubits")
        self.n = num_qubits
        self.vec = np.zeros(2**num_qubits, dtype=complex)
        self._vec[0] = 1.0

    @property
    def vec(self) -> np.ndarray:
        return self._vec

    @vec.setter
    def vec(self, value) -> None:
        value = np.ascontiguousarray(value, dtype=complex).reshape(-1)
        if value.size != 1 << self.n:
            raise ValueError(f"{value.size} amplitudes for {self.n} qubits")
        self._vec = value

    def apply_gate(self, gate: str, targets: Sequence[int]) -> "DenseState":
        return self.apply_layer(gate, [targets])

    def apply_layer(self, gate: str, targets: Sequence[Sequence[int]]) -> "DenseState":
        """Apply `gate` to each of the disjoint target tuples in turn."""
        g = gate.upper()
        if g not in _ARITY:
            raise UnsupportedGateError(f"unknown gate {gate!r}")
        _check_layer(self.n, targets, _ARITY[g])
        for t in targets:
            self._apply(g, t)
        return self

    def _apply(self, g: str, targets: Sequence[int]) -> None:
        if g in self._PHASES:
            _, one = self._halves(targets[0])
            one *= self._PHASES[g]
        elif g in self._EXCHANGES:
            to_zero, to_one = self._EXCHANGES[g]
            zero, one = self._halves(targets[0])
            old_zero = zero.copy()
            np.multiply(one, to_zero, out=zero)
            np.multiply(old_zero, to_one, out=one)
        elif g == "H":
            zero, one = self._halves(targets[0])
            total = zero + one
            np.subtract(zero, one, out=one)
            zero[...] = total
            self._vec *= _SQRT1_2
        elif g == "CNOT":
            _exchange(self._quarter(targets, 1, 0), self._quarter(targets, 1, 1))
        elif g == "CZ":
            both = self._quarter(targets, 1, 1)
            both *= -1.0
        else:   # SWAP
            _exchange(self._quarter(targets, 0, 1), self._quarter(targets, 1, 0))

    def _halves(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the amplitudes with qubit q at 0 and at 1."""
        v = self._vec.reshape(1 << q, 2, -1)
        return v[:, 0], v[:, 1]

    def _quarter(self, pair: Sequence[int], bit_a: int, bit_b: int) -> np.ndarray:
        """View of the amplitudes with qubit pair[0] at bit_a and pair[1] at bit_b."""
        a, b = pair
        lo, hi = sorted(pair)
        v = self._vec.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
        return v[:, bit_a, :, bit_b] if a < b else v[:, bit_b, :, bit_a]

    def _branch(self, qubit: int, basis: str, outcome: int) -> tuple[float, np.ndarray]:
        """Probability of a measurement branch and its amplitudes c.

        Z: c is the outcome's half (a view).  Y: (I +- Y)/2 maps the halves
        (a, b) to (c, +-i c)/sqrt(2) with c = (a -+ i b)/sqrt(2), a new array.
        In both cases the branch probability is |c|^2.
        """
        zero, one = self._halves(qubit)
        if basis == "Z":
            c = one if outcome else zero
        else:
            c = one * (1j if outcome else -1j)
            c += zero
            c *= _SQRT1_2
        return float(np.linalg.norm(c) ** 2), c

    def measure(self, qubit: int, basis: str = "Z",
                force: Optional[int] = None) -> tuple[int, bool]:
        """Project `qubit` onto a Z or Y eigenstate; (outcome, deterministic).

        Outcome 0 is the +1 eigenvalue.  A random outcome is taken from
        `force`, and raises `RandomOutcomeError` without it.  A forced branch
        of zero probability raises `ImpossibleOutcomeError`, and a `force`
        other than 0 or 1 `ValueError`, before the state is written.
        """
        b = _check_basis(basis)
        _check_targets(self.n, (qubit,))
        _check_force(force)
        p0, c = self._branch(qubit, b, 0)
        deterministic = p0 < ZERO_PROBABILITY or p0 > 1 - ZERO_PROBABILITY
        if force is not None:
            outcome = int(force)
        elif deterministic:
            outcome = 0 if p0 > 0.5 else 1
        else:
            raise RandomOutcomeError("random measurement needs a forced branch")
        prob = p0
        if outcome:
            prob, c = self._branch(qubit, b, 1)
        if prob < ZERO_PROBABILITY:
            raise ImpossibleOutcomeError("forced branch has zero amplitude")
        zero, one = self._halves(qubit)
        if b == "Z":
            (zero if outcome else one)[...] = 0.0
            c /= np.sqrt(prob)
        else:
            np.multiply(c, _SQRT1_2 / np.sqrt(prob), out=zero)
            np.multiply(zero, -1j if outcome else 1j, out=one)
        return outcome, deterministic

    def branch_probabilities(self, qubit: int, basis: str = "Z") -> tuple[float, float]:
        """(p0, p1) for measuring `qubit` in `basis`."""
        _check_targets(self.n, (qubit,))
        b = _check_basis(basis)
        return self._branch(qubit, b, 0)[0], self._branch(qubit, b, 1)[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self._vec))

    def copy(self) -> "DenseState":
        d = DenseState.__new__(DenseState)
        d.n = self.n
        d.vec = self._vec.copy()
        return d


_SQRT1_2 = 1 / np.sqrt(2)
_ARITY = {g: 2 if g in ("CNOT", "CZ", "SWAP") else 1 for g in CLIFFORD_GATES + ("T",)}


def _check_targets(n: int, targets: Sequence[int], arity: int = 1) -> None:
    """Raise ValueError unless `targets` are `arity` distinct qubits of range(n)."""
    if len(targets) != arity:
        raise ValueError(f"expected {arity} target(s), got {len(targets)}")
    if len(set(targets)) != arity:
        raise ValueError("duplicate targets")
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"target {q} out of range for {n} qubits")


def _check_layer(n: int, targets: Sequence[Sequence[int]], arity: int) -> None:
    """Raise ValueError unless each tuple passes `_check_targets` and no
    qubit appears in two of them."""
    seen: set[int] = set()
    for t in targets:
        _check_targets(n, t, arity)
        seen.update(t)
    if len(seen) != arity * len(targets):
        raise ValueError("targets of one layer overlap")


def _parity(bits: np.ndarray) -> np.ndarray:
    """XOR of each row of a (rows, gates) bit array."""
    return np.bitwise_xor.reduce(bits, axis=1)


def _check_basis(basis: str) -> str:
    b = basis.upper()
    if b not in ("Z", "Y"):
        raise ValueError(f"unsupported measurement basis {basis!r}")
    return b


def _check_force(force: Optional[int]) -> None:
    if force is not None and force not in (0, 1):
        raise ValueError(f"forced outcome must be 0 or 1, not {force!r}")


def _exchange(a: np.ndarray, b: np.ndarray) -> None:
    """Swap the contents of two equal-shaped views."""
    old_a = a.copy()
    a[...] = b
    b[...] = old_a


def _phase(x: np.ndarray, z: np.ndarray, r) -> np.ndarray:
    """Explicit-i phase exponent (mod 4) of AG rows: 2r plus one i per Y site."""
    return (2 * r + np.count_nonzero(x & z, axis=-1)) & 3


def _sign_bit(pauli: PauliString) -> int:
    """Sign bit of a Hermitian Pauli relative to its letterwise I/X/Y/Z form."""
    k = (pauli.phase - int(np.count_nonzero(pauli.x & pauli.z))) % 4
    if k % 2:
        raise ValueError("Pauli is not Hermitian")
    return k >> 1
