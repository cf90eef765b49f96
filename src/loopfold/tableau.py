"""Stabilizer-tableau engine and a small dense-statevector oracle.

The tableau follows the Aaronson-Gottesman layout: 2n rows of (x | z) bits
with a sign bit per row, rows 0..n-1 destabilizers, rows n..2n-1 stabilizers.
Any Hermitian Pauli is measured directly on the rows, with the row phases
taken in the explicit-i convention of `PauliString`.  A deterministic
outcome is the sign of the product of the stabilizer rows that the
destabilizers mark, read from those rows packed into Python ints (as Stim
packs rows into words); almost every read marks a handful of rows.
`from_css` writes a CSS codespace state down from the 0/1 support matrices
of its X-type and Z-type generators, with its destabilizers, from one
reduced row-echelon form instead of one measurement per generator.
The dense engine is the independent brute-force reference used to certify
protocol claims on small instances; it supports the non-Clifford T gate.
It stores a state on its support, the basis indices with a nonzero
amplitude, so a codeword of 17 qubits costs its 32 amplitudes, not 2^17:
X, Y, CNOT and SWAP move indices with bit operations, the diagonal gates
scale amplitudes, and H pairs each index with its partner across the
qubit's bit through a map from basis index to support slot (no sort), or,
where no partner is stored, splits each entry in two.  A traced-out check
reads <want|rho|want> on some qubits (`fidelity`) from the same support.
Both engines validate gate and measurement targets through one shared check,
which accepts only integer qubit indices (NumPy integers too, bools not),
and take only an integer qubit count of at least 1.

Gates come in layers: `apply_layer` applies one gate kind to pairwise
disjoint target tuples.  The tableau does a whole layer with one
fancy-indexed update of each column array (a SWAP layer is a plain column
exchange); the dense engine applies the layer's gates one by one, and an
H layer pairs first: the gates commute, and taking first a Hadamard whose
partners are stored keeps the support small (4,096 entries at most inside
the d = 3 transversal H, against 32,768 in circuit order).

`measure` measures a qubit in Z only, as in Aaronson-Gottesman; `circuits`
reaches a Y measurement by conjugating with gates.  Neither engine draws
random numbers.  One `measure` call per outcome is the whole measurement
contract: it projects and returns (outcome, probability of that outcome).  A deterministic outcome is read; a random one is taken from
`force`, and without it `RandomOutcomeError` carries p0, from which
`circuits.run_on_state` samples and on which `circuits.walk_outcomes`
branches.  An outcome below ZERO_PROBABILITY is impossible: forcing it raises
`ImpossibleOutcomeError`.
"""

from __future__ import annotations

import math
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
    """Raised when a measurement with two possible outcomes is not forced;
    `p0` is the probability of outcome 0."""

    def __init__(self, p0: float):
        super().__init__("random measurement needs a forced branch")
        self.p0 = p0


class StabilizerState:
    """n-qubit stabilizer state, initialized to |0...0>."""

    def __init__(self, num_qubits: int):
        _check_num_qubits(num_qubits)
        n = self.n = int(num_qubits)
        self.x = np.eye(2 * n, n, dtype=np.uint8)          # destabilizer X_i
        self.z = np.eye(2 * n, n, k=-n, dtype=np.uint8)    # stabilizer Z_i
        self.r = np.zeros(2 * n, dtype=np.uint8)  # sign bit: 0 -> +, 1 -> -

    @classmethod
    def from_css(cls, num_qubits: int, x_rows, z_rows) -> "StabilizerState":
        """|0...0> projected onto the +1 eigenspace of every generator, written down.

        `x_rows` and `z_rows` are 0/1 matrices with `num_qubits` columns: row
        i of `x_rows` is the support of the i-th +1-signed X-type generator,
        and likewise for `z_rows`.  The X-type ones must be independent, the
        Z-type ones independent and commuting with the X-type ones, and every
        entry 0 or 1, else ValueError.  |0...0> is already a +1 eigenstate of
        the Z-type ones, so they are checked, not applied.  From the reduced
        row-echelon form R_1..R_r of the X-type generators, with pivot qubits
        p_i: each R_i is a stabilizer with destabilizer Z_(p_i), and each other
        qubit q gives the stabilizer Z_q prod_(R_i[q] = 1) Z_(p_i) with
        destabilizer X_q.
        Every sign is +.  This is the state that measuring the generators in
        turn with `measure_pauli(g, force=0)` reaches.
        """
        _check_num_qubits(num_qubits)
        n = int(num_qubits)
        x_rows, z_rows = _zero_one(x_rows), _zero_one(z_rows)
        for rows in (x_rows, z_rows):
            if rows.ndim != 2 or rows.shape[1] != n:
                raise ValueError(f"{rows.shape[-1]}-qubit generator for {n} qubits")
        x_basis = reduced_echelon(pack_rows(x_rows))
        if len(xor_basis((v, 0) for v in pack_rows(z_rows))) < len(z_rows):
            raise ValueError("dependent generators")
        red = unpack_rows(x_basis, n)
        # a Z generator's overlap parities with every R_i: the XOR of R's columns
        # on its support (generators are sparse, so no dense product)
        gen, qubit = np.nonzero(z_rows)
        starts = np.flatnonzero(np.diff(gen, prepend=-1))
        if len(qubit) and np.bitwise_xor.reduceat(red.T[qubit], starts).any():
            raise ValueError("anticommuting generators")

        r = len(x_basis)
        pivots = np.array([n - bits.bit_length() for bits in x_basis], dtype=np.intp)
        is_free = np.ones(n, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
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
        if g == "CZ":
            a, b = cols
            xa, xb = x[:, a], x[:, b]
            self.r ^= _parity(xa & xb & (z[:, a] ^ z[:, b]))
            z[:, a] ^= xb
            z[:, b] ^= xa
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

    def measure(self, qubit: int, force: Optional[int] = None) -> tuple[int, float]:
        """Measure a qubit in the Z basis; see `measure_pauli`.

        The rows that anticommute with Z are those with X on the qubit, found
        with one `nonzero` over its X column: if they are all
        destabilizers the outcome is deterministic and read from the
        stabilizers they mark; only a random one builds the n-qubit Pauli.
        """
        _check_targets(self.n, (qubit,))
        _check_force(force)
        marked = self.x[:, qubit].nonzero()[0]
        if marked.size and marked[-1] >= self.n:
            return self.measure_pauli(PauliString.from_label("Z", self.n, [qubit]), force)
        return self._deterministic(marked, 0, force)

    def measure_pauli(self, pauli: PauliString,
                      force: Optional[int] = None) -> tuple[int, float]:
        """Measure a Hermitian Pauli P directly on the rows (Aaronson-Gottesman).

        Returns (outcome, its probability): 1.0 for a deterministic outcome,
        0.5 for a random one; outcome 0 is the +1 eigenvalue of P.
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
            return self._deterministic(np.flatnonzero(anti[:n]), pauli.phase, force)
        if force is None:
            raise RandomOutcomeError(0.5)
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
        return outcome, 0.5

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

    def _deterministic(self, marked: np.ndarray, phase: int,
                       force: Optional[int]) -> tuple[int, float]:
        """(outcome, 1.0) for a Pauli of explicit-i phase `phase` in the group."""
        outcome = self._product_sign(marked, phase)
        if force is not None and int(force) != outcome:
            raise ImpossibleOutcomeError("forced branch contradicts deterministic outcome")
        return outcome, 1.0

    def _product_sign(self, marked: np.ndarray, phase: int) -> int:
        """Sign bit of +-P = product of the stabilizers paired with the marked
        destabilizers, given by their indices in increasing order.

        `phase` is P's explicit-i phase exponent.  Each marked row is packed
        into one Python int per half.  In row order, moving each row's X part
        left past the Z parts of the earlier rows costs (-1)^(z_<b . x_b),
        with z_<b the XOR of the earlier rows' Z parts.
        """
        rows = self.n + marked
        packed = pack_rows(np.concatenate((self.x.take(rows, 0), self.z.take(rows, 0))))
        total, earlier_z = -phase, 0
        for x, z, r in zip(packed[:len(rows)], packed[len(rows):], self.r[rows].tolist()):
            total += 2 * r + (x & z).bit_count() + 2 * (earlier_z & x).bit_count()
            earlier_z ^= z
        return (total & 3) >> 1

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
        return 1 - 2 * self._product_sign(np.flatnonzero(anti[:self.n]), pauli.phase)

    def copy(self) -> "StabilizerState":
        st = StabilizerState.__new__(StabilizerState)
        st.n = self.n
        st.x = self.x.copy()
        st.z = self.z.copy()
        st.r = self.r.copy()
        return st


class DenseState:
    """Statevector on <= 20 qubits, stored on its support; the oracle engine.

    Qubit 0 is the most significant bit of the basis index, so bitstrings
    read left to right.  The state holds only the basis indices with a
    nonzero amplitude (`_idx`, in no particular order) and those amplitudes
    (`_amp`); no exact zero is stored.  X, Y, CNOT and SWAP move indices by
    bit operations, Z, S, SDG, T and CZ scale the amplitudes whose bits are
    set, H pairs each index i with i ^ bit (`_pairs`) or splits each entry
    when no partner is stored, and a measurement, in Z only, keeps one half.
    The state is written only through `set_amplitudes` and read through
    `amplitudes`, both at given basis indices (`amplitudes(range(2 ** n))`
    is the full vector), or through `fidelity`, the overlap of a pure state
    with the reduced state of some qubits.
    """

    __slots__ = ("n", "_idx", "_amp", "_slots")

    # diagonal gates scale the amplitudes whose bit is set
    _PHASES = {"Z": -1.0, "S": 1j, "SDG": -1j, "T": np.exp(1j * np.pi / 4)}

    def __init__(self, num_qubits: int):
        _check_num_qubits(num_qubits, cap=20)
        self.n = int(num_qubits)
        self._idx = np.zeros(1, dtype=np.intp)
        self._amp = np.ones(1, dtype=complex)
        self._slots = None   # the scratch map of `_find`, made on first use, shared by copies

    def set_amplitudes(self, indices, amplitudes) -> "DenseState":
        """Make the state the sum of amplitudes[k] |indices[k]>, from copies of
        both; the indices must be distinct basis indices and some amplitude
        nonzero, else ValueError."""
        idx = self._basis_indices(indices)
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amp.shape != idx.shape:
            raise ValueError(f"{amp.size} amplitudes for {idx.size} indices")
        if np.count_nonzero(self._find(idx, idx) != np.arange(idx.size)):
            raise ValueError("repeated basis index")
        nonzero = amp != 0
        if not np.count_nonzero(nonzero):
            raise ValueError("the zero vector is not a state")
        self._idx, self._amp = idx[nonzero], amp[nonzero]   # copies
        return self

    def amplitudes(self, indices) -> np.ndarray:
        """The amplitudes at the given basis indices, 0 off the support."""
        return self._at(self._find(self._idx, self._basis_indices(indices)))

    def fidelity(self, qubits: Sequence[int], want) -> float:
        """<want|rho|want> for the reduced state rho of `qubits` (qubits[0]
        the top bit of `want`'s index), from the stored amplitudes as they are.

        The entries, grouped by their bits off `qubits`, fill the m live
        columns of a 2^k x m matrix V (at most 2^n entries), so rho = V V^+
        and the result is |V^+ want|^2.  Column order does not matter: the
        one entry of each group that `_find` maps to itself leads a column.
        """
        _check_targets(self.n, qubits, len(qubits))
        want = np.asarray(want, dtype=complex).reshape(-1)
        if want.size != 1 << len(qubits):
            raise ValueError(f"{want.size} amplitudes for {len(qubits)} qubits")
        idx = rest = self._idx
        row = 0
        for q in qubits:
            bit = self._bit(q)
            row, rest = (row << 1) | ((idx & bit) >> (self.n - 1 - q)), rest & ~bit
        lead = (self._find(rest, rest) == np.arange(idx.size)).nonzero()[0]
        v = np.zeros((want.size, lead.size), dtype=complex)
        v[row, self._find(rest[lead], rest)] = self._amp
        return _probability(want.conj() @ v)

    def _find(self, support: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Where each of `keys` sits in `support` (its position, or -1),
        through a map of all 2^n basis indices and no sort; a key repeated in
        `support` gets the position of one of its copies.  The map reads -1
        between calls; int32 holds any of the 2^20 positions in half the
        memory of intp."""
        if self._slots is None:
            self._slots = np.full(1 << self.n, -1, dtype=np.int32)
        self._slots[support] = np.arange(support.size, dtype=np.int32)
        found = self._slots[keys].astype(np.intp)
        self._slots[support] = -1
        return found

    def _at(self, slots: np.ndarray) -> np.ndarray:
        """The stored amplitudes at `slots`, 0 at a slot of -1 (a fresh array;
        the support is never empty, so -1 indexes a stored entry until zeroed)."""
        amp = self._amp[slots]
        amp[slots < 0] = 0
        return amp

    def _basis_indices(self, indices) -> np.ndarray:
        """`indices` as a flat intp array, after checking that each is an
        integer (a NumPy integer too, not a bool) in range(2^n)."""
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":   # a bool is kind "b"
            raise ValueError(f"basis indices of dtype {idx.dtype} are not integers")
        idx = idx.astype(np.intp, copy=False).reshape(-1)
        if np.count_nonzero(idx >> self.n):   # nonzero for a negative index or one >= 2^n
            raise ValueError(f"basis index out of range for {self.n} qubits")
        return idx

    def apply_gate(self, gate: str, targets: Sequence[int]) -> "DenseState":
        return self.apply_layer(gate, [targets])

    def apply_layer(self, gate: str, targets: Sequence[Sequence[int]]) -> "DenseState":
        """Apply `gate` to each of the disjoint target tuples.

        The gates act on disjoint qubits and commute.  A layer of any gate
        but H runs in the given order; an H layer runs pairs first
        (`_hadamard_layer`), which gives the same state up to rounding.
        """
        g = gate.upper()
        if g not in _ARITY:
            raise UnsupportedGateError(f"unknown gate {gate!r}")
        _check_layer(self.n, targets, _ARITY[g])
        if g == "H":
            self._hadamard_layer([self._bit(q) for (q,) in targets])
            return self
        for t in targets:
            self._apply(g, [self._bit(q) for q in t])
        return self

    def _bit(self, q: int) -> int:
        return 1 << (self.n - 1 - q)

    def _apply(self, g: str, bits: list[int]) -> None:
        idx, amp = self._idx, self._amp
        if g in self._PHASES:
            amp *= np.where(idx & bits[0], self._PHASES[g], 1)
        elif g == "X":
            idx ^= bits[0]
        elif g == "Y":   # Y|0> = i|1>, Y|1> = -i|0>
            amp *= np.where(idx & bits[0], -1j, 1j)
            idx ^= bits[0]
        elif g == "CNOT":
            control, target = bits
            idx ^= np.where(idx & control, target, 0)
        elif g == "CZ":
            both = bits[0] | bits[1]
            amp *= np.where((idx & both) == both, -1.0, 1)
        else:   # SWAP: flip both bits where they differ
            a, b = bits
            idx ^= np.where(((idx & a) == 0) != ((idx & b) == 0), a | b, 0)

    def _hadamard_layer(self, bits: list[int]) -> None:
        """H on the qubit of each of `bits` (a list it empties), pairs first.

        Each round takes the first remaining Hadamard whose partners i ^ bit
        meet the support and hands its `_find` probe to `_hadamard`; only
        when no remaining one has a partner does it take the first, which
        splits every entry.  A bit that is the same on the whole support
        has no partner and is not probed.  On a full support every Hadamard
        is paired, and on |0...0> none is, so both keep the given order.
        """
        # only routines the engine already calls: a NumPy routine's first
        # call pages its code in and raises the process's peak memory
        while bits:
            idx = self._idx
            pick, partner = 0, None
            for k, bit in enumerate(bits):
                if 0 < np.count_nonzero(idx & bit) < idx.size:
                    found = self._find(idx, idx ^ bit)
                    if np.count_nonzero(found < 0) < idx.size:
                        pick, partner = k, found
                        break
            self._hadamard(bits.pop(pick), partner)

    def _hadamard(self, bit: int, partner: Optional[np.ndarray]) -> None:
        """H on the qubit of `bit`, given each entry's partner slot from
        `_find(idx, idx ^ bit)`, or None when no partner is stored.

        Each pair (a0, a1) goes to (a0 + a1, a0 - a1)/sqrt(2), and the
        result's entries that are exactly 0 are not stored.  Without
        partners each entry a|i> splits into a|i & ~bit>/sqrt(2) and
        +-a|i | bit>/sqrt(2), minus where i has the bit, and no pairs are
        built.
        """
        idx, amp = self._idx, self._amp
        if partner is None:   # the |i | bit> half: a, negated where i has the bit (Z's factor)
            amp = np.concatenate((amp, amp * np.where(idx & bit, -1.0, 1)))
            idx = np.concatenate((idx & ~bit, idx | bit))
        else:
            base, a0, a1 = self._pairs(bit, partner)
            idx = np.concatenate((base, base | bit))
            amp = np.concatenate((a0 + a1, np.subtract(a0, a1, out=a1)))   # a1 is a fresh row
            del base, a0, a1   # freed before the result is filtered
        amp *= _SQRT1_2
        if not amp.all():
            keep = amp != 0
            idx, amp = idx[keep], amp[keep]
        self._idx, self._amp = idx, amp

    def _pairs(self, bit: int, partner: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs {i, i | bit} that meet the support, from each entry's
        partner slot: (i, a_i, a_(i|bit)) in fresh arrays, with i's bit clear
        and a missing member's amplitude 0."""
        idx = self._idx
        one = (idx & bit).astype(bool)
        lead = (~one | (partner < 0)).nonzero()[0]   # each pair once: its 0-member if stored
        slots = np.array((lead, partner[lead]))        # slots of the entry and its partner
        flip = one[lead]   # a lone 1-member leads its pair, so its slot goes in the 1 row
        slots[:, flip] = slots[::-1, flip]
        a0, a1 = self._at(slots)
        return idx[lead] & ~bit, a0, a1

    def measure(self, qubit: int, force: Optional[int] = None) -> tuple[int, float]:
        """Project `qubit` onto a Z eigenstate; (outcome, its probability).

        Outcome 0 is the +1 eigenvalue.  A random outcome is taken from
        `force`, and raises `RandomOutcomeError` (carrying p0) without it.  A
        forced branch below ZERO_PROBABILITY raises `ImpossibleOutcomeError`,
        and a `force` other than 0 or 1 `ValueError`, before the state is
        written.
        """
        _check_targets(self.n, (qubit,))
        _check_force(force)
        one = (self._idx & self._bit(qubit)).astype(bool)
        p0 = _probability(self._amp[~one])
        if force is not None:
            outcome = int(force)
        elif p0 < ZERO_PROBABILITY or p0 > 1 - ZERO_PROBABILITY:
            outcome = 0 if p0 > 0.5 else 1
        else:
            raise RandomOutcomeError(p0)
        keep = one if outcome else ~one
        prob = _probability(self._amp[keep]) if outcome else p0
        if prob < ZERO_PROBABILITY:
            raise ImpossibleOutcomeError("forced branch has zero amplitude")
        self._idx, self._amp = self._idx[keep], self._amp[keep] / math.sqrt(prob)
        return outcome, prob

    def copy(self) -> "DenseState":
        d = DenseState.__new__(DenseState)
        d.n = self.n
        d._idx, d._amp = self._idx.copy(), self._amp.copy()
        d._slots = self._slots   # scratch that every use leaves as it found it
        return d


_SQRT1_2 = 1 / np.sqrt(2)
_ARITY = {g: 2 if g in ("CNOT", "CZ", "SWAP") else 1 for g in CLIFFORD_GATES + ("T",)}


def _is_integer(q) -> bool:
    """An int or a NumPy integer, not a bool."""
    return type(q) is int or (not isinstance(q, bool) and isinstance(q, (int, np.integer)))


def _check_num_qubits(num_qubits, cap: Optional[int] = None) -> None:
    """Raise ValueError unless `num_qubits` is an integer >= 1 (and <= `cap`)."""
    if not _is_integer(num_qubits) or num_qubits < 1 or (cap is not None and num_qubits > cap):
        span = f"1..{cap}" if cap is not None else "at least 1"
        raise ValueError(f"the qubit count must be an integer in {span}, not {num_qubits!r}")


def _check_targets(n: int, targets: Sequence[int], arity: int = 1) -> None:
    """Raise ValueError unless `targets` are `arity` distinct qubits of range(n).

    A qubit is an int or a NumPy integer, not a bool."""
    if len(targets) != arity:
        raise ValueError(f"expected {arity} target(s), got {len(targets)}")
    for q in targets:
        if not _is_integer(q):
            raise ValueError(f"target {q!r} is not an integer qubit index")
        if not 0 <= q < n:
            raise ValueError(f"target {q} out of range for {n} qubits")
    if len(set(targets)) != arity:
        raise ValueError("duplicate targets")


def _check_layer(n: int, targets: Sequence[Sequence[int]], arity: int) -> None:
    """Raise ValueError unless each tuple passes `_check_targets` and no
    qubit appears in two of them."""
    seen: set[int] = set()
    for t in targets:
        _check_targets(n, t, arity)
        seen.update(t)
    if len(seen) != arity * len(targets):
        raise ValueError("targets of one layer overlap")


def _zero_one(rows) -> np.ndarray:
    """`rows` as uint8 after checking that every entry is 0 or 1.  A uint8
    array (what `logical._project` passes) is only masked, so that path
    calls no NumPy routine the tableau did not already call: a routine's
    first call pages its code in and raises the process's peak memory."""
    a = np.asarray(rows)
    bad = (a & 0xFE).any() if a.dtype == np.uint8 else np.count_nonzero((a != 0) & (a != 1))
    if bad:
        raise ValueError("generator entries must be 0 or 1")
    return a.astype(np.uint8, copy=False)


def _parity(bits: np.ndarray) -> np.ndarray:
    """XOR of each row of a (rows, gates) bit array."""
    return np.bitwise_xor.reduce(bits, axis=1)


def _check_force(force: Optional[int]) -> None:
    if force is not None and force not in (0, 1):
        raise ValueError(f"forced outcome must be 0 or 1, not {force!r}")


def _probability(c: np.ndarray) -> float:
    """|c|^2 of a branch's unnormalized amplitudes."""
    return float(np.vdot(c, c).real)


def _phase(x: np.ndarray, z: np.ndarray, r) -> np.ndarray:
    """Explicit-i phase exponent (mod 4) of AG rows: 2r plus one i per Y site."""
    return (2 * r + np.count_nonzero(x & z, axis=-1)) & 3


def _sign_bit(pauli: PauliString) -> int:
    """Sign bit of a Hermitian Pauli relative to its letterwise I/X/Y/Z form."""
    k = (pauli.phase - int(np.count_nonzero(pauli.x & pauli.z))) % 4
    if k % 2:
        raise ValueError("Pauli is not Hermitian")
    return k >> 1
