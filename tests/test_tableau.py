"""Tableau and dense engines: gate agreement, measurement, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopfold.circuits import ScheduledCircuit, _compile, run_on_state, walk_outcomes
from loopfold.pauli import PauliString, gf2_rank
from loopfold.tableau import (_ARITY, CLIFFORD_GATES, ZERO_PROBABILITY, DenseState,
                              ImpossibleOutcomeError, RandomOutcomeError, StabilizerState,
                              UnsupportedGateError, _check_force, _check_layer, _check_targets)

GATES_1Q = ["H", "S", "SDG", "X", "Y", "Z"]
GATES_2Q = ["CNOT", "CZ", "SWAP"]


def apply_pauli_dense(vec: np.ndarray, pauli: PauliString, n: int) -> np.ndarray:
    """P|vec> as a new array, for P = i^phase X^x Z^z (qubit 0 the top index bit).

    (P vec)[j] = i^phase (-1)^popcount(src & zmask) vec[src], src = j ^ xmask.
    """
    place = 1 << np.arange(n - 1, -1, -1)
    xmask, zmask = int(pauli.x @ place), int(pauli.z @ place)
    src = np.arange(1 << n) ^ xmask
    out = vec[src]
    np.negative(out, out=out, where=(np.bitwise_count(src & zmask) & 1).astype(bool))
    out *= 1j ** pauli.phase
    return out


class ref_DenseState:
    """Reference: the full-vector engine that `DenseState` replaced.

    Every gate updates `vec`, all 2^n amplitudes, in place: a one-qubit gate
    acts on the two halves `vec.reshape(1 << q, 2, -1)[:, 0]` and `[:, 1]`
    of its qubit, a two-qubit gate on quarter-blocks of its pair.  It keeps
    its own Y projector, so it checks the circuit layer's Y measurement,
    which the engines see as a basis change around a Z measurement.
    """

    _PHASES = {"Z": -1.0, "S": 1j, "SDG": -1j, "T": np.exp(1j * np.pi / 4)}
    # X, Y: the new 0-half is the first phase times the old 1-half, and the
    # new 1-half the second phase times the old 0-half
    _EXCHANGES = {"X": (1.0, 1.0), "Y": (-1j, 1j)}
    _SQRT1_2 = 1 / np.sqrt(2)

    def __init__(self, num_qubits):
        self.n = num_qubits
        self.vec = np.zeros(2**num_qubits, dtype=complex)
        self.vec[0] = 1.0

    @property
    def vec(self):
        return self._vec

    @vec.setter
    def vec(self, value):
        value = np.ascontiguousarray(value, dtype=complex).reshape(-1)
        assert value.size == 1 << self.n
        self._vec = value

    def apply_gate(self, gate, targets):
        return self.apply_layer(gate, [targets])

    def apply_layer(self, gate, targets):
        g = gate.upper()
        _check_layer(self.n, targets, _ARITY[g])
        for t in targets:
            self._apply(g, t)
        return self

    def _apply(self, g, targets):
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
            self._vec *= self._SQRT1_2
        elif g == "CNOT":
            _exchange(self._quarter(targets, 1, 0), self._quarter(targets, 1, 1))
        elif g == "CZ":
            both = self._quarter(targets, 1, 1)
            both *= -1.0
        else:   # SWAP
            _exchange(self._quarter(targets, 0, 1), self._quarter(targets, 1, 0))

    def _halves(self, q):
        v = self._vec.reshape(1 << q, 2, -1)
        return v[:, 0], v[:, 1]

    def _quarter(self, pair, bit_a, bit_b):
        a, b = pair
        lo, hi = sorted(pair)
        v = self._vec.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, -1)
        return v[:, bit_a, :, bit_b] if a < b else v[:, bit_b, :, bit_a]

    def _branch(self, qubit, basis, outcome):
        """Z: c is the outcome's half (a view).  Y: (I +- Y)/2 maps the halves
        (a, b) to (c, +-i c)/sqrt(2) with c = (a -+ i b)/sqrt(2)."""
        zero, one = self._halves(qubit)
        if basis == "Z":
            c = one if outcome else zero
        else:
            c = one * (1j if outcome else -1j)
            c += zero
            c *= self._SQRT1_2
        return float(np.linalg.norm(c) ** 2), c

    def measure(self, qubit, basis="Z", force=None):
        b = _ref_basis(basis)
        _check_targets(self.n, (qubit,))
        _check_force(force)
        p0, c = self._branch(qubit, b, 0)
        deterministic = p0 < ZERO_PROBABILITY or p0 > 1 - ZERO_PROBABILITY
        if force is not None:
            outcome = int(force)
        elif deterministic:
            outcome = 0 if p0 > 0.5 else 1
        else:
            raise RandomOutcomeError(p0)
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
            np.multiply(c, self._SQRT1_2 / np.sqrt(prob), out=zero)
            np.multiply(zero, -1j if outcome else 1j, out=one)
        return outcome, prob

    def branch_probabilities(self, qubit, basis="Z"):
        b = _ref_basis(basis)
        return self._branch(qubit, b, 0)[0], self._branch(qubit, b, 1)[0]

    def copy(self):
        d = ref_DenseState(self.n)
        d.vec = self._vec.copy()
        return d


def _ref_basis(basis):
    if basis not in ("Z", "Y"):
        raise ValueError(f"unsupported measurement basis {basis!r}")
    return basis


def _exchange(a, b):
    """Swap the contents of two equal-shaped views."""
    old_a = a.copy()
    a[...] = b
    b[...] = old_a


def full_vector(state: DenseState) -> np.ndarray:
    """All 2^n amplitudes of a DenseState, read through `amplitudes`."""
    return state.amplitudes(np.arange(1 << state.n))


def write_vector(state: DenseState, vec) -> DenseState:
    """Make `state` the full vector `vec`: `set_amplitudes` on its nonzero entries."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    assert vec.size == 1 << state.n
    idx = np.flatnonzero(vec)
    return state.set_amplitudes(idx, vec[idx])


def to_dense(tab: StabilizerState) -> np.ndarray:
    """Dense amplitudes of a stabilizer state: a basis state in its support,
    found by measuring a copy (each qubit on its first live outcome),
    projected onto the stabilizer group."""
    probe = tab.copy()
    idx = 0
    for q in range(tab.n):
        try:
            bit, _ = probe.measure(q)
        except RandomOutcomeError:
            bit, _ = probe.measure(q, force=0)
        idx = (idx << 1) | bit
    vec = np.zeros(2**tab.n, dtype=complex)
    vec[idx] = 1.0
    for g in tab.stabilizer_generators():
        vec = 0.5 * (vec + apply_pauli_dense(vec, g, tab.n))
    return vec / np.linalg.norm(vec)


def fidelity(tab: StabilizerState, vec: np.ndarray) -> float:
    """|<tab|vec>|^2, with the global phase quotiented out."""
    return float(np.abs(np.vdot(to_dense(tab), vec)) ** 2)


def measure_circuit(n, q, basis="Z"):
    """One measurement of qubit q, recorded under "m"."""
    circ = ScheduledCircuit(n)
    circ.add(0, "MEASURE", (q,), basis=basis, key="m")
    return circ


def random_circuit(rng, n, depth):
    ops = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.4:
            g = GATES_2Q[rng.integers(len(GATES_2Q))]
            tg = tuple(rng.choice(n, size=2, replace=False).tolist())
        else:
            g = GATES_1Q[rng.integers(len(GATES_1Q))]
            tg = (int(rng.integers(n)),)
        ops.append((g, tg))
    return ops


@st.composite
def circuits(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    depth = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, depth, seed


@given(circuits())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_random_circuits(params):
    n, depth, seed = params
    rng = np.random.default_rng(seed)
    ops = random_circuit(rng, n, depth)
    tab = StabilizerState(n)
    den = DenseState(n)
    for g, tg in ops:
        tab.apply_gate(g, tg)
        den.apply_gate(g, tg)
    assert abs(fidelity(tab, full_vector(den)) - 1) < 1e-9
    assert abs(np.linalg.norm(full_vector(den)) - 1) < 1e-12


def test_engines_agree_including_measurements():
    """A random circuit ending in a Z or Y measurement, walked on both
    engines: the same records, the same probabilities and the same states."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        circ = ScheduledCircuit(n)
        for slot, (g, tg) in enumerate(random_circuit(rng, n, 20)):
            circ.add(slot, g, tg)
        basis = "Y" if rng.random() < 0.3 else "Z"
        circ.add(20, "MEASURE", (int(rng.integers(n)),), basis=basis, key="m")
        tab = sorted(walk_outcomes(circ, StabilizerState(n)), key=lambda leaf: leaf[0]["m"])
        den = sorted(walk_outcomes(circ, DenseState(n)), key=lambda leaf: leaf[0]["m"])
        assert [rec for rec, _, _ in tab] == [rec for rec, _, _ in den]
        for (_, p_tab, t), (_, p_den, v) in zip(tab, den):
            assert abs(p_den - p_tab) < 1e-12
            assert abs(fidelity(t, full_vector(v)) - 1) < 1e-9


def test_twelve_qubit_agreement_spot_check():
    rng = np.random.default_rng(5)
    n = 12
    tab = StabilizerState(n)
    den = DenseState(n)
    for g, tg in random_circuit(rng, n, 60):
        tab.apply_gate(g, tg)
        den.apply_gate(g, tg)
    assert abs(fidelity(tab, full_vector(den)) - 1) < 1e-9


def test_h_involution_and_s_definition():
    st1 = StabilizerState(1)
    st1.apply_gate("H", (0,)).apply_gate("H", (0,))
    out, prob = st1.measure(0)
    assert (out, prob) == (0, 1.0)

    den = DenseState(1)
    den.apply_gate("H", (0,)).apply_gate("S", (0,))
    assert np.allclose(full_vector(den), np.array([1, 1j]) / np.sqrt(2))


def test_cnot_conjugates_x_to_xx():
    tab = StabilizerState(2)
    tab.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1))   # CNOT |+0>
    assert tab.expectation_sign(PauliString.from_label("XX", 2, [0, 1])) == 1


@st.composite
def paulis_after_circuits(draw):
    """A random Clifford circuit and a random signed Hermitian Pauli on 2-6 qubits."""
    n, depth, seed = draw(circuits())
    x = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if not any(x) and not any(z):
        z[0] = 1
    minus = draw(st.integers(0, 1))
    branch = draw(st.integers(0, 1))
    phase = sum(a & b for a, b in zip(x, z)) + 2 * minus   # one i per Y, then the sign
    in_group = draw(st.booleans())    # if set, P is rebuilt from the state's stabilizers
    return n, depth, seed, PauliString(n, x, z, phase), branch, in_group


@given(paulis_after_circuits())
@settings(max_examples=80, deadline=None)
def test_measure_pauli_agrees_with_dense_projector(params):
    n, depth, seed, pauli, branch, in_group = params
    rng = np.random.default_rng(seed)
    tab = StabilizerState(n)
    den = DenseState(n)
    for g, tg in random_circuit(rng, n, depth):
        tab.apply_gate(g, tg)
        den.apply_gate(g, tg)
        if rng.random() < 0.2:   # mid-circuit Z measurements mix the tableau rows
            q = int(rng.integers(n))
            den.measure(q, force=run_on_state(measure_circuit(n, q), tab, rng)["m"])
    if in_group:   # a signed product of the stabilizers picked by pauli.z, never I
        gens = tab.stabilizer_generators()
        picked = [g for g, bit in zip(gens, pauli.z) if bit] or gens[:1]
        # outcome 1 - branch, so forcing `branch` must raise below
        product = PauliString(n, phase=2 * (1 - branch))
        for g in picked:
            product = product * g
        pauli = product
    vec = full_vector(den)
    pv = apply_pauli_dense(vec, pauli, n)
    projected = [(vec + pv) / 2, (vec - pv) / 2]    # (I + P)/2, (I - P)/2
    probs = [float(np.vdot(v, v).real) for v in projected]
    deterministic = min(probs) < 1e-9
    outcome = int(probs[1] > probs[0]) if deterministic else branch
    if deterministic and branch != outcome:
        with pytest.raises(ImpossibleOutcomeError):
            tab.measure_pauli(pauli, force=branch)
    assert tab.measure_pauli(pauli, force=outcome) == (outcome, 1.0 if deterministic else 0.5)
    want = write_vector(DenseState(n), projected[outcome] / np.sqrt(probs[outcome]))
    assert abs(fidelity(tab, full_vector(want)) - 1) < 1e-9


def test_expectation_sign_leaves_the_tableau_unchanged():
    tab = StabilizerState(3)
    tab.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1)).apply_gate("S", (2,))
    before = (tab.x.copy(), tab.z.copy(), tab.r.copy())
    cases = [("XXI", 1), ("YXI", None), ("III", None)]   # deterministic, random, identity
    for label, sign in cases:
        assert tab.expectation_sign(PauliString.from_label(label, 3, [0, 1, 2])) == sign
        assert all(np.array_equal(a, b) for a, b in zip((tab.x, tab.z, tab.r), before))


def test_pauli_of_another_width_rejected_before_the_tableau_changes():
    tab = StabilizerState(3)
    tab.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1))
    before = (tab.x.copy(), tab.z.copy(), tab.r.copy())
    assert tab.expectation_sign(PauliString.from_label("ZZZZ", 4, [0, 1, 2, 3])) is None
    for pauli in (PauliString.from_label("ZZZZ", 4, [0, 1, 2, 3]),
                  PauliString.from_label("X", 2, [0])):   # random outcome
        with pytest.raises(ValueError):
            tab.measure_pauli(pauli, force=1)
    assert all(np.array_equal(a, b) for a, b in zip((tab.x, tab.z, tab.r), before))


def test_t_gate_rejected_on_tableau_supported_on_dense():
    tab = StabilizerState(2)
    with pytest.raises(UnsupportedGateError):
        tab.apply_gate("T", (0,))
    den = DenseState(1)
    den.apply_gate("H", (0,)).apply_gate("T", (0,))
    assert np.allclose(full_vector(den), np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2))


def test_z_measure_of_zero_state_deterministic():
    tab = StabilizerState(3)
    out, prob = tab.measure(1)
    assert (out, prob) == (0, 1.0)


def test_y_measure_of_plus_i_eigenstate():
    circ = ScheduledCircuit(1)
    circ.add(0, "H", (0,))
    circ.add(1, "S", (0,))                  # |i>
    circ.add(2, "MEASURE", (0,), basis="Y", key="y")
    for engine in (StabilizerState, DenseState):
        ((record, prob, leaf),) = walk_outcomes(circ, engine(1))
        assert record == {"y": 0} and abs(prob - 1) < 1e-12
        if engine is DenseState:   # the basis change and its inverse, to rounding
            assert np.allclose(full_vector(leaf), np.array([1, 1j]) / np.sqrt(2), atol=1e-15)
        else:
            assert prob == 1.0
            assert leaf.expectation_sign(PauliString.from_label("Y", 1, [0])) == 1


def test_gate_application_preserves_tableau_rank():
    rng = np.random.default_rng(23)
    n = 6
    tab = StabilizerState(n)
    for g, tg in random_circuit(rng, n, 80):
        tab.apply_gate(g, tg)
        rows = np.concatenate([tab.x, tab.z], axis=1)
        assert gf2_rank(rows) == 2 * n


def test_dense_norm_stays_unit_after_long_circuits():
    rng = np.random.default_rng(7)
    den = DenseState(5)
    for g, tg in random_circuit(rng, 5, 300):
        den.apply_gate(g, tg)
    assert abs(np.linalg.norm(full_vector(den)) - 1) < 1e-12


def test_measure_pauli_bell_pair():
    tab = StabilizerState(2)
    tab.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1))
    assert tab.expectation_sign(PauliString.from_label("XX", 2, [0, 1])) == 1
    assert tab.expectation_sign(PauliString.from_label("ZZ", 2, [0, 1])) == 1
    assert tab.expectation_sign(PauliString.from_label("YY", 2, [0, 1])) == -1
    assert tab.expectation_sign(PauliString.from_label("ZI", 2, [0, 1])) is None


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("a, b", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_conjunctive_condition_on_both_engines(engine, a, b):
    circ = ScheduledCircuit(3)
    circ.add(0, "H", (0,))
    circ.add(0, "H", (1,))
    circ.add(1, "MEASURE", (0,), key="a")
    circ.add(1, "MEASURE", (1,), key="b")
    circ.add(2, "X", (2,), condition="a&!b")
    circ.add(3, "MEASURE", (2,), key="c")
    leaves = {(rec["a"], rec["b"]): (rec, prob) for rec, prob, _ in walk_outcomes(circ, engine(3))}
    assert sorted(leaves) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(abs(prob - 0.25) < 1e-12 for _, prob in leaves.values())
    assert leaves[a, b][0] == {"a": a, "b": b, "c": int(a == 1 and b == 0)}


# the reference's basis change for each measured basis: the gates before and
# after the Z measurement
REF_TO_Z = {"Z": ((), ()), "Y": (("SDG", "H"), ("H", "S"))}


def forced_replay(circuit, state, forced):
    """Reference: replay event by event, each measurement forced to its bit in
    `forced`; returns the record.  A Y measurement is SDG and H, the forced Z
    measurement, then H and S.  A RESET is skipped, so it must precede every
    other event on its qubits.  An impossible forced outcome raises."""
    def holds(condition, record):
        return all(record.get(lit.lstrip("!"), 0) == (0 if lit.startswith("!") else 1)
                   for lit in condition.split("&"))

    record, touched = {}, set()
    for e in circuit.sorted_events():
        if e.action == "RESET":
            assert touched.isdisjoint(e.targets), "a mid-circuit reset has no forced bit"
            continue
        touched.update(e.targets)
        if e.condition is not None and not holds(e.condition, record):
            continue
        if e.action != "MEASURE":
            state.apply_gate(e.action, e.targets)
            continue
        before, after = REF_TO_Z[e.basis]
        for q in e.targets:
            key = e.key if e.key and len(e.targets) == 1 else f"{e.key or 'm'}{q}"
            for g in before:
                state.apply_gate(g, (q,))
            record[key], _ = state.measure(q, force=forced[key])
            for g in after:
                state.apply_gate(g, (q,))
    return record


@st.composite
def branching_circuits(draw):
    """1-4 qubits of H/S/SDG/X/CNOT/CZ with 1-3 Z or Y measurements; any gate
    may be conditioned on a conjunction of earlier measurement keys."""
    n = draw(st.integers(1, 4))
    circ = ScheduledCircuit(n)
    keys: list[str] = []
    gates = ["H", "S", "SDG", "X"] + (["CNOT", "CZ"] if n > 1 else [])

    def add_gates(count):
        for _ in range(count):
            gate = draw(st.sampled_from(gates))
            targets = draw(st.permutations(range(n)))[:2 if gate in ("CNOT", "CZ") else 1]
            condition = None
            if keys and draw(st.booleans()):
                lits = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
                condition = "&".join(("!" if draw(st.booleans()) else "") + k for k in lits)
            circ.add(len(circ.events), gate, targets, condition=condition)

    for m in range(draw(st.integers(1, 3))):
        add_gates(draw(st.integers(0, 5)))
        circ.add(len(circ.events), "MEASURE", (draw(st.integers(0, n - 1)),),
                 basis=draw(st.sampled_from("ZY")), key=f"k{m}")
        keys.append(f"k{m}")
    add_gates(draw(st.integers(0, 3)))
    return circ


@given(branching_circuits())
@settings(max_examples=120, deadline=None)
def test_walker_leaves_agree_across_engines_and_with_forced_replay(circ):
    n = circ.num_qubits
    walks = {}
    for engine in (StabilizerState, DenseState):
        leaves = list(walk_outcomes(circ, engine(n)))
        assert abs(sum(prob for _, prob, _ in leaves) - 1) < 1e-9
        walks[engine] = sorted((tuple(sorted(rec.items())), prob) for rec, prob, _ in leaves)
        for rec, _, leaf in leaves:
            ref = engine(n)
            assert forced_replay(circ, ref, rec) == rec
            assert all(np.array_equal(a, b)
                       for a, b in zip(engine_snapshot(leaf), engine_snapshot(ref)))
    tab, den = walks[StabilizerState], walks[DenseState]
    assert [rec for rec, _ in tab] == [rec for rec, _ in den]
    assert all(abs(p - q) < 1e-9 for (_, p), (_, q) in zip(tab, den))


@given(branching_circuits(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_run_on_state_ends_on_a_live_leaf_of_the_walk(circ, seed):
    """The one sampler follows a path of the outcome tree: its record is a
    leaf that the walker yields, and it leaves that leaf's state."""
    n = circ.num_qubits
    for engine in (StabilizerState, DenseState):
        leaves = {tuple(sorted(rec.items())): leaf
                  for rec, _, leaf in walk_outcomes(circ, engine(n))}
        state = engine(n)
        record = run_on_state(circ, state, np.random.default_rng(seed))
        leaf = leaves[tuple(sorted(record.items()))]
        assert all(np.array_equal(a, b)
                   for a, b in zip(engine_snapshot(state), engine_snapshot(leaf)))


@st.composite
def y_measured_prefixes(draw):
    """A random Clifford prefix on 1-5 qubits, then a Y measurement of one qubit."""
    n = draw(st.integers(1, 5))
    gates = [g for g in CLIFFORD_GATES if _ARITY[g] <= n]
    circ = ScheduledCircuit(n)
    for slot in range(draw(st.integers(0, 12))):
        gate = draw(st.sampled_from(gates))
        circ.add(slot, gate, draw(st.permutations(range(n)))[:_ARITY[gate]])
    q = draw(st.integers(0, n - 1))
    circ.add(len(circ.events), "MEASURE", (q,), basis="Y", key="y")
    return circ, q


@given(y_measured_prefixes())
@settings(max_examples=100, deadline=None)
def test_y_measurement_walks_to_the_projected_states_on_both_engines(params):
    """Each leaf's probability is that of (I +- Y)/2 on the prefix's state; a
    dense leaf is the projected state, and a tableau leaf has the stabilizer
    group that `measure_pauli` of Y gives."""
    circ, q = params
    n = circ.num_qubits
    prefix = ScheduledCircuit(n, [e for e in circ.events if e.action != "MEASURE"])
    tab, den = StabilizerState(n), DenseState(n)
    run_on_state(prefix, tab)
    run_on_state(prefix, den)
    vec = full_vector(den)
    y = single_site(n, q, "Y")
    projected = [(vec + y @ vec) / 2, (vec - y @ vec) / 2]
    probs = [float(np.vdot(v, v).real) for v in projected]
    live = [b for b in (0, 1) if probs[b] >= ZERO_PROBABILITY]
    for rec, prob, leaf in walk_outcomes(circ, DenseState(n)):
        b = rec["y"]
        assert abs(prob - probs[b]) < 1e-12
        assert np.allclose(full_vector(leaf), projected[b] / np.sqrt(probs[b]), atol=1e-12)
    tab_leaves = list(walk_outcomes(circ, StabilizerState(n)))
    assert sorted(rec["y"] for rec, _, _ in tab_leaves) == live
    for rec, prob, leaf in tab_leaves:
        b = rec["y"]
        assert abs(prob - probs[b]) < 1e-12
        want = tab.copy()
        want.measure_pauli(PauliString.from_label("Y", n, [q]), force=b)
        assert all(leaf.expectation_sign(g) == 1 for g in want.stabilizer_generators())


class RecordingTableau(StabilizerState):
    """A tableau that logs each `apply_layer` call as (gate, targets) in `calls`."""

    def __init__(self, num_qubits):
        super().__init__(num_qubits)
        self.calls = []

    def apply_layer(self, gate, targets):
        self.calls.append((gate, [tuple(t) for t in targets]))
        return super().apply_layer(gate, targets)


def test_s_after_a_y_measurement_is_a_layer_of_its_own():
    """The S that ends a Y measurement's basis change and an S on the same
    qubit right after it are two layers, not one with a repeated qubit."""
    circ = ScheduledCircuit(2)
    circ.add(0, "H", (0,))
    circ.add(0, "H", (1,))
    circ.add(1, "MEASURE", (0,), basis="Y", key="y")
    circ.add(2, "S", (0,))
    circ.add(2, "S", (1,))
    for engine in (StabilizerState, DenseState):
        leaves = list(walk_outcomes(circ, engine(2)))
        assert sorted(rec["y"] for rec, _, _ in leaves) == [0, 1]
    tab = RecordingTableau(2)
    run_on_state(circ, tab, np.random.default_rng(0))
    assert tab.calls == [("H", [(0,), (1,)]), ("SDG", [(0,)]), ("H", [(0,)]),
                         ("H", [(0,)]), ("S", [(0,)]), ("S", [(0,), (1,)])]


@given(y_measured_prefixes(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_y_measurement_equals_forcing_its_outcome(params, seed):
    """`run_on_state` with an rng leaves the state that forcing the outcome it
    sampled leaves, bit for bit, on both engines."""
    circ, _ = params
    n = circ.num_qubits
    for engine in (StabilizerState, DenseState):
        sampled = engine(n)
        record = run_on_state(circ, sampled, np.random.default_rng(seed))
        forced = engine(n)
        assert forced_replay(circ, forced, record) == record
        assert all(np.array_equal(a, b)
                   for a, b in zip(engine_snapshot(sampled), engine_snapshot(forced)))


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_unknown_measurement_basis_rejected_before_the_state_changes(engine):
    circ = ScheduledCircuit(2)
    circ.add(0, "H", (0,))
    circ.add(1, "MEASURE", (1,), key="z")
    circ.add(2, "MEASURE", (0,), basis="X", key="x")
    state = engine(2)
    before = engine_snapshot(state)
    with pytest.raises(ValueError, match="basis 'X'"):
        run_on_state(circ, state)
    with pytest.raises(ValueError, match="basis 'X'"):
        next(walk_outcomes(circ, state))
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(state), before))


# -- resets ---------------------------------------------------------------------

@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_reset_after_a_gate_returns_the_qubit_to_zero(engine):
    circ = ScheduledCircuit(1)
    circ.add(0, "X", (0,))
    circ.add(1, "RESET", (0,))
    circ.add(2, "MEASURE", (0,))
    assert run_on_state(circ, engine(1)) == {"m0": 0}
    assert [(rec, prob) for rec, prob, _ in walk_outcomes(circ, engine(1))] == [({"m0": 0}, 1.0)]


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_resetting_half_a_bell_pair_branches_and_leaves_zero(engine):
    """Two leaves, each of probability 1/2, with qubit 1 in |0> and nothing
    recorded; the sampler lands on one of them."""
    circ = ScheduledCircuit(2)
    circ.add(0, "H", (0,))
    circ.add(1, "CNOT", (0, 1))
    circ.add(2, "RESET", (1,))
    leaves = list(walk_outcomes(circ, engine(2)))
    assert len(leaves) == 2
    z1 = PauliString.from_label("Z", 2, [1])
    for rec, prob, leaf in leaves:
        assert rec == {} and abs(prob - 0.5) < 1e-12
        if engine is DenseState:
            assert np.allclose(np.abs(full_vector(leaf)), [1, 0, 0, 0]) or \
                np.allclose(np.abs(full_vector(leaf)), [0, 0, 1, 0])
        else:
            assert leaf.expectation_sign(z1) == 1
    with pytest.raises(RandomOutcomeError):
        run_on_state(circ, engine(2))
    assert run_on_state(circ, engine(2), np.random.default_rng(1)) == {}


def test_leading_resets_are_dropped_and_later_ones_measured():
    """A RESET before any other event on its qubit is no op; a later one is
    an unrecorded measurement."""
    circ = ScheduledCircuit(3)
    circ.add(0, "RESET", (0, 1))
    circ.add(1, "H", (1,))
    circ.add(2, "RESET", (0, 1, 2))
    assert [op[1:] for op in _compile(circ)] == [("H", [(1,)]), ("MEASURE", (1, None))]


@pytest.mark.parametrize("p1, live", [(1e-13, False), (1e-11, True)])
def test_one_zero_probability_threshold(p1, live):
    """An outcome below ZERO_PROBABILITY is impossible to the walker, to the
    sampler and to a forced measurement alike."""
    circ = measure_circuit(1, 0)
    start = write_vector(DenseState(1), [np.sqrt(1 - p1), np.sqrt(p1)])
    assert (ZERO_PROBABILITY <= p1) == live
    assert sorted(rec["m"] for rec, _, _ in walk_outcomes(circ, start.copy())) == \
        ([0, 1] if live else [0])
    if live:
        out, prob = start.copy().measure(0, force=1)
        assert out == 1 and prob == pytest.approx(p1)
        with pytest.raises(RandomOutcomeError) as exc:
            run_on_state(circ, start.copy())
        assert exc.value.p0 == pytest.approx(1 - p1)
    else:
        with pytest.raises(ImpossibleOutcomeError):
            start.copy().measure(0, force=1)
        assert run_on_state(circ, start.copy()) == {"m": 0}


PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def single_site(n, q, letter):
    """The 2^n x 2^n matrix of a one-qubit operator on qubit q (qubit 0 the top bit)."""
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, PAULI_2X2[letter if k == q else "I"])
    return out


@st.composite
def dense_vectors(draw, normalized=False):
    n = draw(st.integers(min_value=1, max_value=6))
    parts = st.floats(min_value=-1, max_value=1, allow_nan=False, allow_infinity=False)
    re = np.array(draw(st.lists(parts, min_size=2**n, max_size=2**n)))
    im = np.array(draw(st.lists(parts, min_size=2**n, max_size=2**n)))
    vec = re + 1j * im
    if normalized:
        if np.linalg.norm(vec) < 1e-3:
            vec[0] = 1.0
        vec /= np.linalg.norm(vec)
    return n, vec


@given(dense_vectors(), st.data())
@settings(max_examples=120, deadline=None)
def test_pauli_kernel_matches_kronecker_product(params, data):
    n, vec = params
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    z = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    phase = data.draw(st.integers(0, 3))
    op = np.eye(1, dtype=complex)
    for xq, zq in zip(x, z):   # qubit 0 first, so it is the most significant bit
        op = np.kron(op, np.linalg.matrix_power(PAULI_2X2["X"], xq)
                     @ np.linalg.matrix_power(PAULI_2X2["Z"], zq))
    want = (1j) ** phase * (op @ vec)
    got = apply_pauli_dense(vec, PauliString(n, x, z, phase), n)
    assert np.allclose(got, want, atol=1e-12)


@given(dense_vectors(normalized=True), st.sampled_from([None, 0, 1]))
@settings(max_examples=80, deadline=None)
def test_dense_measurement_matches_projector(params, eigen):
    """Every qubit against (I +- P)/2: Z on the engine, both forced branches,
    and Y through the circuit layer, every leaf of its walk.

    With `eigen` set, the state is first projected onto that eigenspace of
    the measured Pauli, so the other branch has zero probability.
    """
    n, psi = params
    for q in range(n):
        for basis in ("Z", "Y"):
            pauli = single_site(n, q, basis)
            start = psi
            if eigen is not None:
                start = (psi + (1 - 2 * eigen) * (pauli @ psi)) / 2
                if np.linalg.norm(start) < 1e-6:
                    continue
                start = start / np.linalg.norm(start)
            projected = [(start + pauli @ start) / 2, (start - pauli @ start) / 2]
            probs = [float(np.vdot(v, v).real) for v in projected]
            if basis == "Y":
                circ = measure_circuit(n, q, "Y")
                leaves = list(walk_outcomes(circ, write_vector(DenseState(n), start)))
                assert sorted(rec["m"] for rec, _, _ in leaves) == \
                    [b for b in (0, 1) if probs[b] >= ZERO_PROBABILITY]
                for rec, prob, den in leaves:
                    b = rec["m"]
                    assert abs(prob - probs[b]) < 1e-12
                    assert np.allclose(full_vector(den), projected[b] / np.sqrt(probs[b]),
                                       atol=1e-12)
                    ((again, prob, _),) = walk_outcomes(circ, den)    # now deterministic
                    assert again == rec and abs(prob - 1) < 1e-12
                continue
            for branch in (0, 1):
                den = write_vector(DenseState(n), start)
                if probs[branch] < 1e-12:
                    with pytest.raises(ImpossibleOutcomeError):
                        den.measure(q, force=branch)
                    assert np.array_equal(full_vector(den), start)
                    continue
                out, prob = den.measure(q, force=branch)
                assert out == branch and abs(prob - probs[branch]) < 1e-12
                assert np.allclose(full_vector(den), projected[branch] / np.sqrt(probs[branch]),
                                   atol=1e-12)
                out, prob = den.measure(q)    # now deterministic
                assert out == branch and abs(prob - 1) < 1e-12


@pytest.mark.parametrize("basis, prepare", [("Z", []), ("Y", ["H", "S"])])
def test_failed_forced_measurement_leaves_the_dense_state_unchanged(basis, prepare):
    """An impossible forced outcome raises before the engine writes the state;
    a Y measurement's engine call sees the state its basis change made."""
    den = DenseState(1)
    for g in prepare:   # |0> or |+i>, each the +1 eigenstate of the measured Pauli
        den.apply_gate(g, (0,))
    changed = den.copy()
    for g in REF_TO_Z[basis][0]:
        changed.apply_gate(g, (0,))
    with pytest.raises(ImpossibleOutcomeError):
        forced_replay(measure_circuit(1, 0, basis), den, {"m": 1})
    assert np.array_equal(full_vector(den), full_vector(changed))


def engine_snapshot(state):
    if isinstance(state, DenseState):
        return (full_vector(state),)
    return (state.x.copy(), state.z.copy(), state.r.copy())


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("call", [
    lambda s: s.apply_gate("CNOT", (1, 1)),
    lambda s: s.apply_gate("SWAP", (0, 0)),
    lambda s: s.apply_gate("CZ", (2, 2)),
    lambda s: s.apply_gate("H", (-1,)),
    lambda s: s.measure(3, force=0),
    lambda s: s.measure(-1, force=0),
    lambda s: run_on_state(measure_circuit(3, 3, "Y"), s),
    lambda s: s.apply_gate("CNOT", (0, 1.5)),
    lambda s: s.apply_gate("H", (True,)),
    lambda s: s.apply_layer("X", [(0,), (np.bool_(True),)]),
    lambda s: s.apply_gate("SWAP", (0, "1")),
    lambda s: s.measure(True),
    lambda s: s.measure(1.0),
    lambda s: s.measure(np.float64(2.0), force=0),
], ids=["cnot-1-1", "swap-0-0", "cz-2-2", "h-minus-1", "measure-3", "measure-minus-1",
        "measure-y-3", "cnot-float", "h-bool", "layer-numpy-bool", "swap-str",
        "measure-bool", "measure-float", "measure-numpy-float"])
def test_bad_targets_rejected_before_the_state_changes(engine, call):
    state = engine(3)
    state.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1)).apply_gate("CNOT", (1, 2))
    before = engine_snapshot(state)
    with pytest.raises(ValueError):
        call(state)
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(state), before))


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("prepare", [[], ["H"]], ids=["deterministic", "random"])
@pytest.mark.parametrize("force", [2, -1, 0.5])
def test_forced_outcome_other_than_0_or_1_rejected_before_the_state_changes(
        engine, prepare, force):
    state = engine(2)
    for g in prepare:
        state.apply_gate(g, (0,))
    state.apply_gate("CNOT", (0, 1))
    before = engine_snapshot(state)
    with pytest.raises(ValueError, match="forced outcome"):
        state.measure(0, force=force)
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(state), before))


# -- gate layers ----------------------------------------------------------------

def ref_apply_gate(state, gate, targets):
    """Reference: the per-gate tableau update that gate layers replaced."""
    g = gate.upper()
    _check_targets(state.n, targets, 2 if g in ("CNOT", "CZ", "SWAP") else 1)
    x, z = state.x, state.z
    if g == "H":
        (q,) = targets
        state.r ^= x[:, q] & z[:, q]
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif g == "S":
        (q,) = targets
        state.r ^= x[:, q] & z[:, q]
        z[:, q] ^= x[:, q]
    elif g == "SDG":
        ref_apply_gate(state, "S", targets)
        ref_apply_gate(state, "Z", targets)
    elif g == "X":
        state.r ^= z[:, targets[0]]
    elif g == "Z":
        state.r ^= x[:, targets[0]]
    elif g == "Y":
        state.r ^= x[:, targets[0]] ^ z[:, targets[0]]
    elif g == "CNOT":
        c, t = targets
        state.r ^= x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1)
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif g == "CZ":
        c, t = targets
        ref_apply_gate(state, "H", (t,))
        ref_apply_gate(state, "CNOT", (c, t))
        ref_apply_gate(state, "H", (t,))
    else:   # SWAP
        a, b = targets
        for pair in ((a, b), (b, a), (a, b)):
            ref_apply_gate(state, "CNOT", pair)
    return state


@st.composite
def layered_states(draw):
    """A random stabilizer state (gates and forced single-qubit Z or Y Pauli
    measurements) and random disjoint layers of every Clifford gate."""
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    tab = StabilizerState(n)
    for g, tg in random_circuit(rng, n, draw(st.integers(0, 30))):
        tab.apply_gate(g, tg)
        if rng.random() < 0.25:
            q, basis, bit = int(rng.integers(n)), "ZY"[int(rng.integers(2))], int(rng.integers(2))
            pauli = PauliString.from_label(basis, n, [q])
            try:
                tab.measure_pauli(pauli, force=bit)
            except ImpossibleOutcomeError:
                tab.measure_pauli(pauli, force=1 - bit)
    layers = []
    for _ in range(draw(st.integers(1, 12))):
        gate = draw(st.sampled_from(CLIFFORD_GATES))
        arity = 2 if gate in ("CNOT", "CZ", "SWAP") else 1
        qubits = draw(st.permutations(range(n)))
        count = draw(st.integers(0, n // arity))
        layers.append((gate, [tuple(qubits[arity * i:arity * (i + 1)]) for i in range(count)]))
    return tab, layers


@given(layered_states())
@settings(max_examples=150, deadline=None)
def test_layers_match_the_per_gate_reference(params):
    tab, layers = params
    ref = tab.copy()
    for gate, targets in layers:
        tab.apply_layer(gate, targets)
        for t in targets:
            ref_apply_gate(ref, gate, t)
        assert np.array_equal(tab.x, ref.x)
        assert np.array_equal(tab.z, ref.z)
        assert np.array_equal(tab.r, ref.r)


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("gate, targets", [
    ("CNOT", [(0, 1), (1, 2)]),
    ("H", [(0,), (0,)]),
    ("H", [(0,), (3,)]),
    ("SWAP", [(0, 1), (2, -1)]),
    ("CZ", [(0, 1), (2, 0)]),
    ("S", [(0, 1)]),
], ids=["cnot-overlap", "h-repeat", "h-out-of-range", "swap-negative", "cz-overlap",
        "wrong-arity"])
def test_bad_layer_rejected_before_the_state_changes(engine, gate, targets):
    state = engine(3)
    state.apply_gate("H", (0,)).apply_gate("CNOT", (0, 1)).apply_gate("S", (2,))
    before = engine_snapshot(state)
    with pytest.raises(ValueError):
        state.apply_layer(gate, targets)
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(state), before))


def test_dense_layer_applies_its_gates_in_turn():
    rng = np.random.default_rng(3)
    one, layer = DenseState(4), DenseState(4)
    start = rng.normal(size=16) + 1j * rng.normal(size=16)
    write_vector(one, start)
    write_vector(layer, start)
    for gate, targets in (("H", [(0,), (2,), (3,)]), ("CNOT", [(1, 0), (3, 2)]),
                          ("SWAP", [(0, 3)]), ("SDG", [(1,), (2,)])):
        layer.apply_layer(gate, targets)
        for t in targets:
            one.apply_gate(gate, t)
    assert np.array_equal(full_vector(one), full_vector(layer))


def test_run_on_state_groups_disjoint_runs_into_layers():
    circ = ScheduledCircuit(4)
    circ.add(0, "H", (0,))
    circ.add(0, "RESET", (3,))      # before any event on qubit 3: no op, no split
    circ.add(0, "H", (1,))
    circ.add(0, "H", (0,))          # qubit 0 repeats: a new layer
    circ.add(1, "CNOT", (0, 2))
    circ.add(1, "CNOT", (1, 3))
    circ.add(1, "CNOT", (3, 1), condition="!m0")   # conditioned: on its own
    circ.add(2, "MEASURE", (2,))
    circ.add(2, "X", (2,))

    tab = RecordingTableau(4)
    record = run_on_state(circ, tab, rng=np.random.default_rng(0))
    assert tab.calls == [("H", [(0,), (1,)]), ("H", [(0,)]), ("CNOT", [(0, 2), (1, 3)]),
                     ("CNOT", [(3, 1)]), ("X", [(2,)])]
    ref = StabilizerState(4)
    for g, tg in (("H", (0,)), ("H", (1,)), ("H", (0,)), ("CNOT", (0, 2)), ("CNOT", (1, 3)),
                  ("CNOT", (3, 1))):
        ref_apply_gate(ref, g, tg)
    ref.measure(2, force=record["m2"])
    ref_apply_gate(ref, "X", (2,))
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(tab), engine_snapshot(ref)))


def test_single_qubit_measure_matches_measure_pauli():
    """`measure` is `measure_pauli` of Z on one qubit, row for row."""
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        tab = StabilizerState(n)
        for g, tg in random_circuit(rng, n, 20):
            tab.apply_gate(g, tg)
        q = int(rng.integers(n))
        pauli = PauliString.from_label("Z", n, [q])
        sign = tab.expectation_sign(pauli)
        if sign is not None:     # deterministic: the other branch is impossible
            with pytest.raises(ImpossibleOutcomeError):
                tab.measure(q, force=int(sign == 1))
        force = None if sign is not None else int(rng.integers(2))
        ref = tab.copy()
        assert tab.measure(q, force=force) == ref.measure_pauli(pauli, force=force)
        assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(tab),
                                                           engine_snapshot(ref)))


# -- the support-stored dense engine against the full-vector reference ----------

@st.composite
def dense_programs(draw):
    """1-6 qubits and a random program from |0...0>: disjoint layers of every
    gate, T included; Z measurements, forced to either outcome or left to a
    deterministic one; Y measurements through the circuit layer, continued on
    a drawn live leaf; copies; and probes, which measure a copy."""
    n = draw(st.integers(1, 6))
    gates = [g for g in CLIFFORD_GATES + ("T",) if _ARITY[g] <= n]
    steps = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["layer", "layer", "layer", "measure", "ymeasure",
                                     "copy", "probe"]))
        if kind == "layer":
            gate = draw(st.sampled_from(gates))
            arity = _ARITY[gate]
            qubits = draw(st.permutations(range(n)))
            count = draw(st.integers(1, n // arity))
            steps.append((kind, gate, [tuple(qubits[arity * i:arity * (i + 1)])
                                       for i in range(count)]))
        elif kind == "measure":
            steps.append((kind, draw(st.integers(0, n - 1)), draw(st.sampled_from([None, 0, 1]))))
        elif kind == "ymeasure":
            steps.append((kind, draw(st.integers(0, n - 1)), draw(st.integers(0, 1))))
        elif kind == "probe":
            steps.append((kind, draw(st.integers(0, n - 1))))
        else:
            steps.append((kind,))
    return n, steps


def measured(call):
    """(outcome, its probability), or the type of the error the measurement raised."""
    try:
        return call()
    except ValueError as err:
        return type(err)


def assert_same_measurement(got, want):
    """Equal errors, or equal outcomes with probabilities within 1e-12."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got[0] == want[0] and abs(got[1] - want[1]) < 1e-12
    else:
        assert got is want


def assert_matches_reference(den, ref):
    vec = full_vector(den)
    assert np.abs(vec - ref.vec).max() < 1e-12
    assert den._amp.all(), "an exact zero is stored"
    assert len(set(den._idx.tolist())) == den._idx.size
    assert abs(np.linalg.norm(vec) - np.linalg.norm(ref.vec)) < 1e-12


@given(dense_programs())
@settings(max_examples=200, deadline=None)
def test_support_engine_matches_the_full_vector_reference(program):
    n, steps = program
    den, ref = DenseState(n), ref_DenseState(n)
    frozen = []    # (state, its vector) as a copy left it
    for step in steps:
        kind = step[0]
        if kind == "layer":
            den.apply_layer(*step[1:])
            ref.apply_layer(*step[1:])
        elif kind == "measure":
            q, force = step[1:]
            assert_same_measurement(measured(lambda: den.measure(q, force=force)),
                                    measured(lambda: ref.measure(q, force=force)))
        elif kind == "ymeasure":   # every leaf against the reference's Y projector
            q, bit = step[1:]
            probs = ref.branch_probabilities(q, "Y")
            leaves = {rec["m"]: (prob, leaf)
                      for rec, prob, leaf in walk_outcomes(measure_circuit(n, q, "Y"), den)}
            assert sorted(leaves) == [b for b in (0, 1) if probs[b] >= ZERO_PROBABILITY]
            assert all(abs(prob - probs[b]) < 1e-12 for b, (prob, _) in leaves.items())
            out = bit if bit in leaves else 1 - bit
            den = leaves[out][1]
            ref.measure(q, "Y", force=out)
        elif kind == "probe":   # each outcome forced on a copy, against the reference's p
            q = step[1]
            for branch, p in enumerate(ref.branch_probabilities(q)):
                assert_same_measurement(measured(lambda: den.copy().measure(q, force=branch)),
                                        (branch, p) if p >= ZERO_PROBABILITY
                                        else ImpossibleOutcomeError)
        else:
            frozen.append((den, full_vector(den)))
            den, ref = den.copy(), ref.copy()
        assert_matches_reference(den, ref)
    for state, vec in frozen:    # later steps ran on the copies only
        assert np.array_equal(full_vector(state), vec)


@st.composite
def clifford_programs(draw):
    """1-6 qubits of random Clifford gates and 1-4 keyed Z or Y measurements,
    with the bit to force at each measurement whose outcome is random."""
    n = draw(st.integers(1, 6))
    gates = [g for g in CLIFFORD_GATES if _ARITY[g] <= n]
    circ, bits = ScheduledCircuit(n), {}
    for m in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(0, 8))):
            gate = draw(st.sampled_from(gates))
            circ.add(len(circ.events), gate, draw(st.permutations(range(n)))[:_ARITY[gate]])
        circ.add(len(circ.events), "MEASURE", (draw(st.integers(0, n - 1)),),
                 basis=draw(st.sampled_from("ZY")), key=f"k{m}")
        bits[f"k{m}"] = draw(st.integers(0, 1))
    return circ, bits


@given(clifford_programs())
@settings(max_examples=100, deadline=None)
def test_measure_returns_the_probability_of_its_outcome(program):
    """One measurement call per outcome: the dense engine's probability is the
    full-vector reference's, the tableau's is exactly 1.0 or 0.5, and the
    walker's leaves sum to 1 on both engines.  The engines measure a Y event
    in Z between the reference's basis change; the reference projects onto Y."""
    circ, bits = program
    n = circ.num_qubits
    tab, den, ref = StabilizerState(n), DenseState(n), ref_DenseState(n)
    for e in circ.sorted_events():
        if e.action != "MEASURE":
            for state in (tab, den, ref):
                state.apply_gate(e.action, e.targets)
            continue
        (q,) = e.targets
        before, after = REF_TO_Z[e.basis]
        for g in before:
            tab.apply_gate(g, (q,))
            den.apply_gate(g, (q,))
        try:
            out, p_tab = tab.measure(q)
        except RandomOutcomeError as exc:
            assert exc.p0 == 0.5
            out, p_tab = tab.measure(q, force=bits[e.key])
        want = ref.branch_probabilities(q, e.basis)[out]
        ref.measure(q, e.basis, force=out)
        _, p_den = den.measure(q, force=out)
        for g in after:
            tab.apply_gate(g, (q,))
            den.apply_gate(g, (q,))
        assert type(p_tab) is float and p_tab in (1.0, 0.5)
        assert abs(p_den - want) < 1e-12 and abs(p_den - p_tab) < 1e-12
    assert abs(fidelity(tab, ref.vec) - 1) < 1e-9
    assert np.abs(full_vector(den) - ref.vec).max() < 1e-12
    for engine in (StabilizerState, DenseState):
        assert abs(sum(p for _, p, _ in walk_outcomes(circ, engine(n))) - 1) < 1e-12


def test_dense_state_has_one_read_and_one_write_path():
    den = DenseState(2).apply_gate("H", (0,))
    assert np.allclose(full_vector(den), np.array([1, 0, 1, 0]) / np.sqrt(2))
    assert not hasattr(den, "vec") and not hasattr(den, "norm")
    with pytest.raises(AttributeError):   # slots: a stray attribute is not a silent no-op
        den.vec = np.array([0, 0, 0, 1j])
    assert np.allclose(full_vector(den), np.array([1, 0, 1, 0]) / np.sqrt(2))


def test_amplitudes_are_written_and_read_at_basis_indices():
    indices, amps = np.array([5, 2, 6]), np.array([0.6, 0.0, 0.8j])
    den = DenseState(3).set_amplitudes(indices, amps)
    indices[0], amps[0] = 7, 1.0                      # the state holds copies
    assert den._idx.tolist() == [5, 6]                 # the exact zero is not stored
    assert np.array_equal(den.amplitudes([6, 2, 5, 0]), [0.8j, 0, 0.6, 0])
    want = np.zeros(8, dtype=complex)
    want[5], want[6] = 0.6, 0.8j
    assert np.array_equal(full_vector(den), want)
    for outside in (8, -1):
        with pytest.raises(ValueError, match="out of range"):
            den.amplitudes([outside])
    assert den.copy().measure(0) == (1, pytest.approx(1.0))


@pytest.mark.parametrize("basis", ["Z", "Y"])
def test_copies_measured_alike_stay_independent(basis):
    """The walker's order on a random outcome: an unforced measurement that
    raises, a copy, then the copy and the original measured.  A state and its
    copy walked alike give equal leaves, and later gates on one leaf reach no
    other."""
    den = DenseState(2).apply_gate("H", (0,)).apply_gate("CNOT", (0, 1))
    twin = den.copy()
    circ = measure_circuit(2, 1, basis)
    leaves, twins = list(walk_outcomes(circ, den)), list(walk_outcomes(circ, twin))
    assert len(leaves) == len(twins) == 2
    for (rec, prob, a), (rec2, prob2, b) in zip(leaves, twins):
        assert (rec, prob) == (rec2, prob2) and np.array_equal(full_vector(a), full_vector(b))
    before = [full_vector(leaf) for _, _, leaf in leaves]
    for _, _, leaf in twins:
        leaf.apply_gate("X", (0,)).apply_gate("S", (1,))
    leaves[0][2].apply_gate("H", (1,))
    assert np.array_equal(full_vector(leaves[1][2]), before[1])
    assert np.array_equal(full_vector(leaves[0][2]),
                          full_vector(write_vector(DenseState(2), before[0]).apply_gate("H", (1,))))


@pytest.mark.parametrize("indices, amps", [
    ([1, 1], [0.6, 0.8]),        # a repeated basis index
    ([8], [1.0]),                # out of range for 3 qubits
    ([-1], [1.0]),
    ([0, 1], [1.0]),             # one amplitude per index
    ([0, 1], [0.0, 0.0]),        # the zero vector
    ([1.7], [1.0]),              # a fractional index, once truncated to 1
    ([True], [1.0]),             # a bool, once index 1
], ids=["repeated", "too-large", "negative", "length", "zero-vector", "fractional", "bool"])
def test_bad_amplitudes_rejected_before_the_state_changes(indices, amps):
    den = DenseState(3).apply_gate("H", (1,))
    before = full_vector(den)
    with pytest.raises(ValueError):
        den.set_amplitudes(indices, amps)
    assert np.array_equal(full_vector(den), before)


def test_basis_indices_are_integers():
    """A fractional or bool index is refused on read too (1.2 once read index
    1); integer arrays of any width, NumPy integers and a range are indices."""
    den = DenseState(3).set_amplitudes(range(1, 7, 5), [0.6, 0.8])
    for bad in ([1.2], [True], np.array([1.0]), [1, 2.5], np.array([True, False])):
        with pytest.raises(ValueError, match="not integers"):
            den.amplitudes(bad)
    for good in ([1, 6, 0], np.array([1, 6, 0], dtype=np.uint8),
                 [np.int64(1), np.intp(6), np.int8(0)]):
        assert den.amplitudes(good).tolist() == [0.6, 0.8, 0]
    assert den.amplitudes(range(1, 7, 5)).tolist() == [0.6, 0.8]


def test_dense_state_keeps_its_qubit_cap():
    for n in (0, 21):
        with pytest.raises(ValueError, match="1..20"):
            DenseState(n)
    assert DenseState(20).amplitudes([0, (1 << 20) - 1]).tolist() == [1, 0]


# -- the pairs-first H layer ----------------------------------------------------

@st.composite
def sparse_h_layers(draw):
    """A sparse state on 1-8 qubits and an H layer: a random support with
    random amplitudes (from a drawn seed), a T layer on some qubits, then
    Hadamards on a random ordered set of qubits."""
    n = draw(st.integers(1, 8))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=min(1 << n, 24), unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    t_qubits = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    h_qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, support, seed, t_qubits, h_qubits


@given(sparse_h_layers())
@settings(max_examples=200, deadline=None)
def test_pairs_first_h_layer_matches_the_given_order(case):
    """The layer may apply its Hadamards in any order: it gives the support of
    the gates applied one by one in the given order, amplitudes within 1e-12
    of theirs, and the full-vector reference's state."""
    n, support, seed, t_qubits, h_qubits = case
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    layer, turn, ref = DenseState(n), DenseState(n), ref_DenseState(n)
    for state in (layer, turn):
        state.set_amplitudes(support, amps)
    vec = np.zeros(1 << n, dtype=complex)
    vec[support] = amps
    ref.vec = vec
    for state in (layer, turn, ref):
        state.apply_layer("T", [(q,) for q in t_qubits])
    layer.apply_layer("H", [(q,) for q in h_qubits])
    ref.apply_layer("H", [(q,) for q in h_qubits])
    for q in h_qubits:
        turn.apply_gate("H", (q,))
    assert sorted(layer._idx.tolist()) == sorted(turn._idx.tolist())
    assert np.abs(full_vector(layer) - full_vector(turn)).max() < 1e-12
    assert_matches_reference(layer, ref)


def test_an_h_layer_takes_a_paired_hadamard_first(monkeypatch):
    """(|00> + |01>)/sqrt(2): H on qubit 0 splits every entry, H on qubit 1
    pairs them.  The layer [0, 1] applies qubit 1's first, on the probe that
    found its partners, and never stores more than the two entries it ends
    with; in the given order it would hold four."""
    calls = []
    hadamard = DenseState._hadamard

    def recorded(self, bit, partner):
        hadamard(self, bit, partner)
        calls.append((bit, partner is not None, self._idx.size))

    monkeypatch.setattr(DenseState, "_hadamard", recorded)
    half = np.sqrt(0.5)
    layer = DenseState(2).set_amplitudes([0, 1], [half, half]).apply_layer("H", [(0,), (1,)])
    assert calls == [(0b01, True, 1), (0b10, False, 2)]
    assert np.allclose(full_vector(layer), [half, 0, half, 0])


# -- the traced-out fidelity -----------------------------------------------------

def ref_fidelity(vec, n, qubits, want):
    """Reference: <want|rho|want>, with rho the reduced density matrix of
    `qubits` from the full vector, their axes moved to the front in order."""
    others = [q for q in range(n) if q not in qubits]
    m = np.transpose(vec.reshape([2] * n), list(qubits) + others).reshape(1 << len(qubits), -1)
    rho = m @ m.conj().T
    return float(np.vdot(want, rho @ want).real)


@st.composite
def traced_reads(draw):
    """A sparse normalized state on 1-8 qubits, a random ordered set of qubits
    (ascending or not) and a random normalized target on them, from a seed."""
    n = draw(st.integers(1, 8))
    support = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                            max_size=min(1 << n, 40), unique=True))
    qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return n, support, qubits, draw(st.integers(0, 2**32 - 1))


@given(traced_reads())
@settings(max_examples=200, deadline=None)
def test_fidelity_matches_the_reduced_density_matrix_reference(case):
    n, support, qubits, seed = case
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    want = rng.normal(size=1 << len(qubits)) + 1j * rng.normal(size=1 << len(qubits))
    amps, want = amps / np.linalg.norm(amps), want / np.linalg.norm(want)
    den = DenseState(n).set_amplitudes(support, amps)
    got = den.fidelity(qubits, want)
    assert abs(got - ref_fidelity(full_vector(den), n, qubits, want)) < 1e-12
    assert np.array_equal(den.amplitudes(support), amps)   # a read: the state is unchanged


def test_fidelity_traces_out_the_other_qubits():
    """Half a Bell pair against |0> is 1/2; the pair against itself is 1;
    qubits[0] is the top bit of the target's index."""
    half = np.sqrt(0.5)
    bell = DenseState(2).set_amplitudes([0, 3], [half, half])
    assert bell.fidelity((0,), [1, 0]) == pytest.approx(0.5, abs=1e-15)
    assert bell.fidelity((1,), [0, 1]) == pytest.approx(0.5, abs=1e-15)
    assert bell.fidelity((1, 0), [half, 0, 0, half]) == pytest.approx(1, abs=1e-15)
    one_zero = DenseState(3).set_amplitudes([0b010], [1.0])   # |010>
    assert one_zero.fidelity((1, 2), [0, 0, 1, 0]) == 1.0      # qubit 1 is the top bit
    assert one_zero.fidelity((2, 1), [0, 1, 0, 0]) == 1.0
    assert one_zero.fidelity((2, 1), [0, 0, 1, 0]) == 0.0


@pytest.mark.parametrize("qubits, want", [
    ((3,), [1, 0]), ((-1,), [1, 0]), ((0, 0), [1, 0, 0, 0]), ((0.0,), [1, 0]),
    ((True,), [1, 0]), ((0,), [1, 0, 0, 0]), ((0, 1), [1, 0]),
], ids=["out-of-range", "negative", "duplicate", "float", "bool", "long-target", "short-target"])
def test_bad_fidelity_arguments_rejected(qubits, want):
    den = DenseState(3).apply_gate("H", (1,))
    with pytest.raises(ValueError):
        den.fidelity(qubits, want)


# -- integer targets ------------------------------------------------------------

@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_a_fractional_cnot_target_stops_the_circuit(engine):
    """X 0; CNOT (0, 1.5); MEASURE 1 used to record m1 = 1 on the tableau, as
    if CNOT(0, 1) had run; now both engines refuse the CNOT."""
    circ = ScheduledCircuit(2)
    circ.add(0, "X", (0,))
    circ.add(1, "CNOT", (0, 1.5))
    circ.add(2, "MEASURE", (1,))
    with pytest.raises(ValueError, match="not an integer"):
        run_on_state(circ, engine(2))


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_numpy_integer_targets_are_qubits(engine):
    plain, typed = engine(3), engine(3)
    plain.apply_gate("H", (0,)).apply_gate("CNOT", (0, 2))
    typed.apply_gate("H", (np.int64(0),)).apply_layer("CNOT", [(np.intp(0), np.uint8(2))])
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(typed),
                                                       engine_snapshot(plain)))
    assert typed.measure(np.int32(1)) == plain.measure(1)


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
@pytest.mark.parametrize("count", [2.0, 2.5, np.float64(3.0), True, np.bool_(True), 0, -1,
                                   "2", None])
def test_the_qubit_count_is_an_integer_of_at_least_one(engine, count):
    """Once DenseState(2.0) failed at its first gate, DenseState(True) had one
    qubit, and StabilizerState(2.5) raised NumPy's TypeError."""
    with pytest.raises(ValueError, match="qubit count"):
        engine(count)


@pytest.mark.parametrize("engine", [StabilizerState, DenseState])
def test_a_numpy_integer_qubit_count_is_a_count(engine):
    plain, typed = engine(3), engine(np.int64(3))
    for state in (plain, typed):
        state.apply_gate("H", (0,)).apply_gate("CNOT", (0, 2))
    assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(typed),
                                                       engine_snapshot(plain)))


def test_from_css_checks_its_qubit_count():
    with pytest.raises(ValueError, match="qubit count"):
        StabilizerState.from_css(2.0, np.zeros((0, 2)), np.zeros((0, 2)))


@pytest.mark.parametrize("x_rows, z_rows", [
    ([[0.5, 1]], np.zeros((0, 2))),              # once truncated to +IX
    ([[2, 1]], np.zeros((0, 2))),                # once +XX
    (np.array([[1, 3]], dtype=np.uint8), np.zeros((0, 2))),
    ([[-1, 1]], np.zeros((0, 2))),
    ([[1, 1]], [[1, 256]]),                      # once +ZI, which anticommutes
    ([[1, 1]], [[np.nan, 0]]),
])
def test_from_css_takes_only_0_1_entries(x_rows, z_rows):
    with pytest.raises(ValueError, match="0 or 1"):
        StabilizerState.from_css(2, x_rows, z_rows)


def test_from_css_reads_any_0_1_matrix_alike():
    """Bool, float, int and uint8 0/1 matrices give the same state."""
    states = [StabilizerState.from_css(3, np.array([[1, 1, 0]], dtype=t),
                                       np.array([[1, 1, 0], [0, 0, 1]], dtype=t))
              for t in (bool, float, int, np.uint8)]
    for st_ in states[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(st_),
                                                           engine_snapshot(states[0])))
    assert [str(g) for g in states[0].stabilizer_generators()] == ["+XXI", "+ZZI", "+IIZ"]


# -- the packed product sign against the cumulative-sum formula -----------------

def ref_product_sign(state, destabilizers, phase):
    """Reference: the sign bit of the product of the stabilizers paired with the
    marked destabilizers (a boolean mask), summed over full rows: in row order,
    moving each row's X part left past the Z parts of the earlier rows costs
    (-1)^(sum over a < b of z_a.x_b)."""
    rows = state.n + np.flatnonzero(destabilizers)
    x, z = state.x[rows], state.z[rows]
    earlier_z = (np.cumsum(z, axis=0, dtype=np.uint8) - z) & 1
    row_phases = (2 * state.r[rows] + np.count_nonzero(x & z, axis=-1)) & 3
    product = int(np.sum(row_phases)) + 2 * np.count_nonzero(x & earlier_z)
    return (int(product - phase) & 3) >> 1


def random_layers(state, rng, gates, depth):
    """`depth` layers, each one random gate kind on random disjoint targets."""
    n = state.n
    for _ in range(depth):
        gate = gates[rng.integers(len(gates))]
        arity = _ARITY[gate]
        qubits = rng.permutation(n).tolist()
        count = int(rng.integers(n // arity + 1))
        state.apply_layer(gate, [tuple(qubits[arity * i:arity * (i + 1)]) for i in range(count)])


def assert_measures_like_the_reference(tab, rng):
    """Measure every qubit in random order; a deterministic outcome must be
    the reference sign, a random one is forced.  Returns the marked counts."""
    n, marked = tab.n, []
    for q in rng.permutation(n).tolist():
        destabilizers = tab.x[:n, q].astype(bool)
        if tab.x[n:, q].any():
            tab.measure(q, force=int(rng.integers(2)))
            continue
        want = ref_product_sign(tab, destabilizers, 0)
        assert tab.measure(q) == (want, 1.0)
        marked.append(int(np.count_nonzero(destabilizers)))
    return marked


@given(st.sampled_from([3, 9, 70, 130]), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_product_sign_matches_the_cumulative_sum(n, seed):
    """Sizes that are not multiples of 8, two wider than 64 bits: every
    deterministic `measure` and every `expectation_sign` equals the reference."""
    rng = np.random.default_rng(seed)
    tab = StabilizerState(n)
    random_layers(tab, rng, CLIFFORD_GATES, int(rng.integers(1, 6)))
    assert_measures_like_the_reference(tab, rng)
    # every qubit now has a Z stabilizer; Z-preserving layers mix the rows, so a
    # qubit's Z becomes a product of several of them, all deterministic
    random_layers(tab, rng, ("CNOT", "SWAP", "X", "Z", "S", "SDG", "CZ"), 6)
    assert all(tab.x[n:].sum(axis=0) == 0)
    assert_measures_like_the_reference(tab, rng)

    random_layers(tab, rng, CLIFFORD_GATES, 4)
    stabilizers = tab.stabilizer_generators()
    empty = np.zeros(n, dtype=bool)
    for phase in (0, 2):   # no marked row: the product is the identity
        assert tab._product_sign(np.flatnonzero(empty), phase) == ref_product_sign(tab, empty, phase)
    for size in {1, min(n, 8), n // 2 or 1, n}:
        chosen = np.sort(rng.choice(n, size=size, replace=False))
        product = stabilizers[chosen[0]].copy()
        for i in chosen[1:]:
            product = product * stabilizers[i]
        flip = int(rng.integers(2))
        product.phase = (product.phase + 2 * flip) % 4
        mask = np.zeros(n, dtype=bool)
        mask[chosen] = True
        want = 1 - 2 * ref_product_sign(tab, mask, product.phase)
        assert tab.expectation_sign(product) == want == 1 - 2 * flip
        before = tab.copy()
        assert tab.measure_pauli(product) == (flip, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(engine_snapshot(tab),
                                                           engine_snapshot(before)))
