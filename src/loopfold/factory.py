"""The two 8T-to-CCZ factory circuits: logical verification and runtime costs.

The folded-architecture factory uses transversal CNOTs and transversal S
corrections on 8 logical qubits over 7 stabilizer-round slots; the rotated
variant replaces each conditional S with a measurement gadget (CNOT onto a
fresh ancilla, Y measurement, conditional Z), growing to 12 logical qubits
and 8 slots.  verify_factory walks every live measurement branch at the
logical level (one dense qubit per logical qubit) and demands fidelity 1
with |CCZ> on every one; factory_runtime counts its cost terms from the same
circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .circuits import ScheduledCircuit, walk_outcomes
from .costs import NS_PER_US, OPERATING_N, SPACE, ceil_us, gate_cells
from .loopsim import SILICON, TimingParams
from .patches import check_distance
from .tableau import DenseState, ImpossibleOutcomeError
from .verify import FIDELITY_TOL

OMEGA = np.exp(1j * np.pi / 4)

T_INPUTS = 8                      # T states consumed per CCZ, on q0..q7
CULTIVATION_VOLUME = 30000        # expected qubit-rounds per cultivated T state
CULTIVATION_TARGET = Fraction(1, 10**7)   # the tabulated cultivation output error rate
CCZ_ERROR_PREFACTOR = 28          # output error = 28 p_T^2 to leading order

# the four rounds of CNOTs before the check-qubit measurements, both variants
_ENCODING_SLOTS = (
    ((1, 0), (2, 3)),
    ((0, 2), (3, 1)),
    ((1, 0), (2, 3)),
    ((0, 4), (1, 5), (2, 6), (3, 7)),
)


def ccz_factory_spec(variant: str) -> ScheduledCircuit:
    """The 8T-to-CCZ circuit, one stabilizer round per slot.

    folded: 8 qubits, 7 slots, 13 CNOTs, 4 Z measurements, 4 S corrections.
    rotated: 12 qubits, 8 slots, 17 CNOTs, 4 Z and 4 Y measurements.

    Slot 4 measures the check qubits q4..q7 in Z (keys m0..m3); each outcome
    1 triggers an S on q0..q3 (folded) or a CNOT onto a fresh ancilla
    q8..q11 (rotated), whose Y measurement (keys y0..y3) in the next slot
    leaves a Z correction when it reads 0.  meta carries the variant, the
    output qubits and the qubit postselected on |+>.
    """
    if variant not in ("folded", "rotated"):
        raise ValueError(f"unknown factory variant {variant!r}")
    rotated = variant == "rotated"
    circ = ScheduledCircuit(12 if rotated else 8, meta={
        "variant": variant, "outputs": (0, 1, 2), "postselect_plus": 3})
    for slot, pairs in enumerate(_ENCODING_SLOTS):
        for pair in pairs:
            circ.add(slot, "CNOT", pair)
    slot = len(_ENCODING_SLOTS)
    for q in range(4):
        circ.add(slot, "MEASURE", (q + 4,), key=f"m{q}")
    for q in range(4):
        if rotated:
            circ.add(slot, "CNOT", (q, q + 8), condition=f"m{q}")
        else:
            circ.add(slot, "S", (q,), condition=f"m{q}")
    if rotated:
        slot += 1
        for q in range(4):
            circ.add(slot, "MEASURE", (q + 8,), basis="Y", key=f"y{q}")
        for q in range(4):
            circ.add(slot, "Z", (q,), condition=f"m{q}&!y{q}")
    circ.add(slot + 1, "CNOT", (1, 0))
    circ.add(slot + 1, "CNOT", (3, 2))
    circ.add(slot + 2, "CNOT", (3, 1))
    for q in range(3):
        circ.add(slot + 2, "X", (q,))
    return circ


def _measure_count(circuit: ScheduledCircuit, basis: str) -> int:
    return sum(1 for e in circuit.events if e.action == "MEASURE" and e.basis == basis)


# -- logical-level dense verification ----------------------------------------------

def _t_state() -> np.ndarray:
    return np.array([1.0, OMEGA], dtype=complex) / np.sqrt(2)


def _ccz_state() -> np.ndarray:
    v = np.ones(8, dtype=complex)
    v[7] = -1.0
    return v / np.sqrt(8)


@dataclass
class BranchResult:
    record: dict[str, int]
    probability: float
    fidelity: float


@dataclass
class FactoryVerification:
    variant: str
    branches: list[BranchResult]
    min_fidelity: float
    probability_sum: float
    passed: bool


def verify_factory(circuit: ScheduledCircuit, inputs: str = "T") -> FactoryVerification:
    """Walk every live measurement branch and compare the output with |CCZ>.

    One dense qubit per logical qubit; T inputs on q0..q7 (zero ancillae
    beyond), written with `set_amplitudes`.  `walk_outcomes` yields each
    branch of nonzero probability once.  q3 is postselected on <+|, and the
    branch's fidelity is <CCZ|rho|CCZ> for the reduced state rho of
    (q0, q1, q2), read with `DenseState.fidelity`; an output entangled with
    the leftover qubits scores at most its largest Schmidt weight.  The
    check passes when every branch has fidelity 1 and the branch
    probabilities sum to 1, both within FIDELITY_TOL.  Passing `inputs="0"`
    exercises the failure path: computational-basis resources cannot
    distill a CCZ state.  Any other `inputs` raises `ValueError`.
    """
    if inputs not in ("T", "0"):
        raise ValueError(f"inputs must be 'T' or '0', not {inputs!r}")
    n = circuit.num_qubits
    resource = _t_state() if inputs == "T" else np.array([1.0, 0.0], dtype=complex)
    start = DenseState(n).set_amplitudes(np.arange(1 << T_INPUTS) << (n - T_INPUTS),
                                         reduce(np.kron, [resource] * T_INPUTS))
    plus = circuit.meta["postselect_plus"]
    want = _ccz_state()
    branches: list[BranchResult] = []
    for record, prob, st in walk_outcomes(circuit, start):
        st.apply_gate("H", (plus,))
        try:
            st.measure(plus, force=0)
        except ImpossibleOutcomeError:   # the postselection on <+| is impossible
            fid = 0.0
        else:
            fid = st.fidelity(circuit.meta["outputs"], want)
        branches.append(BranchResult(record, prob, fid))
    min_fid = min((b.fidelity for b in branches), default=0.0)
    total = sum(b.probability for b in branches)
    return FactoryVerification(circuit.meta["variant"], branches, min_fid, total,
                               min_fid >= 1 - FIDELITY_TOL and abs(total - 1) <= FIDELITY_TOL)


# -- cultivation and runtime --------------------------------------------------------

def cultivation_cycles(d: int, num_qubits: int) -> int:
    """Code cycles to cultivate the factory's T_INPUTS T states on `num_qubits` patches.

    Uses the expected cultivation spacetime volume of 3e4 qubit-rounds per
    state at the tabulated output error CULTIVATION_TARGET; the quotient is
    rounded to the nearest cycle, which reproduces both published counts
    (22 on 8 qubits, 15 on 12, at d = 25).
    """
    check_distance(d)
    raw = Fraction(T_INPUTS * CULTIVATION_VOLUME, num_qubits * 2 * (d + 1) ** 2)
    return int(raw + Fraction(1, 2))


@dataclass
class FactoryReport:
    variant: str
    d: int
    runtime_ns: Fraction
    runtime_terms: dict[str, Fraction]
    space: Fraction
    cultivation_cycles: int
    output_error: Fraction
    cell: tuple[str, Fraction]    # the overhead table's (expression, runtime ns)

    @property
    def spacetime_ns(self) -> Fraction:
        return self.runtime_ns * self.space

    def to_doc(self) -> dict:
        return {
            "variant": self.variant,
            "d": self.d,
            "runtime_ns": str(self.runtime_ns),
            "runtime_us": float(self.runtime_ns / NS_PER_US),
            "runtime_terms_ns": {k: str(v) for k, v in self.runtime_terms.items()},
            "space_patches": str(self.space),
            "spacetime_ns": str(self.spacetime_ns),
            "cultivation_cycles": self.cultivation_cycles,
            "output_error": float(self.output_error),
        }


def output_error() -> Fraction:
    """28 p_T^2 at the cultivation output error p_T = CULTIVATION_TARGET."""
    return CCZ_ERROR_PREFACTOR * CULTIVATION_TARGET ** 2


def factory_runtime(variant: str, params: TimingParams = SILICON,
                    d: int = 25) -> FactoryReport:
    """Runtime, footprint, and error of one factory run, and its table cell.

    folded: T_cul + #CNOT T_CNOT(16) + #slots T*_cyc(16)
    + ceil(#MZ/m) T_meas + #S T_S, on half a patch footprint.
    rotated: T'_cul + #slots T*_cyc(12) + ceil(#MZ/m) T_meas
    + #CNOT T_CNOT(12) + 2 (0.5 d + 2) T*_cyc(12), on one patch footprint.
    T*_cyc, T_CNOT and T_S are one gate_cells call's cells, and every count
    is read off ccz_factory_spec: the same-loop S gates (or
    Y-basis measurements) are serialized through the single port, and the
    output Z measurements batch into rounds on the m measurement devices.
    Classical decode time is not charged.  The table cell is the runtime rounded
    up to a whole us, written N T*_cyc(n) + M us over the N whole rounds.
    """
    circ = ccz_factory_spec(variant)
    cnots = circ.gate_count("CNOT")
    check_rounds = len(circ.slots())
    rounds = -(-_measure_count(circ, "Z") // params.meas_devices)
    arch = f"pipelined_{variant}"
    n = OPERATING_N[arch]
    cells = gate_cells(arch, d, params)
    t_star, t_cnot = cells["CYCLE"][1], cells["CNOT"][1]
    cul = cultivation_cycles(d, circ.num_qubits)
    if variant == "folded":
        terms = {
            "cultivation": cul * t_star,
            "cnots": cnots * t_cnot,
            "check_rounds": check_rounds * t_star,
            "measurements": rounds * params.t_meas,
            "s_gates": circ.gate_count("S") * cells["S"][1],
        }
    else:
        y_rounds = 2 * (Fraction(d, 2) + 2)   # published; not derived from the Y-measurement count
        terms = {
            "cultivation": cul * t_star,
            "check_rounds": check_rounds * t_star,
            "measurements": rounds * params.t_meas,
            "cnots": cnots * t_cnot,
            "y_basis_measurements": y_rounds * t_star,
        }
    space = SPACE[arch]["FACTORY"]
    runtime = sum(terms.values(), Fraction(0))
    cell_ns = ceil_us(runtime)
    # whole rounds: cultivation, checks, and the Y rounds or one per S (it ends in its round)
    whole = cul + check_rounds + (y_rounds if variant == "rotated" else circ.gate_count("S"))
    whole_expr = f"(d+{whole - d})" if variant == "rotated" else whole
    cell = (f"{whole_expr}*T_cyc*({n})+{(cell_ns - whole * t_star) / NS_PER_US}us", cell_ns)
    return FactoryReport(variant, d, runtime, terms, space, cul, output_error(), cell)
