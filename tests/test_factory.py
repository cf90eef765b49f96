"""Factory circuits: logical verification, cultivation, and runtime accounting."""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from loopfold.costs import cnot_time, effective_cycle_time, gate_time, table1
from loopfold.factory import (T_INPUTS, _ccz_state, _t_state, ccz_factory_spec,
                              cultivation_cycles, factory_runtime, output_error,
                              verify_factory)
from loopfold.loopsim import SILICON
from loopfold.tableau import DenseState, ImpossibleOutcomeError
from test_tableau import forced_replay, write_vector

P = SILICON


def measure_count(circuit, basis):
    return sum(1 for e in circuit.events if e.action == "MEASURE" and e.basis == basis)


def test_folded_circuit_structure():
    c = ccz_factory_spec("folded")
    assert c.num_qubits == 8
    assert c.gate_count("CNOT") == 13
    assert measure_count(c, "Z") == 4
    assert c.gate_count("S") == 4
    assert len(c.slots()) == 7
    # the slot coupling the check qubits has exactly four abstractly
    # parallel CNOTs targeting q4..q7
    slot3 = [e for e in c.events if e.slot == 3]
    assert [e.targets for e in slot3] == [(0, 4), (1, 5), (2, 6), (3, 7)]


def test_rotated_circuit_structure():
    c = ccz_factory_spec("rotated")
    assert c.num_qubits == 12
    assert c.gate_count("CNOT") == 17
    assert measure_count(c, "Z") == 4
    assert measure_count(c, "Y") == 4
    assert len(c.slots()) == 8


def test_folded_verification_all_16_branches():
    ver = verify_factory(ccz_factory_spec("folded"))
    assert ver.passed
    assert len(ver.branches) == 16
    assert ver.min_fidelity > 1 - 1e-9


def test_rotated_verification_all_256_branches():
    ver = verify_factory(ccz_factory_spec("rotated"))
    assert ver.passed
    assert len(ver.branches) == 256
    assert ver.min_fidelity > 1 - 1e-9


def test_wrong_resource_states_cannot_distill():
    # |0> inputs fix every Z outcome, so the zero-probability branches drop
    for variant, live_branches in (("folded", 1), ("rotated", 16)):
        ver = verify_factory(ccz_factory_spec(variant), inputs="0")
        assert not ver.passed
        assert any(b.fidelity < 1 - 1e-9 for b in ver.branches)
        assert ver.min_fidelity < 0.5
        assert len(ver.branches) == live_branches


def start_vector(circuit, inputs):
    """The factory's input as a full vector: the n-fold Kronecker product of
    the resource on q0..q7 and |0> on every ancilla."""
    zero = np.array([1.0, 0.0], dtype=complex)
    resource = _t_state() if inputs == "T" else zero
    start = np.array([1.0], dtype=complex)
    for q in range(circuit.num_qubits):
        start = np.kron(start, resource if q < T_INPUTS else zero)
    return start


def ref_verify_factory(circuit, inputs):
    """Reference: one forced replay of the whole circuit per outcome mask.

    A mask whose forced outcome is impossible is dropped; returns the
    (record, fidelity) pair of every other mask.
    """
    keys = [e.key for e in circuit.sorted_events() if e.action == "MEASURE"]
    start = start_vector(circuit, inputs)
    plus = circuit.meta["postselect_plus"]
    pairs = []
    for mask in range(1 << len(keys)):
        st = write_vector(DenseState(circuit.num_qubits), start)
        try:
            record = forced_replay(circuit, st, {k: (mask >> i) & 1 for i, k in enumerate(keys)})
        except ImpossibleOutcomeError:
            continue
        st.apply_gate("H", (plus,))
        try:
            st.measure(plus, force=0)
        except ImpossibleOutcomeError:
            fid = 0.0
        else:
            fid = st.fidelity(circuit.meta["outputs"], _ccz_state())
        pairs.append((record, fid))
    return pairs


@pytest.mark.parametrize("variant, inputs, count", [
    ("folded", "T", 16), ("rotated", "T", 256), ("folded", "0", 1), ("rotated", "0", 16)])
def test_walked_branches_match_the_mask_replay(variant, inputs, count):
    circuit = ccz_factory_spec(variant)
    ver = verify_factory(circuit, inputs=inputs)

    def ordered(pairs):
        return sorted((tuple(sorted(record.items())), fid) for record, fid in pairs)
    assert ordered((b.record, b.fidelity) for b in ver.branches) == \
        ordered(ref_verify_factory(circuit, inputs))
    assert len(ver.branches) == count
    assert abs(ver.probability_sum - 1) < 1e-9
    assert ver.probability_sum == sum(b.probability for b in ver.branches)
    assert ver.passed == (inputs == "T")


@pytest.mark.parametrize("inputs", ["t", "plus", "", "1"])
def test_unknown_resource_inputs_rejected(inputs):
    with pytest.raises(ValueError, match="inputs"):
        verify_factory(ccz_factory_spec("folded"), inputs=inputs)


def test_cultivation_cycles():
    assert cultivation_cycles(25, 8) == 22
    assert cultivation_cycles(25, 12) == 15
    # 8 * 3e4 / (16 * 2 * 676) = 11.09 rounds to 11 under the frozen
    # nearest-cycle rule that reproduces both published counts
    assert cultivation_cycles(25, 16) == 11


def test_cultivation_rejects_a_bad_distance():
    for d in (24, 1, 25.0, True, "25"):
        with pytest.raises(ValueError):
            cultivation_cycles(d, 8)


def test_folded_runtime_216us():
    rep = factory_runtime("folded", P, 25)
    assert abs(rep.runtime_ns - 216000) <= 1000
    assert rep.runtime_ns == F(1724500, 8)  # 215562.5 ns exactly
    assert rep.space == F(1, 2)
    assert rep.cultivation_cycles == 22
    assert rep.spacetime_ns == rep.runtime_ns * rep.space


def test_rotated_runtime_279us():
    rep = factory_runtime("rotated", P, 25)
    assert abs(rep.runtime_ns - 279000) <= 1000
    assert rep.space == 1
    assert rep.cultivation_cycles == 15


def test_spacetime_ratio():
    folded = factory_runtime("folded", P, 25)
    rotated = factory_runtime("rotated", P, 25)
    ratio = rotated.spacetime_ns / folded.spacetime_ns
    assert abs(float(ratio) - 2.6) <= 0.05


def test_output_error_exact():
    assert output_error() == F(28, 10**14)
    assert float(output_error()) == 2.8e-13
    rep = factory_runtime("folded", P, 25)
    assert rep.output_error == F(28, 10**14)


def test_runtime_matches_table_expression_within_1us():
    """The table's factory cell is the counted runtime rounded up, at every d."""
    for d in range(3, 53, 2):
        cells = table1(P, d).cells
        for variant in ("folded", "rotated"):
            exact_ns = factory_runtime(variant, P, d).runtime_ns
            cell_ns = cells[("FACTORY", f"pipelined_{variant}")].runtime_ns
            assert 0 <= cell_ns - exact_ns < 1000, (d, variant)


@pytest.mark.parametrize("variant", ["folded", "rotated"])
@pytest.mark.parametrize("m, meas_ns", [(1, 4000), (2, 2000), (3, 2000), (4, 1000), (6, 1000)])
def test_measurement_rounds_follow_meas_devices(variant, m, meas_ns):
    """The four output Z measurements take ceil(4/m) rounds; no other term moves."""
    params = dataclasses.replace(P, meas_devices=m)
    terms = dict(factory_runtime(variant, params, 25).runtime_terms)
    assert terms.pop("measurements") == meas_ns == -(-4 // m) * params.t_meas
    if variant == "folded":
        t_star = effective_cycle_time(16, params)
        assert terms == {"cultivation": 22 * t_star, "cnots": 13 * cnot_time(16, params),
                         "check_rounds": 7 * t_star,
                         "s_gates": 4 * gate_time("S", "pipelined_folded", 25, params)}
    else:
        t_star = effective_cycle_time(12, params)
        assert terms == {"cultivation": 15 * t_star, "check_rounds": 8 * t_star,
                         "cnots": 17 * cnot_time(12, params),
                         "y_basis_measurements": 2 * (F(25, 2) + 2) * t_star}


@pytest.mark.parametrize("variant", ["folded", "rotated"])
@pytest.mark.parametrize("d", [1, -3, 4, 25.0, True, "25"])
def test_factory_runtime_rejects_a_bad_distance(variant, d):
    with pytest.raises(ValueError, match="odd integer >= 3"):
        factory_runtime(variant, P, d)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        ccz_factory_spec("square")
    with pytest.raises(ValueError):
        factory_runtime("square", P, 25)
