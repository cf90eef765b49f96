"""Transversal protocol circuits and their verified logical actions."""

import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from loopfold.circuits import ScheduledCircuit, _compile, run_on_state
from loopfold.logical import (_ONE_QUBIT_NAMES, CodespaceViolationError, LogicalAction,
                              _fmt, _project, _two_qubit_name, encode_stack,
                              logical_action)
from loopfold.pauli import PauliString, gf2_rank
from loopfold.tableau import StabilizerState
from loopfold.patches import (build_patch, embed_stack, first_half_circuit,
                              midcycle_diagonal, midcycle_fold_pairs,
                              second_half_circuit)
from loopfold.protocols import (canonical_alternation, inverted_alternation,
                                transversal_h_circuit, transversal_s_circuit,
                                transversal_two_qubit)
from loopfold.verify import verify_s_teleport, verify_single_qubit, verify_two_qubit


def prepare_logical_state(stack, bases):
    """Codespace tableau with patch i pinned to the +1 eigenstate of its logical
    `bases[i]` in {"Z", "X", "Y"}: logical |0>, |+> or |+i>."""
    return _project(stack, [stack.logical_pauli(i, b) for i, b in enumerate(bases)])


def all_stabilizers(stack):
    """Every patch's stabilizers as Pauli strings on the stack's qubits."""
    out = []
    for off, patch in zip(stack.offsets, stack.patches):
        for s in patch.stabilizers:
            p = patch.stabilizer_pauli(s)
            lifted = PauliString(stack.num_qubits)
            lifted.x[off:off + p.n], lifted.z[off:off + p.n] = p.x, p.z
            out.append(lifted)
    return out


def ref_project(stack, pins):
    """Reference: the codespace tableau reached by measuring every stabilizer,
    then each pin, at +1 from |0...0>."""
    st = StabilizerState(stack.num_qubits)
    for g in all_stabilizers(stack) + list(pins):
        st.measure_pauli(g, force=0)
    return st


def support(pauli):
    """The qubits on which a Pauli string acts."""
    return [q for q in range(pauli.n) if pauli.x[q] or pauli.z[q]]


@pytest.mark.parametrize("d", [3, 5])
def test_transversal_s_canonical_and_inverted(d):
    p = build_patch(d, "folded")
    assert logical_action(transversal_s_circuit(p), p).name == "S"
    assert logical_action(transversal_s_circuit(p, inverted_alternation(d)), p).name == "SDG"


def test_transversal_s_dense_oracle_d3():
    for r in verify_single_qubit(3, "S"):
        assert r.passed, str(r)


def test_transversal_s_composed_twice_is_logical_z():
    p = build_patch(3, "folded")
    c = transversal_s_circuit(p)
    cc = c.extended(transversal_s_circuit(p), slot_offset=max(c.slots()) + 1)
    act = logical_action(cc, p)
    assert act.name == "Z"
    assert act.images == {"X": ("X", -1), "Z": ("Z", 1)}


def test_alternation_validation():
    p = build_patch(3, "folded")
    with pytest.raises(ValueError):
        transversal_s_circuit(p, ["S", "SDG"])          # wrong length
    with pytest.raises(ValueError):
        transversal_s_circuit(p, ["S", "T", "S"])       # bad gate
    with pytest.raises(ValueError):
        transversal_s_circuit(build_patch(3, "rotated"))


def test_frozen_crease_pattern_regression():
    """One-time d=3 search, frozen: walking the crease, the working patterns
    are exactly the two strict alternations (S on data sites with S-dagger on
    crease ancillas gives logical S; the inverse gives S-dagger), and they
    are the only patterns with no syndrome flips at all."""
    p = build_patch(3, "folded")
    stack = encode_stack([p])
    diag = midcycle_diagonal(p)
    clean = {}
    for pattern in itertools.product(["S", "SDG"], repeat=len(diag)):
        circ = first_half_circuit(p)
        for coord, g in zip(diag, pattern):
            circ.add(4, g, (p.index[coord],))
        for a, b in midcycle_fold_pairs(p):
            circ.add(4, "CZ", (p.index[a], p.index[b]))
        circ = circ.extended(second_half_circuit(p), slot_offset=1)
        flips = 0
        for basis in ("Z", "X"):
            st = prepare_logical_state(stack, [basis])
            rec = run_on_state(circ, st)
            flips += sum(rec.values())
        act = logical_action(circ, p)
        if flips == 0 and act.name in ("S", "SDG"):
            clean[pattern] = act.name
    strict_s = ("S", "SDG", "S", "SDG", "S")
    strict_sdg = ("SDG", "S", "SDG", "S", "SDG")
    assert clean.get(strict_s) == "S"
    assert clean.get(strict_sdg) == "SDG"
    canonical_full = tuple(
        canonical_alternation(3)[c[0] // 2] if c[0] % 2 == 0
        else ("SDG" if canonical_alternation(3)[(c[0] - 1) // 2] == "S" else "S")
        for c in diag)
    assert canonical_full == strict_s


@pytest.mark.parametrize("d", [3, 5])
def test_transversal_h(d):
    p = build_patch(d, "folded")
    act = logical_action(transversal_h_circuit(p), p)
    assert act.name == "H"


def test_transversal_h_dense_oracle_and_involution():
    for r in verify_single_qubit(3, "H"):
        assert r.passed, str(r)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("gate", ["CNOT", "SWAP"])
def test_transversal_two_qubit(d, gate):
    for r in verify_two_qubit(d, gate):
        assert r.passed, str(r)


def test_transversal_cnot_conjugation_images():
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    act = logical_action(transversal_two_qubit(emb, 0, 1, "CNOT", [a, b]), [a, b])
    assert act.images == {"Z0": ("ZI", 1), "Z1": ("ZZ", 1),
                          "X0": ("XX", 1), "X1": ("IX", 1)}


def test_two_qubit_rejects_same_patch():
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    with pytest.raises(ValueError):
        transversal_two_qubit(emb, 1, 1, "CNOT", [a, b])


def test_two_qubit_rejects_patches_that_are_not_the_stack():
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    with pytest.raises(ValueError, match="patches do not match"):
        transversal_two_qubit(emb, 0, 1, "CNOT", [a])           # one patch too few
    big = [build_patch(5, "folded"), build_patch(5, "folded")]
    with pytest.raises(ValueError, match="patches do not match"):
        transversal_two_qubit(emb, 0, 1, "CNOT", big)           # d = 5 on a d = 3 stack
    with pytest.raises(ValueError, match="patches do not match"):
        transversal_two_qubit(emb, 0, 1, "SWAP", [a, build_patch(3, "rotated")])


@pytest.mark.parametrize("d", [3, 5, 7, 9])
def test_transversal_h_twice_is_the_identity_with_its_resets_measured(d):
    """The second run's d^2 - 1 ancilla resets follow the first run's
    measurements, so each is a measured reset; the first run's are no ops."""
    patch = build_patch(d, "folded")
    circ = transversal_h_circuit(patch)
    twice = circ.extended(circ, slot_offset=max(circ.slots()) + 1)
    resets = [op for op in _compile(twice) if op[1] == "MEASURE" and op[2][1] is None]
    assert len(resets) == d * d - 1
    assert logical_action(twice, patch).name == "I"


def test_stack_gate_touches_two_qubits_per_loop_per_pass():
    patches = [build_patch(3, "folded") for _ in range(8)]
    emb = embed_stack(patches)
    circ = transversal_two_qubit(emb, 0, 7, "CNOT", patches)
    # one gate per data site; the per-loop schedule has a top and bottom pass
    per_pass = {0: 0, 1: 0}
    for e in circ.events:
        per_pass[e.slot] += 1
    d = 3
    assert per_pass[0] == d * (d + 1) // 2      # top-layer sites
    assert per_pass[1] == d * (d - 1) // 2      # bottom-layer sites


def test_s_teleport_gadgets():
    for r in verify_s_teleport():
        assert r.passed, str(r)


def test_s_teleport_logical_composition():
    """y_measure at the logical level: transversal CNOT to an encoded |0>,
    logical Y measurement, conditional logical Z gives logical S."""
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    emb = embed_stack([a, b])
    stack = encode_stack([a, b])
    ylog = stack.logical_pauli(1, "X") * stack.logical_pauli(1, "Z")
    ylog.phase = (ylog.phase + 1) % 4
    for basis, want in (("Z", ("ZI", 1)), ("X", ("YI", 1))):
        prepared = prepare_logical_state(stack, [basis, "Z"])
        run_on_state(transversal_two_qubit(emb, 0, 1, "CNOT", [a, b]), prepared)
        for out in (0, 1):   # the logical Y outcome is random: check both branches
            st = prepared.copy()
            assert st.measure_pauli(ylog, force=out) == (out, 0.5)
            if out == 0:
                for q in support(stack.logical_pauli(0, "Z")):
                    st.apply_gate("Z", (q,))
            assert want in ref_find_image(st, stack)


def _then_logical_pauli(circ, patches, idx, kind):
    """The circuit followed, in the next slot, by physical `kind` on the
    support of patch idx's logical `kind`."""
    out = circ.extended(ScheduledCircuit(circ.num_qubits), slot_offset=0)
    slot = max(circ.slots()) + 1
    for q in support(encode_stack(patches).logical_pauli(idx, kind)):
        out.add(slot, kind, (q,))
    return out


@pytest.mark.parametrize("gate,idx,kind,name,images,frame", [
    ("S", 0, "X", "X*SDG", {"X": ("Y", -1), "Z": ("Z", -1)}, "sign flips on X,Z"),
    ("S", 0, "Z", "SDG", {"X": ("Y", -1), "Z": ("Z", 1)}, "sign flips on X"),
    ("H", 0, "X", "X*H", {"X": ("Z", -1), "Z": ("X", 1)}, "sign flips on X"),
    ("H", 0, "Z", "Z*H", {"X": ("Z", 1), "Z": ("X", -1)}, "sign flips on Z"),
    ("CNOT", 1, "X", "CNOT+frame",
     {"Z0": ("ZI", 1), "Z1": ("ZZ", -1), "X0": ("XX", 1), "X1": ("IX", 1)}, "sign flips on Z1"),
    ("CNOT", 0, "Z", "CNOT+frame",
     {"Z0": ("ZI", 1), "Z1": ("ZZ", 1), "X0": ("XX", -1), "X1": ("IX", 1)}, "sign flips on X0"),
    ("SWAP", 1, "X", "SWAP+frame",
     {"Z0": ("IZ", -1), "Z1": ("ZI", 1), "X0": ("IX", 1), "X1": ("XI", 1)}, "sign flips on Z0"),
    ("SWAP", 0, "Z", "SWAP+frame",
     {"Z0": ("IZ", 1), "Z1": ("ZI", 1), "X0": ("IX", 1), "X1": ("XI", -1)}, "sign flips on X1"),
])
def test_pauli_frame_after_protocol(gate, idx, kind, name, images, frame):
    if gate in ("S", "H"):
        p = build_patch(3, "folded")
        patches = [p]
        circ = (transversal_s_circuit if gate == "S" else transversal_h_circuit)(p)
    else:
        patches = [build_patch(3, "folded"), build_patch(3, "folded")]
        circ = transversal_two_qubit(embed_stack(patches), 0, 1, gate, patches)
    act = logical_action(_then_logical_pauli(circ, patches, idx, kind), patches)
    assert act.name == name
    assert act.images == images
    flips = sorted(g for g, (_, sign) in act.images.items() if sign == -1)
    assert frame == "sign flips on " + ",".join(flips)


def test_logical_action_replays_the_circuit_once(monkeypatch):
    replays = []

    def counting_run(circuit, state, *args, **kwargs):
        replays.append(circuit)
        return run_on_state(circuit, state, *args, **kwargs)
    monkeypatch.setattr("loopfold.logical.run_on_state", counting_run)
    p = build_patch(3, "folded")
    assert logical_action(transversal_s_circuit(p), p).name == "S"
    assert len(replays) == 1
    a, b = build_patch(3, "folded"), build_patch(3, "folded")
    act = logical_action(transversal_two_qubit(embed_stack([a, b]), 0, 1, "SWAP", [a, b]), [a, b])
    assert act.name == "SWAP"
    assert len(replays) == 2


def test_protocols_preserve_codespace_and_corrupted_circuit_fails():
    p = build_patch(3, "folded")
    circ = transversal_s_circuit(p)
    # corrupt: an extra H on a data qubit breaks codespace preservation
    bad = transversal_s_circuit(p)
    bad.add(4, "H", (0,))
    with pytest.raises(CodespaceViolationError):
        logical_action(bad, p)
    logical_action(circ, p)   # clean circuit passes


# -- the row-reduced image read-out against the enumeration it replaced ------------

def ref_find_image(st, stack, ref=None):
    """Reference: every signed logical Pauli P with P * ref in the stabilizer group,
    found by trying all 4^k - 1 labels."""
    k = len(stack.patches)
    found = []
    for mask in range(1, 4**k):
        label = "".join("IXZY"[(mask >> 2 * i) & 3] for i in range(k))
        op = PauliString(stack.num_qubits) if ref is None else ref
        for i, letter in enumerate(label):
            if letter != "I":
                op = op * stack.logical_pauli(i, letter)
        sign = st.expectation_sign(op)
        if sign is not None:
            found.append((label, sign))
    return found


def ref_logical_action(circuit, patches):
    """Reference: logical_action with the enumerated read-out, for one or two patches."""
    stack = encode_stack(patches)
    k = len(patches)
    paired = replace(stack, num_qubits=stack.num_qubits + k)
    gens = ({"X": (0, "X"), "Z": (0, "Z")} if k == 1 else
            {f"{p}{i}": (i, p) for p in "ZX" for i in range(k)})
    on_ref = {g: PauliString.from_label(p, paired.num_qubits, [stack.num_qubits + i])
              for g, (i, p) in gens.items()}
    st = ref_project(paired, [paired.logical_pauli(i, p) * on_ref[g]
                              for g, (i, p) in gens.items()])
    run_on_state(circuit, st)
    images = {}
    for g, ref in on_ref.items():
        found = ref_find_image(st, paired, ref)
        if len(found) != 1:
            raise ValueError(f"logical image not a unique logical operator: {found}")
        images[g] = found[0]
    if k == 1:
        name = _ONE_QUBIT_NAMES.get((images["X"], images["Z"]),
                                    f"X->{_fmt(images['X'])},Z->{_fmt(images['Z'])}")
    else:
        name = _two_qubit_name(images)
    return LogicalAction(name, images)


def _protocol_circuits(d):
    """Every protocol circuit on folded patches at distance d, with its patches."""
    p = build_patch(d, "folded")
    pair = [build_patch(d, "folded"), build_patch(d, "folded")]
    s, h = transversal_s_circuit(p), transversal_h_circuit(p)
    cnot = transversal_two_qubit(embed_stack(pair), 0, 1, "CNOT", pair)
    swap = transversal_two_qubit(embed_stack(pair), 0, 1, "SWAP", pair)
    out = [(s, [p]), (transversal_s_circuit(p, inverted_alternation(d)), [p]),
           (_then(s, s), [p]), (h, [p]), (_then(h, h), [p]), (cnot, pair), (swap, pair),
           (_then(swap, swap), pair)]
    for circ, ps in list(out):
        for idx, kind in itertools.product(range(len(ps)), "XZ"):
            out.append((_then_logical_pauli(circ, ps, idx, kind), ps))
    return out


def _then(first, second):
    return first.extended(second, slot_offset=max(first.slots()) + 1)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_logical_action_matches_the_enumerated_read_out(d):
    for circ, ps in _protocol_circuits(d):
        act, want = logical_action(circ, ps), ref_logical_action(circ, ps)
        assert (act.name, act.images) == (want.name, want.images)


@hst.composite
def stray_circuits(draw):
    """A few physical Clifford gates on random qubits of one or two d = 3 patches."""
    k = draw(hst.integers(1, 2))
    ps = [build_patch(3, "folded") for _ in range(k)]
    n = encode_stack(ps).num_qubits
    circ = ScheduledCircuit(n)
    for slot in range(draw(hst.integers(1, 4))):
        gate = draw(hst.sampled_from(["H", "S", "X", "CNOT", "CZ", "SWAP"]))
        arity = 2 if gate in ("CNOT", "CZ", "SWAP") else 1
        circ.add(slot, gate, draw(hst.lists(hst.integers(0, n - 1), min_size=arity,
                                            max_size=arity, unique=True)))
    return circ, ps


@given(stray_circuits())
@settings(max_examples=40, deadline=None)
def test_logical_action_on_stray_gates_matches_the_reference(params):
    """Gates that may leave the code: both read-outs agree, or both raise ValueError."""
    circ, ps = params
    try:
        want = ref_logical_action(circ, ps)
    except ValueError:
        with pytest.raises(ValueError):
            logical_action(circ, ps)
        return
    act = logical_action(circ, ps)
    assert (act.name, act.images) == (want.name, want.images)


@pytest.mark.parametrize("k", [1, 2])
def test_image_outside_the_logical_operators_raises(k):
    ps = [build_patch(3, "folded") for _ in range(k)]
    circ = ScheduledCircuit(encode_stack(ps).num_qubits)
    circ.add(0, "H", (support(ps[0].logical_x_pauli())[0],))
    with pytest.raises(ValueError):
        ref_logical_action(circ, ps)
    with pytest.raises(ValueError, match="not a logical operator"):
        logical_action(circ, ps)


def _stack_images(k, i, j, gate):
    """Signed images of transversal `gate` between patches i and j of k."""
    def letters(*pairs):
        out = ["I"] * k
        for idx, letter in pairs:
            out[idx] = letter
        return "".join(out)

    images = {f"{p}{m}": (letters((m, p)), 1) for p in "XZ" for m in range(k)}
    if gate == "CNOT":
        images[f"X{i}"] = (letters((i, "X"), (j, "X")), 1)
        images[f"Z{j}"] = (letters((i, "Z"), (j, "Z")), 1)
    else:
        for p in "XZ":
            images[f"{p}{i}"], images[f"{p}{j}"] = (letters((j, p)), 1), (letters((i, p)), 1)
    return images


@pytest.mark.parametrize("k, i, j", [(8, 0, 7), (8, 3, 5), (3, 0, 2)])
@pytest.mark.parametrize("gate", ["CNOT", "SWAP"])
def test_transversal_gates_across_a_stack_of_many_patches(k, i, j, gate):
    ps = [build_patch(3, "folded") for _ in range(k)]
    act = logical_action(transversal_two_qubit(embed_stack(ps), i, j, gate, ps), ps)
    want = _stack_images(k, i, j, gate)
    assert act.images == want
    assert all(sign == 1 for _, sign in act.images.values())
    assert act.name == ",".join(f"{g}->+{label}" for g, (label, _) in sorted(want.items()))


def test_eight_patch_cnot_images_pinned():
    ps = [build_patch(3, "folded") for _ in range(8)]
    act = logical_action(transversal_two_qubit(embed_stack(ps), 0, 7, "CNOT", ps), ps)
    assert act.images["Z7"] == ("ZIIIIIIZ", 1)
    assert act.images["X0"] == ("XIIIIIIX", 1)
    assert act.images["Z0"] == ("ZIIIIIII", 1)
    assert act.images["X7"] == ("IIIIIIIX", 1)
    assert act.images["Z3"] == ("IIIZIIII", 1)


# -- the directly built codespace tableau against the measured one ---------------

@hst.composite
def pinned_stacks(draw):
    """k patches of distance d, each folded or rotated, each pinned to its
    logical X or Z; with `paired`, each logical qubit is instead pinned to a
    reference qubit by X_i X_Ri and Z_i Z_Ri, as `logical_action` does."""
    d = draw(hst.sampled_from([3, 5, 7]))
    k = draw(hst.integers(1, 3))
    stack = encode_stack([build_patch(d, draw(hst.sampled_from(["folded", "rotated"])))
                          for _ in range(k)])
    if not draw(hst.booleans()):
        return stack, [stack.logical_pauli(i, draw(hst.sampled_from("XZ"))) for i in range(k)]
    paired = replace(stack, num_qubits=stack.num_qubits + k)
    return paired, [paired.logical_pauli(i, p)
                    * PauliString.from_label(p, paired.num_qubits, [stack.num_qubits + i])
                    for i in range(k) for p in "XZ"]


def _stabilizer_rows(st):
    return np.concatenate([st.x[st.n:], st.z[st.n:]], axis=1)


@given(pinned_stacks())
@settings(max_examples=30, deadline=None)
def test_built_codespace_equals_the_measured_one(params):
    stack, pins = params
    built, measured = _project(stack, pins), ref_project(stack, pins)
    n = stack.num_qubits
    # one stabilizer group: together the two generator sets still have rank n,
    # and each set's generators have sign +1 in the other state
    both = np.concatenate([_stabilizer_rows(built), _stabilizer_rows(measured)])
    assert gf2_rank(both) == n
    assert all(measured.expectation_sign(g) == 1 for g in built.stabilizer_generators())
    assert all(built.expectation_sign(g) == 1 for g in measured.stabilizer_generators())
    # a valid tableau: <D_i, S_j> = delta_ij, and each half commutes within itself
    dx, dz, sx, sz = built.x[:n], built.z[:n], built.x[n:], built.z[n:]
    assert np.array_equal((dx.astype(int) @ sz.T + dz.astype(int) @ sx.T) % 2, np.eye(n))
    assert not ((sx.astype(int) @ sz.T + sz.astype(int) @ sx.T) % 2).any()
    assert not ((dx.astype(int) @ dz.T + dz.astype(int) @ dx.T) % 2).any()
    assert not built.r.any()


def test_built_codespace_rejects_what_is_not_a_css_codespace():
    p = build_patch(3, "folded")
    stack = encode_stack([p])
    n = stack.num_qubits
    minus_z = stack.logical_pauli(0, "Z")
    minus_z.phase = 2
    x_stab = next(g for g in all_stabilizers(stack) if g.x.any())
    for pins, message in [
            ([stack.logical_pauli(0, "Y")], "pure X or Z"),
            ([minus_z], "pure X or Z"),
            ([PauliString(n)], "pure X or Z"),
            ([x_stab], "dependent"),
            ([stack.logical_pauli(0, "Z")] * 2, "dependent"),
            ([stack.logical_pauli(0, "X"), stack.logical_pauli(0, "Z")], "anticommuting")]:
        with pytest.raises(ValueError, match=message):
            _project(stack, pins)
    with pytest.raises(ValueError, match=f"{n + 1}-qubit generator for {n} qubits"):
        _project(stack, [PauliString.from_label("Z", n + 1, [0])])
    rows = np.array([g.z for g in all_stabilizers(stack) if g.z.any()])
    with pytest.raises(ValueError, match=f"{n}-qubit generator for {n + 1} qubits"):
        StabilizerState.from_css(n + 1, np.zeros((0, n + 1)), rows)


def test_the_tableau_path_does_not_import_numpy_ma():
    # np.setdiff1d's np.unique imports numpy.ma, 17 ms and about 0.7 MiB per process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from loopfold.logical import logical_action\n"
            "from loopfold.patches import build_patch\n"
            "from loopfold.protocols import transversal_s_circuit\n"
            "patch = build_patch(3, 'folded')\n"
            "assert logical_action(transversal_s_circuit(patch), patch).name == 'S'\n"
            "assert 'numpy.ma' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
