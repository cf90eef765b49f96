"""Transversal logical-Clifford protocol circuits for folded patches and stacks.

The single-qubit protocols act at the mid-cycle point of a stabilizer round:
after the first two CNOT layers the patch is an unrotated surface code folded
along the crease, where phase/Hadamard gates plus fold-pair two-qubit gates
act transversally.  The remaining two layers fold the patch back.
"""

from __future__ import annotations

from typing import Sequence

from .circuits import ScheduledCircuit
from .logical import encode_stack
from .patches import (
    PatchSpec,
    LoopEmbedding,
    first_half_circuit,
    midcycle_diagonal,
    midcycle_fold_pairs,
    midcycle_active,
    second_half_circuit,
)

# Crease phase assignment discovered by the one-time d=3 dense-oracle search
# (see tests/test_protocols.py): walking along the crease, data sites and
# bulk-ancilla sites strictly alternate, and the working gate assignments are
# exactly the two strict alternations over those 2d-1 sites.  The canonical
# choice starts with S on the corner data qubit, so every data site gets S
# and every crease ancilla SDG; the inverted one swaps the two.


def canonical_alternation(d: int) -> tuple[str, ...]:
    """The frozen length-d crease pattern (gates on the d diagonal data sites)."""
    return ("S",) * d


def inverted_alternation(d: int) -> tuple[str, ...]:
    """The canonical pattern with S and SDG swapped; it gives logical S-dagger."""
    return ("SDG",) * d


def transversal_s_circuit(patch: PatchSpec, alternation: Sequence[str] | None = None) -> ScheduledCircuit:
    """Mid-cycle transversal S on a folded patch.

    `alternation` lists the phase gate applied to each diagonal data qubit,
    in crease order; each crease ancilla receives the inverse of its
    neighboring data gate, continuing the strict geometric alternation.  The
    CZ layer acts on every fold pair of the mid-cycle patch (data pairs and
    bulk-ancilla pairs).
    """
    if patch.kind != "folded":
        raise ValueError("transversal S needs a folded patch")
    d = patch.distance
    if alternation is None:
        alternation = canonical_alternation(d)
    alternation = tuple(g.upper() for g in alternation)
    if len(alternation) != d:
        raise ValueError(f"alternation must have length d={d}")
    for g in alternation:
        if g not in ("S", "SDG"):
            raise ValueError(f"alternation entries must be S or SDG, got {g!r}")

    circ, closing = first_half_circuit(patch), second_half_circuit(patch)
    slot = min(closing.slots())
    inv = {"S": "SDG", "SDG": "S"}
    for coord in midcycle_diagonal(patch):
        q = patch.index[coord]
        if coord[0] % 2 == 0:           # data site (2r, 2r)
            gate = alternation[coord[0] // 2]
        else:                           # crease bulk ancilla (2R+1, 2R+1)
            gate = inv[alternation[(coord[0] - 1) // 2]]
        circ.add(slot, gate, (q,))
    for a, b in midcycle_fold_pairs(patch):
        circ.add(slot, "CZ", (patch.index[a], patch.index[b]))
    return circ.extended(closing, slot_offset=1)


def transversal_h_circuit(patch: PatchSpec) -> ScheduledCircuit:
    """Mid-cycle transversal Hadamard on a folded patch.

    H is applied to every active mid-cycle qubit (data and four-body
    ancillas; the two-body boundary ancillas are skipped), followed by SWAPs
    between fold pairs, then the closing half round.
    """
    if patch.kind != "folded":
        raise ValueError("transversal H needs a folded patch")
    circ, closing = first_half_circuit(patch), second_half_circuit(patch)
    slot = min(closing.slots())
    for coord in midcycle_active(patch):
        circ.add(slot, "H", (patch.index[coord],))
    for a, b in midcycle_fold_pairs(patch):
        circ.add(slot + 1, "SWAP", (patch.index[a], patch.index[b]))
    return circ.extended(closing, slot_offset=2)


def transversal_two_qubit(stack: LoopEmbedding, i: int, j: int, gate: str,
                          patches: Sequence[PatchSpec]) -> ScheduledCircuit:
    """Transversal CNOT or SWAP between patches i and j of a stack.

    Emits one physical gate per data site, pairing matching sites of the two
    patches; for folded patches the per-loop schedule runs in two passes (top
    layers, then bottom layers), which is what the timing model charges for.
    `patches` must match the stack in number, distance and kind.
    """
    gate = gate.upper()
    if gate not in ("CNOT", "SWAP"):
        raise ValueError("transversal stack gates are CNOT or SWAP")
    if i == j:
        raise ValueError("need two distinct patches")
    k = stack.num_patches
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError("patch index out of range")
    if len(patches) != k or any((p.distance, p.kind) != (stack.distance, stack.patch_kind)
                                for p in patches):
        raise ValueError("patches do not match the stack's count, distance and kind")

    encoded = encode_stack(patches)
    circ = ScheduledCircuit(encoded.num_qubits)
    pi, pj = patches[i], patches[j]
    for coord in pi.data_coords:
        _, layer = pi.loop_of(coord)
        qi = encoded.offsets[i] + pi.index[coord]
        qj = encoded.offsets[j] + pj.index[coord]
        circ.add(layer, gate, (qi, qj))
    return circ


def s_teleport_circuit(variant: str) -> ScheduledCircuit:
    """Single-qubit S-gate gadgets.

    y_measure (Fig.-3 style): CNOT onto a |0> ancilla, Y-measure it, apply Z
    to the data on the +1 outcome (the -1 branch already holds S|psi>).
    i_state (teleportation style): CNOT, H on the resource, CNOT;
    deterministically leaves (S|psi>, Z|i>), the Z tracked in the Pauli frame.
    """
    if variant == "y_measure":
        circ = ScheduledCircuit(2)
        circ.add(0, "RESET", (1,))
        circ.add(1, "CNOT", (0, 1))
        circ.add(2, "MEASURE", (1,), basis="Y", key="y")
        circ.add(3, "Z", (0,), condition="!y")
        return circ
    if variant == "i_state":
        circ = ScheduledCircuit(2)
        # resource qubit 1 must be prepared in |i> = S H |0>
        circ.add(0, "H", (1,))
        circ.add(0, "S", (1,))
        circ.add(1, "CNOT", (0, 1))
        circ.add(2, "H", (1,))
        circ.add(3, "CNOT", (0, 1))
        return circ
    raise ValueError(f"unknown variant {variant!r}")
