"""Identify the logical Clifford a physical circuit induces on encoded patches.

The engine prepares one codespace tableau in which each logical qubit is
maximally entangled with a bare reference qubit, replays the circuit once
(measurements must come out deterministic on the codespace, or a
CodespaceViolationError is raised), and reads the image of each logical
generator G of patch i as the signed logical Pauli P for which P (x) G on
reference i lies in the output stabilizer group.  The signed images name the
logical Clifford together with its Pauli frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .circuits import ScheduledCircuit, run_on_state
from .pauli import PauliString
from .patches import PatchSpec
from .tableau import StabilizerState


class CodespaceViolationError(RuntimeError):
    """A protocol circuit produced a random syndrome on a codespace input."""


@dataclass
class LogicalAction:
    """Signed images of the logical generators, plus the recognized name."""

    name: str                       # e.g. "S", "SDG", "H", "CNOT", "I"
    images: dict[str, tuple[str, int]]   # generator -> (pauli label, sign)
    frame: str = ""                 # human-readable Pauli frame note

    def __str__(self) -> str:
        return self.name


@dataclass
class EncodedStack:
    """One or more patches encoded side by side in a single tableau.

    Qubits from the end of the last patch up to `num_qubits` belong to no
    patch (logical_action keeps its reference qubits there).
    """

    patches: list[PatchSpec]
    offsets: list[int]
    num_qubits: int

    def logical_pauli(self, patch_idx: int, kind: str) -> PauliString:
        """Logical X, Z or Y = i X Z of one patch, on the stack's qubits."""
        if kind == "Y":
            y = self.logical_pauli(patch_idx, "X") * self.logical_pauli(patch_idx, "Z")
            y.phase = (y.phase + 1) % 4
            return y
        patch = self.patches[patch_idx]
        if kind == "X":
            return self._lift(patch.logical_x_pauli(), patch_idx)
        if kind == "Z":
            return self._lift(patch.logical_z_pauli(), patch_idx)
        raise ValueError(f"bad logical Pauli {kind!r}")

    def _lift(self, p: PauliString, patch_idx: int) -> PauliString:
        out = PauliString(self.num_qubits)
        off = self.offsets[patch_idx]
        out.x[off:off + p.n] = p.x
        out.z[off:off + p.n] = p.z
        out.phase = p.phase
        return out

    def all_stabilizers(self) -> list[PauliString]:
        out = []
        for idx, patch in enumerate(self.patches):
            for s in patch.stabilizers:
                out.append(self._lift(patch.stabilizer_pauli(s), idx))
        return out


def encode_stack(patches: Sequence[PatchSpec]) -> EncodedStack:
    offsets = []
    total = 0
    for p in patches:
        offsets.append(total)
        total += p.num_qubits
    return EncodedStack(list(patches), offsets, total)


def _project(stack: EncodedStack, pins: Sequence[PauliString]) -> StabilizerState:
    """Tableau projected onto the +1 eigenspace of every stabilizer, then of each pin."""
    st = StabilizerState(stack.num_qubits)
    for g in stack.all_stabilizers() + list(pins):
        st.measure_pauli(g, force=0)
    return st


def prepare_logical_state(stack: EncodedStack, bases: Sequence[str]) -> StabilizerState:
    """Codespace tableau with each patch pinned to a +1 logical eigenstate.

    `bases[i]` in {"Z", "X", "Y"} selects which logical operator of patch i is
    fixed to +1 (logical |0>, |+>, |+i> respectively).
    """
    return _project(stack, [stack.logical_pauli(i, b) for i, b in enumerate(bases)])


def _run_protocol(circuit: ScheduledCircuit, st: StabilizerState) -> dict[str, int]:
    try:
        return run_on_state(circuit, st, rng=None)
    except ValueError as exc:
        raise CodespaceViolationError(
            "non-deterministic measurement on a codespace input") from exc


def _find_image(st: StabilizerState, stack: EncodedStack,
                ref: Optional[PauliString] = None) -> list[tuple[str, int]]:
    """All signed logical Paulis P with P * ref in the stabilizer group, as (label, sign).

    Labels list one letter per patch, patch 0 first; without `ref` these are
    the logical Paulis that stabilize the state themselves.
    """
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


_ONE_QUBIT_NAMES = {
    (("X", 1), ("Z", 1)): "I",
    (("X", 1), ("Z", -1)): "X",
    (("X", -1), ("Z", -1)): "Y",
    (("X", -1), ("Z", 1)): "Z",
    (("Y", 1), ("Z", 1)): "S",
    (("Y", -1), ("Z", 1)): "SDG",
    (("Y", 1), ("Z", -1)): "X*S",
    (("Y", -1), ("Z", -1)): "X*SDG",
    (("Z", 1), ("X", 1)): "H",
    (("Z", -1), ("X", -1)): "Y*H",
    (("Z", 1), ("X", -1)): "Z*H",
    (("Z", -1), ("X", 1)): "X*H",
}


def logical_action(circuit: ScheduledCircuit,
                   patches: PatchSpec | Sequence[PatchSpec]) -> LogicalAction:
    """Name the logical Clifford the circuit applies to the encoded patches.

    Works for one or two patches.  Raises CodespaceViolationError if the
    circuit does not preserve the codespace, and ValueError if some logical
    image is not a logical operator of the output code.
    """
    if isinstance(patches, PatchSpec):
        patches = [patches]
    stack = encode_stack(patches)
    if stack.num_qubits != circuit.num_qubits:
        raise ValueError("circuit width does not match the encoded stack")
    k = len(patches)
    if k not in (1, 2):
        raise ValueError("logical_action supports one or two patches")

    # reference qubit R_i of patch i follows the stack; each logical qubit
    # starts maximally entangled with its reference (X_i X_Ri = Z_i Z_Ri = +1)
    paired = replace(stack, num_qubits=stack.num_qubits + k)
    gens = ({"X": (0, "X"), "Z": (0, "Z")} if k == 1 else
            {f"{p}{i}": (i, p) for p in "ZX" for i in range(k)})
    on_ref = {g: PauliString.from_label(p, paired.num_qubits, [stack.num_qubits + i])
              for g, (i, p) in gens.items()}
    st = _project(paired, [paired.logical_pauli(i, p) * on_ref[g]
                           for g, (i, p) in gens.items()])
    _run_protocol(circuit, st)
    images = {g: _unique_image(_find_image(st, paired, ref)) for g, ref in on_ref.items()}
    if k == 1:
        name = _ONE_QUBIT_NAMES.get((images["X"], images["Z"]))
        if name is None:
            name = f"X->{_fmt(images['X'])},Z->{_fmt(images['Z'])}"
    else:
        name = _two_qubit_name(images)
    return LogicalAction(name, images, frame=_frame_note(images))


def _unique_image(found: list[tuple[str, int]]) -> tuple[str, int]:
    if len(found) != 1:
        raise ValueError(f"logical image not a unique logical operator: {found}")
    return found[0]


def _two_qubit_name(images: dict[str, tuple[str, int]]) -> str:
    plain = {k: v[0] for k, v in images.items()}
    signs = [v[1] for v in images.values()]
    if plain == {"Z0": "ZI", "Z1": "ZZ", "X0": "XX", "X1": "IX"}:
        return "CNOT" if all(s == 1 for s in signs) else "CNOT+frame"
    if plain == {"Z0": "IZ", "Z1": "ZI", "X0": "IX", "X1": "XI"}:
        return "SWAP" if all(s == 1 for s in signs) else "SWAP+frame"
    if plain == {"Z0": "ZI", "Z1": "IZ", "X0": "XZ", "X1": "ZX"}:
        return "CZ" if all(s == 1 for s in signs) else "CZ+frame"
    if plain == {"Z0": "ZI", "Z1": "IZ", "X0": "XI", "X1": "IX"}:
        return "I" if all(s == 1 for s in signs) else "PAULI"
    return ",".join(f"{k}->{_fmt(v)}" for k, v in sorted(images.items()))


def _fmt(img: tuple[str, int]) -> str:
    return ("+" if img[1] == 1 else "-") + img[0]


def _frame_note(images: dict[str, tuple[str, int]]) -> str:
    flips = [k for k, v in images.items() if v[1] == -1]
    return "" if not flips else "sign flips on " + ",".join(sorted(flips))
