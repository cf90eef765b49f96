"""Identify the logical Clifford a physical circuit induces on encoded patches.

The engine writes down one codespace tableau in which each logical qubit is
maximally entangled with a bare reference qubit, straight from the code's
generators and the reference pairs (`StabilizerState.from_css`, with no
measurement): the patches' stabilizer supports and the pins become the rows
of one 0/1 matrix in one fancy-indexed write.  Nothing is cached between
calls.  It replays the circuit once (measurements must come out
deterministic on the codespace, or a CodespaceViolationError is raised;
each deterministic outcome is read from a few packed tableau rows), and
reads the image of each logical generator G of patch i as the signed
logical Pauli P for which P (x) G on reference i lies in the output
stabilizer group.  The images come from one GF(2) row reduction on the 2k
reference columns and one sign read-out per generator, so any number k of
patches is cheap.  The signed images name the logical Clifford together with
its Pauli frame.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .circuits import ScheduledCircuit, run_on_state
from .pauli import PauliString, pack_rows, xor_basis, xor_reduce
from .patches import PatchSpec
from .tableau import RandomOutcomeError, StabilizerState


class CodespaceViolationError(RuntimeError):
    """A protocol circuit produced a random syndrome on a codespace input."""


@dataclass
class LogicalAction:
    """Signed images of the logical generators, plus the recognized name."""

    name: str                       # e.g. "S", "SDG", "H", "CNOT", "I"
    images: dict[str, tuple[str, int]]   # generator -> (pauli label, sign)

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


def encode_stack(patches: Sequence[PatchSpec]) -> EncodedStack:
    offsets = []
    total = 0
    for p in patches:
        offsets.append(total)
        total += p.num_qubits
    return EncodedStack(list(patches), offsets, total)


def _project(stack: EncodedStack, pins: Sequence[PauliString]) -> StabilizerState:
    """The +1 eigenstate of every stabilizer and each pin, built from them directly.

    The stabilizers and pins become the rows of one 0/1 support matrix,
    written with one fancy-indexed assignment; `from_css` takes its X-type
    and Z-type rows.  Each pin must be a +1-signed pure X or Z Pauli on the
    stack's qubits, else ValueError.
    """
    n = stack.num_qubits
    gen: list[int] = []       # row of each support entry
    qubits: list[int] = []    # qubit of each support entry
    is_x: list[bool] = []     # whether each row is X-type
    for patch, off in zip(stack.patches, stack.offsets):
        for s in patch.stabilizers:
            gen += [len(is_x)] * len(s.support)
            qubits += [off + patch.index[c] for c in s.support]
            is_x.append(s.kind == "X")
    for g in pins:
        if g.n != n:
            raise ValueError(f"{g.n}-qubit generator for {n} qubits")
        has_x, has_z = g.x.any(), g.z.any()
        if g.phase != 0 or has_x == has_z:
            raise ValueError(f"{g!r} is not a +1-signed pure X or Z Pauli")
        support = np.flatnonzero(g.x if has_x else g.z).tolist()
        gen += [len(is_x)] * len(support)
        qubits += support
        is_x.append(bool(has_x))
    rows = np.zeros((len(is_x), n), dtype=np.uint8)
    rows[gen, qubits] = 1
    x_type = np.array(is_x, dtype=bool)
    return StabilizerState.from_css(n, rows[x_type], rows[~x_type])


def _run_protocol(circuit: ScheduledCircuit, st: StabilizerState) -> dict[str, int]:
    try:
        return run_on_state(circuit, st)
    except RandomOutcomeError as exc:
        raise CodespaceViolationError(
            "non-deterministic measurement on a codespace input") from exc


def _read_images(st: StabilizerState, paired: EncodedStack,
                 on_ref: dict[str, PauliString]) -> dict[str, tuple[str, int]]:
    """The signed logical image (label, sign) of each generator G_Ri in `on_ref`.

    The image is the logical Pauli P with P (x) G_Ri in the stabilizer group.
    One GF(2) elimination of the stabilizer rows on their 2k reference bits
    finds a group element with reference part G_Ri; each row is tagged with
    its anticommutation with every X_j and Z_j, so the element's tag names P
    one letter per patch (patch 0 first).  One `expectation_sign` reads the
    sign and checks that P (x) G_Ri is in the group; a generator without such
    an image raises ValueError.
    """
    k = len(paired.patches)
    n = paired.num_qubits - k
    sx, sz = st.x[st.n:], st.z[st.n:]
    # read on each logical's support: a dense uint8 product with sx runs no BLAS
    anti = np.array([st._anticommuting(paired.logical_pauli(j, p))[0][st.n:]
                     for j in range(k) for p in "ZX"]).T
    ref = np.concatenate([sx[:, n:], sz[:, n:]], axis=1)
    basis = xor_basis(zip(pack_rows(ref), pack_rows(anti)))
    images = {}
    for g, op in on_ref.items():
        _, flips = xor_reduce(pack_rows([np.concatenate([op.x[n:], op.z[n:]])])[0], basis)
        # patch j's two tag bits: anticommutes with Z_j (an X part), with X_j (a Z part)
        label = "".join("IZXY"[flips >> 2 * (k - 1 - j) & 3] for j in range(k))
        for j, letter in enumerate(label):
            if letter != "I":
                op = op * paired.logical_pauli(j, letter)
        sign = st.expectation_sign(op)   # None also when no row sum has G_Ri's part
        if sign is None:
            raise ValueError(f"logical image of {g} is not a logical operator")
        images[g] = (label, sign)
    return images


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

    Works for any number of patches; one or two get a gate name, more are
    named by their sorted signed images.  Raises CodespaceViolationError if the
    circuit does not preserve the codespace, and ValueError if some logical
    image is not a logical operator of the output code.
    """
    if isinstance(patches, PatchSpec):
        patches = [patches]
    stack = encode_stack(patches)
    if stack.num_qubits != circuit.num_qubits:
        raise ValueError("circuit width does not match the encoded stack")
    k = len(patches)

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
    images = _read_images(st, paired, on_ref)
    if k == 1:
        name = _ONE_QUBIT_NAMES.get((images["X"], images["Z"]))
        if name is None:
            name = f"X->{_fmt(images['X'])},Z->{_fmt(images['Z'])}"
    elif k == 2:
        name = _two_qubit_name(images)
    else:
        name = _image_list(images)
    return LogicalAction(name, images)


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
    return _image_list(images)


def _image_list(images: dict[str, tuple[str, int]]) -> str:
    return ",".join(f"{k}->{_fmt(v)}" for k, v in sorted(images.items()))


def _fmt(img: tuple[str, int]) -> str:
    return ("+" if img[1] == 1 else "-") + img[0]
