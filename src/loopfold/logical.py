"""Identify the logical Clifford a physical circuit induces on encoded patches.

The engine prepares logical basis eigenstates on a tableau, replays the
circuit (measurements must come out deterministic on the codespace, or a
CodespaceViolationError is raised), and reads off the signed image of each
logical generator modulo the output stabilizer group.  The signed images name
the logical Clifford together with its Pauli frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    """One or more patches encoded side by side in a single tableau."""

    patches: list[PatchSpec]
    offsets: list[int]
    num_qubits: int

    def logical_pauli(self, patch_idx: int, kind: str) -> PauliString:
        patch = self.patches[patch_idx]
        base = patch.logical_x_pauli() if kind == "X" else patch.logical_z_pauli()
        return self._lift(base, patch_idx)

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


def prepare_logical_state(stack: EncodedStack, bases: Sequence[str]) -> StabilizerState:
    """Codespace tableau with each patch pinned to a +1 logical eigenstate.

    `bases[i]` in {"Z", "X", "Y"} selects which logical operator of patch i is
    fixed to +1 (logical |0>, |+>, |+i> respectively).
    """
    st = StabilizerState(stack.num_qubits)
    for g in stack.all_stabilizers():
        st.measure_pauli(g, force=0)
    for idx, basis in enumerate(bases):
        if basis == "Z":
            op = stack.logical_pauli(idx, "Z")
        elif basis == "X":
            op = stack.logical_pauli(idx, "X")
        elif basis == "Y":
            op = stack.logical_pauli(idx, "X") * stack.logical_pauli(idx, "Z")
            op.phase = (op.phase + 1) % 4    # Y_L = i X_L Z_L
        else:
            raise ValueError(f"bad basis {basis!r}")
        st.measure_pauli(op, force=0)
    return st


def _run_protocol(circuit: ScheduledCircuit, st: StabilizerState) -> dict[str, int]:
    try:
        return run_on_state(circuit, st, rng=None)
    except ValueError as exc:
        raise CodespaceViolationError(
            "non-deterministic measurement on a codespace input") from exc


def _find_image(st: StabilizerState, stack: EncodedStack) -> list[tuple[str, int]]:
    """All signed logical Paulis stabilizing the state, as (label, sign)."""
    k = len(stack.patches)
    letters = "IXZY"
    found = []
    for mask in range(1, 4**k):
        ops = []
        label = []
        m = mask
        for i in range(k):
            li = letters[m % 4]
            m //= 4
            label.append(li)
            if li == "X":
                ops.append(stack.logical_pauli(i, "X"))
            elif li == "Z":
                ops.append(stack.logical_pauli(i, "Z"))
            elif li == "Y":
                y = stack.logical_pauli(i, "X") * stack.logical_pauli(i, "Z")
                y.phase = (y.phase + 1) % 4
                ops.append(y)
        acc = PauliString(stack.num_qubits)
        for op in ops:
            acc = acc * op
        sign = st.expectation_sign(acc)
        if sign is not None:
            found.append(("".join(label), sign))
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
    if k == 1:
        probes = {"Z": ["Z"], "X": ["X"]}
    elif k == 2:
        # inputs chosen so each generator is pinned in two runs with the other
        # generator varying; see below.
        probes = {
            "ZZ": ["Z", "Z"], "ZX": ["Z", "X"],
            "XZ": ["X", "Z"], "XX": ["X", "X"],
        }
    else:
        raise ValueError("logical_action supports one or two patches")

    results: dict[str, list[tuple[str, int]]] = {}
    for name, bases in probes.items():
        st = prepare_logical_state(stack, bases)
        _run_protocol(circuit, st)
        results[name] = _find_image(st, stack)

    if k == 1:
        img_z = _unique_image(results["Z"])
        img_x = _unique_image(results["X"])
        key = ((img_x[0], img_x[1]), (img_z[0], img_z[1]))
        name = _ONE_QUBIT_NAMES.get(key)
        if name is None:
            name = f"X->{_fmt(img_x)},Z->{_fmt(img_z)}"
        return LogicalAction(name, {"X": img_x, "Z": img_z},
                             frame=_frame_note({"X": img_x, "Z": img_z}))

    # two patches: intersect stabilized sets to isolate each generator image
    def common(run_a: str, run_b: str) -> list[tuple[str, int]]:
        sa = set(results[run_a])
        return [t for t in results[run_b] if t in sa]

    images = {
        "Z0": _pick_generator_image(common("ZZ", "ZX")),
        "Z1": _pick_generator_image(common("ZZ", "XZ")),
        "X0": _pick_generator_image(common("XZ", "XX")),
        "X1": _pick_generator_image(common("ZX", "XX")),
    }
    name = _two_qubit_name(images)
    return LogicalAction(name, images, frame=_frame_note(images))


def _unique_image(found: list[tuple[str, int]]) -> tuple[str, int]:
    if len(found) != 1:
        raise ValueError(f"logical image not a unique logical operator: {found}")
    return found[0]


def _pick_generator_image(cands: list[tuple[str, int]]) -> tuple[str, int]:
    # drop products that are implied by pairs (e.g. img(Z0)*img(Z1) in run ZZ):
    # the generator image is the unique candidate whose label set is minimal
    # and consistent across the two runs; with two runs the intersection is
    # already a single generator plus possibly nothing else.
    nontrivial = [c for c in cands if set(c[0]) != {"I"}]
    if len(nontrivial) != 1:
        raise ValueError(f"ambiguous or missing logical image: {cands}")
    return nontrivial[0]


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
