"""Rotated and folded rotated surface-code patches and their loop embeddings.

Coordinates are doubled integers so everything stays exact: data qubits sit at
even-even (2r, 2c) for 0 <= r, c < d, stabilizer ancillas at odd-odd
(2R+1, 2C+1) for plaquettes with corners (r, c) in {R, R+1} x {C, C+1}.

Conventions (fixed once for all tests):
  * plaquette type: X iff (R + C) is odd, Z iff even;
  * boundary half-plaquettes: X on top/bottom rows, Z on left/right columns,
    at the alternating positions this parity rule selects;
  * logical Z along the top data row, logical X along the left data column;
  * CNOT orders, around each ancilla: X checks run ul, ur, dl, dr (horizontal
    zigzag) and Z checks run ul, dl, ur, dr (vertical zigzag);
  * the fold crease is the main diagonal row = col, fold partner of (a, b)
    is (b, a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .circuits import ScheduledCircuit
from .pauli import PauliString

Coord = tuple[int, int]

X_ORDER = ("ul", "ur", "dl", "dr")
Z_ORDER = ("ul", "dl", "ur", "dr")
_CORNER_OFFSET = {"ul": (-1, -1), "ur": (-1, 1), "dl": (1, -1), "dr": (1, 1)}


@dataclass(frozen=True)
class Stabilizer:
    kind: str                       # "X" or "Z"
    center: Coord                   # odd-odd doubled coordinate
    support: tuple[Coord, ...]      # data coords, in the kind's CNOT order

    def weight(self) -> int:
        return len(self.support)


@dataclass
class PatchSpec:
    """A rotated or folded rotated surface-code patch."""

    distance: int
    kind: str                                # "rotated" | "folded"
    data_coords: list[Coord]                 # all d^2 code qubits (doubled coords)
    data_sites: list[Coord]                  # physical loop sites, (row, col) units
    stabilizers: list[Stabilizer]
    logical_x: list[Coord]
    logical_z: list[Coord]
    index: dict[Coord, int] = field(default_factory=dict)  # coord -> qubit index

    def __post_init__(self):
        if not self.index:
            coords = list(self.data_coords) + [s.center for s in self.stabilizers]
            self.index = {c: i for i, c in enumerate(coords)}

    # -- bookkeeping -------------------------------------------------------

    @property
    def num_data(self) -> int:
        return len(self.data_coords)

    @property
    def num_qubits(self) -> int:
        return len(self.index)

    def x_stabilizers(self) -> list[Stabilizer]:
        return [s for s in self.stabilizers if s.kind == "X"]

    def bulk_ancillas(self) -> list[Stabilizer]:
        return [s for s in self.stabilizers if s.weight() == 4]

    def boundary_ancillas(self) -> list[Stabilizer]:
        return [s for s in self.stabilizers if s.weight() == 2]

    def stabilizer_pauli(self, stab: Stabilizer) -> PauliString:
        n = self.num_qubits
        return PauliString.from_label(stab.kind * len(stab.support), n,
                                      [self.index[c] for c in stab.support])

    def logical_x_pauli(self) -> PauliString:
        return PauliString.from_label("X" * len(self.logical_x), self.num_qubits,
                                      [self.index[c] for c in self.logical_x])

    def logical_z_pauli(self) -> PauliString:
        return PauliString.from_label("Z" * len(self.logical_z), self.num_qubits,
                                      [self.index[c] for c in self.logical_z])

    def loop_of(self, coord: Coord) -> tuple[Coord, int]:
        """Physical loop (doubled coord) and layer (0 top / 1 bottom) of a qubit."""
        r, c = coord
        if self.kind == "rotated" or r <= c:
            return coord, 0
        return (c, r), 1


def _plaquette_type(R: int, C: int) -> str:
    return "X" if (R + C) % 2 else "Z"


def check_distance(d: int) -> None:
    """Raise ValueError unless d is an odd int >= 3; a bool, float or str is not one."""
    if isinstance(d, bool) or not isinstance(d, int) or d < 3 or d % 2 == 0:
        raise ValueError("distance must be an odd integer >= 3")


def build_patch(d: int, kind: str = "rotated") -> PatchSpec:
    """Construct a distance-d rotated (or folded rotated) surface-code patch.

    Folding changes the geometry only: the stabilizer group of the folded
    patch is identical to the rotated one; loop_of gives the pairing.
    """
    check_distance(d)
    if kind not in ("rotated", "folded"):
        raise ValueError(f"unknown patch kind {kind!r}")

    data_coords = [(2 * r, 2 * c) for r in range(d) for c in range(d)]
    data_set = set(data_coords)

    stabilizers = []
    for R in range(-1, d):
        for C in range(-1, d):
            corners = {
                name: (2 * (R + (off[0] + 1) // 2), 2 * (C + (off[1] + 1) // 2))
                for name, off in _CORNER_OFFSET.items()
            }
            present = {k: v for k, v in corners.items() if v in data_set}
            if len(present) not in (2, 4):
                continue
            kind_rc = _plaquette_type(R, C)
            if len(present) == 2:
                # keep X on top/bottom, Z on left/right; parity decides the rest
                on_top, on_bottom = R == -1, R == d - 1
                on_left, on_right = C == -1, C == d - 1
                if (on_top or on_bottom) and kind_rc != "X":
                    continue
                if (on_left or on_right) and kind_rc != "Z":
                    continue
            order = X_ORDER if kind_rc == "X" else Z_ORDER
            support = tuple(present[name] for name in order if name in present)
            stabilizers.append(Stabilizer(kind_rc, (2 * R + 1, 2 * C + 1), support))

    logical_z = [(0, 2 * c) for c in range(d)]           # top row
    logical_x = [(2 * r, 0) for r in range(d)]           # left column

    data_sites = [(r, c) for r in range(d) for c in range(d) if kind == "rotated" or r <= c]
    return PatchSpec(d, kind, data_coords, data_sites, stabilizers, logical_x, logical_z)


# -- check circuit ------------------------------------------------------------

def check_circuit(patch: PatchSpec) -> ScheduledCircuit:
    """One full stabilizer round: the first half's events, then the second half's.

    Slots: 0 reset, 1 H on X ancillas, 2-5 the four CNOT layers, 6 closing H,
    7 ancilla measurement.
    """
    return ScheduledCircuit(patch.num_qubits,
                            first_half_circuit(patch).events + second_half_circuit(patch).events)


def first_half_circuit(patch: PatchSpec) -> ScheduledCircuit:
    """Resets, opening H layer, and CNOT layers 1-2 (slots 0..3)."""
    circ = ScheduledCircuit(patch.num_qubits)
    circ.add(0, "RESET", [patch.index[s.center] for s in patch.stabilizers])
    for s in patch.x_stabilizers():
        circ.add(1, "H", (patch.index[s.center],))
    _add_cnot_layers(circ, patch, (0, 1))
    return circ


def second_half_circuit(patch: PatchSpec) -> ScheduledCircuit:
    """CNOT layers 3-4, closing H layer, and measurements (slots 4..7)."""
    circ = ScheduledCircuit(patch.num_qubits)
    _add_cnot_layers(circ, patch, (2, 3))
    for s in patch.x_stabilizers():
        circ.add(6, "H", (patch.index[s.center],))
    for s in patch.stabilizers:
        circ.add(7, "MEASURE", (patch.index[s.center],), key=f"s{s.center[0]}_{s.center[1]}")
    return circ


def _add_cnot_layers(circ: ScheduledCircuit, patch: PatchSpec, layers: Sequence[int]) -> None:
    """CNOT layers `layers` (of 0..3) of the round, layer l in slot 2 + l: each
    check's ancilla with the data qubit at the l-th corner of its kind's order,
    where there is one; an X check's ancilla controls, a Z check's is the target."""
    for layer in layers:
        for s in patch.stabilizers:
            dr, dc = _CORNER_OFFSET[(X_ORDER if s.kind == "X" else Z_ORDER)[layer]]
            data = (s.center[0] + dr, s.center[1] + dc)
            if data in s.support:
                a, q = patch.index[s.center], patch.index[data]
                circ.add(2 + layer, "CNOT", (a, q) if s.kind == "X" else (q, a))


# -- mid-cycle structure -------------------------------------------------------

@dataclass
class MidcycleGroup:
    """Instantaneous stabilizer structure after the first two CNOT layers."""

    active_coords: list[Coord]        # data + bulk-ancilla coordinates
    inactive_coords: list[Coord]      # boundary (two-body) ancillas
    generators: list[PauliString]     # the expected unrotated-code generators
    num_generators: int
    weight_profile: dict[int, int]


def midcycle_expected(patch: PatchSpec) -> MidcycleGroup:
    """Hand-derived unrotated-code group at the mid-cycle point.

    After CNOT layers 1-2 the active qubits (data plus the four-body
    ancillas) carry an unrotated surface code on d^2 + (d-1)^2 qubits:
    X stars at horizontal edge midpoints (data pair side by side plus the
    bulk centers above and below) and Z plaquettes at vertical edge midpoints
    (data pair stacked plus the bulk centers left and right).
    """
    d = patch.distance
    n = patch.num_qubits
    bulk = {s.center for s in patch.bulk_ancillas()}
    boundary = [s.center for s in patch.boundary_ancillas()]
    generators: list[PauliString] = []

    def centers(cands):
        return [c for c in cands if c in bulk]

    for r in range(d):
        for c in range(d - 1):
            sites = [(2 * r, 2 * c), (2 * r, 2 * c + 2)]
            sites += centers([(2 * r - 1, 2 * c + 1), (2 * r + 1, 2 * c + 1)])
            generators.append(PauliString.from_label(
                "X" * len(sites), n, [patch.index[s] for s in sites]))
    for r in range(d - 1):
        for c in range(d):
            sites = [(2 * r, 2 * c), (2 * r + 2, 2 * c)]
            sites += centers([(2 * r + 1, 2 * c - 1), (2 * r + 1, 2 * c + 1)])
            generators.append(PauliString.from_label(
                "Z" * len(sites), n, [patch.index[s] for s in sites]))

    active = midcycle_active(patch)
    profile: dict[int, int] = {}
    for g in generators:
        profile[g.weight()] = profile.get(g.weight(), 0) + 1
    return MidcycleGroup(active, boundary, generators, len(generators), profile)


def midcycle_active(patch: PatchSpec) -> list[Coord]:
    """The qubits the mid-cycle code acts on: data, then the bulk ancillas in order."""
    return list(patch.data_coords) + sorted(s.center for s in patch.bulk_ancillas())


def midcycle_fold_pairs(patch: PatchSpec) -> list[tuple[Coord, Coord]]:
    """Off-diagonal mirror pairs among the mid-cycle active qubits."""
    pairs = []
    for (a, b) in patch.data_coords:
        if a < b:
            pairs.append(((a, b), (b, a)))
    for s in patch.bulk_ancillas():
        a, b = s.center
        if a < b:
            pairs.append(((a, b), (b, a)))
    return pairs


def midcycle_diagonal(patch: PatchSpec) -> list[Coord]:
    """Crease qubits (data and bulk ancillas) ordered along the diagonal."""
    diag = [(2 * r, 2 * r) for r in range(patch.distance)]
    diag += [s.center for s in patch.bulk_ancillas() if s.center[0] == s.center[1]]
    return sorted(diag)


# -- loop embedding ------------------------------------------------------------

@dataclass
class LoopRecord:
    coord: Coord
    speed_class: str          # "normal" | "double"
    slots: list[tuple[int, int, Coord]]  # (patch_id, layer, qubit coord)


@dataclass
class LoopEmbedding:
    loops: dict[Coord, LoopRecord]
    qubits_per_loop: int      # n, the off-diagonal data-loop occupancy
    num_patches: int
    patch_kind: str
    distance: int
    patches: list[PatchSpec]  # the stacked patches, in patch-id order


def embed_stack(patches: Sequence[PatchSpec]) -> LoopEmbedding:
    """Stack identical patches into a loop grid.

    k folded patches give n = 2k qubits in off-diagonal loops and k in
    diagonal loops (shuttled twice as fast); k rotated patches give n = k
    everywhere.  Slot order is all top layers (patch order), then all bottom
    layers, which is the ordering the transversal-CNOT worst case assumes.
    """
    if not patches:
        raise ValueError("need at least one patch")
    d = patches[0].distance
    kind = patches[0].kind
    for p in patches:
        if p.distance != d or p.kind != kind:
            raise ValueError("all patches in a stack must share distance and kind")

    loops: dict[Coord, LoopRecord] = {}
    for layer_pass in (0, 1):
        for pid, patch in enumerate(patches):
            for coord in [*patch.data_coords, *(s.center for s in patch.stabilizers)]:
                site, layer = patch.loop_of(coord)
                if layer != layer_pass:
                    continue
                if site not in loops:
                    diagonal = kind == "folded" and site[0] == site[1]
                    loops[site] = LoopRecord(site, "double" if diagonal else "normal", [])
                loops[site].slots.append((pid, layer, coord))

    k = len(patches)
    n = 2 * k if kind == "folded" else k
    return LoopEmbedding(loops, n, k, kind, d, list(patches))
