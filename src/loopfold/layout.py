"""Virtual-stack layer layouts and simultaneous lattice-surgery routability.

A layout is a stack of small 2D grids; each cell is free or holds a patch
with a boundary orientation (which sides expose X vs Z).  A merge request
names two patches and the operators to join; it routes along a path of free
cells on the patches' common layer, the endpoints adjacent to boundary sides
exposing the requested operators.  Requests are served simultaneously, so
paths on the same layer must be vertex-disjoint.  Vertical transversal SWAPs
(patch <-> free cell directly above or below) are the moves the planner
searches over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

Cell = tuple[int, int]


def _check_operator(operator: str) -> None:
    if operator not in ("X", "Z"):
        raise ValueError(f"boundary operator must be 'X' or 'Z', not {operator!r}")


@dataclass(frozen=True)
class PatchCell:
    patch_id: str
    # orientation: the boundary type of the north/south sides; east/west get
    # the other type (rotated patches expose opposite types on opposite sides)
    ns: str = "Z"

    def __post_init__(self):
        if not isinstance(self.patch_id, str):
            raise ValueError(f"patch id must be a string, not {self.patch_id!r}")
        _check_operator(self.ns)


@dataclass
class LayerStackLayout:
    rows: int
    cols: int
    layers: list[dict[Cell, PatchCell]]
    layer_roles: list[str] = field(default_factory=list)

    def __post_init__(self):
        for name, size in (("rows", self.rows), ("cols", self.cols)):
            if isinstance(size, bool) or not isinstance(size, int) or size < 1:
                raise ValueError(f"{name} must be an integer >= 1, not {size!r}")
        if not isinstance(self.layer_roles, list) or not all(
                isinstance(role, str) for role in self.layer_roles):
            raise ValueError(f"layer roles must be a list of strings, not {self.layer_roles!r}")
        if not self.layer_roles:
            self.layer_roles = ["mid_range"] * len(self.layers)
        if len(self.layer_roles) != len(self.layers):
            raise ValueError(f"{len(self.layer_roles)} layer roles for {len(self.layers)} layers")
        seen: dict[str, int] = {}
        for li, layer in enumerate(self.layers):
            for cell, patch in layer.items():
                r, c = cell
                if any(isinstance(x, bool) or not isinstance(x, int) for x in cell):
                    raise ValueError(f"patch {patch.patch_id} cell must be two integers, "
                                     f"not {list(cell)}")
                if not (0 <= r < self.rows and 0 <= c < self.cols):
                    raise ValueError(f"patch {patch.patch_id} outside the grid")
                if patch.patch_id in seen:
                    raise ValueError(f"duplicate patch id {patch.patch_id}")
                seen[patch.patch_id] = li

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def find(self, patch_id: str) -> tuple[int, Cell]:
        for li, layer in enumerate(self.layers):
            for cell, patch in layer.items():
                if patch.patch_id == patch_id:
                    return li, cell
        raise KeyError(f"no patch {patch_id!r} in the layout")

    def free(self, layer: int, cell: Cell) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols and cell not in self.layers[layer]

    def copy(self) -> "LayerStackLayout":
        return LayerStackLayout(self.rows, self.cols,
                                [dict(l) for l in self.layers], list(self.layer_roles))

    def to_text(self) -> str:
        lines = [f"dims {self.rows}x{self.cols} layers {self.num_layers}"]
        for li, layer in enumerate(self.layers):
            lines.append(f"layer {li} role={self.layer_roles[li]}")
            for r in range(self.rows):
                row = []
                for c in range(self.cols):
                    p = layer.get((r, c))
                    row.append(".".ljust(4) if p is None
                               else f"{p.patch_id}:{p.ns}".ljust(4))
                lines.append("  " + " ".join(row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MergeRequest:
    patch_a: str
    operator_a: str
    patch_b: str
    operator_b: str
    layer: Optional[int] = None     # None: evaluated wherever both patches sit

    def __post_init__(self):
        _check_operator(self.operator_a)
        _check_operator(self.operator_b)
        if self.layer is not None and type(self.layer) is not int:
            raise ValueError(f"a request's layer must be an integer, not {self.layer!r}")
        if self.patch_a == self.patch_b:
            raise ValueError(f"request {self} merges patch {self.patch_a!r} with itself")

    def __str__(self) -> str:
        return f"{self.operator_a}({self.patch_a})*{self.operator_b}({self.patch_b})"


@dataclass
class RoutingResult:
    feasible: bool
    paths: dict[MergeRequest, tuple[Cell, ...]] = field(default_factory=dict)
    layers: dict[MergeRequest, int] = field(default_factory=dict)
    explored: int = 0               # states visited; the exhaustion certificate

    def __bool__(self) -> bool:
        return self.feasible


def generate_layout(num_patches: int, rows: int, cols: int,
                    num_layers: int = 1) -> LayerStackLayout:
    """The hallway layout.

    A row of patch stacks along the top with one-cell gaps and a corridor
    row beneath (num_patches per layer, ids 1..num_patches, every layer
    identical up to priming of the ids).
    """
    if cols < 2 * num_patches + 1 or rows < 2:
        raise ValueError("hallway needs cols >= 2k+1 and a corridor row")
    layers = [{(0, 2 * i + 1): PatchCell(str(i + 1) + "'" * li) for i in range(num_patches)}
              for li in range(num_layers)]
    return LayerStackLayout(rows, cols, layers)


# -- routing ---------------------------------------------------------------------

def _neighbors(cell: Cell) -> list[Cell]:
    r, c = cell
    return [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]


def _grid(rows: int, cols: int) -> set[Cell]:
    return {(r, c) for r in range(rows) for c in range(cols)}


def _access_cells(occupied: Mapping[Cell, PatchCell], free: set[Cell], cell: Cell,
                  operator: str) -> list[Cell]:
    """Free cells next to the sides of the patch at `cell` that expose `operator`.

    North and south expose the patch's `ns` type, east and west the other one;
    either pair of neighbours is listed in sorted order.
    """
    r, c = cell
    steps = ((-1, 0), (1, 0)) if occupied[cell].ns == operator else ((0, -1), (0, 1))
    return [(r + dr, c + dc) for dr, dc in steps if (r + dr, c + dc) in free]


def _all_paths(free: set[Cell], starts: list[Cell], goals: set[Cell],
               blocked: set[Cell]) -> Iterable[tuple[Cell, ...]]:
    """Every simple path of free cells from an access cell to a goal cell."""
    for start in starts:
        if start in blocked:
            continue
        stack = [(start, (start,), {start})]
        while stack:
            cell, path, used = stack.pop()
            if cell in goals:
                yield path
                # a path may continue through a goal toward another one, but
                # minimal service is enough for feasibility: stop here
                continue
            for nb in _neighbors(cell):
                if nb in used or nb in blocked or nb not in free:
                    continue
                stack.append((nb, path + (nb,), used | {nb}))


class _Placement:
    """The patches of a layout indexed once, layer by layer.

    A vertical swap never changes a patch's cell, so a state of the stack is
    the tuple of every patch's layer.  Routing a state routes each layer on
    its own; that depends only on the layer's index, the patches on it and
    its requests, so each distinct layer is routed once per placement.
    """

    def __init__(self, layout: LayerStackLayout, requests: Sequence[MergeRequest]):
        self.grid, self.num_layers = _grid(layout.rows, layout.cols), layout.num_layers
        self.start = tuple(li for li, layer in enumerate(layout.layers) for _ in layer)
        self.cells = [cell for layer in layout.layers for cell in layer]
        self.patches = [patch for layer in layout.layers for patch in layer.values()]
        index = {p.patch_id: i for i, p in enumerate(self.patches)}
        check_requests(layout, requests)
        self.ends = [(index[r.patch_a], index[r.patch_b], r) for r in requests]
        self.routed: dict[tuple, RoutingResult] = {}

    def route(self, state: tuple[int, ...]) -> RoutingResult:
        """Route every request in `state`, layer by layer in order.

        A request whose patches share no layer (or not its pinned one) fails
        the state before any routing; otherwise the first layer that fails
        ends the search, its path count included in `explored`.
        """
        by_layer: dict[int, list[MergeRequest]] = {}
        for ia, ib, req in self.ends:
            la = state[ia]
            if la != state[ib] or req.layer not in (None, la):
                return RoutingResult(False, explored=0)
            by_layer.setdefault(la, []).append(req)
        result = RoutingResult(True)
        for li, reqs in sorted(by_layer.items()):
            on_layer = tuple(i for i, l in enumerate(state) if l == li)
            key = (li, on_layer, tuple(reqs))
            if key not in self.routed:
                occupied = {self.cells[i]: self.patches[i] for i in on_layer}
                self.routed[key] = _route_layer(self.grid - occupied.keys(), li, occupied, reqs)
            sub = self.routed[key]
            result.explored += sub.explored
            if not sub.feasible:
                return RoutingResult(False, explored=result.explored)
            result.paths.update(sub.paths)
            result.layers.update(sub.layers)
        return result


def check_requests(layout: LayerStackLayout, requests: Sequence[MergeRequest]) -> None:
    """Raise KeyError for a request naming a patch not in the layout, and
    ValueError for one pinned to a layer outside its stack."""
    ids = {p.patch_id for layer in layout.layers for p in layer.values()}
    for req in requests:
        for pid in (req.patch_a, req.patch_b):
            if pid not in ids:
                raise KeyError(f"no patch {pid!r} in the layout")
        if req.layer is not None and not 0 <= req.layer < layout.num_layers:
            raise ValueError(f"request {req} is pinned to layer {req.layer} "
                             f"of a {layout.num_layers}-layer stack")


def routable(layout: LayerStackLayout, requests: Sequence[MergeRequest]) -> RoutingResult:
    """Decide simultaneous feasibility by exhaustive disjoint-path search.

    Unknown patch ids raise `KeyError`, and a layer pin outside the stack
    `ValueError`.
    """
    placement = _Placement(layout, requests)
    return placement.route(placement.start)


def _route_layer(free: set[Cell], layer: int, occupied: Mapping[Cell, PatchCell],
                 reqs: Sequence[MergeRequest]) -> RoutingResult:
    """Backtrack over every simple path of each request, disjoint from the
    paths already chosen; `explored` counts the paths tried."""
    where = {p.patch_id: cell for cell, p in occupied.items()}
    ends = [(_access_cells(occupied, free, where[r.patch_a], r.operator_a),
             set(_access_cells(occupied, free, where[r.patch_b], r.operator_b)))
            for r in reqs]
    explored = 0

    def backtrack(idx: int, blocked: set[Cell],
                  acc: dict[MergeRequest, tuple[Cell, ...]]):
        nonlocal explored
        if idx == len(reqs):
            return dict(acc)
        req = reqs[idx]
        starts, goals = ends[idx]
        if not starts or not goals:
            return None
        for path in _all_paths(free, starts, goals, blocked):
            explored += 1
            acc[req] = path
            out = backtrack(idx + 1, blocked | set(path), acc)
            if out is not None:
                return out
            del acc[req]
        return None

    found = backtrack(0, set(), {})
    if found is None:
        return RoutingResult(False, explored=explored)
    return RoutingResult(True, found, {r: layer for r in reqs}, explored)


# -- vertical-SWAP planning --------------------------------------------------------

@dataclass
class SwapPlan:
    feasible: bool
    swaps: list[tuple[str, int, int]]          # (patch_id, from_layer, to_layer)
    routing: Optional[RoutingResult] = None
    states_explored: int = 0

    def __len__(self) -> int:
        return len(self.swaps)


def plan_with_swaps(layout: LayerStackLayout, requests: Sequence[MergeRequest],
                    max_swaps: int = 4) -> SwapPlan:
    """Breadth-first search over vertical-SWAP sequences, minimal length first.

    A move swaps a patch with the free cell directly above or below it in an
    adjacent layer.  Returns the shortest plan whose end state routes every
    request, or infeasible-within-budget with the exhaustion count
    (`states_explored`, the states whose routing was decided).

    A move never changes a patch's cell, so a search state is the tuple of
    every patch's layer (see `_Placement`), and each distinct layer is routed
    once per call.  Successors come in the expanded state's (layer, cell)
    order, the move to layer - 1 before the move to layer + 1.  Unknown patch
    ids raise `KeyError`, and a layer pin outside the stack `ValueError`,
    before the search.
    """
    if max_swaps > 8:
        raise ValueError("swap budget capped at 8 (exhaustive search)")
    placement = _Placement(layout, requests)
    cells = placement.cells
    seen = {placement.start}
    frontier: list[tuple[tuple[int, ...], list[tuple[str, int, int]]]] = [(placement.start, [])]
    explored = 0
    for depth in range(max_swaps + 1):
        next_frontier = []
        for state, plan in frontier:
            explored += 1
            res = placement.route(state)
            if res.feasible:
                return SwapPlan(True, plan, res, explored)
            if depth == max_swaps:
                continue
            occupied = set(zip(state, cells))
            for i in sorted(range(len(state)), key=lambda i: (state[i], cells[i])):
                li = state[i]
                for lj in (li - 1, li + 1):
                    if not 0 <= lj < placement.num_layers or (lj, cells[i]) in occupied:
                        continue
                    nxt = state[:i] + (lj,) + state[i + 1:]
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    next_frontier.append(
                        (nxt, plan + [(placement.patches[i].patch_id, li, lj)]))
        frontier = next_frontier
        if not frontier:
            break
    return SwapPlan(False, [], None, explored)


# -- the worked routability instances -----------------------------------------------

def fig10a_fixture() -> tuple[LayerStackLayout, list[MergeRequest]]:
    """The hallway instance: four patch stacks over two layers, one corridor.

    Every Z(1)-X(4) path must run the corridor past the only access cells of
    Z(2) and Z(3), so the two merges cannot be routed simultaneously on
    either layer, and with both layers fully mirrored no vertical swap is
    even possible.
    """
    layout = generate_layout(4, rows=2, cols=9, num_layers=2)
    requests = [
        MergeRequest("1", "Z", "4", "X"), MergeRequest("2", "Z", "3", "Z"),
        MergeRequest("1'", "Z", "4'", "X"), MergeRequest("2'", "Z", "3'", "Z"),
    ]
    return layout, requests


def fig10b_fixture() -> tuple[LayerStackLayout, list[MergeRequest]]:
    """The staggered (checkerboard-across-layers) instance with a free layer.

    The same eight patches sit on the two outer layers, pairs interleaved so
    that each layer's long merge is squeezed through the short merge's access
    cells; the middle long-range layer is empty.  Four vertical SWAPs (the
    inner pairs move into the middle layer) make all four merges
    simultaneously routable.
    """
    l0 = {
        (0, 1): PatchCell("1"), (0, 3): PatchCell("2'"),
        (0, 5): PatchCell("3'"), (0, 9): PatchCell("4"),
    }
    l1: dict[Cell, PatchCell] = {}
    l2 = {
        (0, 2): PatchCell("1'"), (0, 6): PatchCell("2"),
        (0, 8): PatchCell("3"), (0, 10): PatchCell("4'"),
    }
    layout = LayerStackLayout(2, 11, [l0, l1, l2],
                              ["mid_range", "long_range", "mid_range"])
    requests = [
        MergeRequest("1", "Z", "4", "X"), MergeRequest("2", "Z", "3", "Z"),
        MergeRequest("1'", "Z", "4'", "X"), MergeRequest("2'", "Z", "3'", "Z"),
    ]
    return layout, requests


# -- fixture files -------------------------------------------------------------------

def layout_from_doc(doc: dict) -> LayerStackLayout:
    """The layout of a fixture document; ValueError if two patches share a cell."""
    layers = []
    for li, records in enumerate(doc["layers"]):
        layer: dict[Cell, PatchCell] = {}
        for rec in records:
            cell = tuple(rec["cell"])
            if cell in layer:
                raise ValueError(f"two patches on cell {list(cell)} of layer {li}")
            layer[cell] = PatchCell(rec["patch"], rec["ns"])
        layers.append(layer)
    return LayerStackLayout(doc["rows"], doc["cols"], layers, doc["layer_roles"])
