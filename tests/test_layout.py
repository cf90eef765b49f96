"""Layer-stack layouts, routing, and vertical-SWAP planning."""

import random

import pytest

from loopfold.layout import (LayerStackLayout, MergeRequest, PatchCell, RoutingResult,
                             SwapPlan, fig10a_fixture, fig10b_fixture, generate_layout,
                             layout_from_doc, plan_with_swaps, routable)


def layout_to_doc(layout):
    """The fixture-file document of a layout; `layout_from_doc` reads it back."""
    return {
        "rows": layout.rows,
        "cols": layout.cols,
        "layer_roles": list(layout.layer_roles),
        "layers": [
            [{"cell": list(cell), "patch": p.patch_id, "ns": p.ns}
             for cell, p in sorted(layer.items())]
            for layer in layout.layers
        ],
    }


def validate_witness(layout, result):
    """Independent re-verification: disjoint per layer, endpoint-valid,
    connected through free cells."""
    used_by_layer = {}
    for req, path in result.paths.items():
        layer = result.layers[req]
        for cell in path:
            assert layout.free(layer, cell)
            key = (layer, cell)
            assert key not in used_by_layer, f"cell reuse at {key}"
            used_by_layer[key] = req
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert path[0] in _ref_access_cells(layout, layer, req.patch_a, req.operator_a)
        assert path[-1] in _ref_access_cells(layout, layer, req.patch_b, req.operator_b)


def test_fig10a_infeasible_with_certificate():
    layout, requests = fig10a_fixture()
    res = routable(layout, requests)
    assert not res.feasible
    assert res.explored > 0
    # each merge alone is routable; simultaneity is what fails
    for req in requests:
        assert routable(layout, [req]).feasible


def test_fig10a_unroutable_for_every_swap_budget():
    layout, requests = fig10a_fixture()
    for budget in range(0, 9):
        plan = plan_with_swaps(layout, requests, max_swaps=budget)
        assert not plan.feasible


def test_fig10b_pre_infeasible_post_four_swaps_feasible():
    layout, requests = fig10b_fixture()
    assert not routable(layout, requests).feasible
    plan = plan_with_swaps(layout, requests, max_swaps=4)
    assert plan.feasible
    assert len(plan) == 4
    assert len(plan.routing.paths) == 4
    # apply the swaps and re-verify the witnesses independently
    state = layout.copy()
    for pid, src, dst in plan.swaps:
        li, cell = state.find(pid)
        assert li == src and state.free(dst, cell)
        patch = state.layers[src].pop(cell)
        state.layers[dst][cell] = patch
    res = routable(state, requests)
    assert res.feasible
    validate_witness(state, res)


def test_fig10b_no_plan_within_three():
    layout, requests = fig10b_fixture()
    assert not plan_with_swaps(layout, requests, max_swaps=3).feasible


def test_already_routable_needs_zero_swaps():
    layout, _ = fig10b_fixture()
    req = [MergeRequest("2'", "Z", "3'", "Z")]
    plan = plan_with_swaps(layout, req, max_swaps=4)
    assert plan.feasible and len(plan) == 0


def test_single_request_minimal_corridor():
    layout = generate_layout(2, rows=2, cols=5)
    res = routable(layout, [MergeRequest("1", "Z", "2", "Z")])
    assert res.feasible
    (path,) = res.paths.values()
    assert path == ((1, 1), (1, 2), (1, 3))


def test_generate_layouts():
    hall = generate_layout(2, rows=2, cols=5, num_layers=2)
    assert hall.layers == [{(0, 1): PatchCell("1"), (0, 3): PatchCell("2")},
                           {(0, 1): PatchCell("1'"), (0, 3): PatchCell("2'")}]
    with pytest.raises(ValueError):
        generate_layout(4, rows=1, cols=3)
    with pytest.raises(ValueError):
        generate_layout(3, rows=2, cols=6)


def test_unknown_patch_rejected():
    layout, _ = fig10a_fixture()
    with pytest.raises(KeyError):
        routable(layout, [MergeRequest("1", "Z", "9", "X")])
    # also behind a request that is split across layers, and for the planner
    split_first = [MergeRequest("1", "Z", "1'", "Z"), MergeRequest("9", "Z", "1", "X")]
    for call in (lambda: routable(layout, split_first),
                 lambda: plan_with_swaps(layout, split_first, max_swaps=2),
                 lambda: plan_with_swaps(layout, [MergeRequest("1", "Z", "9", "X")])):
        with pytest.raises(KeyError, match="no patch '9'"):
            call()


@pytest.mark.parametrize("build", [
    lambda: PatchCell("1", "Y"),
    lambda: PatchCell("1", "z"),
    lambda: MergeRequest("1", "Y", "2", "Z"),
    lambda: MergeRequest("1", "Z", "2", "x"),
], ids=["patch-Y", "patch-lowercase", "request-Y", "request-lowercase"])
def test_boundary_operators_other_than_x_or_z_rejected(build):
    with pytest.raises(ValueError, match="boundary operator"):
        build()


def test_malformed_layouts_and_requests_rejected():
    with pytest.raises(ValueError, match="layer roles"):
        LayerStackLayout(2, 3, [{}, {}], ["long_range"])
    for roles in ("ab", ("mid_range", "mid_range"), ["long_range", 7], ["long_range", None]):
        with pytest.raises(ValueError, match="layer roles must be a list of strings"):
            LayerStackLayout(2, 3, [{}, {}], roles)
    for cell in ((0.5, 0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="two integers"):
            LayerStackLayout(2, 3, [{cell: PatchCell("1")}])
    with pytest.raises(ValueError, match="integer"):
        MergeRequest("1", "Z", "2", "X", layer="0")
    assert MergeRequest("1", "Z", "2", "X", layer=1).layer == 1
    with pytest.raises(ValueError, match="with itself"):
        MergeRequest("1", "Z", "1", "X")
    for patch_id in (7, None, ("1",)):
        with pytest.raises(ValueError, match="patch id must be a string"):
            PatchCell(patch_id)


@pytest.mark.parametrize("layer", [-1, 2, 5])
def test_request_pinned_outside_the_stack_rejected(layer):
    layout, _ = fig10a_fixture()    # two layers
    req = [MergeRequest("1", "Z", "4", "X", layer)]
    for call in (lambda: routable(layout, req), lambda: plan_with_swaps(layout, req)):
        with pytest.raises(ValueError, match=f"layer {layer} of a 2-layer stack"):
            call()


def test_split_pair_is_unroutable():
    layout, _ = fig10b_fixture()
    # 1 is on layer 0, 1' on layer 2: no common layer, no route
    assert not routable(layout, [MergeRequest("1", "Z", "1'", "Z")]).feasible


def test_monotonicity_under_freeing_cells():
    """Removing a patch (freeing cells) never flips feasible to infeasible."""
    rng = random.Random(42)
    flips = 0
    for _ in range(300):
        rows, cols = 3, 4
        n = rng.randint(2, 5)
        layer = {}
        ids = []
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        rng.shuffle(cells)
        for i in range(n):
            layer[cells[i]] = PatchCell(str(i + 1), rng.choice("ZX"))
            ids.append(str(i + 1))
        layout = LayerStackLayout(rows, cols, [layer])
        a, b = rng.sample(ids, 2)
        req = [MergeRequest(a, rng.choice("ZX"), b, rng.choice("ZX"))]
        before = routable(layout, req).feasible
        removable = [pid for pid in ids if pid not in (a, b)]
        if not removable:
            continue
        drop = rng.choice(removable)
        li, cell = layout.find(drop)
        bigger = layout.copy()
        del bigger.layers[li][cell]
        after = routable(bigger, req).feasible
        if before and not after:
            flips += 1
    assert flips == 0


def test_spread_arrangement_contains_hallway_connectivity():
    """Moving one hallway layer into an adjacent empty layer preserves every
    request set the two-layer hallway routes (the containment claim),
    checked exhaustively over single merges and the instance's pairs."""
    hallway, pair_requests = fig10a_fixture()
    with_empty = LayerStackLayout(
        hallway.rows, hallway.cols,
        [dict(l) for l in hallway.layers] + [{}],
        list(hallway.layer_roles) + ["long_range"])
    spread = with_empty.copy()
    moved = 0
    for cell, patch in sorted(dict(spread.layers[1]).items()):
        assert spread.free(2, cell)
        spread.layers[2][cell] = spread.layers[1].pop(cell)
        moved += 1
    assert moved == 4
    ids = ["1", "2", "3", "4", "1'", "2'", "3'", "4'"]
    ops = ["Z", "X"]
    request_sets = [[MergeRequest(a, oa, b, ob)]
                    for i, a in enumerate(ids) for b in ids[i + 1:]
                    for oa in ops for ob in ops]
    request_sets += [pair_requests[:2], pair_requests[2:]]
    for reqs in request_sets:
        if routable(with_empty, reqs).feasible:
            assert routable(spread, reqs).feasible, [str(r) for r in reqs]


def test_fixture_doc_round_trip():
    layout, _ = fig10b_fixture()
    doc = layout_to_doc(layout)
    back = layout_from_doc(doc)
    assert back.layers == layout.layers
    assert back.layer_roles == layout.layer_roles


def test_witness_paths_validated_independently():
    layout, requests = fig10b_fixture()
    plan = plan_with_swaps(layout, requests, max_swaps=4)
    state = layout.copy()
    for pid, src, dst in plan.swaps:
        _, cell = state.find(pid)
        state.layers[dst][cell] = state.layers[src].pop(cell)
    res = routable(state, requests)
    validate_witness(state, res)


# -- the copy-based planner and find-based router, kept as the reference -------------

def _ref_access_cells(layout, layer, patch_id, operator):
    li, (r, c) = layout.find(patch_id)
    if li != layer:
        return []
    patch = layout.layers[layer][(r, c)]
    out = []
    for direction, (dr, dc) in (("N", (-1, 0)), ("S", (1, 0)),
                                ("W", (0, -1)), ("E", (0, 1))):
        cell = (r + dr, c + dc)
        side_type = patch.ns if direction in ("N", "S") else {"X": "Z", "Z": "X"}[patch.ns]
        if side_type == operator and layout.free(layer, cell):
            out.append(cell)
    return sorted(out)


def _ref_all_paths(layout, layer, starts, goals, blocked):
    for start in starts:
        if start in blocked:
            continue
        stack = [(start, (start,), {start})]
        while stack:
            cell, path, used = stack.pop()
            if cell in goals:
                yield path
                continue
            r, c = cell
            for nb in [(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]:
                if nb in used or nb in blocked or not layout.free(layer, nb):
                    continue
                stack.append((nb, path + (nb,), used | {nb}))


def _ref_route_layer(layout, layer, reqs):
    explored = 0

    def backtrack(idx, blocked, acc):
        nonlocal explored
        if idx == len(reqs):
            return dict(acc)
        req = reqs[idx]
        starts = _ref_access_cells(layout, layer, req.patch_a, req.operator_a)
        goals = set(_ref_access_cells(layout, layer, req.patch_b, req.operator_b))
        if not starts or not goals:
            return None
        for path in _ref_all_paths(layout, layer, starts, goals, blocked):
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


def ref_routable(layout, requests):
    by_layer = {}
    for req in requests:
        la, _ = layout.find(req.patch_a)
        lb, _ = layout.find(req.patch_b)
        if la != lb or req.layer not in (None, la):
            return RoutingResult(False, explored=0)
        by_layer.setdefault(la, []).append(req)
    result = RoutingResult(True)
    for layer, reqs in sorted(by_layer.items()):
        sub = _ref_route_layer(layout, layer, reqs)
        result.explored += sub.explored
        if not sub.feasible:
            return RoutingResult(False, explored=result.explored)
        result.paths.update(sub.paths)
        result.layers.update(sub.layers)
    return result


def _occupancy_key(layout):
    return tuple(tuple(sorted((cell, p.patch_id) for cell, p in layer.items()))
                 for layer in layout.layers)


def ref_plan_with_swaps(layout, requests, max_swaps):
    """Breadth-first search that copies, re-keys and re-routes every state."""
    start = layout.copy()
    seen = {_occupancy_key(start)}
    frontier = [(start, [])]
    explored = 0
    for depth in range(max_swaps + 1):
        next_frontier = []
        for state, plan in frontier:
            explored += 1
            res = ref_routable(state, requests)
            if res.feasible:
                return SwapPlan(True, plan, res, explored)
            if depth == max_swaps:
                continue
            for li, layer in enumerate(state.layers):
                for cell, patch in sorted(layer.items()):
                    for lj in (li - 1, li + 1):
                        if not 0 <= lj < state.num_layers or not state.free(lj, cell):
                            continue
                        nxt = state.copy()
                        del nxt.layers[li][cell]
                        nxt.layers[lj][cell] = patch
                        key = _occupancy_key(nxt)
                        if key in seen:
                            continue
                        seen.add(key)
                        next_frontier.append((nxt, plan + [(patch.patch_id, li, lj)]))
        frontier = next_frontier
        if not frontier:
            break
    return SwapPlan(False, [], None, explored)


def apply_swaps(layout, swaps):
    state = layout.copy()
    for pid, src, dst in swaps:
        li, cell = state.find(pid)
        assert li == src and abs(dst - src) == 1 and state.free(dst, cell)
        state.layers[dst][cell] = state.layers[src].pop(cell)
    return state


def assert_same_routing(got, want):
    assert got.feasible == want.feasible
    assert got.explored == want.explored
    assert got.paths == want.paths
    assert got.layers == want.layers


def assert_same_plan(layout, requests, budget):
    got = plan_with_swaps(layout, requests, max_swaps=budget)
    want = ref_plan_with_swaps(layout, requests, budget)
    assert (got.feasible, got.swaps, got.states_explored) == \
        (want.feasible, want.swaps, want.states_explored)
    assert (got.routing is None) == (want.routing is None)
    if want.routing is not None:
        assert_same_routing(got.routing, want.routing)
    end = apply_swaps(layout, got.swaps)
    assert_same_routing(routable(end, requests), ref_routable(end, requests))
    if got.feasible:
        assert_same_routing(routable(end, requests), got.routing)
    return got


def random_stack(rng):
    """A 3-layer stack: patches scattered over all layers, 1-3 merges, some
    pinned to a layer; half the partners are drawn from the first patch's
    layer, the rest from every layer."""
    rows, cols = rng.randint(2, 3), rng.randint(3, 4)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    layers = [{}, {}, {}]
    n = rng.randint(3, 6)
    layer_of = {}
    for i in range(n):
        li = rng.choice((0, 0, 1, 2, 2))
        free = [cell for cell in cells if cell not in layers[li]]
        layers[li][rng.choice(free)] = PatchCell(f"p{i}", rng.choice("ZX"))
        layer_of[f"p{i}"] = li
    requests = []
    for _ in range(rng.randint(1, 3)):
        a = rng.choice(sorted(layer_of))
        same_layer = rng.random() < 0.5
        partners = [p for p in sorted(layer_of)
                    if p != a and (layer_of[p] == layer_of[a] or not same_layer)]
        if not partners:
            continue
        pin = rng.choice((None, None, None, 0, 1, 2))
        requests.append(MergeRequest(a, rng.choice("ZX"), rng.choice(partners),
                                     rng.choice("ZX"), pin))
    return LayerStackLayout(rows, cols, layers), requests


def test_planner_matches_the_copy_based_reference_on_random_stacks():
    rng = random.Random(7)
    seen = {"swapped": 0, "infeasible": 0, "pinned": 0, "split": 0, "two-layer": 0}
    for _ in range(240):
        layout, requests = random_stack(rng)
        plan = assert_same_plan(layout, requests, budget=rng.randint(0, 4))
        seen["swapped"] += plan.feasible and len(plan) > 0
        seen["infeasible"] += not plan.feasible
        seen["two-layer"] += len({layout.find(r.patch_a)[0] for r in requests}) > 1
        seen["pinned"] += any(r.layer is not None for r in requests)
        seen["split"] += any(layout.find(r.patch_a)[0] != layout.find(r.patch_b)[0]
                             for r in requests)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("budget", range(9))
def test_planner_matches_the_reference_on_fig10a(budget):
    layout, requests = fig10a_fixture()
    assert not assert_same_plan(layout, requests, budget).feasible


@pytest.mark.parametrize("budget", [3, 4])
def test_planner_matches_the_reference_on_fig10b(budget):
    layout, requests = fig10b_fixture()
    assert assert_same_plan(layout, requests, budget).feasible == (budget == 4)
