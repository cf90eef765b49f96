"""Exact-rational loop simulation: closed-form anchors, searches, traces."""

import random
from fractions import Fraction, Fraction as F
from itertools import permutations
from math import factorial
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from loopfold.costs import cnot_time, cycle_time_n2, rearrange_worst
from loopfold.loopsim import (SILICON, LoopState, OccupiedPortError,
                              TimedSchedule, TimingParams, _arc, _arc_tables, _lattice_cost,
                              _lead, _on_lattice, _plan_lattice, pipeline_model,
                              rearrange, simulate_cycle, swap_protocol, worst_case_search)
from loopfold import patches
from loopfold.patches import build_patch, check_circuit, embed_stack

P = SILICON
OTHER = TimingParams(t_loop=1600, t_2q=F(7, 3))
ODD = TimingParams(t_loop=F(1, 3), t_2q=F(2, 7), t_1q=F(1, 10))   # the rational CLI config
# T_cyc(2)'s published coefficients, timing parameter -> coefficient
PUBLISHED_TERMS = {"t_loop": F(27, 8), "t_1q": 2, "t_2q": 4, "t_meas": 1}


def in_ns(sched):
    """Every event with its start and duration as Fractions of a ns."""
    return [(sched.ns(e.start), sched.ns(e.duration), e.action, e.tokens, e.loop)
            for e in sched.events]


def rearrange_makespan(n, target, phase, params):
    """Event-path makespan of rearranging an evenly spaced ring."""
    return rearrange(LoopState.evenly_spaced(n, phase), target, params).makespan


def rearrange_cost(n, target, phase):
    """The same makespan in laps from the search's tables, without events."""
    points, pos = _on_lattice(LoopState.evenly_spaced(n, phase).positions, n)
    if list(target) == sorted(pos, key=pos.get):
        return F(0)
    lead = _lead(pos, points)
    base = _arc(pos[lead], points)[0] + (n - 2) * (points // n)
    step, park = _arc_tables(n, points)
    return F(_lattice_cost(tuple(target), lead, base, step, park), points)


def test_silicon_defaults():
    assert (P.t_loop, P.t_1q, P.t_2q, P.t_meas) == (400, 200, 100, 1000)
    assert P.meas_devices == 3 and P.t_int == 200


@pytest.mark.parametrize("kwargs, field", [
    ({"t_int": -5}, "t_int"),
    ({"meas_devices": 2.5}, "meas_devices"),
    ({"meas_devices": True}, "meas_devices"),
    ({"meas_devices": 0}, "meas_devices"),
], ids=["negative-t_int", "fractional-devices", "bool-devices", "zero-devices"])
def test_timing_params_reject_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TimingParams(**kwargs)


def test_timing_params_accept_a_rational_t_int():
    assert TimingParams(t_int=F(3, 2)).t_int == F(3, 2)
    assert TimingParams(meas_devices=1).meas_devices == 1


def test_episode_s_gate_instance():
    # the published intra-loop CZ instance: lead 1/8 lap, half-lap gap
    loop = LoopState({0: F(1, 8), 1: F(5, 8)})
    sched = swap_protocol(loop, 0, 1, P)
    assert sched.meta["shuttle"] == F(9, 8) * P.t_loop
    assert sched.makespan == F(9, 8) * P.t_loop + P.t_2q


def test_episode_worst_configuration():
    loop = LoopState({0: F(1, 4), 1: F(3, 4)})
    sched = swap_protocol(loop, 0, 1, P)
    assert sched.meta["shuttle"] == F(5, 4) * P.t_loop == 500


def test_episode_port_entry_degenerate():
    # one token already at the junction, the other diametrically opposite:
    # lead-in 0, half-lap gap in and out -> one full lap of shuttling
    loop = LoopState({0: 0, 1: F(1, 2)})
    sched = swap_protocol(loop, 0, 1, P)
    assert sched.meta["shuttle"] == P.t_loop


def test_episode_adjacent_pair_valid():
    loop = LoopState.evenly_spaced(8, F(1, 16))
    sched = swap_protocol(loop, 0, 1, P)
    sched.check_no_token_overlap()
    final = sched.meta["final"]
    assert len(set(final.positions.values())) == len(final.positions)


def test_swap_requires_empty_port():
    loop = LoopState({0: F(1, 8), 1: F(5, 8)}, port=[7])
    with pytest.raises(OccupiedPortError):
        swap_protocol(loop, 0, 1, P)


def test_swap_worst_case_search():
    res = worst_case_search("swap", 8, F(1, 32), P)
    assert res.shuttle_maximum == F(5, 4) * P.t_loop
    assert res.witness == {"a": "1/4", "b": "3/4"}


def test_rearrange_published_instance():
    # reorder 1..8 to 3 7 4 8 1 5 2 6 from the worst-case half-slot phase
    mk = rearrange_makespan(8, [2, 6, 3, 7, 0, 4, 1, 5], F(1, 16), P)
    assert mk == F(61, 16) * P.t_loop == 1525


def test_rearrange_identity_is_free():
    loop = LoopState.evenly_spaced(8, F(1, 16))
    assert rearrange(loop, list(range(8)), P).makespan == 0


def test_rearrange_charges_a_rotation_of_the_ring_order():
    # only the ring order itself is free; a rotation of it runs the scheme,
    # which is what keeps the published n = 2 maximum at a quarter lap
    loop = LoopState.evenly_spaced(4, F(0))
    assert rearrange(loop, [0, 1, 2, 3], P).makespan == 0
    assert rearrange(loop, [1, 2, 3, 0], P).makespan == 400


def test_rearrange_rejects_non_permutation():
    loop = LoopState.evenly_spaced(4, F(0))
    with pytest.raises(ValueError):
        rearrange(loop, [0, 1, 2, 2], P)


def test_rearrange_final_state_even_and_ordered():
    loop = LoopState.evenly_spaced(8, F(1, 16))
    target = [2, 6, 3, 7, 0, 4, 1, 5]
    sched = rearrange(loop, target, P)
    final = sched.meta["final"]
    pos = final.positions
    ring = [t for t, _ in sorted(pos.items(), key=lambda kv: kv[1])]
    if sched.meta["traversal_reversed"]:
        ring = ring[::-1]
    k = ring.index(target[0])
    assert ring[k:] + ring[:k] == target
    gaps = sorted(pos.values())
    assert all((b - a) == F(1, 8) for a, b in zip(gaps, gaps[1:]))


def test_rearrange_short_side_park_realizes_target_exactly():
    # a target whose final gap parks the last token short of the junction
    loop = LoopState.evenly_spaced(4, F(1, 8))
    target = [1, 2, 3, 0]
    sched = rearrange(loop, target, P)
    assert not sched.meta["traversal_reversed"]
    pos = sched.meta["final"].positions
    ring = [t for t, _ in sorted(pos.items(), key=lambda kv: kv[1])]
    k = ring.index(target[0])
    assert ring[k:] + ring[:k] == target


def test_rearrange_fast_cost_matches_event_simulation():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.choice([3, 4, 5, 6, 8])
        perm = list(range(n))
        rng.shuffle(perm)
        phase = F(rng.randrange(8 * n), 8 * n) % F(1, n)
        assert rearrange_cost(n, perm, phase) * P.t_loop == \
            rearrange_makespan(n, perm, phase, P)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_rearrange_worst_case_matches_formula(n):
    res = worst_case_search("rearrange", n, F(1, 8 * n), P)
    assert res.maximum == rearrange_worst(n, P)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("per_token, extra", [(4, 0), (4, 1), (8, 0)])
def test_rearrange_search_matches_brute_force(n, per_token, extra):
    # every phase x n! targets through the event path, lexicographic order,
    # strict > : the maximum and witness the rotation-class search must find
    points = per_token * n + extra
    gamma = F(1, points)
    best = None
    for k in range(points // n):
        phase = k * gamma
        for target in permutations(range(n)):
            mk = rearrange_makespan(n, target, phase, P)
            if best is None or mk > best[0]:
                best = (mk, target, phase)
    res = worst_case_search("rearrange", n, gamma, P)
    assert (res.maximum, res.witness) == \
        (best[0], {"target": best[1], "phase": str(best[2])})


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16])
def test_cnot_stack_worst_case_matches_formula(n):
    res = worst_case_search("cnot_stack", n, F(1, 8 * n), P)
    assert res.maximum == cnot_time(n, P)


def test_rearrange_worst_case_n2():
    res = worst_case_search("rearrange", 2, F(1, 16), P)
    assert res.maximum == rearrange_worst(2, P) == 100


def test_granularity_validation():
    with pytest.raises(ValueError):
        worst_case_search("swap", 8, F(1, 16), P)   # fewer than 4n points
    with pytest.raises(ValueError):
        worst_case_search("nonsense", 4, F(1, 32), P)
    for protocol in ("swap", "rearrange", "cnot_stack"):
        with pytest.raises(ValueError):
            worst_case_search(protocol, 1, F(1, 8), P)
    with pytest.raises(ValueError):
        worst_case_search("cnot_stack", 3, F(1, 24), P)


def test_simulate_cycle_exact_makespan():
    emb = embed_stack([build_patch(3, "folded")])
    sched = simulate_cycle(emb, P)
    assert sched.makespan == cycle_time_n2(P) == 3150
    sched.check_no_token_overlap()


def test_simulate_cycle_shuttle_only_limit():
    emb = embed_stack([build_patch(3, "folded")])
    zero = TimingParams(t_loop=400, t_1q=0, t_2q=0, t_meas=0)
    assert simulate_cycle(emb, zero).makespan == F(27, 8) * 400


def test_simulate_cycle_linearity_in_t_loop():
    emb = embed_stack([build_patch(3, "folded")])
    doubled = TimingParams(t_loop=800)
    assert simulate_cycle(emb, doubled).makespan == \
        F(27, 8) * 800 + 2 * P.t_1q + 4 * P.t_2q + P.t_meas


# the two mirrors of the published CNOT order that keep every logical check
MIRRORS = {"left-right": (("ur", "ul", "dr", "dl"), ("ur", "dr", "ul", "dl")),
           "top-bottom": (("dl", "dr", "ul", "ur"), ("dl", "ul", "dr", "ur"))}


@pytest.mark.parametrize("d, orders", [
    *(pytest.param(d, (patches.X_ORDER, patches.Z_ORDER), id=str(d)) for d in (3, 5, 7)),
    *(pytest.param(d, orders, id=f"{name}-{d}")
      for name, orders in MIRRORS.items() for d in (3, 5, 7))])
def test_boundary_loops_run_in_the_half_of_their_check_cnots(d, orders, monkeypatch):
    """Each boundary loop holds one ancilla, and its events lie in the half
    round where `check_circuit` puts that ancilla's two CNOTs: layers 1-2
    (slots 2, 3) or layers 3-4 (slots 4, 5), under the published CNOT order
    and under its two mirrors.  The second half starts at a two-token loop's
    fourth CNOT, since such a loop runs three in each half (a corner
    diagonal loop runs in one half only under a mirror)."""
    monkeypatch.setattr(patches, "X_ORDER", orders[0])
    monkeypatch.setattr(patches, "Z_ORDER", orders[1])
    patch = build_patch(d, "folded")
    emb = embed_stack([patch])
    sched = simulate_cycle(emb, P)
    assert sched.makespan == 3150
    sched.check_no_token_overlap()
    pair = next(l for l in emb.loops.values()
                if l.coord[0] != l.coord[1] and len(l.slots) == 2)
    middle = sorted(e.start for e in sched.events
                    if e.loop == f"{pair.coord}" and e.action == "cnot")[3]
    cnot_slots: dict[int, set[int]] = {}
    for e in check_circuit(patch).events:
        if e.action == "CNOT":
            for q in e.targets:
                cnot_slots.setdefault(q, set()).add(e.slot)
    halves = {"first": 0, "second": 0}
    for loop in emb.loops.values():
        if loop.coord[0] == loop.coord[1] or len(loop.slots) == 2:
            continue
        (_, _, coord), = loop.slots
        events = [e for e in sched.events if e.loop == f"{loop.coord}"]
        assert len(events) == 4   # two shuttles, two CNOTs
        if cnot_slots[patch.index[coord]] == {2, 3}:
            assert max(e.end for e in events) <= middle, loop.coord
            halves["first"] += 1
        else:
            assert cnot_slots[patch.index[coord]] == {4, 5}
            assert min(e.start for e in events) >= middle, loop.coord
            halves["second"] += 1
    assert halves == {"first": d - 1, "second": d - 1}


def test_simulate_cycle_rejects_multi_patch():
    emb = embed_stack([build_patch(3, "folded"), build_patch(3, "folded")])
    with pytest.raises(ValueError):
        simulate_cycle(emb, P)


def test_pipeline_convergence_n16():
    avgs = pipeline_model(16, P, 60)
    target = F(16, 3) * 1000
    assert abs(avgs[49] - target) / target < F(1, 100)


def test_pipeline_n12_steady_state_exact():
    avgs = pipeline_model(12, P, 80)
    for i in (60, 70, 78):
        increment = avgs[i] * (i + 1) - avgs[i - 1] * i
        assert increment == 4000


def test_pipeline_no_contention():
    avgs = pipeline_model(2, P, 10)
    assert all(a == cycle_time_n2(P) for a in avgs)


def test_pipeline_no_contention_reads_the_traced_round_where_cnots_limit():
    """At t_2q = 300 a two-token loop's three CNOTs outlast a boundary
    loop's 5/4 lap, so every round averages the traced 4150 ns."""
    assert pipeline_model(2, TimingParams(t_2q=300), 10) == [4150] * 10


@pytest.mark.parametrize("t_2q, terms, makespan", [
    (100, PUBLISHED_TERMS, 3150),
    (200, PUBLISHED_TERMS, 3550),     # the tie: both loop kinds end at 900 ns
    (300, {"t_loop": F(19, 8), "t_1q": 2, "t_2q": 6, "t_meas": 1}, 4150)])
def test_simulate_cycle_terms_name_the_limiting_loop(t_2q, terms, makespan):
    sched = simulate_cycle(embed_stack([build_patch(3, "folded")]), TimingParams(t_2q=t_2q))
    assert (sched.meta["terms"], sched.makespan) == (terms, makespan)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_pipeline_devices_beyond_the_token_count_change_nothing(n):
    """n tokens keep at most n devices busy, so a million devices run as n."""
    many = TimingParams(meas_devices=10**6)
    assert pipeline_model(n, many, 12) == pipeline_model(n, TimingParams(meas_devices=n), 12)


def test_schedule_text_uses_rationals():
    loop = LoopState({0: F(1, 3), 1: F(2, 3)})
    text = swap_protocol(loop, 0, 1, P).to_text()
    assert "400/3" in text and "start" in text and "duration" in text


def test_no_simultaneous_same_position():
    # rigid rotations preserve distinctness at every event boundary
    loop = LoopState.evenly_spaced(6, F(1, 12))
    sched = rearrange(loop, [3, 1, 4, 0, 5, 2], P)
    final = sched.meta["final"]
    assert len(set(final.positions.values())) == len(final.positions)


# -- properties over random rational instances -------------------------------------

rationals = st.fractions(min_value=-1, max_value=2, max_denominator=48)


def _ns(min_value):
    return st.fractions(min_value=min_value, max_value=2000, max_denominator=60)


# the published points, a zero gate time, the rational CLI config, and random
# rational timings, so that the tick scale is rarely 1 ns
timings = st.one_of(
    st.sampled_from([P, OTHER, TimingParams(t_2q=0), ODD]),
    st.builds(TimingParams, t_loop=_ns(F(1, 60)), t_1q=_ns(0), t_2q=_ns(0), t_meas=_ns(0),
              meas_devices=st.integers(1, 6)))


@st.composite
def rearrangements(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return n, draw(st.permutations(range(n))), draw(rationals)


@given(rearrangements())
@settings(max_examples=80, deadline=None)
def test_rearrange_cost_equals_event_makespan(instance):
    n, target, phase = instance
    assert rearrange_cost(n, target, phase) * P.t_loop == \
        rearrange_makespan(n, target, phase, P)


@given(rearrangements())
@settings(max_examples=80, deadline=None)
def test_rearrange_final_ring_realizes_target(instance):
    n, target, phase = instance
    sched = rearrange(LoopState.evenly_spaced(n, phase), target, P)
    pos = sched.meta["final"].positions
    ring = [t for t, _ in sorted(pos.items(), key=lambda kv: kv[1])]
    if sched.meta.get("traversal_reversed"):
        ring = ring[::-1]
    k = ring.index(target[0])
    assert ring[k:] + ring[:k] == list(target)


@given(st.lists(rationals, min_size=2, max_size=2, unique_by=lambda x: x % 1))
@settings(max_examples=100, deadline=None)
def test_pair_episode_shuttles_at_most_five_quarter_laps(positions):
    sched = swap_protocol(LoopState({0: positions[0], 1: positions[1]}), 0, 1, P)
    assert sched.meta["shuttle"] <= F(5, 4) * P.t_loop


# -- the Fraction episode path and searches that the lattice kernel replaced -------
#
# Kept verbatim as oracles: every plan, trace, maximum and witness of the
# integer kernel must equal theirs.

class RefPlan(NamedTuple):
    first: int
    second: int
    direction: str            # "fwd" | "bwd"
    lead_in: F                # ring rotation until `first` peels
    gap: F                    # further rotation until `second` peels
    exit: F                   # min(gap, 1 - gap): slot swept back the short way
    shuttle: F                # lead_in + gap + exit


def ref_plan_episode(loop: LoopState, a: int, b: int) -> RefPlan:
    da, db = loop.positions[a], loop.positions[b]
    options = []
    for first, second, direction, lead, gap in (
        (a, b, "fwd", da, (db - da) % 1),
        (b, a, "fwd", db, (da - db) % 1),
        (b, a, "bwd", (1 - db) % 1, (db - da) % 1),
        (a, b, "bwd", (1 - da) % 1, (da - db) % 1),
    ):
        exit_ = min(gap, (1 - gap) % 1)
        options.append(RefPlan(first, second, direction, lead, gap, exit_,
                               lead + gap + exit_))
    return min(options, key=lambda p: (p.shuttle, p.direction, p.first))


def ref_rotate(loop, rho, direction):
    sgn = -1 if direction == "fwd" else 1
    for t in loop.positions:
        loop.positions[t] = (loop.positions[t] + sgn * rho) % 1


def ref_run_episode(loop, a, b, gate_time, params, schedule, t0, gate_label="gate"):
    lap = params.t_loop
    plan = ref_plan_episode(loop, a, b)
    t = t0
    spectators = tuple(sorted(loop.positions))
    if plan.lead_in:
        schedule.append(t, plan.lead_in * lap, "shuttle_in", spectators)
        t += plan.lead_in * lap
    ref_rotate(loop, plan.lead_in, plan.direction)
    loop.port.append(plan.first)
    loop.positions.pop(plan.first)
    if plan.gap:
        schedule.append(t, plan.gap * lap, "shuttle_in",
                        tuple(sorted(loop.positions)))
        t += plan.gap * lap
    ref_rotate(loop, plan.gap, plan.direction)
    loop.port.append(plan.second)
    loop.positions.pop(plan.second)
    if gate_time:
        schedule.append(t, gate_time, gate_label, (a, b))
        t += gate_time
    if plan.exit:
        schedule.append(t, plan.exit * lap, "shuttle_out",
                        tuple(sorted(loop.positions)) + (plan.second,))
        t += plan.exit * lap
    rewind = "bwd" if plan.direction == "fwd" else "fwd"
    ref_rotate(loop, plan.gap, rewind)
    loop.port.pop()
    loop.positions[plan.second] = F(0)
    return t


def ref_swap_protocol(loop, a, b, params):
    work = loop.copy()
    sched = TimedSchedule(meta={"gate": "SWAP"})
    ref_run_episode(work, a, b, params.t_2q, params, sched, F(0), gate_label="SWAP")
    sched.meta["final"] = work
    sched.meta["shuttle"] = sched.shuttle_time()
    sched.check_no_token_overlap()
    return sched


def ref_search_swap(n, gamma, params):
    points = int(1 / gamma)
    best = None
    for ia in range(points):
        for ib in range(ia + 1, points):
            da, db = ia * gamma, ib * gamma
            sched = ref_swap_protocol(LoopState({0: da, 1: db}), 0, 1, params)
            if best is None or sched.makespan > best[0]:
                best = (sched.makespan, (da, db), sched.shuttle_time())
    mx, (da, db), shuttle = best
    return mx, shuttle, {"a": str(da), "b": str(db)}


def ref_fig13_config(n, d_i, g):
    slot = F(1, n)
    positions = {0: d_i % 1, 1: (d_i + g) % 1}
    if n > 2:
        positions[2] = (d_i + F(1, 2)) % 1
        positions[3] = (d_i + F(1, 2) + g) % 1
    taken = set(positions.values())
    nxt = 4
    for j in range(n):
        p = (d_i + j * slot) % 1
        if p not in taken and len(positions) < n:
            positions[nxt] = p
            taken.add(p)
            nxt += 1
    return LoopState(positions)


def ref_search_cnot_stack(n, gamma, params):
    k = n // 2
    slot = F(1, n)
    if k == 1:
        sched = TimedSchedule()
        sched.append(0, params.t_2q, "cnot", (0, 1))
        sched.append(params.t_2q, slot * params.t_loop, "shuttle_in", (0, 1))
        sched.append(params.t_2q + slot * params.t_loop, params.t_2q, "cnot", (0, 1))
        return sched.makespan, sched.shuttle_time(), {"lead_offset": "0", "pair_gap": "0"}
    best = None
    for delta in range(1, k):
        g = delta * slot
        for d_i in [j * gamma for j in range(int(g / 2 / gamma) + 1)]:
            loop = ref_fig13_config(n, d_i, g)
            sched = TimedSchedule()
            t = ref_run_episode(loop, 0, 1, params.t_2q, params, sched, F(0),
                                gate_label="cnot")
            t = ref_run_episode(loop, 2, 3, params.t_2q, params, sched, t, gate_label="cnot")
            if best is None or t > best[0]:
                best = (t, {"lead_offset": str(d_i), "pair_gap": str(g)},
                        sched.shuttle_time())
    mx, witness, shuttle = best
    return mx, shuttle, witness


def _summary(res):
    return res.maximum, res.shuttle_maximum, res.witness


@pytest.mark.parametrize("params", [P, OTHER], ids=["silicon", "t_loop-1600"])
@pytest.mark.parametrize("n", [2, 4, 8, 12, 16])
def test_cnot_stack_search_matches_the_fraction_reference(n, params):
    for points in (4 * n, 4 * n + 1, 8 * n):
        gamma = F(1, points)
        assert _summary(worst_case_search("cnot_stack", n, gamma, params)) == \
            ref_search_cnot_stack(n, gamma, params)


# the swap search depends on n only through the lattice: these are the
# lattices 4n, 4n + 1 and 8n for n = 2, 4, 8 (the reference's event path
# costs about 0.3 ms per configuration, so the lattices of n = 12 and 16,
# 2,000 to 8,000 configurations each, are left to the property test below)
@pytest.mark.parametrize("params", [P, OTHER], ids=["silicon", "t_loop-1600"])
@pytest.mark.parametrize("points", [8, 9, 16, 17, 32, 33, 64])
def test_swap_search_matches_the_fraction_reference(points, params):
    gamma = F(1, points)
    assert _summary(worst_case_search("swap", 2, gamma, params)) == \
        ref_search_swap(2, gamma, params)


@st.composite
def episodes(draw):
    positions = draw(st.lists(rationals, min_size=2, max_size=6, unique_by=lambda x: x % 1))
    a, b = draw(st.lists(st.integers(0, len(positions) - 1), min_size=2, max_size=2,
                         unique=True))
    loop = LoopState(dict(enumerate(positions)))
    return loop, a, b, draw(timings)


@given(episodes())
@settings(max_examples=60, deadline=None)
def test_episode_matches_the_fraction_reference(episode):
    loop, a, b, params = episode
    points, pos = _on_lattice(loop.positions)
    first, second, direction, *units = _plan_lattice(pos[a], pos[b], points, a, b)
    assert (first, second, direction, *(F(u, points) for u in units)) == \
        ref_plan_episode(loop, a, b)
    before = list(loop.positions.items())
    sched = swap_protocol(loop, a, b, params)
    # the input loop keeps its positions, their order and its empty port
    assert list(loop.positions.items()) == before and loop.port == []
    ref = ref_swap_protocol(loop, a, b, params)
    assert in_ns(sched) == in_ns(ref)
    assert sched.makespan == ref.makespan
    assert sched.meta["shuttle"] == ref.meta["shuttle"]
    assert sched.meta["final"] == ref.meta["final"]
    assert list(sched.meta["final"].positions) == list(ref.meta["final"].positions)
    assert sched.meta["final"].port is not loop.port


# -- the Fraction rearrangement that the lattice walk replaced -------------------
#
# Kept verbatim as the oracle: every event, the meta and the final ring
# (down to its dict order) of the lattice walk must equal its own.

def ref_short_arc(dist):
    dist %= 1
    return (dist, "fwd") if dist <= 1 - dist else ((1 - dist) % 1, "bwd")


def ref_rearrange(loop, target_order, params):
    n = len(loop.positions)
    if sorted(target_order) != sorted(loop.positions):
        raise ValueError("target_order must be a permutation of the loop's tokens")
    if loop.port:
        raise OccupiedPortError("port must be empty at the start of rearrangement")
    ring = [t for t, _ in sorted(loop.positions.items(), key=lambda kv: kv[1])]
    if list(target_order) == ring:
        return TimedSchedule(meta={"final": loop.copy(), "identity": True})
    lap = params.t_loop
    work = loop.copy()
    sched = TimedSchedule(meta={"target": tuple(target_order)})
    lead_idx = min(range(n), key=lambda i: (min(work.positions[target_order[i]],
                                                1 - work.positions[target_order[i]]),
                                            work.positions[target_order[i]]))
    order = list(target_order[lead_idx:]) + list(target_order[:lead_idx])
    t = F(0)
    spacing = F(1, n)
    for k, tok in enumerate(order[:-1]):
        dist, direction = ref_short_arc(work.positions[tok])
        if dist:
            sched.append(t, dist * lap, "shuttle_in", tuple(sorted(work.positions)))
            t += dist * lap
        ref_rotate(work, dist, direction)
        work.positions.pop(tok)
        work.port.append(tok)
    last = order[-1]
    before = ref_short_arc((work.positions[last] - spacing) % 1)
    past = ref_short_arc((work.positions[last] + spacing) % 1)
    (dist, direction), side = min((before, "before"), (past, "past"),
                                  key=lambda o: (o[0][0], o[1]))
    if dist:
        sched.append(t, dist * lap, "shuttle_stop_short", (last,))
        t += dist * lap
    ref_rotate(work, dist, direction)
    pop_rotation = "bwd" if side == "before" else "fwd"
    for j, tok in enumerate(reversed(work.port)):
        work.positions[tok] = F(0)
        if j < len(work.port) - 1:
            sched.append(t, spacing * lap, "shuttle_out", tuple(sorted(work.positions)))
            t += spacing * lap
            ref_rotate(work, spacing, pop_rotation)
    work.port.clear()
    sched.meta["traversal_reversed"] = side == "past"
    sched.meta["final"] = work
    sched.check_no_token_overlap()
    return sched


@st.composite
def rearrange_loops(draw):
    positions = draw(st.lists(rationals, min_size=2, max_size=9, unique_by=lambda x: x % 1))
    tokens = draw(st.lists(st.integers(0, 30), min_size=len(positions),
                           max_size=len(positions), unique=True))
    loop = LoopState(dict(zip(tokens, positions)))
    ring = sorted(tokens, key=loop.positions.get)
    target = draw(st.one_of(st.just(ring), st.permutations(tokens)))
    return loop, target, draw(timings)


@given(rearrange_loops())
@settings(max_examples=150, deadline=None)
def test_rearrange_matches_the_fraction_reference(instance):
    loop, target, params = instance
    sched, ref = rearrange(loop, target, params), ref_rearrange(loop, target, params)
    assert in_ns(sched) == in_ns(ref)
    assert sched.makespan == ref.makespan
    assert sched.meta.get("traversal_reversed") == ref.meta.get("traversal_reversed")
    assert sched.meta["final"] == ref.meta["final"]
    assert list(sched.meta["final"].positions) == list(ref.meta["final"].positions)
    assert sched.meta == ref.meta


@pytest.mark.parametrize("params", [P, OTHER], ids=["silicon", "t_loop-1600"])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_cnot_stack_witness_resimulates_to_the_maximum(n, params):
    res = worst_case_search("cnot_stack", n, F(1, 8 * n), params)
    loop = ref_fig13_config(n, F(res.witness["lead_offset"]), F(res.witness["pair_gap"]))
    sched = TimedSchedule()
    t = ref_run_episode(loop, 0, 1, params.t_2q, params, sched, F(0), gate_label="cnot")
    t = ref_run_episode(loop, 2, 3, params.t_2q, params, sched, t, gate_label="cnot")
    assert (sched.ns(t), sched.makespan, sched.shuttle_time()) == \
        (res.maximum, res.maximum, res.shuttle_maximum)


@pytest.mark.parametrize("protocol, n, points, expected", [
    ("swap", 8, 32, 496), ("cnot_stack", 16, 128, 119), ("cnot_stack", 2, 16, 1),
    ("cnot_stack", 4, 32, 5),
] + [("rearrange", n, 8 * n, 8 * (factorial(n - 1) + 1)) for n in (2, 3, 5, 7)]
  + [("rearrange", 4, 17, 4 * (factorial(3) + 1))])
def test_search_reports_configurations_scored(protocol, n, points, expected):
    assert worst_case_search(protocol, n, F(1, points), P).configurations == expected


def test_plan_lattice_least_shuttle_and_direction_is_unique():
    """(shuttle, direction) alone orders the four episode options on every
    lattice of 2-64 points, so no token id is needed to break a tie."""
    for points in range(2, 65):
        for pa in range(points):
            for pb in range(points):
                if pa == pb:
                    continue
                ab, ba = (pb - pa) % points, (pa - pb) % points
                keys = sorted([(pa + ab, "fwd"), (pb + ba, "fwd"),
                               ((points - pb) % points + ab, "bwd"),
                               ((points - pa) % points + ba, "bwd")])
                assert keys[0] != keys[1]
                _, _, direction, lead, gap, _, _ = _plan_lattice(pa, pb, points, 0, 1)
                assert (lead + gap, direction) == keys[0]


# -- the Fraction cycle trace and pipeline that the tick versions replaced -------
#
# Kept verbatim as oracles (the pipeline's import of cycle_time_n2 moved to
# the top of this module): every event, makespan and running average of the
# integer-tick versions must equal theirs as Fractions.

def ref_simulate_cycle(embedding, params: TimingParams) -> TimedSchedule:
    """Event trace of one stabilizer round of a single folded patch.

    Reproduces the published per-loop itineraries: the first two CNOT layers
    are limited by a boundary-ancilla loop finishing both its checks early
    (a half lap to its first corner, then three quarters to the second); the
    last two layers mirror this in the late-boundary loops; entering the port
    costs 7/8 of a lap in the limiting loop; measurement runs once on the
    loop's devices.  Basis-change single-qubit gates bookend the round.
    The makespan equals 27/8 t_loop + 2 t_1q + 4 t_2q + t_meas exactly.
    """
    if embedding.patch_kind != "folded" or embedding.num_patches != 1:
        raise ValueError("cycle tracing supports a single folded patch (n = 2)")
    t_loop, t1, t2, tm = params.t_loop, params.t_1q, params.t_2q, params.t_meas

    sched = TimedSchedule(meta={"kind": "cycle", "n": 2})
    loops = sorted(embedding.loops.values(), key=lambda l: l.coord)

    def classify(loop) -> str:
        if loop.coord[0] == loop.coord[1]:
            return "diagonal"
        if len(loop.slots) == 2:
            return "bulk"
        # single-occupant off-diagonal loop: a boundary ancilla; early if its
        # two CNOTs fall in the first half, late otherwise.  The early ones sit
        # on the right column's loops: the right-column Z ancillas unfolded,
        # the bottom-row X ancillas folded onto them (the left-column Z
        # ancillas fold onto the top row's loops, and run late)
        return "boundary_early" if loop.coord[1] == 2 * embedding.distance - 1 \
            else "boundary_late"

    kinds = {l.coord: classify(l) for l in loops}

    t = Fraction(0)
    sched.append(t, t1, "basis_change_H", (), "x-ancilla loops")
    t += t1

    def half_round(start: Fraction, which: str) -> Fraction:
        """One pair of CNOT layers across all loops; returns the phase makespan."""
        boundary_kind = "boundary_early" if which == "first" else "boundary_late"
        end = start
        for loop in loops:
            name = f"{loop.coord}"
            kind = kinds[loop.coord]
            lap = t_loop / 2 if loop.speed_class == "double" else t_loop
            toks = tuple(range(len(loop.slots)))
            tt = start
            if kind == "bulk":
                legs = [Fraction(0), Fraction(1, 2), Fraction(1, 4)]
            elif kind == "diagonal":
                legs = [Fraction(0), Fraction(1, 2)]
            elif kind == boundary_kind:
                legs = [Fraction(1, 2), Fraction(3, 4)]
            else:
                continue  # idle this half
            for leg in legs:
                if leg:
                    sched.append(tt, leg * lap, "shuttle", toks, name)
                    tt += leg * lap
                sched.append(tt, t2, "cnot", toks, name)
                tt += t2
            end = max(end, tt)
        return end

    t = half_round(t, "first")
    t = half_round(t, "second")
    sched.append(t, t1, "basis_change_H", (), "x-ancilla loops")
    t += t1
    sched.append(t, Fraction(7, 8) * t_loop, "shuttle_to_port", (), "limiting late loop")
    t += Fraction(7, 8) * t_loop
    sched.append(t, tm, "measure", (), "all ancilla loops")
    t += tm
    return sched


def ref_pipeline_model(n: int, params: TimingParams, rounds: int) -> list[Fraction]:
    """Running-average cycle time under measurement-device contention.

    Each token's round is a compute phase (t_cyc(2) - t_meas) followed by a
    t_meas service at one of m devices; tokens queue in ready order.  Returns
    the running average cycle time (mean over tokens of completion/rounds)
    after each round.  Long-run average -> max(t_cyc(2), (n/m) t_meas).
    """
    if n < 2 or rounds < 1:
        raise ValueError("need n >= 2 and rounds >= 1")
    compute = cycle_time_n2(params) - params.t_meas
    tm = params.t_meas
    m = min(params.meas_devices, n)   # n tokens never keep more than n devices busy
    device_free = [Fraction(0)] * m
    done = [Fraction(0)] * n
    averages: list[Fraction] = []
    for r in range(1, rounds + 1):
        ready = sorted(((done[k] + compute, k) for k in range(n)))
        for ready_t, k in ready:
            i = min(range(m), key=lambda j: device_free[j])
            start = max(ready_t, device_free[i])
            device_free[i] = start + tm
            done[k] = start + tm
        averages.append(sum(done, Fraction(0)) / (n * r))
    return averages


@given(timings, st.sampled_from([3, 5, 7]))
@settings(max_examples=40, deadline=None)
def test_simulate_cycle_matches_the_fraction_reference(params, d):
    emb = embed_stack([build_patch(d, "folded")])
    sched, ref = simulate_cycle(emb, params), ref_simulate_cycle(emb, params)
    assert in_ns(sched) == in_ns(ref)
    assert sched.makespan == ref.makespan
    terms = sched.meta.pop("terms")
    assert sched.meta == ref.meta
    # the critical path's terms sum to the makespan, which is T_cyc(2) at every d
    assert sum(k * getattr(params, name) for name, k in terms.items()) == sched.makespan
    assert cycle_time_n2(params) == sched.makespan
    # the boundary loops limit each half round, giving the published terms,
    # exactly while a CNOT takes at most half a lap
    assert (terms == PUBLISHED_TERMS) == (2 * params.t_2q <= params.t_loop)


@given(timings, st.integers(2, 20), st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_pipeline_model_matches_the_fraction_reference(params, n, rounds):
    assert pipeline_model(n, params, rounds) == ref_pipeline_model(n, params, rounds)


@pytest.mark.parametrize("params", [P, OTHER, ODD], ids=["silicon", "t_loop-1600", "rational"])
def test_pipeline_model_matches_the_fraction_reference_at_the_published_sizes(params):
    for n, rounds in ((16, 50), (12, 80), (2, 10)):
        avgs = pipeline_model(n, params, rounds)
        assert avgs == ref_pipeline_model(n, params, rounds)
        assert all(type(a) is Fraction for a in avgs)


@given(st.integers(-2, 24), rationals)
@settings(max_examples=100, deadline=None)
def test_evenly_spaced_equals_the_fraction_ring(n, phase):
    ring = LoopState.evenly_spaced(n, phase)
    want = {k: (phase + F(k, n)) % 1 for k in range(n)}
    assert ring.positions == want and list(ring.positions) == list(want)
    assert all(type(p) is Fraction for p in ring.positions.values()) and ring.port == []


# -- the overlap check on integer ticks --------------------------------------------

def test_overlap_check_catches_one_tick_and_accepts_touching_events():
    sched = TimedSchedule(scale=F(1, 7))
    sched.append(0, 5, "shuttle_in", (0, 1))
    sched.append(5, 3, "gate", (1, 2))          # starts where the shuttle ends
    sched.append(2, 6, "shuttle_in", (0,), "other loop")   # token ids are per loop
    sched.check_no_token_overlap()
    sched.append(7, 4, "gate", (2,))             # one tick (1/7 ns) into the gate
    with pytest.raises(AssertionError, match=r"token \('loop', 2\) double-booked"):
        sched.check_no_token_overlap()


def test_schedule_reports_ticks_as_fractions_of_a_ns():
    sched = TimedSchedule(scale=F(2, 21))
    sched.append(3, 4, "shuttle_in", (0,))
    sched.append(7, 14, "gate", (0,))
    assert (sched.makespan, sched.shuttle_time()) == (2, F(8, 21))
    assert type(sched.makespan) is Fraction and sched.ticks(F(2, 3)) == 7
    with pytest.raises(ValueError, match="whole number"):
        sched.ticks(F(1, 21))
    assert sched.to_text().splitlines()[1].split()[:2] == ["2/7", "8/21"]
