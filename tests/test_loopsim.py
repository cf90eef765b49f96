"""Exact-rational loop simulation: closed-form anchors, searches, traces."""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from loopfold.costs import cnot_time, cycle_time_n2, rearrange_worst
from loopfold.loopsim import (SILICON, LoopState, OccupiedPortError, TimingParams,
                              _rearrange_cost, pipeline_model, rearrange,
                              rearrange_makespan, simulate_cycle, swap_protocol,
                              worst_case_search)
from loopfold.patches import build_patch, embed_stack

P = SILICON


def test_silicon_defaults():
    assert (P.t_loop, P.t_1q, P.t_2q, P.t_meas) == (400, 200, 100, 1000)
    assert P.meas_devices == 3 and P.t_int == 200


def test_episode_s_gate_instance():
    # the published intra-loop CZ instance: lead 1/8 lap, half-lap gap
    loop = LoopState({0: F(1, 8), 1: F(5, 8)})
    sched = swap_protocol(loop, 0, 1, P, gate="CZ")
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


def test_physical_swap_variant_charges_resync():
    params = TimingParams(resync_ns=F(75))
    loop = LoopState({0: F(1, 8), 1: F(5, 8)})
    base = swap_protocol(loop.copy(), 0, 1, params)
    resync = swap_protocol(loop.copy(), 0, 1, params, physical_swap=True)
    assert resync.makespan == base.makespan + 75


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
        assert _rearrange_cost(n, perm, phase) * P.t_loop == \
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


@st.composite
def rearrangements(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    return n, draw(st.permutations(range(n))), draw(rationals)


@given(rearrangements())
@settings(max_examples=80, deadline=None)
def test_rearrange_cost_equals_event_makespan(instance):
    n, target, phase = instance
    assert _rearrange_cost(n, target, phase) * P.t_loop == \
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
