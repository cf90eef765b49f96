"""Exact-rational discrete-event simulation of shuttling loops.

Positions live on the unit circle as Fractions (fractions of the loop
perimeter); the port junction sits at position 0 and a token's position is
its forward distance to the junction.  Parameters and every reported time
are Fractions of a nanosecond, and all closed-form comparisons in the tests
are exact equalities.  Inside, everything runs on integers: each protocol
puts its positions on a lattice of `points` per lap and its times on ticks
of one `TimedSchedule.scale` (ns per tick, 1 over the lcm of the
denominators of t_loop / points and of the timing parameters it uses), so
the event path, its overlap check and the pipeline model add and compare
ints, and times become Fractions once, at output (`makespan`,
`shuttle_time`, `to_text`, `TimedSchedule.ns`).  One kernel,
`_plan_lattice`, plans every pair-gate episode (for `swap_protocol` and the
swap and CNOT-stack searches), and the rearrangement rules `_arc`, `_lead`
and `_park` serve both `rearrange` and its search.  A LoopState laps in
t_loop; `simulate_cycle` reads a diagonal loop's double speed from the
embedding's LoopRecord and the half rounds in which each loop works from
`patches.first_half_circuit` and `patches.second_half_circuit` of its
patch.  The traced round is the one model of T_cyc(2): `cycle_time_n2`,
which `costs` imports, is its makespan.

Intra-loop pair-gate episode (the 4-step protocol):
  1. rotate the ring until the leading pair member peels into the port
     (entry order and direction chosen to minimize the total),
  2. continue one pair gap g until the second member peels,
  3. apply the gate with every other token held,
  4. the second member rides back out at the junction while the ring rotates
     the first member's emptied slot onto it -- the shorter way around, so
     the exit costs min(g, 1-g); the first member stays in the port.
The shuttle cost is lead_in + g + min(g, 1-g), at most 5/4 of a lap over all
configurations (attained by a quarter-lap lead-in with the pair diametrically
separated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm
from numbers import Integral
from operator import attrgetter
from typing import NamedTuple, Optional, Sequence

from .patches import build_patch, embed_stack, first_half_circuit, second_half_circuit


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class TimingParams:
    """Hardware time constants in nanoseconds (exact rationals)."""

    t_loop: Fraction = Fraction(400)
    t_1q: Fraction = Fraction(200)
    t_2q: Fraction = Fraction(100)
    t_meas: Fraction = Fraction(1000)
    meas_devices: int = 3
    t_int: Optional[Fraction] = None     # inter-loop hop; defaults to t_loop / 2
    slack_ns: Fraction = Fraction(500)   # additive slack in the effective cycle time

    def __post_init__(self):
        for name in ("t_loop", "t_1q", "t_2q", "t_meas", "slack_ns"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.t_loop <= 0:
            raise ValueError("t_loop must be positive")
        if self.t_int is None:
            object.__setattr__(self, "t_int", self.t_loop / 2)
        else:
            object.__setattr__(self, "t_int", _frac(self.t_int))
            if self.t_int < 0:
                raise ValueError("t_int must be nonnegative")
        m = self.meas_devices
        if isinstance(m, bool) or not isinstance(m, Integral) or m < 1:
            raise ValueError(f"meas_devices must be an integer >= 1, got {m!r}")


SILICON = TimingParams()


class OccupiedPortError(RuntimeError):
    """The protocol requires an empty port at the start."""


@dataclass
class LoopState:
    """Tokens on one loop: id -> forward distance to the junction, plus a LIFO port."""

    positions: dict[int, Fraction]
    port: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.positions = {t: _frac(p) % 1 for t, p in self.positions.items()}
        if len(set(self.positions.values())) != len(self.positions):
            raise ValueError("token positions must be distinct")

    @classmethod
    def _trusted(cls, positions: dict[int, Fraction], port: Sequence[int] = ()) -> "LoopState":
        """A state from positions that are already distinct Fractions in [0, 1)
        (a copy, or a protocol's lattice integers over its points), built
        without `__post_init__`'s normalization and check."""
        state = cls.__new__(cls)
        state.positions, state.port = positions, list(port)
        return state

    @classmethod
    def evenly_spaced(cls, n: int, phase: Fraction = Fraction(0)) -> "LoopState":
        """Tokens 0..n-1 at phase + k/n, in ring order."""
        phase = _frac(phase)
        points = lcm(n, phase.denominator)
        base = phase.numerator * (points // phase.denominator)
        return cls._trusted({k: Fraction((base + k * (points // n)) % points, points)
                             for k in range(n)})

    def copy(self) -> "LoopState":
        return LoopState._trusted(dict(self.positions), self.port)


class TimedEvent(NamedTuple):
    """One event, its start and duration in ticks of its schedule's scale."""

    start: int
    duration: int
    action: str
    tokens: tuple[int, ...]
    loop: str = "loop"

    @property
    def end(self) -> int:
        return self.start + self.duration


def _tick_scale(*times: Fraction) -> Fraction:
    """The ns per tick that makes each of `times` (ns) a whole number of ticks:
    1 over the lcm of their denominators."""
    return Fraction(1, lcm(*(t.denominator for t in times)))


@dataclass
class TimedSchedule:
    """Events on integer ticks; `scale` is the Fraction of a ns per tick."""

    events: list[TimedEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    scale: Fraction = Fraction(1)

    def ns(self, ticks: int) -> Fraction:
        """`ticks` of this schedule as a Fraction of a ns."""
        return ticks * self.scale

    def ticks(self, ns: Fraction) -> int:
        """`ns` in ticks; ValueError if it is not a whole number of them."""
        q = ns / self.scale
        if q.denominator != 1:
            raise ValueError(f"{ns} ns is not a whole number of {self.scale} ns ticks")
        return q.numerator

    @property
    def makespan(self) -> Fraction:
        return self.ns(max((e.end for e in self.events), default=0))

    def append(self, start: int, duration: int, action, tokens, loop="loop") -> TimedEvent:
        self.events.append(ev := TimedEvent(start, duration, action, tuple(tokens), loop))
        return ev

    def shuttle_time(self) -> Fraction:
        return self.ns(sum(e.duration for e in self.events if e.action.startswith("shuttle")))

    def check_no_token_overlap(self) -> None:
        """No token participates in two events at once (ids are per loop)."""
        last: dict[tuple, TimedEvent] = {}   # each token's latest event so far
        for b in sorted(self.events, key=attrgetter("start", "duration")):   # (start, end) order
            for t in b.tokens:
                a = last.get((b.loop, t))
                if a is not None and b.start < a.end:
                    raise AssertionError(f"token {(b.loop, t)} double-booked: {a} vs {b} "
                                         f"(ticks of {self.scale} ns)")
                last[b.loop, t] = b

    def to_text(self) -> str:
        """Columnar dump with rational times in ns rendered p/q."""
        rows = [("start", "duration", "action", "loop", "tokens")]
        for e in sorted(self.events, key=lambda e: (e.start, e.action)):
            rows.append((str(self.ns(e.start)), str(self.ns(e.duration)), e.action, e.loop,
                         ",".join(map(str, e.tokens))))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows) + "\n"


# -- pair-gate episode ----------------------------------------------------------

def _plan_lattice(pa: int, pb: int, points: int, a: int, b: int) -> tuple:
    """The episode plan for tokens a, b at positions pa, pb of a `points` lattice.

    Returns (first, second, direction, lead_in, gap, exit, shuttle), the last
    four in lattice units.  Of the four entry orders and directions, the one
    with the least shuttle wins, and a tie prefers "bwd".  No tie is left
    after that: the two options of one direction differ in lead-in + gap by
    the a->b gap or by the lap minus it, never by 0.
    """
    ab, ba = (pb - pa) % points, (pa - pb) % points
    exit_ = min(ab, ba)
    first, second, direction, lead, gap = min(
        ((a, b, "fwd", pa, ab), (b, a, "fwd", pb, ba),
         (b, a, "bwd", (points - pb) % points, ab), (a, b, "bwd", (points - pa) % points, ba)),
        key=lambda o: (o[3] + o[4], o[2]))
    return first, second, direction, lead, gap, exit_, lead + gap + exit_


def _apply_episode(positions: dict[int, int], port: list[int], first: int, second: int,
                   direction: str, lead: int, points: int) -> None:
    """One episode's net effect on lattice positions, in place.

    `first` enters the port, `second` takes first's slot at the junction and
    every other token ends rotated by the lead-in (the gap is swept in and
    back out).
    """
    del positions[first], positions[second]
    shift = -lead if direction == "fwd" else lead
    for t in positions:
        positions[t] = (positions[t] + shift) % points
    port.append(first)
    positions[second] = 0


def _on_lattice(positions: dict[int, Fraction], n: int = 1) -> tuple[int, dict[int, int]]:
    """Positions as integers on the lattice of the lcm of n and their denominators."""
    points = lcm(n, *(p.denominator for p in positions.values()))
    return points, {t: p.numerator * (points // p.denominator) for t, p in positions.items()}


def swap_protocol(loop: LoopState, a: int, b: int, params: TimingParams) -> TimedSchedule:
    """The 4-step intra-loop SWAP protocol between tokens a and b.

    The episode is planned by `_plan_lattice` on the lattice of the whole
    ring and timed on ticks of one lattice step, t_loop / points, and of
    t_2q.  Returns the timed schedule; meta["final"] is the LoopState after
    it, `first` parked in the port and `second` in first's slot with the
    ring net-rotated by the lead-in.  `loop` itself is left unchanged.
    """
    if a == b or a not in loop.positions or b not in loop.positions:
        raise ValueError("need two distinct tokens present in the loop")
    if loop.port:
        raise OccupiedPortError("port must be empty at the start of the protocol")
    points, pos = _on_lattice(loop.positions)
    first, second, direction, lead, gap, exit_, _ = _plan_lattice(pos[a], pos[b], points, a, b)
    sched = TimedSchedule(meta={"gate": "SWAP"},
                          scale=_tick_scale(params.t_loop / points, params.t_2q))
    unit, t = sched.ticks(params.t_loop / points), 0
    ring = tuple(sorted(pos))
    for duration, action, tokens in (
            (lead * unit, "shuttle_in", ring),
            (gap * unit, "shuttle_in", tuple(x for x in ring if x != first)),
            (sched.ticks(params.t_2q), "SWAP", (a, b)),
            # exit: the ring sweeps first's emptied slot back onto the junction
            # (the short way around) while `second` rides out into it
            (exit_ * unit, "shuttle_out", tuple(x for x in ring if x not in (a, b)) + (second,))):
        if duration:
            t = sched.append(t, duration, action, tokens).end
    _apply_episode(pos, [], first, second, direction, lead, points)
    sched.meta["final"] = LoopState._trusted(
        {x: Fraction(p, points) for x, p in pos.items()}, [first])
    sched.meta["shuttle"] = sched.shuttle_time()
    sched.check_no_token_overlap()
    return sched


# -- rearrangement (LIFO port scheme) --------------------------------------------
#
# One copy of each rule, in lattice units: `rearrange` walks it on the actual
# positions and the worst-case search tabulates it for evenly spaced rings.

def _arc(g: int, points: int) -> tuple[int, str]:
    """The short rotation that brings a token g points ahead to the junction
    (a tie goes "fwd"; half a lap either way leaves the same ring)."""
    g %= points
    return (g, "fwd") if 2 * g <= points else (points - g, "bwd")


def _lead(pos: dict[int, int], points: int) -> int:
    """The token nearest the junction (a tie prefers the one ahead)."""
    return min(pos, key=lambda t: (_arc(pos[t], points)[0], pos[t]))


def _park(g: int, slot: int, points: int) -> tuple[int, str, str]:
    """The rotation that parks a token g points ahead one slot from the
    junction, on the nearer side (a tie stops "before")."""
    return min((*_arc(g - slot, points), "before"), (*_arc(g + slot, points), "past"),
               key=lambda o: (o[0], o[2]))


def rearrange(loop: LoopState, target_order: Sequence[int],
              params: TimingParams) -> TimedSchedule:
    """Reorder a synchronized ring into `target_order` via the LIFO port.

    The scheme: cyclically normalize the target so the token nearest the
    junction leads; feed all but the last token into the port in target
    order; park the last token one slot from the junction (either side,
    whichever is nearer); then pop the port one slot of ring rotation at a
    time.  Worst-case makespan is (n/2 - 3/(2n)) laps for even n and
    (n/2 - 2/n) for odd n.  A past-side park realizes the target with the
    traversal sense reversed (meta["traversal_reversed"]).

    Only the ring order itself (tokens by increasing distance to the
    junction) is free.  Any other target, a rotation of the ring order
    included, runs the scheme: [1, 2, 3, 0] from an evenly spaced ring of 4
    at phase 0 costs a full lap.  That charge is what gives the published
    n = 2 maximum of a quarter lap.

    The walk runs on the lattice of lcm(n, position denominators) points with
    one rotation offset, and its events on ticks of t_loop / points.
    """
    n = len(loop.positions)
    if sorted(target_order) != sorted(loop.positions):
        raise ValueError("target_order must be a permutation of the loop's tokens")
    if loop.port:
        raise OccupiedPortError("port must be empty at the start of rearrangement")
    points, ring = _on_lattice(loop.positions, n)
    target = list(target_order)
    if target == sorted(ring, key=ring.get):
        return TimedSchedule(meta={"final": loop.copy(), "identity": True})

    step = params.t_loop / points
    sched = TimedSchedule(meta={"target": tuple(target)}, scale=_tick_scale(step))
    unit = sched.ticks(step)
    slot = points // n
    i = target.index(_lead(ring, points))
    order = target[i:] + target[:i]
    offset = clock = 0        # a token's position is (ring[t] + offset) % points

    def shuttle(units: int, direction: str, action: str, tokens: tuple) -> None:
        nonlocal offset, clock
        if units:
            sched.append(clock * unit, units * unit, action, tokens)
            clock += units
        offset += -units if direction == "fwd" else units

    port = []
    for tok in order[:-1]:
        shuttle(*_arc(ring[tok] + offset, points), "shuttle_in", tuple(sorted(ring)))
        del ring[tok]
        port.append(tok)
    # The pop phase rotates one slot per pop: away from the junction after a
    # short-side stop, so the popped tokens trail the ring in target order;
    # toward it after a past-side stop, which yields the target ring with the
    # traversal sense reversed (absorbed by flipping the loop's shuttle
    # direction afterward).
    last = order[-1]
    units, direction, side = _park(ring[last] + offset, slot, points)
    shuttle(units, direction, "shuttle_stop_short", (last,))
    for j, tok in enumerate(reversed(port)):
        ring[tok] = -offset
        if j < len(port) - 1:
            shuttle(slot, "bwd" if side == "before" else "fwd", "shuttle_out",
                    tuple(sorted(ring)))
    sched.meta["traversal_reversed"] = side == "past"
    sched.meta["final"] = LoopState._trusted(
        {t: Fraction((p + offset) % points, points) for t, p in ring.items()})
    sched.check_no_token_overlap()
    return sched


def _arc_tables(n: int, points: int) -> tuple[list[list[int]], list[list[int]]]:
    """`_arc` and `_park` between tokens of an evenly spaced ring, tabulated.

    step[a][b] is the rotation that brings b to the junction after a entered
    the port; park[a][b] the rotation that parks b one slot from the junction
    after a entered.  Relative gaps are rotation-invariant, so both depend
    only on the slot difference and serve every phase.
    """
    slot = points // n
    step = [[_arc((b - a) * slot, points)[0] for b in range(n)] for a in range(n)]
    park = [[_park((b - a) * slot, slot, points)[0] for b in range(n)] for a in range(n)]
    return step, park


def _lattice_cost(target: tuple[int, ...], lead: int, base: int,
                  step: list[list[int]], park: list[list[int]]) -> int:
    """Rearrangement makespan in lattice units for a target other than the ring.

    The target is cyclically normalized to start at the lead, so its cost
    depends only on its cyclic order.  Each token but the last enters the
    port after the short arc from its predecessor; the last parks one slot
    from the junction.
    """
    i = target.index(lead)
    order = target[i:] + target[:i]
    return (base + sum(step[a][b] for a, b in zip(order, order[1:-1]))
            + park[order[-2]][order[-1]])


# -- one full stabilizer round for a single folded patch (n = 2) -----------------

def simulate_cycle(embedding, params: TimingParams) -> TimedSchedule:
    """Event trace of one stabilizer round of a single folded patch.

    Reproduces the published per-loop itineraries, in quarter laps: a
    diagonal loop runs legs [0, 2], a two-token loop [0, 2, 1] and a
    one-token (boundary-ancilla) loop [2, 3], each leg ending in a CNOT, in
    each half round (CNOT layers 1-2, then 3-4) in which that half's
    builder, `first_half_circuit` or `second_half_circuit` of the
    embedding's patch, gives one of its qubits a CNOT.  Basis changes
    bookend the halves; a 7/8-lap port entry and one measurement end the
    round.  meta["terms"] (timing parameter -> coefficient) is the critical
    path and sums to the makespan: the fixed steps plus, in each half, the
    laps and CNOTs of the loop whose legs end last (on a tie, the one with
    more shuttle).  That is 27/8 t_loop + 2 t_1q + 4 t_2q + t_meas, from the
    boundary loops, while 2 t_2q <= t_loop; above, two-token loops limit.
    """
    if embedding.patch_kind != "folded" or embedding.num_patches != 1:
        raise ValueError("cycle tracing supports a single folded patch (n = 2)")
    sched = TimedSchedule(meta={"kind": "cycle", "n": 2}, scale=_tick_scale(
        params.t_loop / 8, params.t_1q, params.t_2q, params.t_meas))
    terms = sched.meta["terms"] = dict.fromkeys(("t_loop", "t_1q", "t_2q", "t_meas"), Fraction(0))
    eighth, t2 = sched.ticks(params.t_loop / 8), sched.ticks(params.t_2q)
    patch = embedding.patches[0]
    halves: dict[int, set[int]] = {}    # qubit -> the half rounds of its CNOTs
    for h, half in enumerate((first_half_circuit(patch), second_half_circuit(patch))):
        for e in half.events:
            if e.action == "CNOT":
                for q in e.targets:
                    halves.setdefault(q, set()).add(h)
    loops = sorted(embedding.loops.values(), key=lambda l: l.coord)
    t = 0

    def step(term: str, k, action: str, where: str) -> None:   # k * params.<term>
        nonlocal t
        t = sched.append(t, sched.ticks(k * getattr(params, term)), action, (), where).end
        terms[term] += k

    step("t_1q", 1, "basis_change_H", "x-ancilla loops")
    for h in (0, 1):
        limits = []     # per working loop: (end tick, laps, CNOTs)
        for loop in loops:
            if not any(h in halves[patch.index[c]] for _, _, c in loop.slots):
                continue  # idle this half
            legs = ([0, 2] if loop.coord[0] == loop.coord[1]    # in quarter laps
                    else [0, 2, 1] if len(loop.slots) == 2 else [2, 3])
            quarter = eighth if loop.speed_class == "double" else 2 * eighth
            toks = tuple(range(len(loop.slots)))
            tt = t
            for leg in legs:
                if leg:
                    tt = sched.append(tt, leg * quarter, "shuttle", toks, f"{loop.coord}").end
                tt = sched.append(tt, t2, "cnot", toks, f"{loop.coord}").end
            limits.append((tt, Fraction(sum(legs) * quarter, 8 * eighth), len(legs)))
        t, laps, cnots = max(limits)
        terms["t_loop"] += laps
        terms["t_2q"] += cnots
    step("t_1q", 1, "basis_change_H", "x-ancilla loops")
    step("t_loop", Fraction(7, 8), "shuttle_to_port", "limiting late loop")
    step("t_meas", 1, "measure", "all ancilla loops")
    return sched


def cycle_trace_n2(params: TimingParams = SILICON) -> TimedSchedule:
    """The traced round of the smallest folded patch, d = 3, whose terms hold at every d."""
    return simulate_cycle(embed_stack([build_patch(3, "folded")]), params)


def cycle_time_n2(params: TimingParams = SILICON) -> Fraction:
    """T_cyc(2), one folded patch's stabilizer round: its trace's makespan."""
    return cycle_trace_n2(params).makespan


# -- measurement-contention pipeline ---------------------------------------------

def pipeline_model(n: int, params: TimingParams, rounds: int) -> list[Fraction]:
    """Running-average cycle time under measurement-device contention.

    Each token's round is a compute phase (t_cyc(2) - t_meas) followed by a
    t_meas service at one of m devices; tokens queue in ready order.  Returns
    the running average cycle time (mean over tokens of completion/rounds)
    after each round.  Long-run average -> max(t_cyc(2), (n/m) t_meas).
    The queues run on integer ticks; each average is one Fraction.
    """
    if n < 2 or rounds < 1:
        raise ValueError("need n >= 2 and rounds >= 1")
    phases = (cycle_time_n2(params) - params.t_meas, params.t_meas)
    per_ns = _tick_scale(*phases).denominator       # ticks per ns
    compute, tm = (int(x * per_ns) for x in phases)
    m = min(params.meas_devices, n)   # n tokens never keep more than n devices busy
    device_free = [0] * m
    done = [0] * n
    averages: list[Fraction] = []
    for r in range(1, rounds + 1):
        ready = sorted(((done[k] + compute, k) for k in range(n)))
        for ready_t, k in ready:
            i = device_free.index(min(device_free))    # the first free device
            done[k] = device_free[i] = max(ready_t, device_free[i]) + tm
        averages.append(Fraction(sum(done), n * r * per_ns))
    return averages


# -- exhaustive worst-case search --------------------------------------------------

@dataclass
class SearchResult:
    protocol: str
    n: int
    granularity: Fraction
    maximum: Fraction            # total time, gate times included
    shuttle_maximum: Fraction    # shuttle-only portion
    witness: dict
    configurations: int          # lattice configurations scored

    def __str__(self) -> str:
        return (f"{self.protocol}(n={self.n}): max {self.maximum} ns "
                f"(shuttle {self.shuttle_maximum} ns), witness {self.witness}; "
                f"configurations scored: {self.configurations}")


def search_lattice(protocol: str, n: int, granularity=None) -> Fraction:
    """Check a worst-case search's arguments; returns its lattice step.

    The step defaults to 1/(8n).  Raises ValueError for an unknown protocol,
    n < 2, odd n for the stack protocol, or a step that does not divide the
    circle into at least 4n points.
    """
    if protocol not in _SEARCHES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if n < 2:
        raise ValueError(f"need n >= 2 tokens, got {n}")
    if protocol == "cnot_stack" and n % 2:
        raise ValueError(f"stack protocol needs even n, got {n}")
    gamma = Fraction(1, 8 * n) if granularity is None else _frac(granularity)
    if gamma <= 0 or 1 % gamma != 0 or 1 / gamma < 4 * n:
        raise ValueError("granularity must divide the circle into at least 4n points")
    return gamma


def worst_case_search(protocol: str, n: int, granularity: Fraction,
                      params: TimingParams = SILICON) -> SearchResult:
    """Exhaustive maximum over initial configurations on the position lattice."""
    gamma = search_lattice(protocol, n, granularity)
    return _SEARCHES[protocol](n, gamma, params)


def _search_swap(n: int, gamma: Fraction, params: TimingParams) -> SearchResult:
    """Maximum pair-gate episode over every pair of distinct lattice positions.

    Token 0 sits below token 1 on the lattice of 1/gamma points; the first
    pair in lexicographic order with the largest shuttle is the witness.
    """
    points = gamma.denominator
    best = None
    for ia in range(points):
        for ib in range(ia + 1, points):
            shuttle = _plan_lattice(ia, ib, points, 0, 1)[-1]
            if best is None or shuttle > best[0]:
                best = (shuttle, ia, ib)
    shuttle, ia, ib = best
    shuttle_ns = Fraction(shuttle, points) * params.t_loop
    return SearchResult("swap", n, gamma, shuttle_ns + params.t_2q, shuttle_ns,
                        {"a": str(Fraction(ia, points)), "b": str(Fraction(ib, points))},
                        points * (points - 1) // 2)


def _search_rearrange(n: int, gamma: Fraction, params: TimingParams) -> SearchResult:
    """Maximum rearrangement makespan over phases and targets.

    Positions are integers on the lattice of lcm(1/gamma, n) points.  Since a
    target's cost depends only on its cyclic order, each phase scores one
    target per rotation class: (0,) + tail for every tail in lexicographic
    order, then (1, ..., n-1, 0) for the class of the identity, which itself
    costs nothing.  These are the lexicographically first members of each
    class that carry its cost, so the strict maximum and its witness are
    those of scoring all n! targets in lexicographic order.
    """
    points = gamma.denominator
    lattice = lcm(points, n)
    slot = lattice // n
    step, park = _arc_tables(n, lattice)
    identity = tuple(range(n))
    rotated = identity[1:] + identity[:1]
    best = None
    for k in range(points // n):
        pos = {t: k * (lattice // points) + t * slot for t in range(n)}
        lead = _lead(pos, lattice)
        # the lead's arc to the junction and the n - 2 one-slot pops
        base = _arc(pos[lead], lattice)[0] + (n - 2) * slot
        for tail in permutations(range(1, n)):
            target = (0,) + tail
            cost = 0 if target == identity else _lattice_cost(target, lead, base, step, park)
            if best is None or cost > best[0]:
                best = (cost, target, k)
        cost = _lattice_cost(rotated, lead, base, step, park)
        if cost > best[0]:
            best = (cost, rotated, k)
    cost, target, k = best
    mk = Fraction(cost, lattice) * params.t_loop
    return SearchResult("rearrange", n, gamma, mk, mk,
                        {"target": target, "phase": str(k * gamma)},
                        points // n * (factorial(n - 1) + 1))


def _search_cnot_stack(n: int, gamma: Fraction, params: TimingParams) -> SearchResult:
    """Worst case of the two-pass transversal-CNOT protocol.

    Tokens 0, 1 are a layer pair and 2, 3 their twins in the other layer,
    which sit diametrically (the tops-then-bottoms slot order), so the second
    pair trails the first by half a lap.  Sweeps the published worst-case
    geometry on the lattice of lcm(1/gamma, n) points: both pairs share the
    same slot separation g, and the junction offset of the leading qubit
    ranges over the 1/gamma lattice up to g/2.  That cap is an assumption:
    no event models a rotation that would remove larger offsets, and the
    maximum is taken over this family only.  The two episodes run back to
    back; only the lead-in of the first moves the second pair.
    """
    gate_ns = 2 * params.t_2q
    if n == 2:
        # degenerate single-patch stack: the two passes share the pair's
        # slots; the second pass begins one slot (= half a lap) behind
        half = params.t_loop / 2
        return SearchResult("cnot_stack", n, gamma, half + gate_ns, half,
                            {"lead_offset": "0", "pair_gap": "0"}, 1)
    points = gamma.denominator
    lattice = lcm(points, n)
    unit, slot = lattice // points, lattice // n
    best = None
    configurations = 0
    for delta in range(1, n // 2):
        g = delta * slot
        for j in range(g // (2 * unit) + 1):
            d = j * unit
            pos = {0: d, 1: d + g, 2: d + lattice // 2, 3: (d + lattice // 2 + g) % lattice}
            first, second, direction, lead, *_, shuttle = _plan_lattice(
                pos[0], pos[1], lattice, 0, 1)
            _apply_episode(pos, [], first, second, direction, lead, lattice)
            shuttle += _plan_lattice(pos[2], pos[3], lattice, 2, 3)[-1]
            configurations += 1
            if best is None or shuttle > best[0]:
                best = (shuttle, j, delta)
    shuttle, j, delta = best
    shuttle_ns = Fraction(shuttle, lattice) * params.t_loop
    return SearchResult("cnot_stack", n, gamma, shuttle_ns + gate_ns, shuttle_ns,
                        {"lead_offset": str(Fraction(j, points)),
                         "pair_gap": str(Fraction(delta, n))}, configurations)


_SEARCHES = {"swap": _search_swap, "rearrange": _search_rearrange,
             "cnot_stack": _search_cnot_stack}
