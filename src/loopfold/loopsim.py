"""Exact-rational discrete-event simulation of shuttling loops.

Positions live on the unit circle as Fractions (fractions of the loop
perimeter); the port junction sits at position 0 and a token's position is
its forward distance to the junction.  Times are Fractions of a nanosecond.
All closed-form comparisons in the tests are exact equalities.  The
rearrangement cost is evaluated on integer lattice positions instead
(`_lattice_cost`); its event trace, `rearrange`, is the cross-check.

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
from math import lcm
from typing import Optional, Sequence


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
    resync_ns: Fraction = Fraction(0)    # physical-SWAP variant re-sync penalty

    def __post_init__(self):
        for name in ("t_loop", "t_1q", "t_2q", "t_meas", "slack_ns", "resync_ns"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.t_loop <= 0:
            raise ValueError("t_loop must be positive")
        if self.t_int is None:
            object.__setattr__(self, "t_int", self.t_loop / 2)
        else:
            object.__setattr__(self, "t_int", _frac(self.t_int))
        if self.meas_devices < 1:
            raise ValueError("need at least one measurement device")


SILICON = TimingParams()


class OccupiedPortError(RuntimeError):
    """The protocol requires an empty port at the start."""


@dataclass
class LoopState:
    """Tokens on one loop: id -> forward distance to the junction, plus a LIFO port."""

    positions: dict[int, Fraction]
    port: list[int] = field(default_factory=list)
    speed_class: str = "normal"       # diagonal loops shuttle twice as fast

    def __post_init__(self):
        self.positions = {t: _frac(p) % 1 for t, p in self.positions.items()}
        if len(set(self.positions.values())) != len(self.positions):
            raise ValueError("token positions must be distinct")

    @classmethod
    def evenly_spaced(cls, n: int, phase: Fraction = Fraction(0)) -> "LoopState":
        """Tokens 0..n-1 at phase + k/n, in ring order."""
        return cls({k: (_frac(phase) + Fraction(k, n)) % 1 for k in range(n)})

    def lap_time(self, params: TimingParams) -> Fraction:
        t = params.t_loop
        return t / 2 if self.speed_class == "double" else t

    def copy(self) -> "LoopState":
        return LoopState(dict(self.positions), list(self.port), self.speed_class)


@dataclass(frozen=True)
class TimedEvent:
    start: Fraction
    duration: Fraction
    action: str
    tokens: tuple[int, ...]
    loop: str = "loop"

    @property
    def end(self) -> Fraction:
        return self.start + self.duration


@dataclass
class TimedSchedule:
    events: list[TimedEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def makespan(self) -> Fraction:
        return max((e.end for e in self.events), default=Fraction(0))

    def append(self, start, duration, action, tokens, loop="loop") -> TimedEvent:
        ev = TimedEvent(_frac(start), _frac(duration), action, tuple(tokens), loop)
        self.events.append(ev)
        return ev

    def shuttle_time(self) -> Fraction:
        return sum((e.duration for e in self.events if e.action.startswith("shuttle")),
                   Fraction(0))

    def check_no_token_overlap(self) -> None:
        """No token participates in two events at once (ids are per loop)."""
        by_token: dict[tuple, list[TimedEvent]] = {}
        for e in self.events:
            for t in e.tokens:
                by_token.setdefault((e.loop, t), []).append(e)
        for t, evs in by_token.items():
            evs.sort(key=lambda e: (e.start, e.end))
            for a, b in zip(evs, evs[1:]):
                if b.start < a.end:
                    raise AssertionError(f"token {t} double-booked: {a} vs {b}")

    def to_text(self) -> str:
        """Columnar dump with rational times rendered p/q."""
        rows = [("start", "duration", "action", "loop", "tokens")]
        for e in sorted(self.events, key=lambda e: (e.start, e.action)):
            rows.append((str(e.start), str(e.duration), e.action, e.loop,
                         ",".join(map(str, e.tokens))))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows) + "\n"


# -- pair-gate episode ----------------------------------------------------------

@dataclass(frozen=True)
class EpisodePlan:
    first: int
    second: int
    direction: str            # "fwd" | "bwd"
    lead_in: Fraction         # ring rotation until `first` peels
    gap: Fraction             # further rotation until `second` peels
    exit: Fraction            # min(gap, 1 - gap): slot swept back the short way
    shuttle: Fraction         # lead_in + gap + exit


def plan_episode(loop: LoopState, a: int, b: int) -> EpisodePlan:
    """Choose entry order and rotation direction minimizing the shuttle time."""
    da, db = loop.positions[a], loop.positions[b]
    options = []
    for first, second, direction, lead, gap in (
        (a, b, "fwd", da, (db - da) % 1),
        (b, a, "fwd", db, (da - db) % 1),
        (b, a, "bwd", (1 - db) % 1, (db - da) % 1),
        (a, b, "bwd", (1 - da) % 1, (da - db) % 1),
    ):
        exit_ = min(gap, (1 - gap) % 1)
        options.append(EpisodePlan(first, second, direction, lead, gap, exit_,
                                   lead + gap + exit_))
    return min(options, key=lambda p: (p.shuttle, p.direction, p.first))


def _rotate(loop: LoopState, rho: Fraction, direction: str) -> None:
    sgn = -1 if direction == "fwd" else 1
    for t in loop.positions:
        loop.positions[t] = (loop.positions[t] + sgn * rho) % 1


def run_episode(loop: LoopState, a: int, b: int, gate_time: Fraction,
                params: TimingParams, schedule: TimedSchedule,
                t0: Fraction, loop_name: str = "loop",
                gate_label: str = "gate") -> Fraction:
    """Execute one pair-gate episode in place; returns the end time.

    Leaves `first` parked in the port and `second` in first's slot, with the
    ring net-rotated by the lead-in.
    """
    lap = loop.lap_time(params)
    plan = plan_episode(loop, a, b)
    t = t0
    spectators = tuple(sorted(loop.positions))
    if plan.lead_in:
        schedule.append(t, plan.lead_in * lap, "shuttle_in", spectators, loop_name)
        t += plan.lead_in * lap
    _rotate(loop, plan.lead_in, plan.direction)
    loop.port.append(plan.first)
    first_slot = loop.positions.pop(plan.first)  # == 0 now
    if plan.gap:
        schedule.append(t, plan.gap * lap, "shuttle_in",
                        tuple(sorted(loop.positions)), loop_name)
        t += plan.gap * lap
    _rotate(loop, plan.gap, plan.direction)
    loop.port.append(plan.second)
    loop.positions.pop(plan.second)
    if gate_time:
        schedule.append(t, gate_time, gate_label, (a, b), loop_name)
        t += gate_time
    # exit: the ring sweeps first's emptied slot back onto the junction (the
    # short way around) while `second` rides out into it
    if plan.exit:
        schedule.append(t, plan.exit * lap, "shuttle_out",
                        tuple(sorted(loop.positions)) + (plan.second,), loop_name)
        t += plan.exit * lap
    rewind = "bwd" if plan.direction == "fwd" else "fwd"
    _rotate(loop, plan.gap, rewind)   # rewinding gap == advancing 1-gap (mod 1)
    loop.port.pop()
    loop.positions[plan.second] = Fraction(0)
    return t


def swap_protocol(loop: LoopState, a: int, b: int, params: TimingParams,
                  gate: str = "SWAP", physical_swap: bool = False) -> TimedSchedule:
    """The 4-step intra-loop two-qubit protocol between tokens a and b.

    Returns the timed schedule; the final LoopState is in meta["final"].
    With `physical_swap=True` the alternative protocol variant is charged an
    extra re-synchronization dwell (params.resync_ns) after the gate.
    """
    if a == b or a not in loop.positions or b not in loop.positions:
        raise ValueError("need two distinct tokens present in the loop")
    if loop.port:
        raise OccupiedPortError("port must be empty at the start of the protocol")
    work = loop.copy()
    sched = TimedSchedule(meta={"gate": gate})
    t = run_episode(work, a, b, params.t_2q, params, sched, Fraction(0), gate_label=gate)
    if physical_swap and params.resync_ns:
        sched.append(t, params.resync_ns, "resync_dwell", (a, b))
        t += params.resync_ns
    sched.meta["final"] = work
    sched.meta["shuttle"] = sched.shuttle_time()
    sched.check_no_token_overlap()
    return sched


# -- rearrangement (LIFO port scheme) --------------------------------------------

def _short_arc(dist: Fraction) -> tuple[Fraction, str]:
    dist %= 1
    return (dist, "fwd") if dist <= 1 - dist else ((1 - dist) % 1, "bwd")


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
    """
    n = len(loop.positions)
    if sorted(target_order) != sorted(loop.positions):
        raise ValueError("target_order must be a permutation of the loop's tokens")
    if loop.port:
        raise OccupiedPortError("port must be empty at the start of rearrangement")
    ring = _ring_order(loop)
    if list(target_order) == ring:
        return TimedSchedule(meta={"final": loop.copy(), "identity": True})

    lap = loop.lap_time(params)
    work = loop.copy()
    sched = TimedSchedule(meta={"target": tuple(target_order)})
    # normalize: lead with the token nearest the junction (ties prefer the
    # one ahead in the shuttling direction)
    lead_idx = min(range(n), key=lambda i: (min(work.positions[target_order[i]],
                                                1 - work.positions[target_order[i]]),
                                            work.positions[target_order[i]]))
    order = list(target_order[lead_idx:]) + list(target_order[:lead_idx])

    t = Fraction(0)
    spacing = Fraction(1, n)
    for k, tok in enumerate(order[:-1]):
        dist, direction = _short_arc(work.positions[tok])
        if dist:
            sched.append(t, dist * lap, "shuttle_in", tuple(sorted(work.positions)))
            t += dist * lap
        _rotate(work, dist, direction)
        work.positions.pop(tok)
        work.port.append(tok)
    # The last token parks one slot from the junction on whichever side is
    # nearer (ties prefer stopping short of it).  The pop phase then rotates
    # one slot per pop: away from the junction for a short-side stop, so the
    # popped tokens trail the ring in target order; toward it for a
    # past-side stop, which yields the target ring with the traversal sense
    # reversed (absorbed by flipping the loop's shuttle direction afterward).
    last = order[-1]
    before = _short_arc((work.positions[last] - spacing) % 1)
    past = _short_arc((work.positions[last] + spacing) % 1)
    (dist, direction), side = min((before, "before"), (past, "past"),
                                  key=lambda o: (o[0][0], o[1]))
    if dist:
        sched.append(t, dist * lap, "shuttle_stop_short", (last,))
        t += dist * lap
    _rotate(work, dist, direction)
    pop_rotation = "bwd" if side == "before" else "fwd"
    for j, tok in enumerate(reversed(work.port)):
        work.positions[tok] = Fraction(0)
        if j < len(work.port) - 1:
            sched.append(t, spacing * lap, "shuttle_out", tuple(sorted(work.positions)))
            t += spacing * lap
            _rotate(work, spacing, pop_rotation)
    work.port.clear()
    sched.meta["traversal_reversed"] = side == "past"
    sched.meta["final"] = work
    sched.check_no_token_overlap()
    return sched


def _ring_order(loop: LoopState) -> list[int]:
    return [t for t, _ in sorted(loop.positions.items(), key=lambda kv: kv[1])]


def rearrange_makespan(n: int, target: Sequence[int], phase: Fraction,
                       params: TimingParams) -> Fraction:
    loop = LoopState.evenly_spaced(n, phase)
    return rearrange(loop, target, params).makespan


def _rearrange_cost(n: int, target: Sequence[int], phase: Fraction) -> Fraction:
    """Makespan of the rearrangement scheme in laps, without building events.

    Puts the ring on the integer lattice of lcm(denominator, n) points and
    evaluates `_lattice_cost`, the kernel of the worst-case search.
    Cross-checked against the full event simulation in the tests.
    """
    phase = _frac(phase)
    points = lcm(phase.denominator, n)
    p0 = phase.numerator * (points // phase.denominator)
    pos = [(p0 + t * (points // n)) % points for t in range(n)]
    if list(target) == sorted(range(n), key=pos.__getitem__):
        return Fraction(0)
    lead, base = _lead_in(pos, points)
    step, park = _arc_tables(n, points)
    return Fraction(_lattice_cost(tuple(target), lead, base, step, park), points)


def _lead_in(pos: list[int], points: int) -> tuple[int, int]:
    """The lead token and the part of the cost that no target changes.

    The lead is the token nearest the junction (ties prefer the one ahead in
    the shuttling direction); the fixed part is its arc to the junction plus
    the n - 2 one-slot rotations between pops.
    """
    n = len(pos)
    lead = min(range(n), key=lambda t: (min(pos[t], points - pos[t]), pos[t]))
    return lead, min(pos[lead], points - pos[lead]) + (n - 2) * (points // n)


def _arc_tables(n: int, points: int) -> tuple[list[list[int]], list[list[int]]]:
    """Short arcs between tokens of an evenly spaced ring, in lattice units.

    step[a][b] is the rotation that brings b to the junction after a entered
    the port; park[a][b] the rotation that parks b one slot from the junction
    (either side) after a entered.  Relative gaps are rotation-invariant, so
    both depend only on the slot difference and serve every phase.
    """
    slot = points // n

    def arc(g: int) -> int:
        g %= points
        return min(g, points - g)

    step = [[arc((b - a) * slot) for b in range(n)] for a in range(n)]
    park = [[min(arc((b - a - 1) * slot), arc((b - a + 1) * slot)) for b in range(n)]
            for a in range(n)]
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
        # two CNOTs fall in the first half (bottom-X / right-Z halves fold to
        # the bottom layer), late otherwise
        pid, layer, coord = loop.slots[0]
        return "boundary_early" if layer == 1 or coord[1] == 2 * embedding.distance - 1 \
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
            lap = t_loop / 2 if kind == "diagonal" else t_loop
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
    sched.meta["makespan_formula"] = "27/8*t_loop + 2*t_1q + 4*t_2q + t_meas"
    return sched


# -- measurement-contention pipeline ---------------------------------------------

def pipeline_model(n: int, params: TimingParams, rounds: int) -> list[Fraction]:
    """Running-average cycle time under measurement-device contention.

    Each token's round is a compute phase (t_cyc(2) - t_meas) followed by a
    t_meas service at one of m devices; tokens queue in ready order.  Returns
    the running average cycle time (mean over tokens of completion/rounds)
    after each round.  Long-run average -> max(t_cyc(2), (n/m) t_meas).
    """
    if n < 2 or rounds < 1:
        raise ValueError("need n >= 2 and rounds >= 1")
    from .costs import cycle_time_n2

    compute = cycle_time_n2(params) - params.t_meas
    tm = params.t_meas
    m = params.meas_devices
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


# -- exhaustive worst-case search --------------------------------------------------

@dataclass
class SearchResult:
    protocol: str
    n: int
    granularity: Fraction
    maximum: Fraction            # total time, gate times included
    shuttle_maximum: Fraction    # shuttle-only portion
    witness: dict

    def __str__(self) -> str:
        return (f"{self.protocol}(n={self.n}): max {self.maximum} ns "
                f"(shuttle {self.shuttle_maximum} ns), witness {self.witness}")


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
    points = int(1 / gamma)
    best = None
    for ia in range(points):
        for ib in range(ia + 1, points):
            da, db = ia * gamma, ib * gamma
            loop = LoopState({0: da, 1: db})
            sched = swap_protocol(loop, 0, 1, params)
            if best is None or sched.makespan > best[0]:
                best = (sched.makespan, (da, db), sched.shuttle_time())
    mx, (da, db), shuttle = best
    return SearchResult("swap", n, gamma, mx, shuttle,
                        {"a": str(da), "b": str(db)})


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
    step, park = _arc_tables(n, lattice)
    identity = tuple(range(n))
    rotated = identity[1:] + identity[:1]
    best = None
    for k in range(points // n):
        pos = [k * (lattice // points) + t * (lattice // n) for t in range(n)]
        lead, base = _lead_in(pos, lattice)
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
                        {"target": target, "phase": str(k * gamma)})


def _search_cnot_stack(n: int, gamma: Fraction, params: TimingParams) -> SearchResult:
    """Worst case of the two-pass transversal-CNOT protocol.

    Sweeps the published worst-case geometry: both layer pairs share the same
    slot separation, the second pair trails the first by one slot, and the
    junction offset of the leading qubit ranges over the lattice up to half
    the pair separation (the pre-alignment rotation of the synchronized
    pipeline removes larger offsets, modulo the pair pattern).
    """
    k = n // 2
    slot = Fraction(1, n)
    if k == 1:
        # degenerate single-patch stack: the two passes share the pair's
        # slots; the second pass begins one slot (= half a lap) behind
        sched = TimedSchedule()
        sched.append(0, params.t_2q, "cnot", (0, 1))
        sched.append(params.t_2q, slot * params.t_loop, "shuttle_in", (0, 1))
        sched.append(params.t_2q + slot * params.t_loop, params.t_2q, "cnot", (0, 1))
        return SearchResult("cnot_stack", n, gamma, sched.makespan,
                            sched.shuttle_time(), {"lead_offset": "0", "pair_gap": "0"})
    best = None
    deltas = range(1, k)
    for delta in deltas:
        g = delta * slot
        max_off = g / 2
        offsets = [j * gamma for j in range(int(max_off / gamma) + 1)]
        for d_i in offsets:
            loop = _fig13_config(n, d_i, g)
            sched = TimedSchedule()
            t = run_episode(loop, 0, 1, params.t_2q, params, sched, Fraction(0),
                            gate_label="cnot")
            t = run_episode(loop, 2, 3, params.t_2q, params, sched, t, gate_label="cnot")
            if best is None or t > best[0]:
                best = (t, {"lead_offset": str(d_i), "pair_gap": str(g)},
                        sched.shuttle_time())
    mx, witness, shuttle = best
    return SearchResult("cnot_stack", n, gamma, mx, shuttle, witness)


_SEARCHES = {"swap": _search_swap, "rearrange": _search_rearrange,
             "cnot_stack": _search_cnot_stack}


def _fig13_config(n: int, d_i: Fraction, g: Fraction) -> LoopState:
    """Tokens 0,1 (top-layer pair) and 2,3 (their bottom layers) on an even ring.

    Layer twins sit diametrically (the tops-then-bottoms slot order), so the
    second pass starts half a lap behind the first.
    """
    slot = Fraction(1, n)
    positions = {0: d_i % 1, 1: (d_i + g) % 1}
    if n > 2:
        positions[2] = (d_i + Fraction(1, 2)) % 1
        positions[3] = (d_i + Fraction(1, 2) + g) % 1
    taken = set(positions.values())
    nxt = 4
    for j in range(n):
        p = (d_i + j * slot) % 1
        if p not in taken and len(positions) < n:
            positions[nxt] = p
            taken.add(p)
            nxt += 1
    return LoopState(positions)
