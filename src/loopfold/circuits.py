"""Time-slotted gate/measure event lists shared by the code and timing layers.

A ScheduledCircuit is the common currency of the code layer: the tableau and
dense engines replay its events in slot order, one layer of same-kind gates on
disjoint qubits at a time.  The engines measure in Z only, and `_compile` is
the one reader of a measurement basis: a Y measurement becomes a basis change
around a Z measurement.  Each measurement is one engine `measure` call per
outcome, which projects and returns the outcome's probability.  `run_on_state`
follows one path and is the one place that samples a random outcome, and
`walk_outcomes` walks the measurement-outcome tree depth first and yields each
leaf with its probability.  The loop simulator reads `patches`' half-round
builders only for the half round of each loop's CNOTs; its timed events live
in loopsim.TimedSchedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .tableau import RandomOutcomeError


class CircuitEvent(NamedTuple):
    """One event; a tuple, so immutable, hashable and cheap to build."""

    slot: int
    action: str                      # gate name, RESET, MEASURE
    targets: tuple[int, ...]
    basis: str = "Z"                 # for MEASURE
    key: Optional[str] = None        # record label for measurements
    condition: Optional[str] = None  # "key" / "!key" literals joined by &


@dataclass
class ScheduledCircuit:
    """Ordered list of events over named qubits."""

    num_qubits: int
    events: list[CircuitEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, slot: int, action: str, targets: Sequence[int],
            basis: str = "Z", key: Optional[str] = None,
            condition: Optional[str] = None) -> None:
        self.events.append(CircuitEvent(slot, action.upper(), tuple(targets), basis, key, condition))

    def sorted_events(self) -> list[CircuitEvent]:
        return sorted(self.events, key=lambda e: (e.slot,))

    def gate_count(self, name: str) -> int:
        name = name.upper()
        return sum(1 for e in self.events if e.action == name)

    def slots(self) -> list[int]:
        return sorted({e.slot for e in self.events})

    def extended(self, other: "ScheduledCircuit", slot_offset: int) -> "ScheduledCircuit":
        shifted = [CircuitEvent(e.slot + slot_offset, e.action, e.targets, e.basis, e.key,
                                e.condition) for e in other.events]
        return ScheduledCircuit(self.num_qubits, self.events + shifted, dict(self.meta))


def _condition_holds(condition: str, record: dict[str, int]) -> bool:
    """A conjunction of `key` (bit is 1) and `!key` (bit is 0) literals joined by &."""
    return all(record.get(lit[1:], 0) == 0 if lit.startswith("!") else record.get(lit, 0) == 1
               for lit in condition.split("&"))


# Y = (S H) Z (S H)^dagger: each basis as the gates around a Z measurement
_IN_Z = {"Z": ("MEASURE",), "Y": ("SDG", "H", "MEASURE", "H", "S")}


def _compile(circuit: ScheduledCircuit) -> list[tuple]:
    """The sorted events as (condition, action, args) ops, measured in Z only.

    A maximal run of consecutive unconditioned gates of one kind on disjoint
    qubits is one op, its args the layer for `apply_layer`; a repeated qubit
    starts a new op, so the layers keep the event order.  A measurement is
    one MEASURE op per qubit with args (qubit, key): an unnamed one records
    m<qubit>, a keyed one on several targets <key><qubit>.  A Y measurement
    is SDG and H, the Z measurement, then H and S, all under its condition;
    a basis other than Z and Y raises ValueError.  A RESET is a MEASURE op
    with key None, unrecorded and undone by an X where it reads 1, once an
    earlier event has acted on its qubit; before that it is dropped, since
    every run starts its qubits in |0>.
    """
    ops: list[tuple] = []
    busy: set[int] = set()
    touched: set[int] = set()

    def add(condition, action, args):
        nonlocal busy
        if action == "MEASURE":
            ops.append((condition, action, args))
        elif (condition is None and ops and ops[-1][:2] == (None, action)
              and busy.isdisjoint(args)):
            ops[-1][2].append(args)
            busy.update(args)
        else:
            ops.append((condition, action, [args]))
            busy = set(args)

    for e in circuit.sorted_events():
        if e.action == "RESET":
            ops.extend((e.condition, "MEASURE", (q, None)) for q in e.targets if q in touched)
            continue
        touched.update(e.targets)
        if e.action != "MEASURE":
            add(e.condition, e.action, e.targets)
        elif (steps := _IN_Z.get(e.basis.upper())) is None:
            raise ValueError(f"unsupported measurement basis {e.basis!r}")
        else:
            for q in e.targets:
                key = e.key if e.key and len(e.targets) == 1 else f"{e.key or 'm'}{q}"
                for action in steps:
                    add(e.condition, action, (q, key) if action == "MEASURE" else (q,))
    return ops


def _advance(ops: list[tuple], i: int, state, record: dict[str, int]) -> int:
    """Apply ops[i:] up to the next measurement whose condition holds (unrecorded
    bits read 0); returns its index, or len(ops) at the end."""
    while i < len(ops):
        condition, action, args = ops[i]
        if condition is None or _condition_holds(condition, record):
            if action == "MEASURE":
                return i
            state.apply_layer(action, args)
        i += 1
    return i


def _settle(state, qubit: int, key: Optional[str], outcome: int, record: dict[str, int]) -> None:
    """Record an outcome under its key, or undo a reset's (key None) 1 with an X."""
    if key is not None:
        record[key] = outcome
    elif outcome:
        state.apply_gate("X", (qubit,))


def run_on_state(circuit: ScheduledCircuit, state, rng=None) -> dict[str, int]:
    """Replay a circuit on a tableau or dense state along one path; returns the record.

    The engine reads a deterministic outcome.  A random one is 1 when
    `rng.random()` is at least the p0 that `RandomOutcomeError` carries, and
    is then forced; without an rng the error propagates."""
    ops, record, i = _compile(circuit), {}, -1
    while (i := _advance(ops, i + 1, state, record)) < len(ops):
        q, key = ops[i][2]
        try:
            outcome, _ = state.measure(q)
        except RandomOutcomeError as exc:
            if rng is None:
                raise
            outcome = int(rng.random() >= exc.p0)
            state.measure(q, force=outcome)
        _settle(state, q, key, outcome, record)
    return record


def walk_outcomes(circuit: ScheduledCircuit, state) -> Iterator[tuple[dict[str, int], float, Any]]:
    """Every leaf of the circuit's measurement-outcome tree, depth first.

    Yields (record, probability, state) per leaf.  A measurement is first
    made unforced: a deterministic outcome projects `state` in place.  A
    random one copies the state once, forces 1 on the copy and 0 on the
    state, so `state` itself is advanced along one path.  A mid-circuit
    reset branches the same way, so two leaves may share a record.
    """
    ops = _compile(circuit)
    stack = [(0, {}, 1.0, state)]
    while stack:
        i, record, prob, st = stack.pop()
        i = _advance(ops, i, st, record)
        if i == len(ops):
            yield record, prob, st
            continue
        q, key = ops[i][2]
        try:
            outcomes = [(st.measure(q), st, record)]
        except RandomOutcomeError:
            one = st.copy()
            outcomes = [(one.measure(q, force=1), one, dict(record)),
                        (st.measure(q, force=0), st, record)]
        for (b, p), branch, rec in outcomes:
            _settle(branch, q, key, b, rec)
            stack.append((i + 1, rec, prob * p, branch))
