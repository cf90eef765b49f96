"""Time-slotted gate/measure event lists shared by the code and timing layers.

A ScheduledCircuit is the common currency of the code layer: the tableau and
dense engines replay its events in slot order, one layer of same-kind gates on
disjoint qubits at a time.  The loop simulator does not read it; its timed
events live in loopsim.TimedSchedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass(frozen=True)
class CircuitEvent:
    slot: int
    action: str                      # gate name, RESET, MEASURE
    targets: tuple[int, ...]
    basis: str = "Z"                 # for MEASURE
    key: Optional[str] = None        # record label for measurements
    condition: Optional[str] = None  # "key" / "!key" literals joined by &; see run_on_state


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
        out = ScheduledCircuit(self.num_qubits, list(self.events), dict(self.meta))
        for e in other.events:
            out.events.append(CircuitEvent(e.slot + slot_offset, e.action, e.targets,
                                           e.basis, e.key, e.condition))
        return out


def _condition_holds(condition: str, record: dict[str, int]) -> bool:
    """A conjunction of `key` (bit is 1) and `!key` (bit is 0) literals joined by &."""
    return all(record.get(lit[1:], 0) == 0 if lit.startswith("!") else record.get(lit, 0) == 1
               for lit in condition.split("&"))


def run_on_state(
    circuit: ScheduledCircuit,
    state,
    rng=None,
    forced_outcomes: Optional[dict[str, int]] = None,
) -> dict[str, int]:
    """Replay a circuit on a tableau or dense state; returns the record.

    Conditioned events fire when their condition holds on the record so far
    (unrecorded bits read 0).  Measurement outcomes land in the record under
    their key; an unnamed measurement records m<qubit>, and a keyed one on
    several targets records <key><qubit>.  Each maximal run of consecutive
    unconditioned gates of one kind on disjoint qubits goes to
    `state.apply_layer` at once; a repeated qubit starts a new run, so the
    layers apply the events in their order.
    """
    record: dict[str, int] = {}
    layer: list[tuple[int, ...]] = []
    gate, busy = "", set()

    def flush() -> None:
        if layer:
            state.apply_layer(gate, layer)
            layer.clear()
            busy.clear()

    for e in circuit.sorted_events():
        if e.action == "RESET":
            continue  # states start in |0>; explicit resets are layout markers
        if e.condition is None and e.action != "MEASURE":
            if e.action != gate or not busy.isdisjoint(e.targets):
                flush()
                gate = e.action
            layer.append(e.targets)
            busy.update(e.targets)
            continue
        flush()
        if e.condition is not None and not _condition_holds(e.condition, record):
            continue
        if e.action == "MEASURE":
            for q in e.targets:
                key = e.key if e.key and len(e.targets) == 1 else f"{e.key or 'm'}{q}"
                force = None
                if forced_outcomes and key in forced_outcomes:
                    force = forced_outcomes[key]
                out, _ = state.measure(q, e.basis, rng=rng, force=force)
                record[key] = out
        else:
            state.apply_gate(e.action, e.targets)
    flush()
    return record
