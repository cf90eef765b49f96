"""Shuttling-loop timing: event traces, worst cases, and the congestion model.

Everything here is exact rational arithmetic; the published constants fall
out as equalities, not approximations.  Times are nanoseconds at the silicon
defaults (400 ns per lap, 200/100 ns gates, 1 us measurement, 3 devices).
"""

from fractions import Fraction as F

from loopfold import (SILICON, LoopState, build_patch, embed_stack,
                      pipeline_model, rearrange, simulate_cycle, swap_protocol,
                      worst_case_search)
from loopfold.costs import cnot_time, rearrange_worst

P = SILICON

# --- the intra-loop pair-gate protocol ------------------------------------
print("pair-gate episode, worst configuration (quarter-lap lead, diametric pair):")
loop = LoopState({0: F(1, 4), 1: F(3, 4)})
sched = swap_protocol(loop, 0, 1, P)
print(sched.to_text())

res = worst_case_search("swap", 8, F(1, 32))
print(f"exhaustive sweep on a 1/32 lattice: max shuttle {res.shuttle_maximum} ns"
      f" = 5/4 lap, witness {res.witness}\n")

# --- qubit rearrangement through the LIFO port ----------------------------
loop = LoopState.evenly_spaced(8, F(1, 16))
sched = rearrange(loop, [2, 6, 3, 7, 0, 4, 1, 5], P)
print(f"eight-token rearrangement to 3 7 4 8 1 5 2 6 (1-based): "
      f"{sched.makespan} ns = 61/16 lap")
for n in (4, 7):
    res = worst_case_search("rearrange", n, F(1, 8 * n))
    print(f"  n={n} exhaustive worst case {res.maximum} ns, "
          f"closed form {rearrange_worst(n)} ns")

# --- one full stabilizer round ---------------------------------------------
emb = embed_stack([build_patch(3, "folded")])
cycle = simulate_cycle(emb, P)
path = " + ".join(f"{k} {term}" for term, k in cycle.meta["terms"].items())
print(f"\nstabilizer round event trace: makespan {cycle.makespan} ns "
      f"(critical path {path})")
print("  first events:")
for e in sorted(cycle.events, key=lambda e: (e.start, e.loop))[:6]:
    print(f"    t={str(cycle.ns(e.start)):>6} +{str(cycle.ns(e.duration)):<6} {e.action:<16} {e.loop}")

# --- transversal-CNOT worst case and the measurement pipeline --------------
for n in (4, 16):
    res = worst_case_search("cnot_stack", n, F(1, 8 * n))
    print(f"\ntransversal CNOT, {n} qubits per loop: worst {res.maximum} ns "
          f"(closed form {cnot_time(n)} ns), witness {res.witness}")

print("\nmeasurement-device contention, 16 qubits per loop, 3 devices:")
for i, avg in enumerate(pipeline_model(16, P, 50), 1):
    if i in (1, 2, 5, 10, 50):
        print(f"  round {i:>2}: running average {float(avg):8.1f} ns")
print(f"  long-run target 16/3 us = {float(F(16,3)*1000):.1f} ns")
