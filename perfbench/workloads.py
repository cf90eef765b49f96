"""The benchmark's workloads: inputs from a seed, the run, its checks.

search_verify runs two parts, the exhaustive timing searches and the
protocol verification; batch_estimate runs the batch of CLI calls and seeded
instances.

Every check compares an output with a closed form or a published number of
the paper, or with a property the output must have (a re-routed plan, a
re-simulated witness), never with an output recorded from an earlier run.
All runs use the silicon defaults, the published operating point.  The
seed changes the inputs but not how many there are, so every seed does the
same number of configurations, branches and instances.

loopfold is called through its module attributes (`loopsim.rearrange`, not
an imported name), so that the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import numpy as np

from loopfold import (circuits, cli, layout, logical, loopsim, patches, pauli,
                      protocols, tableau, verify)

P = loopsim.SILICON
T_LOOP, T_1Q, T_2Q, T_MEAS = P.t_loop, P.t_1q, P.t_2q, P.t_meas
D = 25                                   # the operating distance of the cost model
FIDELITY_TOL = 1e-9                      # the paper's "fidelity 1" tolerance

_WRONG = object()                        # equals nothing: the self-test's expected value


class Checks:
    """Collects named checks; with `wrong_first` the first expected value is wrong."""

    def __init__(self, wrong_first: bool = False):
        self.results: list[tuple[str, bool, str]] = []
        self._wrong_first = wrong_first

    def expect(self, name: str, got, want) -> None:
        if self._wrong_first:
            want, self._wrong_first = _WRONG, False
        self.results.append((name, got == want, f"got {got!r}, want {want!r}"))

    def holds(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.results if not ok]


# -- closed forms of the paper, restated here so no check trusts the code -----

def rearrange_worst_laps(n: int) -> F:
    return F(n, 2) - (F(3, 2 * n) if n % 2 == 0 else F(2, n))


def cnot_worst(n: int) -> F:
    return (F(9, 4) - F(7, 2 * n)) * T_LOOP + 2 * T_2Q


SWAP_WORST_SHUTTLE = F(5, 4) * T_LOOP
T_CYC_N2 = F(27, 8) * T_LOOP + 2 * T_1Q + 4 * T_2Q + T_MEAS     # = 3150 ns


def cycle_star(n: int) -> F:
    """T*_cyc(n): max(T_cyc(2), n/m T_meas) + 0.5 us slack, rounded up to a us."""
    raw = max(T_CYC_N2, F(n, P.meas_devices) * T_MEAS) + 500
    return -(-raw // 1000) * 1000


def ring_order(loop) -> list[int]:
    return [t for t, _ in sorted(loop.positions.items(), key=lambda kv: kv[1])]


def is_rotation(a: list, b: list) -> bool:
    return len(a) == len(b) and any(a[i:] + a[:i] == b for i in range(len(a)))


# -- search_verify, first part: the timing searches --------------------------

def timing_search_inputs(rng: random.Random) -> list[tuple]:
    """The exhaustive searches of criterion 3 and the two pipeline runs.

    The searches cover their whole lattice, so no input depends on the seed.
    """
    tasks = [("rearrange", n, F(1, 8 * n)) for n in (5, 6, 7)]
    tasks.append(("swap", 8, F(1, 32)))
    tasks += [("cnot_stack", n, F(1, 8 * n)) for n in (2, 4, 8, 12, 16)]
    tasks += [("cycle", 3), ("pipeline", 16, 50), ("pipeline", 12, 80)]
    return tasks


def timing_search_run(tasks: list[tuple], checks: Checks) -> None:
    for task in tasks:
        kind = task[0]
        if kind == "rearrange":
            _, n, gamma = task
            res = loopsim.worst_case_search("rearrange", n, gamma, P)
            checks.expect(f"rearrange n={n} maximum", res.maximum,
                          rearrange_worst_laps(n) * T_LOOP)
            ring = loopsim.LoopState.evenly_spaced(n, F(res.witness["phase"]))
            sched = loopsim.rearrange(ring, list(res.witness["target"]), P)
            checks.expect(f"rearrange n={n} witness re-simulated", sched.makespan,
                          res.maximum)
        elif kind == "swap":
            _, n, gamma = task
            res = loopsim.worst_case_search("swap", n, gamma, P)
            checks.expect("swap shuttle maximum", res.shuttle_maximum, SWAP_WORST_SHUTTLE)
            checks.expect("swap maximum", res.maximum, SWAP_WORST_SHUTTLE + T_2Q)
        elif kind == "cnot_stack":
            _, n, gamma = task
            res = loopsim.worst_case_search("cnot_stack", n, gamma, P)
            checks.expect(f"cnot_stack n={n} maximum", res.maximum, cnot_worst(n))
        elif kind == "cycle":
            emb = patches.embed_stack([patches.build_patch(task[1], "folded")])
            checks.expect("cycle makespan", loopsim.simulate_cycle(emb, P).makespan, 3150)
        elif kind == "pipeline" and task[1] == 16:
            avg = loopsim.pipeline_model(16, P, task[2])[-1]
            target = F(16, 3) * 1000
            checks.holds("pipeline n=16 round 50 within 1% of 16/3 us",
                         abs(avg - target) / target < F(1, 100), f"average {avg}")
        else:
            avgs = loopsim.pipeline_model(12, P, task[2])
            steps = [avgs[i] * (i + 1) - avgs[i - 1] * i for i in range(60, 79)]
            checks.holds("pipeline n=12 steady state 4 us",
                         all(s == 4000 for s in steps), f"increments {set(steps)}")


# -- search_verify, second part: protocol verification ----------------------

def random_qubit(rng: random.Random) -> tuple[complex, complex]:
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)])
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


def protocol_verify_inputs(rng: random.Random) -> list[tuple]:
    """S and H at d = 3 on four random states each, the four gates on the
    tableau at d = 5, 7, 9, the mid-cycle structure, the S gadgets."""
    tasks = [("dense", gate, [random_qubit(rng) for _ in range(4)]) for gate in ("S", "H")]
    tasks += [("tableau", d, gate) for d in (5, 7, 9) for gate in ("S", "H", "CNOT", "SWAP")]
    tasks += [("midcycle", 3), ("midcycle", 5)]
    tasks.append(("teleport", [rng.randrange(2**32) for _ in range(50)]))
    return tasks


def _twice(circ):
    return circ.extended(circ, slot_offset=max(circ.slots()) + 1)


def protocol_verify_run(tasks: list[tuple], checks: Checks) -> None:
    for task in tasks:
        kind = task[0]
        if kind == "dense":
            _, gate, states = task
            patch = patches.build_patch(3, "folded")
            circ = (protocols.transversal_s_circuit(patch) if gate == "S"
                    else protocols.transversal_h_circuit(patch))
            checks.expect(f"{gate} d=3 tableau", logical.logical_action(circ, patch).name, gate)
            for alpha, beta in states:
                f = verify.dense_protocol_fidelity(patch, circ, gate, alpha, beta)
                checks.holds(f"{gate} d=3 dense fidelity 1", 1 - f < FIDELITY_TOL,
                             f"fidelity {f!r}")
        elif kind == "tableau":
            _, d, gate = task
            _check_tableau(d, gate, checks)
        elif kind == "midcycle":
            _check_midcycle(task[1], checks)
        else:
            for c in verify.verify_s_teleport(seeds=task[1], tol=FIDELITY_TOL):
                checks.holds(c.name, c.passed, c.detail)


def _check_tableau(d: int, gate: str, checks: Checks) -> None:
    def action(circ, ps):
        return logical.logical_action(circ, ps).name

    if gate in ("S", "H"):
        patch = patches.build_patch(d, "folded")
        if gate == "S":
            checks.expect(f"S d={d}", action(protocols.transversal_s_circuit(patch), patch), "S")
            inverted = protocols.transversal_s_circuit(patch, protocols.inverted_alternation(d))
            checks.expect(f"S d={d} inverted pattern", action(inverted, patch), "SDG")
        else:
            circ = protocols.transversal_h_circuit(patch)
            checks.expect(f"H d={d}", action(circ, patch), "H")
            checks.expect(f"H d={d} twice", action(_twice(circ), patch), "I")
        return
    pair = [patches.build_patch(d, "folded"), patches.build_patch(d, "folded")]
    circ = protocols.transversal_two_qubit(patches.embed_stack(pair), 0, 1, gate, pair)
    checks.expect(f"{gate} d={d}", action(circ, pair), gate)
    if gate == "SWAP":
        checks.expect(f"SWAP d={d} twice", action(_twice(circ), pair), "I")


def _check_midcycle(d: int, checks: Checks) -> None:
    """Criterion 2: the unrotated code after two CNOT layers, and the way back."""
    p = patches.build_patch(d, "rotated")
    st = tableau.StabilizerState(p.num_qubits)
    for s in p.stabilizers:
        st.measure_pauli(p.stabilizer_pauli(s), force=0)
    st.measure_pauli(p.logical_z_pauli(), force=0)
    circuits.run_on_state(patches.first_half_circuit(p), st)
    exp = patches.midcycle_expected(p)
    checks.expect(f"midcycle d={d} active qubits", len(exp.active_coords),
                  d * d + (d - 1) ** 2)
    checks.expect(f"midcycle d={d} generators", exp.num_generators, 2 * d * (d - 1))
    checks.expect(f"midcycle d={d} weights", exp.weight_profile,
                  {3: 4 * (d - 1), 4: 2 * (d - 1) * (d - 2)})
    mat = np.array([g.symplectic() for g in exp.generators], dtype=np.uint8)
    checks.expect(f"midcycle d={d} independent", pauli.gf2_rank(mat), 2 * d * (d - 1))
    now = st.stabilizer_generators()
    checks.holds(f"midcycle d={d} group present",
                 all(pauli.in_group_up_to_sign(g, now) for g in exp.generators))
    rec = circuits.run_on_state(patches.second_half_circuit(p), st, rng=None)
    checks.holds(f"midcycle d={d} round trip outcomes", all(v == 0 for v in rec.values()))
    checks.holds(f"midcycle d={d} round trip stabilizers",
                 all(st.expectation_sign(p.stabilizer_pauli(s)) == 1 for s in p.stabilizers))


# -- batch_estimate -----------------------------------------------------------

CLI_CALLS = [
    ["cycle-time", "--n", "16"],
    ["gate-times"],
    ["simulate", "--protocol", "cycle"],
    ["simulate", "--protocol", "swap"],
    ["simulate", "--protocol", "rearrange"],
    ["simulate", "--protocol", "pipeline"],
    ["worst-case", "--protocol", "cnot_stack", "--n", "16"],
    ["factory", "--variant", "folded", "--check"],
    ["factory", "--variant", "rotated", "--check"],
    ["table1"],
    ["layout", "--fixture", "fig10a", "--plan"],
    ["layout", "--fixture", "fig10b", "--plan"],
]
REARRANGE_SIMS = 150
SWAP_SIMS = 150
STACKS = 40
MONOTONICITY_TRIALS = 1000


def _rearrange_instance(rng: random.Random):
    n = rng.randint(2, 12)
    phase = F(rng.randrange(1009), 1009)
    ring = list(range(n))         # evenly_spaced keeps tokens 0..n-1 in cyclic order
    if rng.random() < 0.125:      # a rotated copy of the current ring
        k = rng.randrange(n)
        target = ring[k:] + ring[:k]
    else:
        target = ring[:]
        rng.shuffle(target)
    return n, phase, target


def _swap_instance(rng: random.Random):
    n = rng.randint(2, 16)
    positions: set[F] = set()
    while len(positions) < n:
        positions.add(F(rng.randrange(1009), 1009))
    a, b = rng.sample(range(n), 2)
    return dict(enumerate(sorted(positions))), a, b


def _stack_instance(rng: random.Random):
    """A 3x6 three-layer stack, five patches on each outer layer, middle free,
    two merge requests per outer layer."""
    rows, cols = 3, 6
    outer = []
    requests = []
    for li in (0, 2):
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        rng.shuffle(cells)
        ids = [f"{li}.{i}" for i in range(5)]
        outer.append({cells[i]: layout.PatchCell(pid, rng.choice("ZX"))
                      for i, pid in enumerate(ids)})
        rng.shuffle(ids)
        requests += [layout.MergeRequest(ids[2 * j], rng.choice("ZX"),
                                         ids[2 * j + 1], rng.choice("ZX")) for j in range(2)]
    return layout.LayerStackLayout(rows, cols, [outer[0], {}, outer[1]]), requests


def _monotonicity_instance(rng: random.Random):
    """Criterion 8's trial: one merge on a 3x4 layer, and one spectator to drop."""
    while True:
        n = rng.randint(2, 5)
        cells = [(r, c) for r in range(3) for c in range(4)]
        rng.shuffle(cells)
        layer = {cells[i]: layout.PatchCell(str(i + 1), rng.choice("ZX")) for i in range(n)}
        ids = [str(i + 1) for i in range(n)]
        a, b = rng.sample(ids, 2)
        request = layout.MergeRequest(a, rng.choice("ZX"), b, rng.choice("ZX"))
        removable = [pid for pid in ids if pid not in (a, b)]
        if removable:
            return layout.LayerStackLayout(3, 4, [layer]), [request], rng.choice(removable)


def batch_estimate_inputs(rng: random.Random) -> dict:
    return {
        "cli": CLI_CALLS,
        "rearrange": [_rearrange_instance(rng) for _ in range(REARRANGE_SIMS)],
        "swap": [_swap_instance(rng) for _ in range(SWAP_SIMS)],
        "stacks": [_stack_instance(rng) for _ in range(STACKS)],
        "monotonicity": [_monotonicity_instance(rng) for _ in range(MONOTONICITY_TRIALS)],
    }


def batch_estimate_run(inputs: dict, checks: Checks) -> None:
    docs = {" ".join(argv): _check_cli(argv, checks) for argv in inputs["cli"]}
    spacetime = {v: F(docs[f"factory --variant {v} --check"]["spacetime_ns"])
                 for v in ("folded", "rotated")}
    ratio = float(spacetime["rotated"] / spacetime["folded"])
    checks.holds("factory spacetime ratio 2.6 +- 0.05", abs(ratio - 2.6) <= 0.05, f"{ratio}")
    for n, phase, target in inputs["rearrange"]:
        sched = loopsim.rearrange(loopsim.LoopState.evenly_spaced(n, phase), target, P)
        checks.holds(f"rearrange n={n} within worst case",
                     sched.makespan <= rearrange_worst_laps(n) * T_LOOP,
                     f"makespan {sched.makespan} for {target} at phase {phase}")
        final = sched.meta["final"]
        want = target[::-1] if sched.meta.get("traversal_reversed") else target
        checks.holds(f"rearrange n={n} realizes target",
                     not final.port and is_rotation(ring_order(final), want),
                     f"ring {ring_order(final)} for {target}")
    for positions, a, b in inputs["swap"]:
        sched = loopsim.swap_protocol(loopsim.LoopState(positions), a, b, P)
        shuttle = sched.meta["shuttle"]
        checks.holds("swap shuttle within 5/4 lap", shuttle <= SWAP_WORST_SHUTTLE,
                     f"shuttle {shuttle}")
        checks.expect("swap makespan = shuttle + T_2q", sched.makespan, shuttle + T_2Q)
        final = sched.meta["final"]
        parked = final.port[0] if len(final.port) == 1 else None
        other = b if parked == a else a
        checks.holds("swap leaves one member parked, the other at the junction",
                     parked in (a, b) and final.positions.get(other) == 0,
                     f"port {final.port}")
    for stack, requests in inputs["stacks"]:
        plan = layout.plan_with_swaps(stack, requests, max_swaps=3)
        if plan.feasible:
            _check_plan(stack, requests, plan.swaps, checks, max_swaps=3)
        else:
            checks.holds("no plan implies the stack is not routable as is",
                         not layout.routable(stack, requests).feasible)
    flips = 0
    for lay, request, drop in inputs["monotonicity"]:
        before = layout.routable(lay, request).feasible
        li, cell = lay.find(drop)
        fewer = lay.copy()
        del fewer.layers[li][cell]
        if before and not layout.routable(fewer, request).feasible:
            flips += 1
    checks.expect("removing a patch never blocks a merge", flips, 0)


def _check_plan(stack, requests, swaps, checks: Checks, max_swaps: int) -> None:
    """Replay a swap plan move by move and route its end state again."""
    state = stack.copy()
    legal = len(swaps) <= max_swaps
    for patch_id, src, dst in swaps:
        li, cell = state.find(patch_id)
        legal &= li == src and abs(dst - src) == 1 and state.free(dst, cell)
        if not legal:
            break
        state.layers[dst][cell] = state.layers[src].pop(cell)
    checks.holds("swap plan is a sequence of legal vertical swaps", legal, f"{swaps}")
    checks.holds("swap plan end state routes every request",
                 legal and layout.routable(state, requests).feasible, f"{swaps}")
    if swaps:
        checks.holds("a non-empty plan is needed", not layout.routable(stack, requests).feasible)


def _check_cli(argv: list[str], checks: Checks) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["--json"] + argv)
    name = " ".join(argv)
    checks.expect(f"cli {name} exit status", rc, 0)
    doc = json.loads(out.getvalue())
    cmd = argv[0]
    if cmd == "cycle-time":
        checks.expect("T_cyc(2)", F(doc["t_cyc_n2"]["value_ns"]), 3150)
        checks.expect("steady state n=16", F(doc["steady_state"]["value_ns"]),
                      F(16, P.meas_devices) * T_MEAS)
        checks.expect("T*_cyc(16)", F(doc["t_cyc_star"]["value_ns"]), 6000)
    elif cmd == "gate-times":
        want = {
            "S/pipelined_folded": 6600, "H/pipelined_folded": 6800,
            "CNOT/pipelined_folded": F(2025, 2), "CNOT/pipelined_rotated": cnot_worst(12),
            "S/pipelined_rotated": F(3, 2) * D * cycle_star(12),
            "H/pipelined_rotated": 3 * D * cycle_star(12),
            "S/standard": F(3, 2) * D * 3000, "H/standard": 3 * D * 3000,
            "CNOT/standard": 2 * D * 3000,
            "H/interloop": (D - 1) * T_LOOP / 2, "SWAP/interloop": D * T_LOOP / 2,
            "CNOT/interloop": 2 * D * T_LOOP / 2,
        }
        got = {k: F(v["value_ns"]) for k, v in doc["gates"].items()}
        checks.expect("gate times at d=25", got, want)
    elif cmd == "simulate":
        protocol = argv[2]
        if protocol == "cycle":
            checks.expect("simulated cycle makespan", F(doc["makespan_ns"]), 3150)
        elif protocol == "swap":
            # tokens a quarter lap and three quarters out: the 5/4-lap worst case
            checks.expect("simulated swap makespan", F(doc["makespan_ns"]),
                          SWAP_WORST_SHUTTLE + T_2Q)
        elif protocol == "rearrange":
            checks.holds("simulated rearrange n=8 within 61/16 lap",
                         F(doc["makespan_ns"]) <= F(61, 16) * T_LOOP,
                         f"makespan {doc['makespan_ns']}")
        else:
            avg = F(doc["running_average_ns"][-1])
            target = F(16, 3) * 1000
            checks.holds("simulated pipeline within 1% of 16/3 us",
                          abs(avg - target) / target < F(1, 100), f"average {avg}")
    elif cmd == "worst-case":
        checks.expect("worst-case cnot_stack n=16", F(doc["max_ns"]), cnot_worst(16))
    elif cmd == "factory":
        variant = argv[2]
        published = {"folded": (216, 22, F(1, 2)), "rotated": (279, 15, F(1))}[variant]
        runtime_us = F(doc["runtime_ns"]) / 1000
        checks.holds(f"factory {variant} runtime within 1 us of {published[0]} us",
                     abs(runtime_us - published[0]) <= 1, f"runtime {float(runtime_us)} us")
        checks.expect(f"factory {variant} cultivation cycles", doc["cultivation_cycles"],
                      published[1])
        checks.expect(f"factory {variant} space", F(doc["space_patches"]), published[2])
        checks.holds(f"factory {variant} output error 2.8e-13",
                     math.isclose(doc["output_error"], 2.8e-13, rel_tol=1e-9),
                     f"{doc['output_error']}")
        # the exit status checked above is 0 with --check only if every
        # measurement branch reached |CCZ> with fidelity 1
    elif cmd == "table1":
        std = {k: F(v) for k, v in doc["savings_vs_standard"].items()}
        rot = {k: F(v) for k, v in doc["savings_vs_pipelined_rotated"].items()}
        checks.expect("savings vs standard", std,
                      {"H": 12 * D, "S": 6 * D, "CNOT": 36 * D, "FACTORY": F(5, 3) * D})
        checks.expect("savings vs pipelined rotated", rot,
                      {"H": 12 * D, "S": 3 * D, "CNOT": 2, "FACTORY": F(5 * D + 154, 108)})
    elif argv[2] == "fig10a":
        checks.holds("fig10a infeasible", not doc["routable"] and doc["explored"] > 0)
        checks.holds("fig10a has no swap plan", not doc["plan"]["feasible"])
    else:
        stack, requests = layout.fig10b_fixture()
        checks.holds("fig10b not routable as is", not doc["routable"])
        checks.expect("fig10b plan length", len(doc["plan"]["swaps"]), 4)
        _check_plan(stack, requests, [tuple(s) for s in doc["plan"]["swaps"]], checks,
                    max_swaps=4)
    return doc


# -- the workloads the benchmark runs ----------------------------------------

def search_verify_inputs(rng: random.Random) -> tuple[list, list]:
    return timing_search_inputs(rng), protocol_verify_inputs(rng)


def search_verify_run(inputs: tuple[list, list], checks: Checks) -> None:
    timing_search_run(inputs[0], checks)
    protocol_verify_run(inputs[1], checks)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random], object]
    run: Callable[[object, Checks], None]


WORKLOADS = {
    "search_verify": Workload(search_verify_inputs, search_verify_run),
    "batch_estimate": Workload(batch_estimate_inputs, batch_estimate_run),
}
