"""Which loopfold functions the traced run wraps, and the per-layer metrics.

Only public names are wrapped, in every loopfold module that holds them, so
a call from one module into another (verify -> run_on_state, cli ->
worst_case_search, plan_with_swaps -> routable) is recorded as well.  No
file under src/ is edited.

Times are inclusive: a layer's time is the summed duration of its outermost
spans, so it counts what the layer calls.  Where one layer calls another
the two times overlap (layout.plan_s contains the routing it triggers).
The per-name self times, duration minus child spans, are in the span table.
"""

from __future__ import annotations

from loopfold import (circuits, cli, costs, factory, layout, logical, loopsim,
                      patches, protocols, verify)

from spans import Recorder, Span, install

EVENT_SIMS = ("loopsim.rearrange", "loopsim.swap_protocol", "loopsim.simulate_cycle")


def _events(result, *args, **kwargs) -> dict:
    return {"events": len(result.events)}


def _distance(circuit, patch_or_patches) -> dict:
    first = (patch_or_patches if isinstance(patch_or_patches, patches.PatchSpec)
             else patch_or_patches[0])
    return {"d": first.distance, "qubits": circuit.num_qubits}


def instrument(rec: Recorder) -> None:
    """Wrap the public functions of every layer for the rest of the process."""
    def wrap(module, attr, name=None, annotate=None):
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        install(original, rec.span(original, label, annotate))

    wrap(loopsim, "worst_case_search",
         name=lambda protocol, *a, **k: f"loopsim.worst_case_search.{protocol}")
    for attr in ("rearrange", "swap_protocol", "simulate_cycle"):
        wrap(loopsim, attr, annotate=_events)
    wrap(loopsim, "pipeline_model")
    # the rearrangement search enumerates its targets with this imported name
    install(loopsim.permutations,
            rec.counting_iter(loopsim.permutations, "loopsim.rearrange_configs"),
            modules=[loopsim])

    wrap(costs, "table1")
    wrap(factory, "verify_factory",
         annotate=lambda result, *a, **k: {"branches": len(result.branches)})
    wrap(factory, "factory_runtime")

    wrap(logical, "logical_action",
         annotate=lambda result, *a, **k: _distance(*a, **k))
    wrap(circuits, "run_on_state")
    for attr in ("transversal_s_circuit", "transversal_h_circuit",
                 "transversal_two_qubit", "s_teleport_circuit"):
        wrap(protocols, attr)
    for attr in ("build_patch", "embed_stack", "first_half_circuit",
                 "second_half_circuit", "midcycle_expected"):
        wrap(patches, attr)

    wrap(verify, "dense_protocol_fidelity")
    wrap(verify, "verify_s_teleport")
    # only verify's own name: tableau and factory check isinstance/construct
    # DenseState themselves, and factory branches are counted separately
    dense_state = verify.DenseState

    def counted_dense_state(num_qubits):
        rec.counters["verify.dense_amplitudes"] += 2 ** num_qubits
        return dense_state(num_qubits)
    install(dense_state, counted_dense_state, modules=[verify])

    wrap(layout, "routable",
         annotate=lambda result, *a, **k: {"explored": result.explored})
    wrap(layout, "plan_with_swaps",
         annotate=lambda result, *a, **k: {"states": result.states_explored})
    wrap(cli, "main")


def metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (setup and overhead come later)."""
    def named(*names):
        return lambda s: s.name in names

    def prefixed(prefix):
        return lambda s: s.name.startswith(prefix)

    def seconds(spans: list[Span]) -> float:
        return sum(s.duration_ns for s in spans) / 1e9

    def per(total: float, count: float, scale: float) -> float:
        return scale * total / count if count else 0.0

    m: dict[str, float] = {}
    m["loopsim.rearrange_search_s"] = seconds(
        rec.outermost(named("loopsim.worst_case_search.rearrange")))
    m["loopsim.rearrange_configs"] = rec.counters["loopsim.rearrange_configs"]
    m["loopsim.rearrange_us_per_config"] = per(
        m["loopsim.rearrange_search_s"], m["loopsim.rearrange_configs"], 1e6)
    m["loopsim.swap_search_s"] = seconds(
        rec.outermost(named("loopsim.worst_case_search.swap")))
    m["loopsim.cnot_stack_search_s"] = seconds(
        rec.outermost(named("loopsim.worst_case_search.cnot_stack")))
    # event simulations run by a search are part of that search's time
    sims = rec.outermost(named(*EVENT_SIMS), prefixed("loopsim.worst_case_search"))
    m["loopsim.event_sim_s"] = seconds(sims)
    m["loopsim.events"] = sum(s.args["events"] for s in sims)
    m["loopsim.us_per_event"] = per(m["loopsim.event_sim_s"], m["loopsim.events"], 1e6)
    m["loopsim.pipeline_s"] = seconds(rec.outermost(named("loopsim.pipeline_model")))

    actions = rec.outermost(named("logical.logical_action"))
    for d in (5, 7, 9):
        m[f"logical.action_s.d{d}"] = seconds([s for s in actions if s.args["d"] == d])
    m["logical.action_calls"] = len(actions)
    m["logical.tableau_qubits"] = sum(s.args["qubits"] for s in actions)
    m["circuits.run_on_state_s"] = seconds(rec.outermost(named("circuits.run_on_state")))
    m["protocols.circuit_s"] = seconds(rec.outermost(prefixed("protocols.")))
    m["patches.build_s"] = seconds(rec.outermost(prefixed("patches.")))

    m["verify.dense_oracle_s"] = seconds(rec.outermost(
        named("verify.dense_protocol_fidelity", "verify.verify_s_teleport")))
    m["verify.dense_amplitudes"] = rec.counters["verify.dense_amplitudes"]
    verifications = rec.outermost(named("factory.verify_factory"))
    m["factory.verify_s"] = seconds(verifications)
    m["factory.branches"] = sum(s.args["branches"] for s in verifications)
    m["factory.ms_per_branch"] = per(m["factory.verify_s"], m["factory.branches"], 1e3)
    m["factory.runtime_s"] = seconds(rec.outermost(named("factory.factory_runtime")))
    m["costs.table1_s"] = seconds(rec.outermost(named("costs.table1")))

    m["layout.route_s"] = seconds(rec.outermost(named("layout.routable")))
    m["layout.route_pathsets"] = sum(s.args["explored"] for s in rec.spans
                                     if s.name == "layout.routable")
    plans = rec.outermost(named("layout.plan_with_swaps"))
    m["layout.plan_s"] = seconds(plans)
    m["layout.plan_states"] = sum(s.args["states"] for s in plans)
    m["layout.us_per_plan_state"] = per(m["layout.plan_s"], m["layout.plan_states"], 1e6)

    mains = rec.outermost(named("cli.main"))
    m["cli.main_s"] = seconds(mains)
    m["cli.calls"] = len(mains)
    m["trace.uncovered_pct"] = 100.0 * (wall_s - rec.top_level_ns() / 1e9) / wall_s
    return m
