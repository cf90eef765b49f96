"""Simulation and resource estimation for looped-pipeline folded surface codes.

The package verifies the transversal logical-Clifford protocols of the
architecture by stabilizer/statevector simulation at small code distance,
reproduces every timing formula and factory runtime both in closed form and
by discrete-event simulation with exact rational times, and checks the
virtual-stack layout claims by exhaustive routing search.
"""

from .circuits import CircuitEvent, ScheduledCircuit, run_on_state, walk_outcomes
from .costs import (CostReport, cnot_time, cycle_time_n2, effective_cycle_time,
                    gate_cells, gate_time, pipeline_steady_state, rearrange_worst, table1)
from .factory import (FactoryReport, ccz_factory_spec, cultivation_cycles,
                      factory_runtime, output_error, verify_factory)
from .layout import (LayerStackLayout, MergeRequest, PatchCell, RoutingResult,
                     SwapPlan, fig10a_fixture, fig10b_fixture, generate_layout,
                     plan_with_swaps, routable)
from .logical import CodespaceViolationError, LogicalAction, logical_action
from .loopsim import (SILICON, LoopState, OccupiedPortError, TimedSchedule,
                      TimingParams, pipeline_model, rearrange, simulate_cycle,
                      swap_protocol, worst_case_search)
from .patches import (LoopEmbedding, PatchSpec, Stabilizer, build_patch,
                      check_circuit, embed_stack, midcycle_expected)
from .pauli import PauliString
from .protocols import (canonical_alternation, inverted_alternation,
                        s_teleport_circuit, transversal_h_circuit,
                        transversal_s_circuit, transversal_two_qubit)
from .tableau import DenseState, StabilizerState, UnsupportedGateError

__version__ = "0.1.0"

__all__ = [
    "CircuitEvent", "ScheduledCircuit", "run_on_state", "walk_outcomes",
    "CostReport", "cnot_time", "cycle_time_n2", "effective_cycle_time",
    "gate_cells", "gate_time", "pipeline_steady_state", "rearrange_worst", "table1",
    "FactoryReport", "ccz_factory_spec", "cultivation_cycles",
    "factory_runtime", "output_error", "verify_factory",
    "LayerStackLayout", "MergeRequest", "PatchCell", "RoutingResult", "SwapPlan",
    "fig10a_fixture", "fig10b_fixture", "generate_layout", "plan_with_swaps",
    "routable",
    "CodespaceViolationError", "LogicalAction", "logical_action",
    "SILICON", "LoopState", "OccupiedPortError", "TimedSchedule", "TimingParams",
    "pipeline_model", "rearrange", "simulate_cycle", "swap_protocol",
    "worst_case_search",
    "LoopEmbedding", "PatchSpec", "Stabilizer", "build_patch", "check_circuit",
    "embed_stack", "midcycle_expected",
    "PauliString",
    "canonical_alternation", "inverted_alternation", "s_teleport_circuit",
    "transversal_h_circuit", "transversal_s_circuit", "transversal_two_qubit",
    "DenseState", "StabilizerState", "UnsupportedGateError",
    "__version__",
]
