"""Transversal logical Cliffords on folded surface-code patches.

A folded rotated patch supports all three Clifford generators without
lattice surgery.  CNOT and SWAP between stacked patches are transversal
outright; S and H act at the mid-cycle point of a stabilizer round, where
the patch momentarily unfolds into a larger code whose mirror symmetry the
fold exposes.  This script builds the circuits and identifies their logical
action two independent ways: by one stabilizer-tableau run in which each
logical qubit starts maximally entangled with a bare reference qubit, so the
signed image of every logical generator can be read off the output
stabilizer group, and (at distance 3) by brute-force statevector simulation.
"""

from loopfold import (build_patch, embed_stack, logical_action,
                      transversal_h_circuit, transversal_s_circuit,
                      transversal_two_qubit, inverted_alternation)
from loopfold.verify import dense_protocol_fidelity

patch = build_patch(3, "folded")
print(f"folded d=3 patch: {patch.num_data} data qubits on "
      f"{len(patch.data_sites)} loop sites, {len(patch.stabilizers)} checks")

# --- transversal S -------------------------------------------------------
circ = transversal_s_circuit(patch)
print("\ntransversal S circuit:",
      f"{circ.gate_count('CNOT')} CNOTs, {circ.gate_count('CZ')} fold-pair CZs,",
      f"{circ.gate_count('S') + circ.gate_count('SDG')} crease phase gates")
print("  tableau identification:", logical_action(circ, patch))

# the inverse crease pattern gives the inverse gate
inv = transversal_s_circuit(patch, inverted_alternation(3))
print("  inverted crease pattern:", logical_action(inv, patch))

# dense-oracle spot check on a generic encoded state
alpha, beta = 0.6, 0.8j
fid = dense_protocol_fidelity(patch, circ, "S", alpha, beta)
print(f"  dense oracle on {alpha}|0>+{beta}|1>: fidelity {fid:.12f}")

# --- transversal H -------------------------------------------------------
hc = transversal_h_circuit(patch)
print("\ntransversal H circuit:",
      f"{hc.gate_count('H')} Hadamards, {hc.gate_count('SWAP')} fold-pair SWAPs")
print("  tableau identification:", logical_action(hc, patch))
print("  dense oracle on |0>_L:",
      f"{dense_protocol_fidelity(patch, hc, 'H', 1.0, 0.0):.12f}")

# --- transversal CNOT / SWAP between stacked patches ---------------------
a, b = build_patch(3, "folded"), build_patch(3, "folded")
stack = embed_stack([a, b])
print(f"\ntwo stacked folded patches: {stack.qubits_per_loop} qubits per "
      f"off-diagonal loop")
for gate in ("CNOT", "SWAP"):
    g = transversal_two_qubit(stack, 0, 1, gate, [a, b])
    act = logical_action(g, [a, b])
    print(f"  transversal {gate}: {act} (images {act.images})")

# --- scaling to d=5 (tableau only) ---------------------------------------
p5 = build_patch(5, "folded")
print("\nd=5:", logical_action(transversal_s_circuit(p5), p5),
      logical_action(transversal_h_circuit(p5), p5))
