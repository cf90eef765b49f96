"""The 8T-to-CCZ factory: logical verification and the full cost budget.

The folded architecture runs the distillation circuit on 8 logical qubits in
one stack (16 per loop) with transversal CNOTs and mid-cycle S corrections;
the rotated baseline needs 12 logical qubits and measurement gadgets for the
S gates.  Both circuits are verified branch-by-branch at the logical level,
then costed term by term.
"""

from loopfold import ccz_factory_spec, factory_runtime, table1, verify_factory

for variant in ("folded", "rotated"):
    circuit = ccz_factory_spec(variant)
    ver = verify_factory(circuit)
    print(f"{variant}: {circuit.num_qubits} logical qubits, "
          f"{circuit.gate_count('CNOT')} CNOTs, {len(circuit.slots())} slices")
    print(f"  verified {len(ver.branches)} measurement branches, "
          f"min fidelity with |CCZ>: {ver.min_fidelity:.12f}")

    report = factory_runtime(variant, d=25)
    for name, val in report.runtime_terms.items():
        print(f"  {name:<24} {float(val)/1000:9.4f} us")
    print(f"  {'total':<24} {float(report.runtime_ns)/1000:9.4f} us on "
          f"{report.space} patch areas "
          f"(cultivation {report.cultivation_cycles} cycles, "
          f"output error {float(report.output_error):.2g})\n")

folded = factory_runtime("folded", d=25)
rotated = factory_runtime("rotated", d=25)
ratio = rotated.spacetime_ns / folded.spacetime_ns
print(f"spacetime ratio rotated/folded: {float(ratio):.3f}\n")

# wrong resource states cannot distill: the verification catches it
bad = verify_factory(ccz_factory_spec("folded"), inputs="0")
print(f"with |0> inputs instead of T states: min fidelity {bad.min_fidelity:.3f} "
      f"-> verification fails as it should\n")

print(table1(d=25).to_text())
