"""Closed-form gate times, cycle times, and the spacetime-overhead table.

gate_cells is the one source of every closed-form gate cell: for each
architecture at its loop occupancy OPERATING_N it gives gate -> (expression,
runtime).  gate_time, the overhead table's runtime cells (table1) and the
expressions `loopfold gate-times` prints all read it; table1's two pipelined
FACTORY cells are factory.factory_runtime's, and T_cyc(2), cycle_time_n2,
is loopsim's traced round.  `loopfold cycle-time` prints the round's terms
with STEADY_STATE_EXPR and T_CYC_STAR_EXPR, which stand next to the
functions they describe.

All quantities are exact Fractions of a nanosecond; the published values are
reproduced as equalities at the silicon defaults (t_loop 400, t_1q 200,
t_2q 100, t_meas 1000, three measurement devices per loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .loopsim import SILICON, TimingParams, cycle_time_n2
from .patches import check_distance

NS_PER_US = Fraction(1000)

# the printed forms of the two functions below; m is meas_devices
STEADY_STATE_EXPR = "max(t_cyc(2), n/m*t_meas)"
T_CYC_STAR_EXPR = "ceil_us(steady + slack)"


def pipeline_steady_state(n: int, params: TimingParams = SILICON) -> Fraction:
    """Long-run average cycle time under measurement contention."""
    return max(cycle_time_n2(params), Fraction(n, params.meas_devices) * params.t_meas)


def ceil_us(ns: Fraction) -> Fraction:
    """`ns` rounded up to a whole microsecond, in ns."""
    return -(-ns // NS_PER_US) * NS_PER_US


def effective_cycle_time(n: int, params: TimingParams = SILICON) -> Fraction:
    """T*_cyc(n): steady-state average plus slack, rounded up to a whole us."""
    if n < 2:
        raise ValueError("need n >= 2")
    return ceil_us(pipeline_steady_state(n, params) + params.slack_ns)


def rearrange_worst(n: int, params: TimingParams = SILICON) -> Fraction:
    """Worst-case shuttling time of the LIFO rearrangement scheme."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        laps = Fraction(n, 2) - Fraction(3, 2 * n)
    else:
        laps = Fraction(n, 2) - Fraction(2, n)
    return laps * params.t_loop


def cnot_time(n: int, params: TimingParams = SILICON) -> Fraction:
    """Transversal intra-stack CNOT (= SWAP) worst case for n qubits per loop."""
    if n < 2 or n % 2:
        raise ValueError("need even n >= 2")
    return (Fraction(9, 4) - Fraction(7, 2 * n)) * params.t_loop + 2 * params.t_2q


# The loop occupancy n at which each architecture is evaluated: a folded stack
# of 16 and a rotated pipeline of 12 qubits per loop; standard and interloop run
# one folded patch per loop, and none of their times reads n.
OPERATING_N = {"standard": 2, "pipelined_rotated": 12, "pipelined_folded": 16, "interloop": 2}
STANDARD_CYCLE_NS = Fraction(3000)   # the fixed stabilizer round of plain lattice surgery


def gate_cells(arch: str, d: int, params: TimingParams = SILICON
               ) -> dict[str, tuple[str, Fraction]]:
    """Every closed-form cell of one architecture: gate -> (expression, runtime ns).

    The one source of the gate times, the overhead table's closed-form cells
    and the expressions both print, at loop occupancy n = OPERATING_N[arch].
    pipelined_folded uses the transversal protocols with the effective cycle
    time T*_cyc(n); pipelined_rotated falls back to lattice surgery for H and
    S; standard is plain lattice surgery with a fixed cycle time, its SWAP a
    patch movement over two ancillas, its FACTORY the lattice-surgery baseline;
    interloop is the inter-loop-shuttling variant, in hops of t_int, with H,
    SWAP and CNOT only.  factory.factory_runtime counts the pipelined factories.
    """
    check_distance(d)
    if arch == "interloop":
        t_int = params.t_int
        return {"H": ("(d-1)*t_int", (d - 1) * t_int), "SWAP": ("d*t_int", d * t_int),
                "CNOT": ("2d*t_int", 2 * d * t_int)}
    if arch not in OPERATING_N:
        raise ValueError(f"unknown architecture {arch!r}")
    n = OPERATING_N[arch]
    if arch == "standard":
        cyc, t_cyc = "T_cyc", STANDARD_CYCLE_NS
    else:
        cyc, t_cyc = f"T_cyc*({n})", effective_cycle_time(n, params)
    cells = {"CYCLE": (cyc, t_cyc)}
    if arch == "pipelined_folded":   # the transversal gates complete inside a round
        lap = Fraction(5, 4) * params.t_loop + params.t_2q
        cells["H"] = (f"{cyc}+5/4T_loop+T_1q+T_2q", t_cyc + lap + params.t_1q)
        cells["S"] = (f"{cyc}+5/4T_loop+T_2q", t_cyc + lap)
    else:                            # lattice surgery
        cells["H"] = (f"3d*{cyc}", 3 * d * t_cyc)
        cells["S"] = (f"1.5d*{cyc}", Fraction(3, 2) * d * t_cyc)
    if arch == "standard":
        cells["CNOT"] = cells["SWAP"] = (f"2d*{cyc}", 2 * d * t_cyc)
        cells["FACTORY"] = (f"5d*{cyc}", 5 * d * t_cyc)
    else:
        cells["CNOT"] = cells["SWAP"] = ("(9/4-7/2n)T_loop+2T_2q", cnot_time(n, params))
    return cells


def gate_time(gate: str, arch: str, d: int, params: TimingParams = SILICON) -> Fraction:
    """Runtime of a logical gate on one architecture, read from gate_cells."""
    cells = gate_cells(arch, d, params)
    gate = gate.upper()
    if gate not in cells:
        raise ValueError(f"gate {gate!r} undefined for architecture {arch!r}")
    return cells[gate][1]


# -- the overhead table -----------------------------------------------------------

GATES = ("H", "S", "CNOT", "FACTORY")


@dataclass(frozen=True)
class TableCell:
    runtime_expr: str
    runtime_ns: Fraction
    space: Fraction

    @property
    def spacetime(self) -> Fraction:
        return self.runtime_ns * self.space


@dataclass
class CostReport:
    """Runtime/space cells per (gate, architecture), plus the savings rows."""

    d: int
    cells: dict[tuple[str, str], TableCell]
    savings_vs_standard: dict[str, Fraction]
    savings_vs_pipelined_rotated: dict[str, Fraction]

    def to_doc(self) -> dict:
        return {
            "d": self.d,
            "cells": {
                f"{g}/{a}": {
                    "runtime_expr": c.runtime_expr,
                    "runtime_ns": str(c.runtime_ns),
                    "space": str(c.space),
                    "spacetime_ns": str(c.spacetime),
                }
                for (g, a), c in sorted(self.cells.items())
            },
            "savings_vs_standard": {g: str(v) for g, v in self.savings_vs_standard.items()},
            "savings_vs_pipelined_rotated": {
                g: str(v) for g, v in self.savings_vs_pipelined_rotated.items()},
        }

    def to_text(self) -> str:
        lines = ["runtime (ns) and [space] per gate and architecture, d=%d" % self.d]
        header = ["architecture", *GATES]
        rows = [header]
        for a in ("standard", "pipelined_rotated", "pipelined_folded"):
            row = [a]
            for g in GATES:
                c = self.cells[(g, a)]
                row.append(f"{c.runtime_expr} = {_fmt_ns(c.runtime_ns)} [{c.space}]")
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        lines.append("")
        lines.append("spacetime saving of folded over standard:          "
                     + "  ".join(f"{g}: {_fmt_ratio(v)}" for g, v in
                                 self.savings_vs_standard.items()))
        lines.append("spacetime saving of folded over pipelined rotated: "
                     + "  ".join(f"{g}: {_fmt_ratio(v)}" for g, v in
                                 self.savings_vs_pipelined_rotated.items()))
        return "\n".join(lines) + "\n"


def _fmt_ns(x: Fraction) -> str:
    if x % 1 == 0:
        return f"{int(x)}ns"
    return f"{x}ns"


def _fmt_ratio(x: Fraction) -> str:
    return f"{float(x):.3f}"


SPACE = {
    "standard": {"H": Fraction(2), "S": Fraction(2), "CNOT": Fraction(3),
                 "FACTORY": Fraction(12)},
    "pipelined_rotated": {"H": Fraction(2), "S": Fraction(1), "CNOT": Fraction(1),
                          "FACTORY": Fraction(1)},
    "pipelined_folded": {"H": Fraction(1, 2), "S": Fraction(1, 2),
                         "CNOT": Fraction(1, 2), "FACTORY": Fraction(1, 2)},
}


def _charged(gate: str, arch: str, cell: TableCell, cycle: Fraction) -> Fraction:
    """A cell's spacetime as a savings entry charges it, in units fixed per gate.

    H and S are charged in rounds of `cycle`, the architecture's CYCLE cell,
    except that the folded transversal gate is one round because it
    completes inside its round.  A CNOT is charged its runtime in
    whole microseconds, rounded to the nearest with a half going up, and at
    least one.  A factory is charged its runtime.
    """
    if gate in ("H", "S"):
        if arch == "pipelined_folded":
            return cell.space
        return cell.runtime_ns / cycle * cell.space
    if gate == "CNOT":
        return max(1, math.floor(cell.runtime_ns / NS_PER_US + Fraction(1, 2))) * cell.space
    return cell.spacetime


def table1(params: TimingParams = SILICON, d: int = 25) -> CostReport:
    """Reproduce the overhead table and its savings rows from first principles.

    Runtime cells are the gate_cells entries, expression and nanoseconds, of
    each architecture at its OPERATING_N; the pipelined FACTORY cells are
    factory_runtime's.  Each savings entry is the ratio of the two cells'
    spacetimes as _charged charges them: at silicon both pipelined CNOTs count
    1 us, and surgery H and S count 3d and 1.5d rounds against the
    transversal gate's one.
    """
    from .factory import factory_runtime   # it reads gate_cells from here
    cells, cycles = {}, {}
    for a, spaces in SPACE.items():
        arch_cells = gate_cells(a, d, params)
        cycles[a] = arch_cells["CYCLE"][1]
        if a != "standard":
            arch_cells["FACTORY"] = factory_runtime(a.removeprefix("pipelined_"), params, d).cell
        cells.update({(g, a): TableCell(*arch_cells[g], space) for g, space in spaces.items()})

    def savings(other: str) -> dict[str, Fraction]:
        return {g: _charged(g, other, cells[(g, other)], cycles[other])
                / _charged(g, "pipelined_folded", cells[(g, "pipelined_folded")],
                           cycles["pipelined_folded"])
                for g in GATES}

    return CostReport(d, cells, savings("standard"), savings("pipelined_rotated"))
