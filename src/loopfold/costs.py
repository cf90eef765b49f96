"""Closed-form gate times, cycle times, and the spacetime-overhead table.

All quantities are exact Fractions of a nanosecond; the published values are
reproduced as equalities at the silicon defaults (t_loop 400, t_1q 200,
t_2q 100, t_meas 1000, three measurement devices per loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .loopsim import SILICON, TimingParams

NS_PER_US = Fraction(1000)


def cycle_time_n2(params: TimingParams = SILICON) -> Fraction:
    """Stabilizer round duration for a single folded patch (two per loop)."""
    return (Fraction(27, 8) * params.t_loop + 2 * params.t_1q
            + 4 * params.t_2q + params.t_meas)


def pipeline_steady_state(n: int, params: TimingParams = SILICON) -> Fraction:
    """Long-run average cycle time under measurement contention."""
    return max(cycle_time_n2(params), Fraction(n, params.meas_devices) * params.t_meas)


def effective_cycle_time(n: int, params: TimingParams = SILICON) -> Fraction:
    """T*_cyc(n): steady-state average plus slack, rounded up to a whole us."""
    if n < 2:
        raise ValueError("need n >= 2")
    raw = pipeline_steady_state(n, params) + params.slack_ns
    us = -(-raw // NS_PER_US)  # ceil division
    return us * NS_PER_US


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


def gate_time(gate: str, arch: str, d: int, params: TimingParams = SILICON) -> Fraction:
    """Closed-form runtime of a logical gate on one architecture.

    Each architecture runs at its loop occupancy n = OPERATING_N[arch].
    pipelined_folded uses the transversal protocols with the effective cycle
    time T*_cyc(n); pipelined_rotated falls back to lattice surgery for H and
    S; standard is plain lattice surgery with a fixed cycle time; interloop
    is the inter-loop-shuttling variant (times in hops of t_int).
    """
    gate = gate.upper()
    if arch not in OPERATING_N:
        raise ValueError(f"unknown architecture {arch!r}")
    n = OPERATING_N[arch]
    t_cyc_star = effective_cycle_time(n, params) if arch.startswith("pipelined") else None

    if arch == "pipelined_folded":
        if gate == "S":
            return t_cyc_star + Fraction(5, 4) * params.t_loop + params.t_2q
        if gate == "H":
            return t_cyc_star + Fraction(5, 4) * params.t_loop + params.t_1q + params.t_2q
        if gate in ("CNOT", "SWAP"):
            return cnot_time(n, params)
        if gate == "CYCLE":
            return t_cyc_star
    elif arch == "pipelined_rotated":
        if gate == "H":
            return 3 * d * t_cyc_star
        if gate == "S":
            return Fraction(3, 2) * d * t_cyc_star
        if gate in ("CNOT", "SWAP"):
            return cnot_time(n, params)
        if gate == "CYCLE":
            return t_cyc_star
    elif arch == "standard":
        if gate == "H":
            return 3 * d * STANDARD_CYCLE_NS
        if gate == "S":
            return Fraction(3, 2) * d * STANDARD_CYCLE_NS
        if gate == "CNOT":
            return 2 * d * STANDARD_CYCLE_NS
        if gate == "SWAP":
            return 2 * d * STANDARD_CYCLE_NS   # patch movement, two ancillas
        if gate == "CYCLE":
            return STANDARD_CYCLE_NS
    elif arch == "interloop":
        if gate == "H":
            return (d - 1) * params.t_int
        if gate == "SWAP":
            return d * params.t_int
        if gate == "CNOT":
            return 2 * d * params.t_int
    raise ValueError(f"gate {gate!r} undefined for architecture {arch!r}")


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


def factory_cell_us(variant: str, params: TimingParams = SILICON, d: int = 25) -> Fraction:
    """The table's factory-runtime expression, in microseconds.

    folded: 33 T*_cyc(16) + 18 us; rotated: (d + 27) T*_cyc(12) + 19 us.
    These are the published condensed forms.  The term-by-term runtime of
    factory.factory_runtime matches them within a microsecond only at the
    silicon defaults and d = 25 (215.56 and 278.72 us against 216 and 279).
    At t_loop = 1600 ns the forms give 282 and 435 us against 319.25 and
    474.67 us; at silicon and d = 9 they give 216 and 199 us against 983.56
    and 623.72 us, because the forms do not grow with the cultivation time.
    """
    if variant not in ("folded", "rotated"):
        raise ValueError(f"unknown factory variant {variant!r}")
    t_star = effective_cycle_time(OPERATING_N[f"pipelined_{variant}"], params) / NS_PER_US
    if variant == "folded":
        return 33 * t_star + 18
    return (d + 27) * t_star + 19


# (gate, arch) -> the cell's runtime expression; every cell is evaluated at
# OPERATING_N[arch]
_TABLE1_EXPRS = {
    ("H", "standard"): "3d*T_cyc",
    ("S", "standard"): "1.5d*T_cyc",
    ("CNOT", "standard"): "2d*T_cyc",
    ("FACTORY", "standard"): "5d*T_cyc",
    ("H", "pipelined_rotated"): "3d*T_cyc*(12)",
    ("S", "pipelined_rotated"): "1.5d*T_cyc*(12)",
    ("CNOT", "pipelined_rotated"): "(9/4-7/2n)T_loop+2T_2q",
    ("FACTORY", "pipelined_rotated"): "(d+27)*T_cyc*(12)+19us",
    ("H", "pipelined_folded"): "T_cyc*(16)+5/4T_loop+T_1q+T_2q",
    ("S", "pipelined_folded"): "T_cyc*(16)+5/4T_loop+T_2q",
    ("CNOT", "pipelined_folded"): "(9/4-7/2n)T_loop+2T_2q",
    ("FACTORY", "pipelined_folded"): "33*T_cyc*(16)+18us",
}


def _runtime(gate: str, arch: str, params: TimingParams, d: int) -> Fraction:
    if gate != "FACTORY":
        return gate_time(gate, arch, d, params)
    if arch == "standard":
        return 5 * d * gate_time("CYCLE", arch, d, params)
    return factory_cell_us(arch.removeprefix("pipelined_"), params, d) * NS_PER_US


def _charged(gate: str, arch: str, cell: TableCell, params: TimingParams, d: int) -> Fraction:
    """A cell's spacetime as a savings entry charges it, in units fixed per gate.

    H and S are charged in stabilizer rounds: the runtime over the
    architecture's cycle, except that the folded transversal gate is one round
    because it completes inside its round.  A CNOT is charged its runtime in
    whole microseconds, rounded to the nearest with a half going up, and at
    least one.  A factory is charged its runtime.
    """
    if gate in ("H", "S"):
        if arch == "pipelined_folded":
            return cell.space
        cycle = gate_time("CYCLE", arch, d, params)
        return cell.runtime_ns / cycle * cell.space
    if gate == "CNOT":
        return max(1, math.floor(cell.runtime_ns / NS_PER_US + Fraction(1, 2))) * cell.space
    return cell.spacetime


def table1(params: TimingParams = SILICON, d: int = 25) -> CostReport:
    """Reproduce the overhead table and its savings rows from first principles.

    Runtime cells carry the symbolic expression and the nanoseconds from
    gate_time and factory_cell_us at each architecture's OPERATING_N.  Each
    savings entry is the ratio of the two cells' spacetimes as _charged charges
    them: at silicon both pipelined CNOTs count 1 us, and surgery H and S count
    3d and 1.5d rounds against the transversal gate's one.
    """
    if d % 2 == 0:
        raise ValueError("d must be odd")
    cells = {(g, a): TableCell(expr, _runtime(g, a, params, d), SPACE[a][g])
             for (g, a), expr in _TABLE1_EXPRS.items()}

    def savings(other: str) -> dict[str, Fraction]:
        return {g: _charged(g, other, cells[(g, other)], params, d)
                / _charged(g, "pipelined_folded", cells[(g, "pipelined_folded")], params, d)
                for g in GATES}

    return CostReport(d, cells, savings("standard"), savings("pipelined_rotated"))
