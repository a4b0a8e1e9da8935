"""Max-Cut to Max-2-SAT reduction and DIMACS WCNF emission.

Each graph edge (i, j) becomes the clause pair (x_{i+1} v x_{j+1}) and
(~x_{i+1} v ~x_{j+1}): one clause of the pair is always satisfiable, both
are satisfied exactly when the edge is cut. A graph with E edges and
optimal cut k therefore maps to a Max-2-SAT optimum of E + k.

The WCNF output is the standard soft-clause interchange format consumed by
branch-and-bound Max-SAT solvers; solving it is out of scope here.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1-based DIMACS literals: positive = variable, negative = negation."""

    n_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range for {self.n_vars} vars")

    @property
    def n_clauses(self) -> int:
        return len(self.clauses)


def reduce_to_max2sat(g: Graph) -> CnfFormula:
    """Two clauses per edge, in edge-list order; SAT variable i+1 is vertex i."""
    clauses = []
    for (i, j) in g.edges:
        clauses.append((i + 1, j + 1))
        clauses.append((-(i + 1), -(j + 1)))
    return CnfFormula(g.n, tuple(clauses))


def emit_wcnf(f: CnfFormula) -> str:
    """DIMACS WCNF text with unit soft weights and top = n_clauses + 1.

    All clauses are soft (unweighted Max-Cut), so top never appears as a
    clause weight; it only marks the hard-clause threshold in the header.
    """
    top = f.n_clauses + 1
    lines = [f"p wcnf {f.n_vars} {f.n_clauses} {top}"]
    for clause in f.clauses:
        lines.append("1 " + " ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
