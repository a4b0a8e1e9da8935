"""QAOA logical circuits over the {H, ZZPhase, RX} gate set; routing SWAPs are schedule entries.

Angle conventions are fixed once here and everywhere else in the package:

  ZZPhase(gamma) = exp(-i gamma Z(x)Z / 2)   diagonal two-qubit phase
  RX(beta)       = exp(-i beta X)            full-angle mixer rotation

RX deliberately takes the full angle: the mixer layer at parameter beta is
exactly exp(-i beta X) per qubit, and callers must not halve angles to fit
the more common half-angle convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .graphs import Graph


class GateKind(str, Enum):
    H = "h"
    ZZPHASE = "zzphase"
    RX = "rx"


_ARITY = {GateKind.H: 1, GateKind.RX: 1, GateKind.ZZPHASE: 2}


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float = 0.0

    def __post_init__(self):
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind.value} takes {_ARITY[self.kind]} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.qubits}")
        if not math.isfinite(self.angle):
            raise ValueError(f"non-finite angle {self.angle}")

    @property
    def arity(self) -> int:
        return len(self.qubits)


@dataclass(frozen=True)
class QaoaParams:
    """Variational angles: p phase-layer gammas and p mixer-layer betas."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas) or len(self.gammas) < 1:
            raise ValueError("gammas and betas must have equal length p >= 1")
        if any(not math.isfinite(x) for x in self.gammas + self.betas):
            raise ValueError("angles must be finite")

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def from_vector(cls, x) -> "QaoaParams":
        """Split a flat length-2p vector laid out as (gammas..., betas...)."""
        if len(x) % 2 != 0:
            raise ValueError("parameter vector length must be 2p")
        p = len(x) // 2
        return cls(tuple(float(v) for v in x[:p]), tuple(float(v) for v in x[p:]))


@dataclass(frozen=True)
class LogicalCircuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        for g in self.gates:
            if any(q >= self.n_qubits or q < 0 for q in g.qubits):
                raise ValueError(f"gate {g} out of range for n_qubits={self.n_qubits}")

    def prep_layer_size(self) -> int:
        """Length of the leading all-qubit H prefix (0 if absent).

        A circuit that opens with one H per qubit is preparing |+...+>; the
        scheduler hoists that prefix out of the clock-cycle table and the
        cost model charges it to the state-preparation time instead of to
        circuit depth.
        """
        head = self.gates[: self.n_qubits]
        if len(head) == self.n_qubits and all(g.kind == GateKind.H for g in head):
            if {g.qubits[0] for g in head} == set(range(self.n_qubits)):
                return self.n_qubits
        return 0


def build_qaoa_circuit(g: Graph, params: QaoaParams) -> LogicalCircuit:
    """H on every qubit, then p alternating phase/mixer layers.

    Layer l applies ZZPhase(gamma_l) per edge in edge-list order, then
    RX(beta_l) per qubit in index order. Total gate count is
    n + p * (|E| + n).
    """
    gates: list[Gate] = [Gate(GateKind.H, (q,)) for q in range(g.n)]
    for l in range(params.p):
        for (i, j) in g.edges:
            gates.append(Gate(GateKind.ZZPHASE, (i, j), params.gammas[l]))
        for q in range(g.n):
            gates.append(Gate(GateKind.RX, (q,), params.betas[l]))
    return LogicalCircuit(g.n, tuple(gates))


def run_predecessors(c: LogicalCircuit) -> list[list[int]]:
    """Per gate, in ascending order, the gates it must immediately follow.

    On a shared qubit, two gates of the {H, RX, ZZPhase} set commute exactly
    when they are of the same kind, so on each qubit the gates fall into
    maximal runs of one kind, and a gate's predecessors are the previous run
    on each of its qubits. Every non-commuting pair (a, b), a < b, is a chain
    of these pairs: it spans the runs between a's and b's, and one gate of
    each of them chains a to b. So a scheduler that releases a gate once its
    predecessors have run sees the same ready gates as with every such pair,
    and a schedule whose cycles increase along every predecessor pair orders
    every non-commuting pair (tests/oracles.py dependency_edges holds all of
    them).
    """
    current: dict[int, list[int]] = {}    # qubit -> its latest run
    previous: dict[int, list[int]] = {}   # qubit -> the run before it
    kinds = [gate.kind for gate in c.gates]
    preds: list[list[int]] = []
    for idx, gate in enumerate(c.gates):
        mine: set[int] = set()
        for q in gate.qubits:
            run = current.get(q)
            if run is None or kinds[run[0]] != kinds[idx]:
                previous[q] = run or []
                current[q] = run = []
            run.append(idx)
            mine.update(previous[q])
        preds.append(sorted(mine))
    return preds
