"""Map logical circuits onto a square qubit grid with SWAP routing.

The output is a clock-cycle schedule in the PDPT layout: one column per
physical site, one row per cycle, entry 0 for idle, a positive id for an
algorithm gate, a negative id for a routing SWAP. All gates, SWAPs
included, take one cycle. A valid schedule satisfies three constraints:
logical gate dependencies, exclusive activation of each site per cycle,
and grid adjacency for two-qubit gates.

Gate ids are 1-based positions in the circuit's gate list *after* removing
a leading all-qubit H prefix: that prefix prepares |+...+> and is charged
to state preparation, not to circuit depth, so it never occupies a cycle
row. Routing may move logical qubits through initially-unused sites.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, LogicalCircuit, run_predecessors

N_TRIES = 4    # placements tried per schedule; the shallowest schedule wins


@dataclass(frozen=True)
class GridTopology:
    """Rectangular grid of physical sites with 4-neighbor connectivity."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have positive dimensions")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    def coords(self, site: int) -> tuple[int, int]:
        return divmod(site, self.cols)

    def site(self, r: int, c: int) -> int:
        return r * self.cols + c

    def neighbors(self, site: int) -> list[int]:
        r, c = self.coords(site)
        out = []
        if r > 0:
            out.append(self.site(r - 1, c))
        if r < self.rows - 1:
            out.append(self.site(r + 1, c))
        if c > 0:
            out.append(self.site(r, c - 1))
        if c < self.cols - 1:
            out.append(self.site(r, c + 1))
        return out

    def adjacent(self, a: int, b: int) -> bool:
        return self.distance(a, b) == 1

    def distance(self, a: int, b: int) -> int:
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return abs(ra - rb) + abs(ca - cb)


@dataclass(frozen=True)
class Schedule:
    """Initial placement plus the cycles x sites activation table.

    placement[site] is the logical qubit initially at that site, or -1 for
    an unused site. n_prep_gates counts leading circuit gates hoisted into
    state preparation: the circuit's opening H layer, which prepares
    |+...+> (LogicalCircuit.prep_layer_size), or 0 when nothing was hoisted;
    the ensemble replay accepts no other count. Table gate id k refers to
    circuit gate n_prep_gates + k - 1.
    """

    grid: GridTopology
    placement: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    n_prep_gates: int = 0

    def __post_init__(self):
        if len(self.placement) != self.grid.n_sites:
            raise ValueError("placement length must equal grid size")
        for row in self.table:
            if len(row) != self.grid.n_sites:
                raise ValueError("ragged schedule table")

    @property
    def n_cycles(self) -> int:
        """Cycle count of the table; the hoisted preparation layer is excluded."""
        return len(self.table)

    @property
    def n_swaps(self) -> int:
        """Routing SWAPs in the table; each one occupies two sites of a row."""
        return sum(1 for row in self.table for e in row if e < 0) // 2


def choose_grid(n: int) -> GridTopology:
    """Smallest square grid holding n logical qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    side = math.isqrt(n)
    if side * side < n:
        side += 1
    return GridTopology(side, side)


# ---------------------------------------------------------------------------
# scheduling heuristic
# ---------------------------------------------------------------------------

def _interaction_weights(gates: list[Gate]) -> dict[tuple[int, int], int]:
    w: dict[tuple[int, int], int] = {}
    for g in gates:
        if g.arity == 2:
            key = (min(g.qubits), max(g.qubits))
            w[key] = w.get(key, 0) + 1
    return w


def _initial_placement(n_logical: int, gates: list[Gate], grid: GridTopology,
                       dist: tuple[tuple[int, ...], ...],
                       rng: np.random.Generator) -> list[int]:
    """Greedy interaction-aware placement; returns site -> logical (-1 unused).

    Qubits are placed in order of interaction weight with already-placed
    qubits (their attachment), each at the free site minimizing the weighted
    distance to its placed partners. While no unplaced qubit is attached
    (at the start, or when only non-interacting qubits remain) the next one
    is of the largest total weight and goes nearest the grid centre. Ties
    are broken by the seeded rng so distinct seeds explore distinct
    placements.

    Nothing is rescanned: placing a qubit adds each of its edge weights to
    the partner's attachment, and the free sites are scored from the
    distance rows of the chosen qubit's placed partners alone. The unplaced
    qubits and the free sites stay in ascending lists, so every tie-break
    draws from the same candidate list, and the rng makes the same draws,
    as a rescan of every qubit and site would.
    """
    total = [0] * n_logical
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n_logical)]
    for (u, v), w in _interaction_weights(gates).items():
        total[u] += w
        total[v] += w
        partners[u].append((v, w))
        partners[v].append((u, w))

    center = dist[grid.site(grid.rows // 2, grid.cols // 2)]
    attach = [0] * n_logical
    unplaced = list(range(n_logical))
    free = list(range(grid.n_sites))
    site_of = [-1] * n_logical

    def pick(options: list[int]) -> int:
        return options[rng.integers(len(options))] if len(options) > 1 else options[0]

    while unplaced:
        best_attach = max(map(attach.__getitem__, unplaced))
        if best_attach > 0:
            q = pick([q for q in unplaced if attach[q] == best_attach])
            costs = [0] * len(free)
            for v, w in partners[q]:
                if site_of[v] != -1:
                    row = dist[site_of[v]]
                    costs = [c + w * row[s] for c, s in zip(costs, free)]
        else:
            top = max(map(total.__getitem__, unplaced))
            q = pick([q for q in unplaced if total[q] == top])
            costs = [center[s] for s in free]
        best_cost = min(costs)
        site = pick([s for s, c in zip(free, costs) if c == best_cost])
        site_of[q] = site
        unplaced.remove(q)
        free.remove(site)
        for v, w in partners[q]:
            attach[v] += w

    placement = [-1] * grid.n_sites
    for q, s in enumerate(site_of):
        placement[s] = q
    return placement


def schedule(c: LogicalCircuit, t: GridTopology, seed: int) -> Schedule:
    """Greedy list scheduling with distance-reducing SWAP insertion.

    Each cycle first executes every ready gate that fits (single-qubit
    gates, and two-qubit gates whose operands sit on adjacent free sites),
    then spends remaining free sites on SWAPs that maximally reduce the
    weighted grid distance of the blocked and lookahead two-qubit gates,
    tie-broken by lowest gate id. The cycle lists and scores its candidate
    SWAPs once and keeps their gains current as it swaps: after each SWAP
    only the gains on the sites of the moved qubits' partners change, by a
    delta of two distance rows (_cycle_swaps).
    If a cycle would otherwise be empty, the lowest-id blocked gate is
    force-routed one step along a shortest path so the schedule always
    terminates.

    Placement tie-breaks are randomized, so N_TRIES (4) placements are
    attempted and the shallowest schedule wins (the first of equals). A try
    stops routing once its cycles, with gates left, would reach the best
    try's count, as it can no longer win. Deterministic for a fixed seed.

    Nothing is rescanned: the dependencies are set up once for all tries,
    each gate waiting on the previous run of another kind on each of its
    qubits (run_predecessors; the same ready gates and lookahead as every
    non-commuting pair, whose transitive closure it equals), each
    placement keeps its attachments and site costs current as it places
    (_initial_placement), and each cycle scores its candidate SWAPs in one
    loop (_swap_gains) and then updates those gains in place.
    Raises ValueError if the grid has fewer sites than the circuit has
    qubits.
    """
    if t.n_sites < c.n_qubits:
        raise ValueError(f"{t.rows}x{t.cols} grid cannot hold {c.n_qubits} qubits")

    n_prep = c.prep_layer_size()
    alg_gates = list(c.gates[n_prep:])
    n_alg = len(alg_gates)
    preds = [[a - n_prep for a in p if a >= n_prep] for p in run_predecessors(c)[n_prep:]]
    succs: list[list[int]] = [[] for _ in range(n_alg)]
    for b, p in enumerate(preds):
        for a in p:
            succs[a].append(b)
    indeg = [len(p) for p in preds]
    # per gate, predecessors not yet ready: a two-qubit gate that is not
    # ready itself belongs to the lookahead once this reaches 0
    unreleased = [sum(1 for a in p if indeg[a] > 0) for p in preds]
    nbrs = tuple(tuple(t.neighbors(site)) for site in range(t.n_sites))
    rc = [t.coords(site) for site in range(t.n_sites)]
    dist = tuple(tuple(abs(ra - rb) + abs(ca - cb) for rb, cb in rc) for ra, ca in rc)

    best = None
    for attempt in range(N_TRIES):
        placement = _initial_placement(c.n_qubits, alg_gates, t, dist,
                                       np.random.default_rng([seed, attempt]))
        table = _route(alg_gates, succs, indeg, unreleased, placement,
                       c.n_qubits, t, nbrs, dist, None if best is None else len(best[1]) - 1)
        if table is not None:
            best = (placement, table)
    placement, table = best
    return Schedule(t, tuple(placement), tuple(tuple(r) for r in table), n_prep)


def _route(alg_gates: list[Gate], succs: list[list[int]], indeg0: list[int],
           unreleased0: list[int], placement: list[int], n_qubits: int,
           t: GridTopology, nbrs: tuple[tuple[int, ...], ...],
           dist: tuple[tuple[int, ...], ...],
           max_rows: int | None = None) -> list[list[int]] | None:
    """Cycle rows of one schedule from a fixed initial placement, or None once
    max_rows rows are routed and gates remain: the table would be longer.

    ready (gates whose predecessors have all executed, in id order) and
    lookahead (two-qubit gates whose predecessors have all executed or are
    ready) are updated from the gates each cycle releases, not rescanned.
    A cycle runs phase 1 (the ready gates that fit), then, if a gate is
    blocked, an optional forced step and phase 2: the SWAPs _cycle_swaps
    picks from the cycle's one candidate list.
    """
    n_alg = len(alg_gates)
    two_qubit = [g.arity == 2 for g in alg_gates]
    indeg = list(indeg0)
    unreleased = list(unreleased0)
    p2l = list(placement)
    l2p = [-1] * n_qubits
    for site, q in enumerate(p2l):
        if q != -1:
            l2p[q] = site

    ready = [g for g in range(n_alg) if indeg[g] == 0]
    lookahead = {g for g in range(n_alg)
                 if two_qubit[g] and indeg[g] > 0 and unreleased[g] == 0}
    table: list[list[int]] = []
    swap_counter = 0
    max_cycles = 64 + 8 * (n_alg + 1) * (t.rows + t.cols)

    while ready:
        if max_rows is not None and len(table) >= max_rows:
            return None
        if len(table) > max_cycles:
            raise RuntimeError("scheduler failed to converge; this is a bug")
        row = [0] * t.n_sites
        busy: set[int] = set()
        done_now: list[int] = []
        blocked: list[int] = []

        # phase 1: execute ready gates that fit on the current placement
        for g in ready:
            if two_qubit[g]:
                qa, qb = alg_gates[g].qubits
                sa, sb = l2p[qa], l2p[qb]
                if sa in busy or sb in busy or dist[sa][sb] != 1:
                    blocked.append(g)
                    continue
                row[sa] = row[sb] = g + 1
                busy.add(sa)
                busy.add(sb)
            else:
                sa = l2p[alg_gates[g].qubits[0]]
                if sa in busy:
                    continue
                row[sa] = g + 1
                busy.add(sa)
            done_now.append(g)

        if blocked:
            index: dict[int, list[tuple[int, float]]] = {}
            _add_partners(index, blocked, 1.0, alg_gates)

            # forced step: never emit an empty cycle, route the lowest-id
            # blocked gate one step along a shortest path
            frozen: set[int] = set()
            if not done_now:
                qa, qb = alg_gates[blocked[0]].qubits
                sa, sb = l2p[qa], l2p[qb]
                steps = [nb for nb in nbrs[sa] if nb not in busy
                         and dist[nb][sb] < dist[sa][sb]]
                nb = _best_swap_step(sa, steps, index, p2l, l2p, dist)
                swap_counter += 1
                row[sa] = row[nb] = -swap_counter
                busy.update((sa, nb))
                _apply_swap(sa, nb, p2l, l2p)
                frozen = {sb}

            # phase 2: distance-reducing SWAPs on the remaining free sites
            _add_partners(index, lookahead, 0.5, alg_gates)
            for u, v in _cycle_swaps(blocked, index, alg_gates, p2l, l2p, nbrs, dist,
                                     busy | frozen):
                swap_counter += 1
                row[u] = row[v] = -swap_counter

        table.append(row)
        released = []
        for g in done_now:
            for s in succs[g]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    released.append(s)
        done = set(done_now)
        ready = sorted([g for g in ready if g not in done] + released)
        lookahead.difference_update(released)
        for g in released:
            for s in succs[g]:
                unreleased[s] -= 1
                # s still waits on g, so it cannot be ready itself
                if unreleased[s] == 0 and two_qubit[s]:
                    lookahead.add(s)

    return table


def _apply_swap(u: int, v: int, p2l: list[int], l2p: list[int]) -> None:
    p2l[u], p2l[v] = p2l[v], p2l[u]
    for s in (u, v):
        if p2l[s] != -1:
            l2p[p2l[s]] = s


def _add_partners(index: dict[int, list[tuple[int, float]]], gates, weight: float,
                  alg_gates: list[Gate]) -> None:
    """Index two-qubit gates by operand: logical qubit -> [(partner, weight)]."""
    for g in gates:
        a, b = alg_gates[g].qubits
        index.setdefault(a, []).append((b, weight))
        index.setdefault(b, []).append((a, weight))


def _swap_gains(pairs, index, p2l: list[int], l2p: list[int],
                dist: tuple[tuple[int, ...], ...]) -> list[float]:
    """Drop in the weighted distance of the indexed gates if sites u, v swap,
    for each (u, v) of pairs, scored in one loop.

    Only gates on the logical qubits at u and v move; a gate on both keeps
    its distance and contributes nothing. _cycle_swaps scores its candidates
    with this once per cycle and then updates them in place; _best_swap_step
    and the test oracles score every pair with it.
    """
    gains = []
    for u, v in pairs:
        qu, qv = p2l[u], p2l[v]
        d_u, d_v = dist[u], dist[v]
        gain = 0.0
        for partner, w in index.get(qu, ()):
            if partner != qv:
                sp = l2p[partner]
                gain += w * (d_u[sp] - d_v[sp])
        for partner, w in index.get(qv, ()):
            if partner != qu:
                sp = l2p[partner]
                gain += w * (d_v[sp] - d_u[sp])
        gains.append(gain)
    return gains


def _cycle_swaps(blocked: list[int], index, alg_gates: list[Gate], p2l: list[int],
                 l2p: list[int], nbrs: tuple[tuple[int, ...], ...],
                 dist: tuple[tuple[int, ...], ...], unavailable: set[int]) -> list[tuple[int, int]]:
    """One cycle's distance-reducing SWAPs, in order; each is applied to p2l, l2p.

    The pending distance is the sum of w * grid distance over the indexed
    gates: weight 1 for the blocked gates, 0.5 for the lookahead. The
    candidates are the edges at the operand sites of the blocked gates,
    visited in gate-id order, each from its first-visited end, none touching
    an unavailable site. They are listed and scored (_swap_gains) once. Each
    step swaps the first candidate of the largest gain, if that gain is
    above 1e-9, so equal reductions resolve toward the lowest gate id: a
    heap of (-gain, position) entries pops it, and an entry whose gain has
    changed since it was pushed is skipped, so no step scans the whole list.
    Weights are 1 and 0.5 and distances are small integers, so every gain is
    an exact multiple of 0.5 in floating point and ties are exact. The
    swapped sites are then in use: the candidates touching them are dropped
    (gain -inf). Only the gates on the two moved qubits changed length, so
    the other gains are updated in place, not rescored: for a qubit that
    moved from site old to site new and a partner of it with weight w at
    site p, every candidate (s, nb) on p gains
    w * ((dist[s][new] - dist[nb][new]) - (dist[s][old] - dist[nb][old])),
    negated when p is nb. An empty moved site indexes no gate, and a partner
    on u or v (a gate on both moved qubits) has no live candidate left.
    Every term and every partial sum is again a multiple of 0.5, so the
    updated gains are the very floats a rescoring gives, and every choice
    and tie is the same.
    """
    closed = set(unavailable)
    cands: list[tuple[int, int]] = []
    at: dict[int, list[int]] = {}    # site -> positions of the candidates on it
    for g in blocked:
        for q in alg_gates[g].qubits:
            s = l2p[q]
            if s not in closed:
                closed.add(s)
                for nb in nbrs[s]:
                    if nb not in closed:
                        at.setdefault(s, []).append(len(cands))
                        at.setdefault(nb, []).append(len(cands))
                        cands.append((s, nb))
    gains = _swap_gains(cands, index, p2l, l2p, dist)
    heap = [(-gain, i) for i, gain in enumerate(gains) if gain > 1e-9]
    heapq.heapify(heap)
    swaps: list[tuple[int, int]] = []
    while heap:
        neg, i = heapq.heappop(heap)
        if gains[i] != -neg:    # the gain has changed since this entry was pushed
            continue
        u, v = cands[i]
        _apply_swap(u, v, p2l, l2p)
        swaps.append((u, v))
        for i in at.pop(u) + at.pop(v):
            gains[i] = -math.inf
        # the qubit now at new came from old; an empty site (-1) indexes no gate
        for old, new in ((u, v), (v, u)):
            d_old, d_new = dist[old], dist[new]
            for partner, w in index.get(p2l[new], ()):
                site = l2p[partner]
                for i in at.get(site, ()):
                    s, nb = cands[i]
                    delta = w * ((d_new[s] - d_new[nb]) - (d_old[s] - d_old[nb]))
                    if delta:
                        gains[i] += delta if s == site else -delta
                        if gains[i] > 1e-9:
                            heapq.heappush(heap, (-gains[i], i))
    return swaps


def _best_swap_step(sa: int, steps: list[int], index, p2l: list[int],
                    l2p: list[int], dist: tuple[tuple[int, ...], ...]) -> int:
    """Among shortest-path steps for the forced gate, pick the most helpful.

    The largest gain (_swap_gains) over the indexed (blocked) gates wins;
    gains are exact, so ties are exact and go to the lowest site.
    """
    steps = sorted(steps)
    gains = _swap_gains([(sa, nb) for nb in steps], index, p2l, l2p, dist)
    return steps[gains.index(max(gains))]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_schedule(s: Schedule, c: LogicalCircuit, t: GridTopology) -> list[str]:
    """Check every schedule invariant; returns human-readable violations.

    An empty list means the schedule is valid: gate ids cover the circuit
    exactly once with correct arity and adjacency, sites are exclusively
    activated, replaying SWAPs shows each gate acting on its logical
    operands, and non-commuting same-qubit gates appear in circuit order.
    Table ids are read after the schedule's own n_prep_gates hoisted gates,
    exactly as the simulator replays them.
    """
    out: list[str] = []
    if t.n_sites != len(s.placement):
        return [f"placement has {len(s.placement)} sites, grid has {t.n_sites}"]

    n_prep = s.n_prep_gates
    alg_gates = c.gates[n_prep:]
    n_alg = len(alg_gates)

    used = [q for q in s.placement if q != -1]
    if sorted(used) != list(range(c.n_qubits)):
        out.append(f"placement does not cover logical qubits 0..{c.n_qubits - 1} exactly once")
        return out

    cycle_of: dict[int, int] = {}
    sites_of: dict[int, list[int]] = {}
    swap_cycles: dict[int, list[tuple[int, int]]] = {}
    for cy, row in enumerate(s.table):
        neg: dict[int, list[int]] = {}
        for site, entry in enumerate(row):
            if entry > 0:
                if entry in cycle_of and cycle_of[entry] != cy:
                    out.append(f"gate {entry} appears in cycles {cycle_of[entry]} and {cy}")
                cycle_of[entry] = cy
                sites_of.setdefault(entry, []).append(site)
            elif entry < 0:
                neg.setdefault(entry, []).append(site)
        for sid, sites in neg.items():
            if len(sites) != 2:
                out.append(f"swap {sid} occupies {len(sites)} sites in cycle {cy}")
            elif not t.adjacent(sites[0], sites[1]):
                out.append(f"swap {sid} on non-adjacent sites {sites} in cycle {cy}")
            else:
                swap_cycles.setdefault(cy, []).append((sites[0], sites[1]))

    if sorted(cycle_of) != list(range(1, n_alg + 1)):
        out.append(f"gate ids {sorted(cycle_of)} do not cover 1..{n_alg} exactly")
        return out

    for gid, sites in sites_of.items():
        gate = alg_gates[gid - 1]
        if len(sites) != gate.arity:
            out.append(f"gate {gid} occupies {len(sites)} sites, needs {gate.arity}")
        elif gate.arity == 2 and not t.adjacent(sites[0], sites[1]):
            out.append(f"gate {gid} on non-adjacent sites {sites}")

    # replay SWAP tracking: each gate must touch its logical operands
    gates_at: list[list[int]] = [[] for _ in s.table]
    for gid, cy in cycle_of.items():
        gates_at[cy].append(gid)
    p2l = list(s.placement)
    for cy, gids in enumerate(gates_at):
        for gid in gids:
            gate = alg_gates[gid - 1]
            found = {p2l[site] for site in sites_of[gid]}
            if found != set(gate.qubits):
                out.append(f"gate {gid} acts on logical {sorted(found)}, "
                           f"expected {sorted(gate.qubits)} (cycle {cy})")
        for u, v in swap_cycles.get(cy, []):
            p2l[u], p2l[v] = p2l[v], p2l[u]

    # logical dependency order, commuting pairs exempt: each gate after the previous
    # run of another kind on each of its qubits (run_predecessors); every
    # non-commuting pair is a chain of these, so the cycles then increase along it
    # (the gate ids cover the table exactly here, so every gate has a cycle)
    for gid, preds in enumerate(run_predecessors(c)[n_prep:], 1):
        for dep in (a - n_prep + 1 for a in preds if a >= n_prep):
            if cycle_of[dep] >= cycle_of[gid]:
                out.append(f"gate {gid} (cycle {cycle_of[gid]}) does not follow "
                           f"its dependency {dep} (cycle {cycle_of[dep]})")
    return out


# ---------------------------------------------------------------------------
# PDPT text format
# ---------------------------------------------------------------------------

def emit_pdpt(s: Schedule) -> str:
    """Render the schedule in the PDPT text layout.

    Comment lines start with '#'; then a physical-index row, a logical-index
    row ('*' marks unused sites), a separator, one integer row per cycle,
    and a closing separator.
    """
    bar = "#" * 76
    def fmt(values) -> str:
        return "".join(f"{v:>8}" for v in values)

    lines = [
        "# PDPT: each column is associated to a physical qubit, each row to a clock-cycle",
        "## physical qubit indices " + "#" * 50,
        fmt(range(s.grid.n_sites)),
        "## logical qubit indices " + "#" * 51,
        fmt("*" if q == -1 else q for q in s.placement),
        bar,
    ]
    lines.extend(fmt(row) for row in s.table)
    lines.append(bar)
    return "\n".join(lines) + "\n"


def parse_pdpt(text: str, grid: GridTopology | None = None,
               n_prep_gates: int = 0) -> Schedule:
    """Inverse of emit_pdpt; also reads published PDPT listings.

    The first non-comment row must list physical indices 0..S-1; the second
    is the initial placement with '*' for unused sites; every following row
    is one clock cycle. A square grid is inferred from the column count
    unless one is supplied. The text does not record hoisted preparation
    gates, so a reader of a table that omits them (published tables and
    emit_pdpt output do) passes n_prep_gates = circuit.prep_layer_size().
    """
    rows: list[list[str]] = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped.split())
    if len(rows) < 2:
        raise ValueError("PDPT text needs a physical row and a placement row")

    n_sites = len(rows[0])
    for idx, row in enumerate(rows):
        if len(row) != n_sites:
            raise ValueError(f"ragged PDPT row {idx}: {len(row)} of {n_sites} columns")
    if _pdpt_ints(rows[0], "physical index") != tuple(range(n_sites)):
        raise ValueError("physical index row must be 0..S-1 in order")
    placement = _pdpt_ints(rows[1], "placement", unused="*")
    table = tuple(_pdpt_ints(row, "cycle") for row in rows[2:])

    if grid is None:
        side = math.isqrt(n_sites)
        if side * side != n_sites:
            raise ValueError(f"cannot infer a square grid from {n_sites} columns")
        grid = GridTopology(side, side)
    elif grid.n_sites != n_sites:
        raise ValueError(f"grid has {grid.n_sites} sites, table has {n_sites} columns")

    return Schedule(grid, placement, table, n_prep_gates)


def _pdpt_ints(row: list[str], name: str, unused: str | None = None) -> tuple[int, ...]:
    """The integers of one PDPT row, with the token `unused` read as -1."""
    try:
        return tuple(-1 if tok == unused else int(tok) for tok in row)
    except ValueError as exc:
        raise ValueError(f"unknown token in PDPT {name} row: {row}") from exc
