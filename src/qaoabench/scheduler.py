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

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Gate, LogicalCircuit, dependency_edges


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
    state preparation (0 when nothing was hoisted); table gate id k refers
    to circuit gate n_prep_gates + k - 1.
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
                       rng: np.random.Generator) -> list[int]:
    """Greedy interaction-aware placement; returns site -> logical (-1 unused).

    Qubits are placed in order of interaction weight with already-placed
    qubits, each at the free site minimizing the weighted distance to its
    placed partners. Ties are broken by the seeded rng so distinct seeds
    explore distinct placements.
    """
    weights = _interaction_weights(gates)
    total = [0] * n_logical
    partners: dict[int, list[tuple[int, int]]] = {q: [] for q in range(n_logical)}
    for (u, v), w in weights.items():
        total[u] += w
        total[v] += w
        partners[u].append((v, w))
        partners[v].append((u, w))

    center = grid.site(grid.rows // 2, grid.cols // 2)
    free = set(range(grid.n_sites))
    site_of = [-1] * n_logical
    placed: list[int] = []

    def pick(options: list[int]) -> int:
        return int(options[rng.integers(len(options))]) if len(options) > 1 else options[0]

    while len(placed) < n_logical:
        unplaced = [q for q in range(n_logical) if site_of[q] == -1]
        attach = {q: sum(w for v, w in partners[q] if site_of[v] != -1) for q in unplaced}
        best_attach = max(attach.values())
        if best_attach > 0:
            cands = [q for q in unplaced if attach[q] == best_attach]
        else:
            # nothing placed yet, or only non-interacting qubits remain
            top = max(total[q] for q in unplaced)
            cands = [q for q in unplaced if total[q] == top]
        q = pick(sorted(cands))

        def cost(site: int) -> int:
            c = sum(w * grid.distance(site, site_of[v])
                    for v, w in partners[q] if site_of[v] != -1)
            return c if best_attach > 0 else grid.distance(site, center)

        best_cost = min(cost(s) for s in free)
        site = pick(sorted(s for s in free if cost(s) == best_cost))
        site_of[q] = site
        free.discard(site)
        placed.append(q)

    placement = [-1] * grid.n_sites
    for q, s in enumerate(site_of):
        placement[s] = q
    return placement


def schedule(c: LogicalCircuit, t: GridTopology, seed: int, n_tries: int = 4) -> Schedule:
    """Greedy list scheduling with distance-reducing SWAP insertion.

    Each cycle first executes every ready gate that fits (single-qubit
    gates, and two-qubit gates whose operands sit on adjacent free sites),
    then spends remaining free sites on SWAPs that maximally reduce the
    total grid distance of pending two-qubit gates, tie-broken by lowest
    gate id. If a cycle would otherwise be empty, the lowest-id blocked
    gate is force-routed one step along a shortest path so the schedule
    always terminates.

    Placement tie-breaks are randomized, so n_tries placements are
    attempted and the shallowest schedule wins. Deterministic for a fixed
    seed.
    """
    best = None
    for attempt in range(n_tries):
        cand = _schedule_once(c, t, np.random.default_rng([seed, attempt]))
        if best is None or cand.n_cycles < best.n_cycles:
            best = cand
    return best


def _schedule_once(c: LogicalCircuit, t: GridTopology,
                   rng: np.random.Generator) -> Schedule:
    if t.n_sites < c.n_qubits:
        raise ValueError(f"{t.rows}x{t.cols} grid cannot hold {c.n_qubits} qubits")

    n_prep = c.prep_layer_size()
    alg_gates = list(c.gates[n_prep:])
    n_alg = len(alg_gates)

    preds: list[list[int]] = [[] for _ in range(n_alg)]
    succs: list[list[int]] = [[] for _ in range(n_alg)]
    for a, b in dependency_edges(c):
        if a >= n_prep and b >= n_prep:
            preds[b - n_prep].append(a - n_prep)
            succs[a - n_prep].append(b - n_prep)
    indeg = [len(p) for p in preds]

    placement = _initial_placement(c.n_qubits, alg_gates, t, rng)
    p2l = list(placement)
    l2p = [-1] * c.n_qubits
    for site, q in enumerate(p2l):
        if q != -1:
            l2p[q] = site

    executed = [False] * n_alg
    n_done = 0
    ready = sorted(g for g in range(n_alg) if indeg[g] == 0)
    table: list[list[int]] = []
    swap_counter = 0
    max_cycles = 64 + 8 * (n_alg + 1) * (t.rows + t.cols)

    while n_done < n_alg:
        if len(table) > max_cycles:
            raise RuntimeError("scheduler failed to converge; this is a bug")
        row = [0] * t.n_sites
        busy: set[int] = set()
        done_now: list[int] = []

        # phase 1: execute ready gates that fit on the current placement
        for g in ready:
            gate = alg_gates[g]
            sites = [l2p[q] for q in gate.qubits]
            if any(s in busy for s in sites):
                continue
            if gate.arity == 2 and not t.adjacent(sites[0], sites[1]):
                continue
            for s in sites:
                row[s] = g + 1
                busy.add(s)
            done_now.append(g)

        blocked = [g for g in ready if g not in done_now and alg_gates[g].arity == 2]

        # forced step: never emit an empty cycle, route the lowest-id
        # blocked gate one step along a shortest path
        forced_frozen: set[int] = set()
        if not done_now and blocked:
            g = blocked[0]
            qa, qb = alg_gates[g].qubits
            sa, sb = l2p[qa], l2p[qb]
            steps = [nb for nb in t.neighbors(sa)
                     if nb not in busy and t.distance(nb, sb) < t.distance(sa, sb)]
            nb = _best_swap_step(sa, steps, blocked, alg_gates, l2p, p2l, t)
            swap_counter += 1
            row[sa] = row[nb] = -swap_counter
            busy.update((sa, nb))
            _apply_swap(sa, nb, p2l, l2p)
            forced_frozen = {sb}

        # phase 2: distance-reducing SWAPs on the remaining free sites
        if blocked:
            lookahead = [g for g in range(n_alg)
                         if not executed[g] and g not in done_now and indeg[g] > 0
                         and alg_gates[g].arity == 2
                         and all(executed[p] or p in done_now or indeg[p] == 0
                                 for p in preds[g])]
            scored = [(g, 1.0) for g in blocked if g not in done_now] + \
                     [(g, 0.5) for g in lookahead]
            while True:
                move = _pick_swap(scored, alg_gates, l2p, p2l, t, busy, forced_frozen)
                if move is None:
                    break
                u, v = move
                swap_counter += 1
                row[u] = row[v] = -swap_counter
                busy.update((u, v))
                _apply_swap(u, v, p2l, l2p)

        table.append(row)
        for g in done_now:
            executed[g] = True
            n_done += 1
            for s in succs[g]:
                indeg[s] -= 1
        ready = sorted(g for g in range(n_alg)
                       if not executed[g] and indeg[g] == 0)

    return Schedule(t, tuple(placement), tuple(tuple(r) for r in table), n_prep)


def _apply_swap(u: int, v: int, p2l: list[int], l2p: list[int]) -> None:
    p2l[u], p2l[v] = p2l[v], p2l[u]
    for s in (u, v):
        if p2l[s] != -1:
            l2p[p2l[s]] = s


def _pending_distance(scored, alg_gates, l2p, t) -> float:
    return sum(w * t.distance(l2p[alg_gates[g].qubits[0]], l2p[alg_gates[g].qubits[1]])
               for g, w in scored)


def _pick_swap(scored, alg_gates, l2p, p2l, t: GridTopology, busy: set[int],
               frozen: set[int]):
    """Best free adjacent swap by pending-distance reduction; None if no gain.

    Candidates are edges touching an endpoint of a blocked gate, visited in
    gate-id order so equal reductions resolve toward the lowest gate id.
    """
    before = _pending_distance(scored, alg_gates, l2p, t)
    best = None
    best_gain = 0.0
    seen: set[tuple[int, int]] = set()
    for g, w in scored:
        if w < 1.0:
            continue
        for q in alg_gates[g].qubits:
            s = l2p[q]
            if s in busy or s in frozen:
                continue
            for nb in t.neighbors(s):
                if nb in busy or nb in frozen:
                    continue
                pair = (min(s, nb), max(s, nb))
                if pair in seen:
                    continue
                seen.add(pair)
                _apply_swap(pair[0], pair[1], p2l, l2p)
                gain = before - _pending_distance(scored, alg_gates, l2p, t)
                _apply_swap(pair[0], pair[1], p2l, l2p)
                if gain > best_gain + 1e-9:
                    best_gain = gain
                    best = pair
    return best


def _best_swap_step(sa: int, steps: list[int], blocked, alg_gates, l2p, p2l,
                    t: GridTopology) -> int:
    """Among shortest-path steps for the forced gate, pick the most helpful."""
    if len(steps) == 1:
        return steps[0]
    scored = [(g, 1.0) for g in blocked]
    best_nb = steps[0]
    best_after = None
    for nb in sorted(steps):
        _apply_swap(sa, nb, p2l, l2p)
        after = _pending_distance(scored, alg_gates, l2p, t)
        _apply_swap(sa, nb, p2l, l2p)
        if best_after is None or after < best_after - 1e-9:
            best_after = after
            best_nb = nb
    return best_nb


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_schedule(s: Schedule, c: LogicalCircuit, t: GridTopology) -> list[str]:
    """Check every schedule invariant; returns human-readable violations.

    An empty list means the schedule is valid: gate ids cover the circuit
    exactly once with correct arity and adjacency, sites are exclusively
    activated, replaying SWAPs shows each gate acting on its logical
    operands, and non-commuting same-qubit gates appear in circuit order.

    If the schedule declares no hoisted preparation but its ids only cover
    the circuit minus a leading all-qubit H prefix, the prefix is treated
    as hoisted (this is how published tables omit the preparation layer).
    """
    out: list[str] = []
    if t.n_sites != len(s.placement):
        return [f"placement has {len(s.placement)} sites, grid has {t.n_sites}"]

    n_prep = s.n_prep_gates
    max_id = max((e for row in s.table for e in row if e > 0), default=0)
    if n_prep == 0 and max_id == len(c.gates) - c.prep_layer_size():
        n_prep = c.prep_layer_size()
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
    p2l = list(s.placement)
    for cy, row in enumerate(s.table):
        for gid, sites in sites_of.items():
            if cycle_of[gid] != cy:
                continue
            gate = alg_gates[gid - 1]
            found = {p2l[site] for site in sites}
            if found != set(gate.qubits):
                out.append(f"gate {gid} acts on logical {sorted(found)}, "
                           f"expected {sorted(gate.qubits)} (cycle {cy})")
        for u, v in swap_cycles.get(cy, []):
            p2l[u], p2l[v] = p2l[v], p2l[u]

    # logical dependency order, commuting pairs exempt
    for a, b in dependency_edges(c):
        if a < n_prep:
            continue
        ca, cb = cycle_of.get(a - n_prep + 1), cycle_of.get(b - n_prep + 1)
        if ca is not None and cb is not None and ca >= cb:
            out.append(f"gate {b - n_prep + 1} (cycle {cb}) does not follow "
                       f"its dependency {a - n_prep + 1} (cycle {ca})")
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
    unless one is supplied.
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
    if [int(x) for x in rows[0]] != list(range(n_sites)):
        raise ValueError("physical index row must be 0..S-1 in order")

    placement = []
    for tok in rows[1]:
        if tok == "*":
            placement.append(-1)
        else:
            placement.append(int(tok))

    table = []
    for row in rows[2:]:
        try:
            table.append(tuple(int(tok) for tok in row))
        except ValueError as exc:
            raise ValueError(f"unknown token in PDPT cycle row: {row}") from exc

    if grid is None:
        side = math.isqrt(n_sites)
        if side * side != n_sites:
            raise ValueError(f"cannot infer a square grid from {n_sites} columns")
        grid = GridTopology(side, side)
    elif grid.n_sites != n_sites:
        raise ValueError(f"grid has {grid.n_sites} sites, table has {n_sites} columns")

    return Schedule(grid, tuple(placement), tuple(table), n_prep_gates)


# ---------------------------------------------------------------------------
# JSON export for the simulation pipeline
# ---------------------------------------------------------------------------

def schedule_to_json(s: Schedule) -> str:
    payload = {
        "grid": {"rows": s.grid.rows, "cols": s.grid.cols},
        "placement": list(s.placement),
        "n_prep_gates": s.n_prep_gates,
        "table": [list(row) for row in s.table],
    }
    return json.dumps(payload, indent=2) + "\n"


def schedule_from_json(text: str) -> Schedule:
    payload = json.loads(text)
    grid = GridTopology(payload["grid"]["rows"], payload["grid"]["cols"])
    return Schedule(grid, tuple(payload["placement"]),
                    tuple(tuple(r) for r in payload["table"]),
                    int(payload.get("n_prep_gates", 0)))
