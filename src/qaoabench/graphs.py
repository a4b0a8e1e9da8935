"""Random 3-regular Max-Cut instances and exact brute-force oracles.

Graphs are simple and undirected; vertices are 0-based integers. A cut
assignment is a basis code z in [0, 2^n) whose bit i colors vertex i; the
brute-force routines enumerate all 2^n of them, so they are capped at n = 28.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hard cap for the exhaustive oracles: 2^28 assignments is already ~30 s
# of numpy work, anything above is not desk scale.
BRUTE_FORCE_MAX_N = 28


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count n >= 1 + edge list (i, j), i != j."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a graph needs at least 1 vertex, got n={self.n}")
        seen = set()
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def require_edge(g: Graph) -> None:
    """Reject an edgeless graph before anything divides by its maximum cut, 0."""
    if not g.n_edges:
        raise ValueError(f"Max-Cut needs at least one edge; the graph has none (n={g.n})")


def gen_random_3regular(n: int, seed: int) -> Graph:
    """Sample a random 3-regular simple graph on n vertices.

    Uses the configuration (pairing) model with full rejection: three stubs
    per vertex are shuffled and paired, and the whole pairing is discarded
    whenever it produces a self-loop or a multi-edge. Rejection keeps the
    sample near-uniform over simple 3-regular graphs. Deterministic for a
    fixed seed. Connectivity is not enforced.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError(f"3-regular graphs need even n >= 4, got n={n}")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), 3)
    while True:
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = set()
        ok = True
        for a, b in pairs:
            i, j = (int(a), int(b)) if a < b else (int(b), int(a))
            if i == j or (i, j) in edges:
                ok = False
                break
            edges.add((i, j))
        if ok:
            return Graph(n, tuple(sorted(edges)))


def cut_values_table(g: Graph) -> np.ndarray:
    """Cut value of every basis assignment z in [0, 2^n), vectorized.

    Index z encodes vertex i in bit i (little-endian). Shared by the
    brute-force oracle, the cut estimates, and the sampling pipeline.
    """
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"n={g.n} exceeds brute-force cap {BRUTE_FORCE_MAX_N}")
    z = np.arange(1 << g.n, dtype=np.uint32)
    cuts = np.zeros(1 << g.n, dtype=np.uint16)    # holds every cut within the cap
    for (i, j) in g.edges:
        cuts += ((z >> i) ^ (z >> j)) & 1
    return cuts


def brute_force_maxcut(g: Graph) -> tuple[int, np.ndarray]:
    """Exhaustive Max-Cut: (optimal cut size, ascending codes of all optima).

    The optima always come in even number because flipping every color
    preserves the cut.
    """
    cuts = cut_values_table(g)
    k_max = int(cuts.max())
    return k_max, np.flatnonzero(cuts == k_max)


def write_graph(g: Graph) -> str:
    """Edge-list text: first line "n m", then one "i j" line per edge."""
    lines = [f"{g.n} {g.n_edges}"]
    lines.extend(f"{i} {j}" for (i, j) in g.edges)
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> Graph:
    """Parse the edge-list format written by write_graph."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    n, m = _two_ints(lines[0], "header")
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        i, j = _two_ints(ln, "edge")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        edges.append((i, j))
    return Graph(n, tuple(edges))


def _two_ints(line: str, name: str) -> tuple[int, int]:
    """The two integers of a header or edge line."""
    parts = line.split()
    if len(parts) == 2:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            pass
    raise ValueError(f"malformed {name} line: {line!r}")
