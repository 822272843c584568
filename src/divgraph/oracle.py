"""Brute-force measurement of invariants on explicitly built graphs.

Ground truth for the formulas in divgraph.invariants: everything here is
read off the node and arc lists by counting, bucketing, and path DP, never
by formula.  Deliberately allowed to be slow.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from divgraph.graphs import DivisorGraph, GraphKind
from divgraph.invariants import InvariantRecord


def count_paths(g: DivisorGraph) -> int:
    """Number of distinct source-to-sink paths, by DP in index order.

    Node indices are already topological (every arc goes low to high).
    """
    n = len(g.nodes)
    incoming: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.arcs:
        incoming[b].append(a)
    counts = [0] * n
    counts[0] = 1
    for j in range(1, n):
        counts[j] = sum(counts[i] for i in incoming[j])
    return counts[n - 1]


def _profile(g: DivisorGraph) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Per-node levels, node and leaving-arc counts per level, in- and out-degrees.

    Read off ``g.nodes`` and ``g.arcs`` by counting alone.
    """
    n = len(g.nodes)
    levels = [sum(v) for v in g.nodes]
    top = max(levels)
    node_counts = [0] * (top + 1)
    for lv in levels:
        node_counts[lv] += 1
    arc_counts = [0] * max(top, 1)
    indeg = [0] * n
    outdeg = [0] * n
    for a, b in g.arcs:
        arc_counts[levels[a]] += 1
        outdeg[a] += 1
        indeg[b] += 1
    return levels, node_counts, arc_counts, indeg, outdeg


def measure(g: DivisorGraph, gT: DivisorGraph) -> InvariantRecord:
    """All fourteen invariants measured on a Hasse diagram and its closure."""
    if g.kind is not GraphKind.HASSE or gT.kind is not GraphKind.CLOSURE:
        raise ValueError("measure expects (hasse, closure) graphs")
    if sorted(g.signature) != sorted(gT.signature):
        raise ValueError(
            f"graphs have different signatures: {g.signature} vs {gT.signature}"
        )
    n = len(g.nodes)
    _, node_counts, arc_counts, indeg, outdeg = _profile(g)

    # Height as an actual longest path, not as a formula.
    longest = [0] * n
    for a, b in g.arcs:
        if longest[a] + 1 > longest[b]:
            longest[b] = longest[a] + 1
    omega_total = longest[n - 1]
    odd_nodes = sum(node_counts[1::2])
    odd_arcs = sum(arc_counts[1::2])

    return InvariantRecord(
        order=n,
        hasse_size=len(g.arcs),
        big_omega=omega_total,
        small_omega=node_counts[1] if omega_total >= 1 else 0,
        width_nodes=max(node_counts),
        width_arcs=max(arc_counts) if g.arcs else 0,
        degree=max(i + o for i, o in zip(indeg, outdeg)) if n > 1 else 0,
        hasse_paths=count_paths(g),
        v_even=n - odd_nodes,
        v_odd=odd_nodes,
        e_even=len(g.arcs) - odd_arcs,
        e_odd=odd_arcs,
        closure_size=len(gT.arcs),
        closure_paths=count_paths(gT),
    )


@dataclass(frozen=True)
class StructureReport:
    """Outcome of the structural claims checked on one Hasse diagram."""

    level_symmetry: bool  # |V_l| == |V_{Omega-l}|
    arc_level_symmetry: bool  # |E_l| == |E_{Omega-l-1}|
    special_levels: bool  # |V_1| == |V_{Omega-1}| == omega
    degree_bounds: bool  # indegree, outdegree <= omega; degree <= 2*omega
    bipartite_by_parity: bool  # every arc joins an even level to an odd one
    uniform_path_length: bool  # all maximal source-sink paths have length Omega

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))

    def failures(self) -> list[str]:
        return [f.name for f in fields(self) if not getattr(self, f.name)]


def verify_structure(g: DivisorGraph) -> StructureReport:
    """Check the structural claims directly on a built Hasse diagram."""
    if g.kind is not GraphKind.HASSE:
        raise ValueError("verify_structure requires a Hasse diagram")
    n = len(g.nodes)
    w = len(g.signature)
    levels, node_counts, arc_counts, indeg, outdeg = _profile(g)
    omega_total = len(node_counts) - 1
    parity_ok = all((levels[a] + levels[b]) % 2 for a, b in g.arcs)

    level_symmetry = all(
        node_counts[l] == node_counts[omega_total - l] for l in range(omega_total + 1)
    )
    arc_level_symmetry = all(
        arc_counts[l] == arc_counts[omega_total - l - 1] for l in range(omega_total)
    )
    if omega_total >= 1:
        special_levels = node_counts[1] == node_counts[omega_total - 1] == w
    else:
        special_levels = True
    degree_bounds = all(
        i <= w and o <= w and i + o <= 2 * w for i, o in zip(indeg, outdeg)
    )

    # Unique source and sink, every arc climbs exactly one level, and the
    # shortest and longest source-sink distances both equal Omega.
    sources = [v for v in range(n) if indeg[v] == 0]
    sinks = [v for v in range(n) if outdeg[v] == 0]
    covers_ok = all(levels[b] - levels[a] == 1 for a, b in g.arcs)
    inf = n + 1
    shortest = [inf] * n
    longest = [-1] * n
    shortest[0] = longest[0] = 0
    for a, b in g.arcs:
        if shortest[a] + 1 < shortest[b]:
            shortest[b] = shortest[a] + 1
        if longest[a] + 1 > longest[b]:
            longest[b] = longest[a] + 1
    uniform_path_length = (
        sources == [0]
        and sinks == [n - 1]
        and covers_ok
        and shortest[n - 1] == longest[n - 1] == omega_total
    )

    return StructureReport(
        level_symmetry=level_symmetry,
        arc_level_symmetry=arc_level_symmetry,
        special_levels=special_levels,
        degree_bounds=degree_bounds,
        bipartite_by_parity=parity_ok,
        uniform_path_length=uniform_path_length,
    )
