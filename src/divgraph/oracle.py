"""Brute-force measurement of invariants on explicitly built graphs.

Ground truth for the formulas in divgraph.invariants: everything here is
read off the nodes and the arc rows by counting, bucketing, and path DP,
never by formula.  Levels, counts, degrees, longest distances from the
source and level steps come from one pass, ``graphs.level_profile``; path
counts from one backward pull over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from divgraph.graphs import DivisorGraph, GraphKind, level_profile
from divgraph.invariants import InvariantRecord


def count_paths(g: DivisorGraph) -> int:
    """Number of distinct source-to-sink paths, by one backward pull: each
    tail, last first, sums its heads' counts in a local.  Every arc goes low
    to high, so each head's count is final before its tail reads it."""
    rows = g.arcs.rows
    paths = [0] * (len(rows) - 1) + [1]
    for a in range(len(rows) - 2, -1, -1):
        total = 0
        for h in rows[a]:
            total += paths[h]
        paths[a] = total
    return paths[0]


def measure(g: DivisorGraph, gT: DivisorGraph) -> InvariantRecord:
    """All fourteen invariants measured on a Hasse diagram and its closure."""
    if g.kind is not GraphKind.HASSE or gT.kind is not GraphKind.CLOSURE:
        raise ValueError("measure expects (hasse, closure) graphs")
    if sorted(g.signature) != sorted(gT.signature):
        raise ValueError(
            f"graphs have different signatures: {g.signature} vs {gT.signature}"
        )
    n = len(g.nodes)
    profile = level_profile(g)
    node_counts, arc_counts = profile.node_counts, profile.arc_counts

    # Height as an actual longest path, not as a formula.
    omega_total = profile.longest[-1]
    odd_nodes = sum(node_counts[1::2])
    odd_arcs = sum(arc_counts[1::2])

    return InvariantRecord(
        order=n,
        hasse_size=len(g.arcs),
        big_omega=omega_total,
        small_omega=node_counts[1] if omega_total >= 1 else 0,
        width_nodes=max(node_counts),
        width_arcs=max(arc_counts) if g.arcs else 0,
        degree=max(i + o for i, o in zip(profile.indeg, profile.outdeg)) if n > 1 else 0,
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
    profile = level_profile(g)
    node_counts, arc_counts = profile.node_counts, profile.arc_counts
    indeg, outdeg = profile.indeg, profile.outdeg
    omega_total = len(node_counts) - 1
    # level differences across arcs: 1 for a cover, odd across the bipartition
    steps = profile.steps

    # Unique source and sink, every arc climbs exactly one level, and the
    # longest source-sink distance equals Omega.  With one source, one sink
    # and one-level steps, every maximal path runs from the source to the
    # sink one level per arc, so all have the longest one's length.
    sources = [v for v in range(n) if indeg[v] == 0]
    sinks = [v for v in range(n) if outdeg[v] == 0]
    uniform_path_length = (
        sources == [0]
        and sinks == [n - 1]
        and steps <= {1}
        and profile.longest[-1] == omega_total
    )

    return StructureReport(
        level_symmetry=node_counts == node_counts[::-1],
        arc_level_symmetry=arc_counts == arc_counts[::-1],
        special_levels=omega_total == 0 or node_counts[1] == node_counts[-2] == w,
        degree_bounds=max(indeg) <= w and max(outdeg) <= w,  # so degree <= 2 omega
        bipartite_by_parity=all(d % 2 for d in steps),
        uniform_path_length=uniform_path_length,
    )
