"""Explicit divisor-lattice DAGs over exponent vectors.

A graph is built from a tuple of exponent bounds (a prime signature, in any
coordinate order).  Nodes are all exponent vectors below the bounds, in
lexicographic order; node 0 is the all-zero source and the last node is the
sink.  Two kinds are supported: the Hasse diagram (covering relation, arcs
raise one coordinate by one) and the transitive closure (every dominated
pair).  Graphs are immutable once built.  ``level_profile`` reads everything
the oracle needs from a Hasse diagram (levels, per-level counts, degrees and
distances from the source) in one pass over its arcs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from divgraph import invariants, kernels
from divgraph.errors import BudgetError
from divgraph.signatures import Factorization

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_ARC_BUDGET = 10**7  # a closure arc costs about 100 bytes

ExponentVector = tuple[int, ...]


class GraphKind(Enum):
    HASSE = "hasse"
    CLOSURE = "closure"


@dataclass(frozen=True)
class DivisorGraph:
    """Nodes in lexicographic order, so every arc goes from a lower index to
    a higher one; arcs sorted by tail, then head.  The oracle's forward
    passes over ``arcs`` rely on that order: all arcs into a node come
    before any arc out of it."""

    signature: tuple[int, ...]
    kind: GraphKind
    nodes: list[ExponentVector] = field(repr=False)
    arcs: list[tuple[int, int]] = field(repr=False)

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.nodes) - 1


@dataclass(frozen=True)
class LevelProfile:
    node_counts: list[int]  # level l = coordinate sum l, l = 0..top
    arc_counts: list[int]  # arcs leaving level l, l = 0..top-1
    levels: list[int]  # level of each node
    indeg: list[int]
    outdeg: list[int]
    shortest: list[int]  # fewest arcs from node 0; node count + 1 if unreached
    longest: list[int]  # most arcs from node 0; -1 if unreached


def build_graph(
    bounds: tuple[int, ...],
    kind: GraphKind,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    arc_budget: int = DEFAULT_ARC_BUDGET,
) -> DivisorGraph:
    """Construct the Hasse diagram or transitive closure for the given bounds.

    ``bounds`` is an exponent tuple; any coordinate order is accepted and
    preserved, so vectors line up with a factorization's prime order.  The
    node count, and for a closure its arc count by the ``closure_size``
    formula, are checked against the budgets before anything is built.
    """
    bounds = tuple(bounds)
    for m in bounds:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError(f"exponent bounds must be positive integers, got {bounds!r}")
    n = invariants.order(bounds)
    if n > node_budget:
        raise BudgetError(f"graph on {n} nodes exceeds node budget {node_budget}")
    if kind is GraphKind.CLOSURE:
        size = invariants.closure_size(bounds)
        if size > arc_budget:
            raise BudgetError(f"closure with {size} arcs exceeds arc budget {arc_budget}")
    nodes = kernels.enumerate_nodes(bounds)
    if kind is GraphKind.HASSE:
        arcs = kernels.hasse_arcs(bounds)
    elif kind is GraphKind.CLOSURE:
        arcs = kernels.closure_arcs(bounds)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return DivisorGraph(signature=bounds, kind=kind, nodes=nodes, arcs=arcs)


def level_profile(g: DivisorGraph) -> LevelProfile:
    """Levels, per-level counts, degrees and distances of a Hasse diagram.

    One pass over ``g.arcs`` counts arcs by the level of their tail, counts
    degrees, and pushes the shortest and longest arc distances from node 0
    forward, which needs the tail order that ``DivisorGraph`` documents.
    Levels are exponent sums read off ``g.nodes`` and the top level is the
    highest of them, never a formula of the signature.
    """
    if g.kind is not GraphKind.HASSE:
        raise ValueError("level_profile requires a Hasse diagram")
    n = len(g.nodes)
    levels = [sum(v) for v in g.nodes]
    top = max(levels)
    node_counts = [0] * (top + 1)
    for lv in levels:
        node_counts[lv] += 1
    arc_counts = [0] * top
    indeg = [0] * n
    outdeg = [0] * n
    shortest = [n + 1] * n
    longest = [-1] * n
    shortest[0] = longest[0] = 0
    for a, b in g.arcs:
        arc_counts[levels[a]] += 1
        outdeg[a] += 1
        indeg[b] += 1
        if shortest[a] + 1 < shortest[b]:
            shortest[b] = shortest[a] + 1
        if longest[a] + 1 > longest[b]:
            longest[b] = longest[a] + 1
    return LevelProfile(node_counts, arc_counts, levels, indeg, outdeg, shortest, longest)


def divisor_value(v: ExponentVector, f: Factorization) -> int:
    """Concrete divisor represented by vector ``v`` against factorization ``f``."""
    if len(v) != len(f):
        raise ValueError(f"vector of length {len(v)} does not match factorization of length {len(f)}")
    value = 1
    for coord, (prime, exponent) in zip(v, f):
        if coord < 0 or coord > exponent:
            raise ValueError(f"coordinate {coord} out of range 0..{exponent}")
        value *= prime**coord
    return value


def to_dot(g: DivisorGraph) -> str:
    """DOT rendering; node labels are the exponent vectors joined by spaces."""
    lines = [f"digraph {g.kind.value} {{"]
    for i, v in enumerate(g.nodes):
        label = " ".join(str(c) for c in v)
        lines.append(f'  v{i} [label="{label}"];')
    for a, b in g.arcs:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: DivisorGraph) -> str:
    payload = {
        "signature": list(g.signature),
        "kind": g.kind.value,
        "nodes": [list(v) for v in g.nodes],
        "arcs": [list(arc) for arc in g.arcs],
    }
    return json.dumps(payload)
