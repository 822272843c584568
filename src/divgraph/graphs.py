"""Explicit divisor-lattice DAGs over exponent vectors.

A graph is built from a tuple of exponent bounds (a prime signature, in any
coordinate order).  Nodes are all exponent vectors below the bounds, in
lexicographic order; node 0 is the all-zero source and the last node is the
sink.  A built graph holds its nodes as ``kernels.Nodes``, a read-only view
over the bounds with no tuple kept per node.  Two kinds are supported: the
Hasse diagram (covering relation, arcs raise one coordinate by one) and the
transitive closure (every dominated pair).  Arcs are stored as
``kernels.Arcs``: one ascending list of heads per tail, with no tuple per
arc.  Graphs are immutable once built.
``level_profile`` reads everything the oracle needs from a Hasse diagram
(levels, per-level counts, degrees, longest distances from the source and
the level steps across arcs) in one pass over its rows, once per graph.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from divgraph import invariants, kernels
from divgraph.errors import BudgetError
from divgraph.signatures import Factorization

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_ARC_BUDGET = 10**7  # a closure arc: about 14 bytes built, 40 more as JSON, 50 as DOT

ExponentVector = tuple[int, ...]


class GraphKind(Enum):
    HASSE = "hasse"
    CLOSURE = "closure"


@dataclass(frozen=True)
class DivisorGraph:
    """Nodes in lexicographic order, so every arc goes from a lower index to
    a higher one; ``arcs.rows[i]`` holds node i's heads, ascending.  The
    oracle's passes over the rows rely on that order: all arcs into a node
    come before any arc out of it.  ``build_graph`` stores the nodes as a
    ``kernels.Nodes`` view, equal to the list of exponent tuples; a
    hand-built graph may pass that list itself."""

    signature: tuple[int, ...]
    kind: GraphKind
    nodes: Sequence[ExponentVector] = field(repr=False)
    arcs: kernels.Arcs = field(repr=False)

    @property
    def source(self) -> int:
        return 0

    @property
    def sink(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def _profile(self) -> LevelProfile:
        """``level_profile``'s one pass; cached in the instance ``__dict__``,
        which the frozen dataclass's fields, ``==`` and ``repr`` never read."""
        if self.kind is not GraphKind.HASSE:
            raise ValueError("level_profile requires a Hasse diagram")
        n = len(self.nodes)
        levels = [sum(v) for v in self.nodes]
        top = max(levels)
        node_counts = [0] * (top + 1)
        for lv in levels:
            node_counts[lv] += 1
        arc_counts = [0] * (top + 1)  # a tampered graph may have arcs leaving the top
        indeg = [0] * n
        outdeg = [0] * n
        longest = [-1] * n
        longest[0] = 0
        steps: set[int] = set()
        add_step = steps.add
        for a, row in enumerate(self.arcs.rows):
            if not row:
                continue
            la = levels[a]
            outdeg[a] = len(row)
            arc_counts[la] += len(row)
            d = longest[a] + 1
            for b in row:
                indeg[b] += 1
                if d > longest[b]:
                    longest[b] = d
                add_step(levels[b] - la)
        if not arc_counts[top]:
            arc_counts.pop()
        return LevelProfile(node_counts, arc_counts, levels, indeg, outdeg, longest, steps)


@dataclass(frozen=True)
class LevelProfile:
    node_counts: list[int]  # level l = coordinate sum l, l = 0..top
    arc_counts: list[int]  # arcs leaving level l, l = 0..top-1, and l = top if any do
    levels: list[int]  # level of each node
    indeg: list[int]
    outdeg: list[int]
    longest: list[int]  # most arcs from node 0; -1 if unreached
    steps: set[int]  # level differences across arcs, head minus tail


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
    formula, are checked against the budgets before anything is built;
    ``invariants.order`` refuses bounds that are not positive integers.
    """
    if not isinstance(kind, GraphKind):
        raise ValueError(f"unknown graph kind {kind!r}")
    bounds = tuple(bounds)
    n = invariants.order(bounds)
    if n > node_budget:
        raise BudgetError(f"graph on {n} nodes exceeds node budget {node_budget}")
    if kind is GraphKind.CLOSURE:
        size = invariants._closure_size(bounds)
        if size > arc_budget:
            raise BudgetError(f"closure with {size} arcs exceeds arc budget {arc_budget}")
    arcs = kernels.hasse_arcs(bounds) if kind is GraphKind.HASSE else kernels.closure_arcs(bounds)
    return DivisorGraph(signature=bounds, kind=kind, nodes=kernels.Nodes(bounds), arcs=arcs)


def level_profile(g: DivisorGraph) -> LevelProfile:
    """Levels, per-level counts, degrees, longest distances and level steps
    of a Hasse diagram.

    One pass over the rows of ``g.arcs`` counts arcs by the level of their
    tail (with an entry for the top level only when arcs leave it, which
    none do in a built diagram), counts degrees, collects the level
    difference across each arc, and pushes the longest arc distance from
    node 0 forward, which needs the tail order that ``DivisorGraph``
    documents.
    Levels are exponent sums read off ``g.nodes`` and the top level is the
    highest of them, never a formula of the signature.  The pass runs once
    per graph: later calls return the same profile, whose lists and set
    the caller must not change.
    """
    return g._profile


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
    """DOT rendering; node labels are the exponent vectors joined by spaces.

    Each node's arc lines are one fill of a repeated template over its row,
    so no string is made per arc, and every piece is joined once.
    """
    lines = [f'  v{i} [label="{" ".join(map(str, v))}"];\n' for i, v in enumerate(g.nodes)]
    lines += [f"  v{i} -> v%d;\n" * len(row) % tuple(row) for i, row in enumerate(g.arcs.rows)]
    return "".join([f"digraph {g.kind.value} {{\n", *lines, "}\n"])


def to_json(g: DivisorGraph) -> str:
    """``json.dumps`` of the signature, kind and node tuples, with the arc
    pairs filled into one repeated template per row and joined in place of
    an empty arc array."""
    head = json.dumps({"signature": g.signature, "kind": g.kind.value, "nodes": list(g.nodes), "arcs": []})
    rows = [f"[{i}, %d], " * len(row) % tuple(row) for i, row in enumerate(g.arcs.rows) if row]
    if rows:
        rows[-1] = rows[-1][:-2]  # no separator after the last pair
    return "".join([head[:-2], *rows, "]}"])
