"""Scanning machinery for the three conjectures about divisor graphs.

1. The maximum number of pairwise disjoint source-to-sink paths in a Hasse
   diagram equals the number of distinct primes (checked for node- and
   arc-disjoint readings separately).
2. The node width is attained at the middle level ceil(Omega/2).
3. Some level maximizes the node count and the leaving-arc count at once
   (argmax sets over levels 0..Omega-1 intersect).

Conjecture 2 is a theorem: the divisor lattice is a product of chains, which
has a symmetric chain decomposition (de Bruijn, van Ebbenhorst Tengbergen
and Kruyswijk, 1951), so its level sizes are symmetric and unimodal and the
middle level is a largest one.  Its scan stays as a regression check.

Scans never assert truth; they produce reports, and an empty counterexample
list is evidence on the scanned range only.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from divgraph.errors import BudgetError
from divgraph.graphs import DEFAULT_NODE_BUDGET, DivisorGraph, GraphKind, build_graph
from divgraph.invariants import level_arc_counts, level_node_counts
from divgraph.signatures import as_signature


class DisjointMode(Enum):
    NODE = "node"
    ARC = "arc"


def max_disjoint_paths(g: DivisorGraph, mode: DisjointMode) -> int:
    """Maximum number of pairwise disjoint source-to-sink paths.

    Computed as a unit-capacity max flow; the node-disjoint reading splits
    every internal node into an in/out pair joined by a capacity-one arc.
    """
    if g.kind is not GraphKind.HASSE:
        raise ValueError("max_disjoint_paths expects a Hasse diagram")
    n = len(g.nodes)
    if n < 2:
        raise ValueError("disjoint paths are undefined for the empty signature")
    if mode is DisjointMode.ARC:
        size = n
        edges = [(a, b, 1) for a, b in g.arcs]
        source, sink = 0, n - 1
    else:
        # v_in = 2v, v_out = 2v + 1; source and sink are not capacity-limited
        size = 2 * n
        big = len(g.signature) + 1
        edges = [(2 * v, 2 * v + 1, 1 if 0 < v < n - 1 else big) for v in range(n)]
        edges += [(2 * a + 1, 2 * b, 1) for a, b in g.arcs]
        source, sink = 0, 2 * n - 1
    return _max_flow(size, edges, source, sink)


def _max_flow(n: int, edges: Sequence[tuple[int, int, int]], source: int, sink: int) -> int:
    """Edmonds-Karp on an explicit edge list with integer capacities."""
    head: list[int] = []
    cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b, c in edges:
        adj[a].append(len(head))
        head.append(b)
        cap.append(c)
        adj[b].append(len(head))
        head.append(a)
        cap.append(0)
    flow = 0
    while True:
        parent_edge = [-1] * n
        parent_edge[source] = -2
        queue = deque([source])
        while queue and parent_edge[sink] == -1:
            v = queue.popleft()
            for e in adj[v]:
                if cap[e] > 0 and parent_edge[head[e]] == -1:
                    parent_edge[head[e]] = e
                    queue.append(head[e])
        if parent_edge[sink] == -1:
            return flow
        bottleneck = None
        v = sink
        while v != source:
            e = parent_edge[v]
            bottleneck = cap[e] if bottleneck is None else min(bottleneck, cap[e])
            v = head[e ^ 1]
        v = sink
        while v != source:
            e = parent_edge[v]
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
            v = head[e ^ 1]
        flow += bottleneck


def check_middle_width(parts: Iterable[int]) -> bool:
    """Does the node width equal the node count at level ceil(Omega/2)?"""
    counts = level_node_counts(parts)
    middle = math.ceil((len(counts) - 1) / 2)
    return max(counts) == counts[middle]


def check_argmax_coincidence(parts: Iterable[int]) -> bool:
    """Do the node-count and arc-count argmax sets over 0..Omega-1 intersect?"""
    sig = as_signature(parts)
    if not sig:
        raise ValueError("argmax coincidence is undefined for the empty signature")
    node_counts = level_node_counts(sig)[:-1]  # levels 0..Omega-1
    arc_counts = level_arc_counts(sig)
    best_nodes = {l for l, c in enumerate(node_counts) if c == max(node_counts)}
    best_arcs = {l for l, c in enumerate(arc_counts) if c == max(arc_counts)}
    return bool(best_nodes & best_arcs)


# Each check returns None when the conjecture holds for the signature, else
# the (observed, expected) payload of its counterexample.


def _disjoint_paths_failure(
    sig: tuple[int, ...], modes: tuple[DisjointMode, ...], node_budget: int
) -> Optional[tuple[object, object]]:
    g = build_graph(sig, GraphKind.HASSE, node_budget=node_budget)
    observed = {m.value: max_disjoint_paths(g, m) for m in modes}
    if any(v != len(sig) for v in observed.values()):
        return observed, len(sig)
    return None


def _middle_width_failure(sig: tuple[int, ...]) -> Optional[tuple[object, object]]:
    if check_middle_width(sig):
        return None
    counts = level_node_counts(sig)
    return counts[math.ceil((len(counts) - 1) / 2)], max(counts)


def _argmax_failure(sig: tuple[int, ...]) -> Optional[tuple[object, object]]:
    if check_argmax_coincidence(sig):
        return None
    observed = {"node_counts": level_node_counts(sig)[:-1], "arc_counts": level_arc_counts(sig)}
    return observed, "coinciding argmax level"


@dataclass(frozen=True)
class Counterexample:
    signature: tuple[int, ...]
    observed: object
    expected: object


@dataclass(frozen=True)
class ConjectureReport:
    conjecture: int
    scope: str
    checked: int
    counterexamples: list[Counterexample]
    skipped: list[tuple[tuple[int, ...], str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "scope": self.scope,
            "checked": self.checked,
            "counterexamples": [
                {
                    "signature": list(c.signature),
                    "observed": c.observed,
                    "expected": c.expected,
                }
                for c in self.counterexamples
            ],
            "skipped": [
                {"signature": list(sig), "reason": reason} for sig, reason in self.skipped
            ],
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def scan(
    conjecture: int,
    signatures: Sequence[tuple[int, ...]],
    *,
    modes: tuple[DisjointMode, ...] = (DisjointMode.NODE, DisjointMode.ARC),
    node_budget: int = DEFAULT_NODE_BUDGET,
    scope: str = "",
) -> ConjectureReport:
    """Run one conjecture's check over a list of signatures and report."""
    checks = {
        1: lambda sig: _disjoint_paths_failure(sig, modes, node_budget),
        2: _middle_width_failure,
        3: _argmax_failure,
    }
    if conjecture not in checks:
        raise ValueError(f"unknown conjecture id {conjecture}")
    check = checks[conjecture]
    start = time.perf_counter()
    counterexamples: list[Counterexample] = []
    skipped: list[tuple[tuple[int, ...], str]] = []
    checked = 0
    for raw in signatures:
        sig = as_signature(raw)
        if not sig and conjecture != 2:  # 1 and 3 are undefined on the one-node graph
            skipped.append((sig, "empty signature"))
            continue
        try:
            failure = check(sig)
        except BudgetError as exc:
            skipped.append((sig, str(exc)))
            continue
        if failure is not None:
            counterexamples.append(Counterexample(sig, *failure))
        checked += 1
    return ConjectureReport(
        conjecture=conjecture,
        scope=scope or f"{len(signatures)} signatures",
        checked=checked,
        counterexamples=counterexamples,
        skipped=skipped,
        elapsed_seconds=time.perf_counter() - start,
    )
