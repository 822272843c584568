"""Scanning machinery for the three conjectures about divisor graphs.

1. The maximum number of pairwise disjoint source-to-sink paths in a Hasse
   diagram equals the number of distinct primes (node- and arc-disjoint).
2. The node width is attained at the middle level ceil(Omega/2).
3. Some level maximizes the node count and the leaving-arc count at once
   (argmax sets over levels 0..Omega-1 intersect).

All three are theorems; their scans stay as regression checks of the graph
builder and the formulas.  Conjecture 1: every path leaves the source by one
of its omega arcs, so at most omega paths are disjoint.  Chain i raises
coordinate i to its bound, then i+1, and so on cyclically; an internal node
of chain i is nonzero on a cyclic interval of coordinates that starts at i,
so the omega chains share no internal node and Menger's theorem (1927)
gives exactly omega.  ``max_disjoint_paths`` checks that certificate on the
built graph.  Conjecture 2: the lattice is a product of chains, which has a
symmetric chain decomposition (de Bruijn, van Ebbenhorst Tengbergen and
Kruyswijk, 1951), so its level sizes are symmetric and unimodal.
Conjecture 3: the arcs leaving level l number sum_i N^(i)_l, where N^(i) is
the rank sequence with m_i lowered by 1; each is symmetric about
(Omega-1)/2 and unimodal, so the arc counts peak at floor((Omega-1)/2) and
ceil((Omega-1)/2), one of which is the node peak floor(Omega/2).
``invariants.level_arc_counts`` computes the arc counts by that same
identity, from the rank sequence; the tests pin them to the counts that
``graphs.level_profile`` reads off built Hasse diagrams.

Scans never assert truth; they produce reports, and an empty counterexample
list is evidence on the scanned range only.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from divgraph._kernels_py import _strides
from divgraph.errors import BudgetError
from divgraph.graphs import DEFAULT_NODE_BUDGET, DivisorGraph, GraphKind, build_graph
from divgraph.invariants import _arc_counts_from, level_arc_counts, level_node_counts, order
from divgraph.signatures import as_signature


class DisjointMode(Enum):
    NODE = "node"
    ARC = "arc"


def max_disjoint_paths(g: DivisorGraph, mode: DisjointMode) -> int:
    """Maximum number of pairwise disjoint source-to-sink paths: omega.

    Checks the certificate of conjecture 1 on ``g`` and returns
    ``len(g.signature)``; both readings share it, because internally
    node-disjoint paths are arc-disjoint and ``mode`` changes neither bound.
    Upper bound: exactly omega arcs of ``g.arcs`` leave node 0.  Lower bound:
    for each coordinate i, the chain that raises coordinate i to its bound,
    then i+1, and so on cyclically, runs from node 0 to the last node over
    arcs of ``g``, and no two chains share an internal node.  Raises
    ``ValueError`` when either check fails, which only a hand-built graph
    or a faulty graph builder can cause; ``scan`` reports it as a
    counterexample.
    """
    if g.kind is not GraphKind.HASSE:
        raise ValueError("max_disjoint_paths expects a Hasse diagram")
    n = len(g.nodes)
    if n < 2:
        raise ValueError("disjoint paths are undefined for the empty signature")
    bounds = g.signature
    w = len(bounds)
    if min(bounds, default=0) < 1 or n != order(bounds):
        raise ValueError(f"{n} nodes do not match the bounds {bounds!r}")
    if sum(1 for a, _ in g.arcs if a == 0) != w:
        raise ValueError(f"the source does not have exactly {w} out-arcs")
    arcs = set(g.arcs)
    strides = _strides(bounds)
    seen: set[int] = set()
    for i in range(w):
        v = 0
        for k in (*range(i, w), *range(i)):
            for _ in range(bounds[k]):
                if (v, v + strides[k]) not in arcs:
                    raise ValueError(f"chain {i} misses the arc ({v}, {v + strides[k]})")
                v += strides[k]
                if v in seen:
                    raise ValueError(f"two chains share node {v}")
                if v != n - 1:
                    seen.add(v)
    return w


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
    poly = level_node_counts(sig)
    node_counts = poly[:-1]  # levels 0..Omega-1
    arc_counts = _arc_counts_from(poly, sig)
    top_nodes, top_arcs = max(node_counts), max(arc_counts)
    return any(a == top_arcs for v, a in zip(node_counts, arc_counts) if v == top_nodes)


# Each check returns None when the conjecture holds for the signature, else
# the (observed, expected) payload of its counterexample.


def _disjoint_paths_failure(
    sig: tuple[int, ...], modes: tuple[DisjointMode, ...], node_budget: int
) -> Optional[tuple[object, object]]:
    g = build_graph(sig, GraphKind.HASSE, node_budget=node_budget)
    try:
        paths = max_disjoint_paths(g, DisjointMode.NODE)  # one certificate serves every mode
    except ValueError as exc:  # the built graph fails the certificate
        return str(exc), len(sig)
    if paths != len(sig):
        return dict.fromkeys((m.value for m in modes), paths), len(sig)
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
