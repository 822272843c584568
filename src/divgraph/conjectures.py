"""Scanning machinery for the three conjectures about divisor graphs.

1. The maximum number of pairwise disjoint source-to-sink paths in a Hasse
   diagram equals the number of distinct primes (node- and arc-disjoint).
2. The node width is attained at the middle level floor(Omega/2).
3. Some level maximizes the node count and the leaving-arc count at once
   (argmax sets over levels 0..Omega-1 intersect).

All three are theorems; their scans stay as regression checks of the graph
builder and the formulas.  Conjecture 1: every path leaves the source by one
of its omega arcs, so at most omega paths are disjoint.  Chain i raises
coordinate i to its bound, then i+1, and so on cyclically; an internal node
of chain i is nonzero on a cyclic interval of coordinates that starts at i,
so the omega chains share no internal node, hence no arc, and Menger's
theorem (1927) gives exactly omega either way.  ``max_disjoint_paths``
checks it on the built graph, with index steps read off the source's row
of heads and each chain arc looked up in its tail's row.  Conjecture 2:
the lattice is a product of chains, which has a symmetric chain
decomposition (de Bruijn, van Ebbenhorst Tengbergen and Kruyswijk, 1951),
so its level sizes are symmetric and unimodal.
Conjecture 3: the arcs leaving level l number sum_i N^(i)_l, where N^(i) is
the rank sequence with m_i lowered by 1; each is symmetric about
(Omega-1)/2 and unimodal, so the arc counts peak at floor((Omega-1)/2) and
ceil((Omega-1)/2), one of which is the node peak floor(Omega/2).  The
checks of conjectures 2 and 3 read node and arc counts off the tuple that
``scan`` checked, with the fold behind ``invariants.level_counts`` and both
widths, which builds both by a recurrence over the parts rather than by
that identity, on the two polynomials packed into one integer each, and
unpacks them once; the tests pin both to list running sums, the arc counts
to the lowered rank sequences, and both to the counts that
``graphs.level_profile`` reads off built Hasse diagrams.  The conjecture 2
scan reads the middle level with ``invariants._middle_nodes``, the reader
behind W_v, so it checks that reader too.

Scans never assert truth; they produce reports, and an empty counterexample
list is evidence on the scanned range only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from divgraph import invariants
from divgraph.errors import BudgetError
from divgraph.graphs import DEFAULT_NODE_BUDGET, DivisorGraph, GraphKind, build_graph
from divgraph.invariants import _level_counts as level_counts, order  # scan checks each signature
from divgraph.signatures import as_signature


class DisjointMode(Enum):
    """The two readings of conjecture 1; one certificate settles both."""
    NODE = "node"
    ARC = "arc"


def max_disjoint_paths(g: DivisorGraph) -> int:
    """Maximum number of pairwise disjoint source-to-sink paths: omega.

    Checks the certificate of conjecture 1 on ``g`` and returns
    ``len(g.signature)``, node- or arc-disjoint alike.  Upper bound: exactly
    omega arcs leave node 0; with the nodes in lexicographic order, their
    heads, largest first, are the index steps of coordinates 0, 1, ....
    Lower bound: for each coordinate i, the chain that raises coordinate i
    to its bound, then i+1, and so on cyclically, runs from node 0 to the
    sink over arcs of ``g``, and no two chains share an internal node.  The
    steps are ``g.arcs.rows[0]`` reversed, which is checked to be strictly
    ascending first, and each chain arc is looked up in its tail's row,
    which holds at most omega heads.  Raises ``ValueError`` when a check
    fails, which only a hand-built graph or a faulty graph builder can
    cause; ``scan`` reports it as a counterexample.
    """
    if g.kind is not GraphKind.HASSE:
        raise ValueError("max_disjoint_paths expects a Hasse diagram")
    n = len(g.nodes)
    if n < 2:
        raise ValueError("disjoint paths are undefined for the empty signature")
    bounds = g.signature
    w = len(bounds)
    if n != order(bounds):  # order also refuses bounds that are not positive integers
        raise ValueError(f"{n} nodes do not match the bounds {bounds!r}")
    rows = g.arcs.rows
    if len(rows) != n:
        raise ValueError(f"{len(rows)} arc rows do not match {n} nodes")
    if rows[0] != sorted(set(rows[0])):
        raise ValueError("the arcs are not strictly increasing")
    steps = rows[0][::-1]
    if len(steps) != w:
        raise ValueError(f"the source does not have exactly {w} out-arcs")
    seen: set[int] = set()
    for i in range(w):
        v = 0
        for k in (*range(i, w), *range(i)):
            step = steps[k]
            for _ in range(bounds[k]):
                u = v + step
                if u >= n or u not in rows[v]:  # a head past the sink has no row
                    raise ValueError(f"chain {i} misses the arc ({v}, {u})")
                v = u
                if v in seen:
                    raise ValueError(f"two chains share node {v}")
                if v != n - 1:
                    seen.add(v)
        if v != n - 1:
            raise ValueError(f"chain {i} ends at node {v}, not at the sink {n - 1}")
    return w


# Each check returns None when the conjecture holds for the signature, else
# the (observed, expected) payload of its counterexample.


def _disjoint_paths_failure(
    sig: tuple[int, ...], node_budget: int
) -> Optional[tuple[object, object]]:
    g = build_graph(sig, GraphKind.HASSE, node_budget=node_budget)
    try:
        max_disjoint_paths(g)  # returns len(sig) or raises
    except ValueError as exc:  # the built graph fails the certificate
        return str(exc), len(sig)
    return None


def _middle_width_failure(sig: tuple[int, ...]) -> Optional[tuple[object, object]]:
    counts, _ = level_counts(sig)
    middle, width = invariants._middle_nodes(len(counts) - 1, counts), max(counts)
    return None if middle == width else (middle, width)


def _argmax_failure(sig: tuple[int, ...]) -> Optional[tuple[object, object]]:
    poly, arc_counts = level_counts(sig)
    node_counts = poly[:-1]  # levels 0..Omega-1
    top_nodes, top_arcs = max(node_counts), max(arc_counts)
    if any(a == top_arcs for v, a in zip(node_counts, arc_counts) if v == top_nodes):
        return None
    return {"node_counts": node_counts, "arc_counts": arc_counts}, "coinciding argmax level"


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
    """Run one conjecture's check over a list of signatures and report.
    ``modes`` does not change it: one certificate settles both readings."""
    checks = {
        1: lambda sig: _disjoint_paths_failure(sig, node_budget),
        2: _middle_width_failure,
        3: _argmax_failure,
    }
    if isinstance(conjecture, bool) or conjecture not in checks:
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
