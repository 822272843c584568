"""Independent routes to invariants, kept only to cross-check the library.

Each recomputes a quantity that divgraph computes another way: by a
recursion instead of a closed form, by exhaustive search on an explicit
graph instead of a DP, or by trial division instead of Miller–Rabin and
Pollard's rho.
"""

import itertools
import math

from divgraph.graphs import DivisorGraph, GraphKind
from divgraph.signatures import INT_BOUND, as_signature


def _canon(parts):
    return tuple(sorted((p for p in parts if p), reverse=True))


def _vectors_below(sig):
    if not sig:
        yield ()
        return
    yield from itertools.product(*(range(m + 1) for m in sig))


def hasse_paths_recursive(parts) -> int:
    """Hasse path count by the level-peeling recursion.

    Every source-to-sink path passes through exactly one node on the level
    just below the sink, so P(M) = sum over i of P(M with m_i lowered by 1).
    """
    memo: dict[tuple[int, ...], int] = {}

    def rec(sig: tuple[int, ...]) -> int:
        if sum(sig) <= 1:
            return 1
        cached = memo.get(sig)
        if cached is not None:
            return cached
        total = 0
        for i in range(len(sig)):
            lowered = sig[:i] + (sig[i] - 1,) + sig[i + 1 :]
            total += rec(_canon(lowered))
        memo[sig] = total
        return total

    return rec(as_signature(parts))


def closure_size_by_divisor_sum(parts) -> int:
    """Closure arc count as the literal sum over all divisors v of (tau(v) - 1)."""
    sig = as_signature(parts)
    total = 0
    for v in _vectors_below(sig):
        total += math.prod(c + 1 for c in v) - 1
    return total


def count_paths_dfs(g: DivisorGraph) -> int:
    """Memo-free exhaustive DFS path count; exponential, small graphs only."""
    n = len(g.nodes)
    outgoing: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.arcs:
        outgoing[a].append(b)
    sink = n - 1

    def walk(v: int) -> int:
        if v == sink:
            return 1
        return sum(walk(w) for w in outgoing[v])

    return walk(0)


def transitive_reduction_arcs(gT: DivisorGraph) -> set[tuple[int, int]]:
    """Arcs surviving literal transitive reduction of a closure graph.

    Drops every arc (a, b) that has a witness c with (a, c) and (c, b) both
    arcs.  Cubic; used to validate the Hasse construction on small graphs.
    """
    if gT.kind is not GraphKind.CLOSURE:
        raise ValueError("transitive_reduction_arcs requires a closure graph")
    arc_set = set(gT.arcs)
    kept = set()
    for a, b in gT.arcs:
        if not any((a, c) in arc_set and (c, b) in arc_set for c in range(a + 1, b)):
            kept.add((a, b))
    return kept


def factorize_by_trial_division(n: int, *, bound: int = INT_BOUND):
    """Prime factorization of ``n`` as ((p1, m1), (p2, m2), ...) with p1 < p2 < ...

    Deterministic trial division by 2 and every odd number up to the square
    root of what is left; the bound is checked up front.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1 or n > bound:
        raise ValueError(f"n out of range [1, {bound}]: {n}")
    pairs = []
    rest = n
    for p in _trial_candidates():
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
    if rest > 1:
        pairs.append((rest, 1))
    return tuple(pairs)


def _trial_candidates():
    yield 2
    c = 3
    while True:
        yield c
        c += 2
