"""Independent routes to invariants, kept only to cross-check the library.

Each recomputes a quantity that divgraph computes another way: by a
recursion or an unfolded sum instead of a closed form, by exhaustive search
on an explicit graph instead of a DP, by a max flow instead of a
certificate, by trial division instead of Miller–Rabin and Pollard's rho,
by stride-offset sums instead of shifted up-sets, by polynomial
convolution instead of running sums, by the largest level instead of the
proven peak level, by a loop per multiple instead of slice assignment, by
recursion instead of from earlier partition grades, or row by row through
``SequenceEntry`` objects instead of over a table's columns.
"""

import csv
import io
import itertools
import json
import math
from collections import deque
from typing import Optional

from divgraph._kernels_py import _strides, enumerate_nodes
from divgraph.conjectures import DisjointMode
from divgraph.errors import BFileFormatError
from divgraph.graphs import DivisorGraph, GraphKind
from divgraph.invariants import level_arc_counts, level_node_counts
from divgraph.sequences import EmitFormat, MatchReport, Ordering, SequenceTable
from divgraph.signatures import INT_BOUND, SignatureOrder, as_signature, signature_key


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


def closure_paths_double_sum(parts) -> int:
    """|P^T| as the unfolded inclusion-exclusion double sum.

    Strict chains of length l number sum_j (-1)^(l-j) C(l, j) M(j), where
    M(j) = prod_k C(m_k+j-1, j-1) counts multichains with j weak steps;
    every binomial is built from scratch, O(Omega^2) of them.
    """
    sig = as_signature(parts)
    total = sum(sig)
    if total <= 1:
        return 1
    multichains = [0] + [
        math.prod(math.comb(m + j - 1, j - 1) for m in sig) for j in range(1, total + 1)
    ]
    return sum(
        (-1) ** (l - j) * math.comb(l, j) * multichains[j]
        for l in range(1, total + 1)
        for j in range(1, l + 1)
    )


def max_disjoint_paths_by_flow(g: DivisorGraph, mode: DisjointMode) -> int:
    """Maximum number of disjoint source-to-sink paths of a Hasse diagram,
    as a unit-capacity max flow.

    The node-disjoint reading splits every internal node into an in/out
    pair joined by a capacity-one arc.
    """
    n = len(g.nodes)
    if mode is DisjointMode.ARC:
        return _max_flow(n, [(a, b, 1) for a, b in g.arcs], 0, n - 1)
    # v_in = 2v, v_out = 2v + 1; source and sink are not capacity-limited
    big = len(g.signature) + 1
    edges = [(2 * v, 2 * v + 1, 1 if 0 < v < n - 1 else big) for v in range(n)]
    edges += [(2 * a + 1, 2 * b, 1) for a, b in g.arcs]
    return _max_flow(2 * n, edges, 0, 2 * n - 1)


def _max_flow(n, edges, source, sink) -> int:
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


def closure_arcs_by_strides(bounds: tuple[int, ...]) -> list[tuple[int, int]]:
    """Arcs of the transitive closure: every ordered pair a < b with a
    componentwise below b.

    The heads of tail v are v + d for every nonzero d with
    0 <= d[k] <= bounds[k] - v[k]; their index offsets are sums of stride
    multiples.  ``itertools.product`` walks the d in lexicographic order,
    so each tail's heads come out ascending and the work is linear in the
    arc count.
    """
    if not bounds:
        return []
    strides = _strides(bounds)
    arcs: list[tuple[int, int]] = []
    for i, v in enumerate(enumerate_nodes(bounds)):
        offsets = itertools.product(
            *(range(0, (m - x) * s + 1, s) for x, m, s in zip(v, bounds, strides))
        )
        next(offsets)  # the zero offset is the tail itself
        arcs.extend((i, i + sum(d)) for d in offsets)
    return arcs


def _conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def level_node_counts_by_convolution(parts) -> list[int]:
    """|V_l| for l = 0..Omega, multiplying out prod_i (1 + x + ... + x^m_i)."""
    poly = [1]
    for m in as_signature(parts):
        poly = _conv(poly, [1] * (m + 1))
    return poly


def level_arc_counts_by_convolution(parts) -> list[int]:
    """Arcs leaving level l for l = 0..Omega-1, clamping one coordinate at a time.

    Coordinate i ranges over 0..m_i-1 and every other coordinate over its
    full range; the other coordinates' polynomial is a prefix product times
    a suffix product.
    """
    sig = as_signature(parts)
    if not sig:
        return []
    prefix = [[1]]
    for m in sig:
        prefix.append(_conv(prefix[-1], [1] * (m + 1)))
    suffix = [[1]]
    for m in reversed(sig):
        suffix.append(_conv(suffix[-1], [1] * (m + 1)))
    suffix.reverse()
    counts = [0] * sum(sig)
    for i, m in enumerate(sig):
        clamped = _conv(_conv(prefix[i], suffix[i + 1]), [1] * m)
        for l, c in enumerate(clamped):
            counts[l] += c
    return counts


def width_nodes_by_max(parts) -> int:
    """W_v as the largest node count over every level."""
    return max(level_node_counts(parts))


def width_arcs_by_max(parts) -> int:
    """W_e as the largest leaving-arc count over every level; 0 for the
    empty signature."""
    return max(level_arc_counts(parts), default=0)


def spf_sieve_by_loops(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit, one Python step per multiple."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    spf = list(range(limit + 1))
    spf[0] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def partitions_by_recursion(k: int) -> list[tuple[int, ...]]:
    """Partitions of ``k`` as descending tuples, in descending lexicographic
    order: each part from the largest allowed down, then the rest recursively."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(remaining, max_part), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(k, k, [])
    return out


def signatures_by_recursion(order: SignatureOrder, count: int) -> list[tuple[int, ...]]:
    """First ``count`` signatures in a graded order, each grade made by
    ``partitions_by_recursion`` and, for colex, stably sorted by length."""
    out: list[tuple[int, ...]] = []
    k = 0
    while len(out) < count:
        grade = partitions_by_recursion(k)
        out += sorted(grade, key=len) if order is SignatureOrder.GRADED_COLEX else grade
        k += 1
    return out[:count]


def emit_by_rows(table: SequenceTable, fmt: EmitFormat) -> bytes:
    """Serialize a table one ``SequenceEntry`` at a time: csv.writer rows,
    a dict per row for json.dumps, an f-string per b-file line."""
    if fmt is EmitFormat.CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        with_sig = table.ordering is not Ordering.NATURAL
        writer.writerow(["key", "signature", "value"] if with_sig else ["key", "value"])
        for e in table.entries:
            if with_sig:
                writer.writerow([e.key, signature_key(e.signature or ()), e.value])
            else:
                writer.writerow([e.key, e.value])
        return buf.getvalue().encode()
    if fmt is EmitFormat.JSON:
        payload = {
            "invariant": table.invariant,
            "ordering": table.ordering.value,
            "entries": [
                {"key": e.key, "value": e.value}
                if e.signature is None
                else {"key": e.key, "signature": list(e.signature), "value": e.value}
                for e in table.entries
            ],
        }
        return json.dumps(payload).encode()
    if fmt is EmitFormat.BFILE:
        return "".join(f"{e.key} {e.value}\n" for e in table.entries).encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_bfile_by_lines(data: bytes) -> list[tuple[int, int]]:
    """Parse b-file text line by line, stripping and then splitting each."""
    pairs: list[tuple[int, int]] = []
    for line_number, raw in enumerate(data.decode("utf-8", errors="replace").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pieces = line.split()
        if len(pieces) != 2:
            raise BFileFormatError(f"expected 'index value', got {raw!r}", line_number)
        try:
            index, value = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise BFileFormatError(f"non-integer field in {raw!r}", line_number) from None
        if pairs and index <= pairs[-1][0]:
            raise BFileFormatError(f"index {index} not increasing", line_number)
        pairs.append((index, value))
    if not pairs:
        raise BFileFormatError("no data lines", 1)
    return pairs


def compare_bfile_by_rows(table: SequenceTable, reference: bytes) -> MatchReport:
    """Compare table values against a b-file one entry at a time."""
    ref = parse_bfile_by_lines(reference)
    ours = table.entries
    overlap = min(len(ours), len(ref))
    matched = 0
    mismatch: Optional[tuple[int, int, int]] = None
    for i in range(overlap):
        if ours[i].value == ref[i][1]:
            matched += 1
        else:
            mismatch = (ours[i].key, ours[i].value, ref[i][1])
            break
    return MatchReport(
        offset_shift=ref[0][0] - ours[0].key if ours else 0,
        overlap=overlap,
        matched_prefix=matched,
        first_mismatch=mismatch,
    )
