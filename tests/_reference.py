"""Independent routes to invariants, kept only to cross-check the library.

Each recomputes a quantity that divgraph computes another way: by a
recursion or an unfolded sum instead of a closed form, by exhaustive search
on an explicit graph instead of a DP, by a max flow instead of a
certificate, by a forward push instead of a backward pull, by trial
division instead of Miller–Rabin and Pollard's rho, by all twelve
Miller–Rabin bases instead of as many as the size needs, by stride-offset
sums instead of shifted up-sets, by polynomial convolution or by list
running sums instead of packed shifted adds, by lowered rank sequences
instead of the arc-count recurrence, by the largest level instead of the
proven peak level, by a loop per multiple instead of slice assignment, by
recursion instead of from earlier partition grades, or row by row through
``SequenceEntry`` objects instead of over a table's columns.
``factorization_value`` multiplies a factorization back out, to check it.
``arcs_from_pairs`` builds the rows of a hand-made or tampered graph from
``(tail, head)`` pairs.
``to_dot_by_lines`` and ``to_json_by_lists`` serialize a graph with one
string or one list per node and per arc, to check the library's output
byte for byte.  ``parse_by_top_level_parser`` parses a command line by the
top-level parser, which hands the arguments after the command name on to
the command's parser, instead of by the command's parser alone.
"""

import csv
import io
import itertools
import json
import math
from collections import Counter, deque
from operator import add, sub
from typing import Optional

from divgraph._kernels_py import _strides, enumerate_nodes
from divgraph.cli import build_parser
from divgraph.conjectures import DisjointMode
from divgraph.errors import BFileFormatError
from divgraph.graphs import DivisorGraph, GraphKind
from divgraph.kernels import Arcs
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


def count_paths_by_push(g: DivisorGraph) -> int:
    """Number of distinct source-to-sink paths, by one forward push.

    Rows come in tail order and every arc goes low to high, so each node's
    count is final before ``zip`` reads it and pushes it along its row.
    """
    counts = [0] * len(g.nodes)
    counts[0] = 1
    for c, row in zip(counts, g.arcs.rows):
        for h in row:
            counts[h] += c
    return counts[-1]


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


def to_dot_by_lines(g: DivisorGraph) -> str:
    """DOT rendering, one line string per node and per arc, joined once."""
    lines = [f"digraph {g.kind.value} {{"]
    for i, v in enumerate(g.nodes):
        label = " ".join(str(c) for c in v)
        lines.append(f'  v{i} [label="{label}"];')
    for a, b in g.arcs:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_by_lists(g: DivisorGraph) -> str:
    """JSON rendering of a payload that copies every node and arc into a list."""
    payload = {
        "signature": list(g.signature),
        "kind": g.kind.value,
        "nodes": [list(v) for v in g.nodes],
        "arcs": [list(arc) for arc in g.arcs],
    }
    return json.dumps(payload)


def factorization_value(f) -> int:
    """The integer that a ((prime, exponent), ...) factorization multiplies out to."""
    return math.prod(p**e for p, e in f)


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


#: The first twelve primes, whose Miller–Rabin rounds together are exact for
#: every n < psi_12 = 318665857834031151167461 (Sorenson and Webster, 2017).
TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd ``n`` > ``a`` passes the Miller–Rabin round of base ``a``:
    a^d = 1 or a^(d 2^r) = -1 mod n for some r < s, where n - 1 = d 2^s, d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime_by_twelve_bases(n: int) -> bool:
    """Primality of the odd ``n`` > 37 by Miller–Rabin on all of ``TWELVE_BASES``."""
    return all(is_strong_probable_prime(n, a) for a in TWELVE_BASES)


def arcs_from_pairs(pairs, n: int) -> Arcs:
    """``Arcs`` with ``n`` rows, each pair's head appended to its tail's row
    in the order given, so a hand-built graph can break the ascending order
    that the kernels keep."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        rows[a].append(b)
    return Arcs(rows)


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


def times_window(poly: list[int], m: int) -> list[int]:
    """The coefficients of P(x) (1 + x + ... + x^m), from those of P.

    Each new coefficient is the sum of a window of m+1 old ones, and every
    window is a difference of one running sum.
    """
    run = list(itertools.accumulate(poly, initial=0))
    return list(map(sub, run[1:] + [run[-1]] * m, [0] * m + run[:-1]))


def times_chain(state: tuple[list[int], list[int]], m: int) -> tuple[list[int], list[int]]:
    """(P h_m, A h_m + P h_(m-1)) from (P, A) as coefficient lists, where
    h_m = 1 + x + ... + x^m; the same step as ``invariants._chain_step``,
    by window sums.  P h_m is P h_(m-1) + x^m P.
    """
    poly, arcs = state
    lower = poly if m == 1 else times_window(poly, m - 1)
    upper = list(map(add, lower + [0], [0] * m + poly))
    return upper, list(map(add, times_window(arcs, m), lower))


def level_chain_by_running_sums(parts) -> tuple[list[int], list[int]]:
    """(node counts, leaving-arc counts) by level: ``times_chain`` folded over the parts."""
    state = ([1], [])
    for m in as_signature(parts):
        state = times_chain(state, m)
    return state


def level_arc_counts_by_lowering(parts) -> list[int]:
    """Arcs leaving level l for l = 0..Omega-1, as sum_i N^(i)_l from the rank sequence.

    N^(i) is the rank sequence with m_i lowered by 1, that is
    P(x) (1 - x^m_i) / (1 - x^(m_i+1)) cut to its first Omega coefficients.
    Dividing by 1 - x^(m+1) is a running sum over every (m+1)-th
    coefficient; each distinct part is done once and weighted by its
    multiplicity.
    """
    sig = as_signature(parts)
    poly = level_node_counts_by_convolution(sig)
    total = len(poly) - 1
    counts = [0] * total
    for m, mult in Counter(sig).items():
        quot = [0] * total
        for r in range(m + 1):
            quot[r :: m + 1] = itertools.accumulate(poly[r:total : m + 1])
        for l in range(total):
            counts[l] += mult * (quot[l] - quot[l - m] if l >= m else quot[l])
    return counts


def width_nodes_by_max(parts) -> int:
    """W_v as the largest node count over every level."""
    return max(level_node_counts_by_convolution(parts))


def width_arcs_by_max(parts) -> int:
    """W_e as the largest leaving-arc count over every level; 0 for the
    empty signature."""
    return max(level_arc_counts_by_lowering(parts), default=0)


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


def parse_by_top_level_parser(argv):
    """The namespace of ``argv`` (``sys.argv[1:]`` if None) as the top-level
    parser of ``build_parser`` parses it."""
    parser, _ = build_parser()
    return parser.parse_args(argv)
