"""Closed-form computation of the fourteen divisor-graph invariants.

Everything here is a pure function of the exponent multiset; no graph is
ever built.  Path counts are exact big integers, all other invariants are
checked against a 64-bit bound.  ``TABLE`` lists the invariants once; the
record type, the sequence keys and spellings, and the CLI output all derive
from it.  The brute-force counterpart that measures the same quantities on
an explicit graph lives in divgraph.oracle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, make_dataclass
from typing import Iterable

from divgraph.errors import BudgetError
from divgraph.signatures import INT_BOUND, as_signature, big_omega, small_omega

DEFAULT_OMEGA_BUDGET = 40


def _checked(value: int, what: str, bound: int) -> int:
    if value > bound:
        raise ValueError(f"{what} exceeds bound {bound}")
    return value


def order(parts: Iterable[int], *, bound: int = INT_BOUND) -> int:
    """Node count: product of (exponent + 1); 1 for the empty signature."""
    sig = as_signature(parts)
    return _checked(math.prod(m + 1 for m in sig), "order", bound)


def hasse_size(parts: Iterable[int], *, bound: int = INT_BOUND) -> int:
    """Arc count of the Hasse diagram, by the peel-one-exponent recursion.

    The lattice is a Cartesian product of paths, and the size of a product
    is size(A)*order(B) + order(A)*size(B); peeling one exponent at a time
    gives |E(M)| = |E(M - m)|*(m+1) + m*|V(M - m)|, with |E((m))| = m.
    """
    sig = as_signature(parts)
    if not sig:
        return 0
    edges = sig[0]
    nodes = sig[0] + 1
    for m in sig[1:]:
        edges = edges * (m + 1) + m * nodes
        nodes *= m + 1
    return _checked(edges, "hasse size", bound)


def level_node_counts(parts: Iterable[int]) -> list[int]:
    """|V_l| for l = 0..Omega: coefficients of prod_i (1 + x + ... + x^m_i)."""
    sig = as_signature(parts)
    poly = [1]
    for m in sig:
        poly = _conv(poly, [1] * (m + 1))
    return poly


def level_arc_counts(parts: Iterable[int]) -> list[int]:
    """Arcs leaving level l for l = 0..Omega-1 (empty list for Omega = 0).

    An arc leaving level l bumps some coordinate i with v_i < m_i, so the
    count is a sum of polynomial coefficients with coordinate i clamped
    below its bound.
    """
    sig = as_signature(parts)
    if not sig:
        return []
    total = sum(sig)
    prefix = [[1]]
    for m in sig:
        prefix.append(_conv(prefix[-1], [1] * (m + 1)))
    suffix = [[1]]
    for m in reversed(sig):
        suffix.append(_conv(suffix[-1], [1] * (m + 1)))
    suffix.reverse()
    counts = [0] * total
    for i, m in enumerate(sig):
        others = _conv(prefix[i], suffix[i + 1])
        clamped = _conv(others, [1] * m)  # coordinate i ranges over 0..m_i-1
        for l, c in enumerate(clamped):
            counts[l] += c
    return counts


def _conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def width_nodes(parts: Iterable[int]) -> int:
    """W_v: largest level by node count."""
    return max(level_node_counts(parts))


def width_arcs(parts: Iterable[int]) -> int:
    """W_e: largest level by leaving-arc count; 0 for the empty signature."""
    counts = level_arc_counts(parts)
    return max(counts) if counts else 0


def degree(parts: Iterable[int]) -> int:
    """Maximum node degree of the Hasse diagram: omega + #exponents above 1."""
    sig = as_signature(parts)
    return len(sig) + sum(1 for m in sig if m > 1)


def hasse_paths(parts: Iterable[int]) -> int:
    """Source-to-sink path count of the Hasse diagram.

    Equals the number of ordered prime factorizations: the multinomial
    (sum m_i)! / prod m_i!.
    """
    sig = as_signature(parts)
    value = math.factorial(sum(sig))
    for m in sig:
        value //= math.factorial(m)
    return value


def node_parity(parts: Iterable[int]) -> tuple[int, int]:
    """(|V_E|, |V_O|): nodes on even and odd levels; |V_O| = floor(|V|/2)."""
    n = order(parts)
    return n - n // 2, n // 2


def arc_parity(parts: Iterable[int]) -> tuple[int, int]:
    """(|E_E|, |E_O|) by tail-level parity; |E_O| = floor(|E^H|/2)."""
    e = hasse_size(parts)
    return e - e // 2, e // 2


def closure_size(parts: Iterable[int], *, bound: int = INT_BOUND) -> int:
    """Arc count of the transitive closure, in closed form.

    Summing the divisor-count function over the lattice gives
    prod (m_i+1)(m_i+2)/2, and every node contributes its proper divisors
    as incoming arcs, so |E^T| = prod (m_i+1)(m_i+2)/2 - |V|.
    """
    sig = as_signature(parts)
    total = math.prod((m + 1) * (m + 2) // 2 for m in sig)
    return _checked(total - math.prod(m + 1 for m in sig), "closure size", bound)


def closure_paths(parts: Iterable[int], *, omega_budget: int = DEFAULT_OMEGA_BUDGET) -> int:
    """Source-to-sink path count of the transitive closure, in closed form.

    A path is a strict chain 1 = d_0 < d_1 < ... < d_l = n of divisors, so
    the count is the number of ordered factorizations of n (OEIS A074206).
    A multichain with j weak steps picks, for each prime independently, j
    exponent increments summing to m_k, so there are M(j) = prod_k
    C(m_k+j-1, j-1) of them.  Inclusion-exclusion over the steps allowed to
    stay put leaves sum_j (-1)^(l-j) C(l, j) M(j) strict chains of length l
    (Stanley, EC1 section 3.12); summing over l = 1..Omega gives the total.
    The one-node and two-node graphs have a single path.
    """
    sig = as_signature(parts)
    total = sum(sig)
    if total > omega_budget:
        raise BudgetError(f"Omega {total} exceeds omega budget {omega_budget}")
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


def height(parts: Iterable[int]) -> int:
    """Longest (equivalently shortest) source-to-sink path length: Omega."""
    return big_omega(parts)


#: The fourteen invariants in table-row order, one row each:
#: (key, record field, function of the signature, accepted spellings).
#: A name resolves to a key when it equals the key or, lowercased, one of the
#: spellings.
TABLE = (
    ("V", "order", order, ("|v|", "v")),
    ("EH", "hasse_size", hasse_size, ("|e^h|", "e^h", "eh")),
    ("Omega", "big_omega", height, ("bigomega",)),
    ("omega", "small_omega", small_omega, ("smallomega",)),
    ("Wv", "width_nodes", width_nodes, ("w_v", "wv")),
    ("We", "width_arcs", width_arcs, ("w_e", "we")),
    ("Delta", "degree", degree, ("delta", "d")),
    ("PH", "hasse_paths", hasse_paths, ("|p^h|", "p^h", "ph")),
    ("VE", "v_even", lambda s: node_parity(s)[0], ("|v_e|", "v_e", "ve")),
    ("VO", "v_odd", lambda s: node_parity(s)[1], ("|v_o|", "v_o", "vo")),
    ("EE", "e_even", lambda s: arc_parity(s)[0], ("|e_e|", "e_e", "ee")),
    ("EO", "e_odd", lambda s: arc_parity(s)[1], ("|e_o|", "e_o", "eo")),
    ("ET", "closure_size", closure_size, ("|e^t|", "e^t", "et")),
    ("PT", "closure_paths", closure_paths, ("|p^t|", "p^t", "pt")),
)

#: Key -> function, in table-row order.  Callers go through this plain dict,
#: not through TABLE, so that a wrapper installed here (perfbench/spans.py
#: traces closure_paths this way) is the function that runs.
FUNCS = {key: func for key, _, func, _ in TABLE}

InvariantRecord = make_dataclass(
    "InvariantRecord",
    [(field, int) for _, field, _, _ in TABLE],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "The fourteen invariants of one signature class, in table-row order.",
        "as_tuple": astuple,
        "as_dict": asdict,
    },
)


def all_invariants(
    parts: Iterable[int], *, omega_budget: int = DEFAULT_OMEGA_BUDGET
) -> InvariantRecord:
    """Bundle all fourteen invariants for one signature.

    Each value is its row's function applied to the signature; |P^T| is also
    given the omega budget.
    """
    sig = as_signature(parts)
    return InvariantRecord(
        *(
            closure_paths(sig, omega_budget=omega_budget) if key == "PT" else func(sig)
            for key, func in FUNCS.items()
        )
    )
