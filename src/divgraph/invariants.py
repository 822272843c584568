"""Closed-form computation of the fourteen divisor-graph invariants.

Everything here is a pure function of the exponent multiset; no graph is
ever built.  Every count is an exact integer, however large; the one
refusal is the omega budget of ``closure_paths``.  ``TABLE`` lists the
invariants once; the record type, the sequence keys and spellings, and the
CLI output all derive from it.  Each formula is written once: W_v and W_e
read the level polynomial at the peak level that conjectures 2 and 3
prove, with one reader each, shared by the row function and its
signature-order column in ``COLUMNS``.  The brute-force counterpart that
measures the same quantities on an explicit graph lives in divgraph.oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, astuple, make_dataclass
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Callable, Iterable

from divgraph.errors import BudgetError
from divgraph.signatures import PrimeSignature, as_signature, big_omega, small_omega

DEFAULT_OMEGA_BUDGET = 40


def order(parts: Iterable[int]) -> int:
    """Node count: product of (exponent + 1); 1 for the empty signature."""
    return math.prod(m + 1 for m in as_signature(parts))


def hasse_size(parts: Iterable[int]) -> int:
    """Arc count of the Hasse diagram: sum_i m_i |V| / (m_i + 1).

    An arc raises one coordinate i from one of its m_i lower values, whatever
    the other coordinates are, and those range over |V| / (m_i + 1) vectors.
    """
    sig = tuple(parts)
    nodes = order(sig)  # also validates the parts
    return sum(m * (nodes // (m + 1)) for m in sig)


def level_node_counts(parts: Iterable[int]) -> list[int]:
    """|V_l| for l = 0..Omega: coefficients of P(x) = prod_i (1 + x + ... + x^m_i)."""
    poly = [1]
    for m in as_signature(parts):
        poly = _times_window(poly, m)
    return poly


def _times_window(poly: list[int], m: int) -> list[int]:
    """The coefficients of P(x) (1 + x + ... + x^m), from those of P.

    Each new coefficient is the sum of a window of m+1 old ones, and every
    window is a difference of one running sum.
    """
    run = list(accumulate(poly, initial=0))
    return list(map(sub, run[1:] + [run[-1]] * m, [0] * m + run[:-1]))


def _prefix_column(
    sigs: list[PrimeSignature],
    root: object,
    extend: Callable[[object, int], object],
    read: Callable[[PrimeSignature, int, object], int],
) -> list[int]:
    """One value per signature of ``sigs``, by a depth-first walk of the partition tree.

    ``sigs`` is a prefix of a graded order, so it holds every signature
    below its last grade, and with each signature the one without its
    smallest part.  The walk starts at () with state ``root`` and appends
    parts that do not increase; a child's state is ``extend(state, part)``
    of its parent's, and ``read(sig, Omega, state)`` is its value, written
    in its row.  Only the states on the stack are kept.
    """
    values = dict.fromkeys(sigs)  # insertion order is row order
    top = sum(sigs[-1])
    stack = [((), 0, root)]
    while stack:
        sig, omega, state = stack.pop()
        values[sig] = read(sig, omega, state)
        room = top - omega
        for part in range(min(sig[-1], room) if sig else room, 0, -1):
            child = sig + (part,)
            if child in values:
                stack.append((child, omega + part, extend(state, part)))
    return list(values.values())


def level_arc_counts(parts: Iterable[int]) -> list[int]:
    """Arcs leaving level l for l = 0..Omega-1 (empty list for Omega = 0).

    An arc leaving level l bumps some coordinate i with v_i < m_i, so the
    count is sum_i N^(i)_l, where N^(i) is the rank sequence with m_i lowered
    by 1; see ``_arc_counts_from``.
    """
    sig = as_signature(parts)
    return _arc_counts_from(level_node_counts(sig), sig)


def _arc_counts_from(poly: list[int], sig: tuple[int, ...]) -> list[int]:
    """Arc counts of ``sig`` from its rank sequence ``poly``.

    N^(i) = P(x) (1 - x^m_i) / (1 - x^(m_i+1)), cut to its first Omega
    coefficients.  Dividing by 1 - x^(m+1) is a running sum over every
    (m+1)-th coefficient; each distinct part is done once and weighted by
    its multiplicity.
    """
    total = len(poly) - 1
    counts = [0] * total
    for m, mult in Counter(sig).items():
        quot = [0] * total
        for r in range(m + 1):
            quot[r :: m + 1] = accumulate(poly[r:total : m + 1])
        lowered = quot[:m] + list(map(sub, quot[m:], quot))
        counts = list(map(add, counts, map(mul, lowered, repeat(mult))))
    return counts


def _arc_count_at(poly: list[int], groups: Iterable[tuple[int, int]], level: int) -> int:
    """Arcs leaving one ``level``, from the rank sequence ``poly``.

    ``groups`` holds each distinct part m with its multiplicity.  The level's
    coefficient of N^(i) = P(x) (1 - x^m) / (1 - x^(m+1)) is a sum of every
    (m+1)-th coefficient of P from ``level`` down, minus the same sum from
    ``level - m`` down; see ``_arc_counts_from``.
    """
    total = 0
    for m, mult in groups:
        lowered = sum(poly[level :: -(m + 1)])
        if level >= m:
            lowered -= sum(poly[level - m :: -(m + 1)])
        total += mult * lowered
    return total


def _middle_nodes(sig: PrimeSignature, omega: int, poly: list[int]) -> int:
    """Nodes on level floor(Omega/2), the widest (conjecture 2's theorem)."""
    return poly[omega // 2]


def _middle_arcs(sig: PrimeSignature, omega: int, poly: list[int]) -> int:
    """Arcs leaving level floor((Omega-1)/2), the most (conjecture 3's
    theorem); 0 for the empty signature."""
    return _arc_count_at(poly, Counter(sig).items(), (omega - 1) // 2) if omega else 0


def width_nodes(parts: Iterable[int]) -> int:
    """W_v: largest level by node count, read at its proven peak floor(Omega/2)."""
    sig = as_signature(parts)
    return _middle_nodes(sig, sum(sig), level_node_counts(sig))


def width_arcs(parts: Iterable[int]) -> int:
    """W_e: largest level by leaving-arc count, read at its proven peak
    floor((Omega-1)/2); 0 for the empty signature."""
    sig = as_signature(parts)
    return _middle_arcs(sig, sum(sig), level_node_counts(sig))


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


def closure_size(parts: Iterable[int]) -> int:
    """Arc count of the transitive closure, in closed form.

    Summing the divisor-count function over the lattice gives
    prod (m_i+1)(m_i+2)/2, and every node contributes its proper divisors
    as incoming arcs, so |E^T| = prod (m_i+1)(m_i+2)/2 - |V|.
    """
    sig = tuple(parts)
    nodes = order(sig)  # also validates the parts
    return math.prod((m + 1) * (m + 2) // 2 for m in sig) - nodes


def closure_paths(parts: Iterable[int], *, omega_budget: int = DEFAULT_OMEGA_BUDGET) -> int:
    """Source-to-sink path count of the transitive closure, in closed form.

    A path is a strict chain 1 = d_0 < d_1 < ... < d_l = n of divisors, so
    the count is the number of ordered factorizations of n (OEIS A074206).
    A multichain with j weak steps picks, for each prime independently, j
    exponent increments summing to m_k, so there are M(j) = prod_k
    C(m_k+j-1, j-1) of them.  Inclusion-exclusion over the steps allowed to
    stay put leaves sum_j (-1)^(l-j) C(l, j) M(j) strict chains of length l
    (Stanley, EC1 section 3.12).  Summing over l = 1..Omega and swapping the
    sums gives sum_j T(j) M(j); see ``_closure_weights`` for T.  Equal parts
    give equal factors of M(j), so each distinct part's binomial row is
    built once and raised to the part's multiplicity: O(Omega * d)
    big-integer steps for d distinct parts, plus the powers.
    The one-node and two-node graphs have a single path.
    """
    sig = as_signature(parts)
    total = sum(sig)
    _check_omega(total, omega_budget)
    if total <= 1:
        return 1
    multichains = [1] * total  # M(j) for j = 1..Omega
    for m, mult in Counter(sig).items():
        row = _multichain_row(m, total)
        multichains = list(map(mul, multichains, row if mult == 1 else map(pow, row, repeat(mult))))
    return sum(map(mul, _closure_weights(total), multichains))


def _closure_paths_column(
    sigs: list[PrimeSignature], *, omega_budget: int = DEFAULT_OMEGA_BUDGET
) -> list[int]:
    """|P^T| = sum_j T(Omega, j) M(j) over a graded-order prefix; see ``closure_paths``.

    A node's vector M is its parent's times the appended part's binomial
    row, and each grade's T(Omega, .) is computed once.  The omega budget is
    checked once, for the last (largest) Omega of the table, before any work.
    """
    top = sum(sigs[-1])
    _check_omega(top, omega_budget)
    rows = [None] + [_multichain_row(m, top) for m in range(1, top + 1)]
    weights = [None] + [_closure_weights(total) for total in range(1, top + 1)]

    def extend(multichains: list[int], part: int) -> list[int]:
        return list(map(mul, multichains, rows[part]))

    def read(sig: PrimeSignature, omega: int, multichains: list[int]) -> int:
        return sum(map(mul, weights[omega], multichains)) if omega else 1

    return _prefix_column(sigs, [1] * top, extend, read)


def _closure_weights(total: int) -> list[int]:
    """T(j) = sum_{l=j..Omega} (-1)^(l-j) C(l, j) for j = 1..Omega, with Omega = ``total``.

    T(0) is 1 for even Omega and 0 for odd, and Pascal's rule gives
    2 T(j) = T(j-1) + (-1)^(Omega-j) C(Omega+1, j), so every term follows
    from the one before.
    """
    t = 1 - total % 2  # T(0)
    comb = 1  # C(Omega+1, j)
    weights = []
    for j in range(1, total + 1):
        comb = comb * (total + 2 - j) // j
        t = (t + (comb if (total - j) % 2 == 0 else -comb)) // 2
        weights.append(t)
    return weights


def _multichain_row(m: int, length: int) -> list[int]:
    """C(m+j-1, j-1) for j = 1..``length``: one part's factor of M(j), each from the one before."""
    comb = 1
    row = [1]
    for j in range(1, length):
        comb = comb * (m + j) // j
        row.append(comb)
    return row


def _check_omega(total: int, omega_budget: int) -> None:
    if total > omega_budget:
        raise BudgetError(f"Omega {total} exceeds omega budget {omega_budget}")


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

#: Key -> the row's whole column over a prefix of a graded signature order,
#: built in one walk of the partition tree, for the rows that have one.
#: Each equals the row function mapped over ``sigs``; ``Wv`` and ``We`` read
#: each level polynomial with the same function as ``width_nodes`` and
#: ``width_arcs``.
COLUMNS: dict[str, Callable[[list[PrimeSignature]], list[int]]] = {
    "Wv": lambda sigs: _prefix_column(sigs, [1], _times_window, _middle_nodes),
    "We": lambda sigs: _prefix_column(sigs, [1], _times_window, _middle_arcs),
    "PT": _closure_paths_column,
}

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
    given the omega budget, which is checked before any other row runs, so
    that no level list or factorial is built for an Omega it refuses.
    """
    sig = as_signature(parts)
    _check_omega(sum(sig), omega_budget)
    return InvariantRecord(
        *(
            closure_paths(sig, omega_budget=omega_budget) if key == "PT" else func(sig)
            for key, _, func, _ in TABLE
        )
    )
