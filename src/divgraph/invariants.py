"""Closed-form computation of the fourteen divisor-graph invariants.

Everything here is a pure function of the exponent multiset; no graph is
ever built.  Every count is an exact integer, however large; the one
refusal is the omega budget of ``closure_paths``.  Each formula takes a
canonical tuple and checks nothing (``_order``, ...); the public function
of its name checks its input once (``signatures.checked``), as
``all_invariants`` does for all fourteen.  ``TABLE`` lists the invariants
once; the record type, the sequence keys and spellings, and the CLI
output all derive from it.  Each formula is written once: the level
polynomial P and the leaving-arc polynomial A are one state, held packed,
one coefficient per digit of a single integer, and appending a part is a
few shifted adds (``_chain_step``).  ``level_counts`` folds that state over
a signature's parts and the W_v and W_e columns carry it down one walk of
the partition tree.  W_v reads P and W_e reads A at the peak level that
conjectures 2 and 3 prove, after one unpack, with one reader each, shared
by the row function, its column in ``COLUMNS`` and ``all_invariants``,
which folds once for both.  The brute-force counterpart that measures
the same quantities on an explicit graph lives in divgraph.oracle.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from itertools import repeat
from operator import mul
from typing import Callable, Iterable

from divgraph.errors import BudgetError
from divgraph.signatures import PrimeSignature, as_signature, checked

DEFAULT_OMEGA_BUDGET = 62  # the largest Omega of any n <= 2^63 - 1, so every such n answers


def _order(sig: PrimeSignature) -> int:
    """Node count: product of (exponent + 1); 1 for the empty signature."""
    return math.prod(m + 1 for m in sig)


def _hasse_size(sig: PrimeSignature) -> int:
    """Arc count of the Hasse diagram: sum_i m_i |V| / (m_i + 1).

    An arc raises one coordinate i from one of its m_i lower values, whatever
    the other coordinates are, and those range over |V| / (m_i + 1) vectors.
    """
    nodes = _order(sig)
    return sum(m * (nodes // (m + 1)) for m in sig)


# A packed polynomial is one integer holding coefficient l in bits
# [l B, (l+1) B).  Every coefficient here is a count of nodes or arcs, never
# negative, so sums and shifts of packed values add coefficients without a
# carry as long as no coefficient reaches 2^B; ``_digit_bytes`` picks B.


def _digit_bytes(sigs: list[PrimeSignature], top: int) -> int:
    """Bytes per packed digit for the level polynomials of ``sigs``, whose
    largest Omega is ``top``: at least 8.

    A digit must hold w |V| for w parts and |V| nodes: P's coefficients are
    at most |V| and A's at most |E^H| < w |V|, and every partial sum that
    ``_times_h`` and ``_chain_step`` form is at most a final coefficient.
    A prefix of a signature has smaller coefficients, so the largest bound
    of a list covers every state its prefix walk visits.  A signature of
    sum Omega has w <= Omega parts and |V| <= 2^Omega nodes, as m + 1 <= 2^m,
    so when ``top`` 2^``top`` < 2^64, 8 bytes hold every digit and no
    product per signature is taken.
    """
    if top << top < 1 << 64:
        return 8
    bound = max(len(sig) * math.prod(m + 1 for m in sig) for sig in sigs)
    return max(8, -(-bound.bit_length() // 8))


def _unpack(value: int, count: int, size: int) -> list[int]:
    """The ``count`` digits of ``size`` bytes of a packed polynomial, lowest first."""
    if size == 8 and sys.byteorder == "little":  # native 8-byte digits
        return memoryview(value.to_bytes(8 * count, "little")).cast("Q").tolist()
    data = value.to_bytes(size * count, "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, size * count, size)]


def _times_h(value: int, m: int, width: int) -> int:
    """Packed Q (1 + x + ... + x^m) from packed Q, with ``width``-bit digits.

    h_(2k+1) = h_k (1 + x^(k+1)) and h_(2k) = h_(2k-1) + x^(2k), so it takes
    O(log m) shifted adds.
    """
    if m == 0:
        return value
    if m % 2:
        half = _times_h(value, m // 2, width)
        return half + (half << width * (m // 2 + 1))
    return _times_h(value, m - 1, width) + (value << width * m)


def _prefix_column(
    sigs: list[PrimeSignature],
    top: int,
    root: object,
    extend: Callable[[object, int], object],
    read: Callable[[int, object], int],
) -> list[int]:
    """One value per signature of ``sigs``, by a depth-first walk of the partition tree.

    ``sigs`` is closed under dropping the smallest part: with each
    signature it holds the one without its smallest part.  Graded-order
    prefixes and the class signatures of ``natural_classes`` both are.  The
    walk starts at () with state ``root`` and appends parts that do not
    increase, up to ``top``, the largest Omega in ``sigs``; a child's state is
    ``extend(state, part)`` of its parent's, and ``read(Omega, state)`` is
    its value, written in its row.  Only the states on the stack are kept,
    and siblings share their parent's, so ``extend`` must not change it:
    the packed integers of ``Wv`` and ``We`` cannot be changed, and ``PT``
    builds a new list.
    """
    values = dict.fromkeys(sigs)  # insertion order is row order
    stack = [((), 0, root)]
    while stack:
        sig, omega, state = stack.pop()
        values[sig] = read(omega, state)
        room = top - omega
        for part in range(min(sig[-1], room) if sig else room, 0, -1):
            child = sig + (part,)
            if child in values:
                stack.append((child, omega + part, extend(state, part)))
    return list(values.values())


def _level_counts(sig: PrimeSignature) -> tuple[list[int], list[int]]:
    """(node counts, leaving-arc counts) by level: |V_l| for l = 0..Omega,
    the coefficients of P(x) = prod_i (1 + x + ... + x^m_i), and the arcs
    leaving level l for l = 0..Omega-1 (empty for Omega = 0).

    ``_chain_step`` is folded over the parts on packed (P, A), and both are
    unpacked once.
    """
    omega = sum(sig)
    size = _digit_bytes([sig], omega)
    width = 8 * size
    state = (1, 0)
    for m in sig:
        state = _chain_step(state, m, width)
    return _unpack(state[0], omega + 1, size), _unpack(state[1], omega, size)


def _chain_step(state: tuple[int, int], m: int, width: int) -> tuple[int, int]:
    """Packed (P h_m, A h_m + P h_(m-1)) from packed (P, A), where h_m = 1 + x + ... + x^m.

    P is the level polynomial and A the leaving-arc polynomial of a
    signature; appending a part m gives those of the longer one.  An arc
    either raises an old coordinate, with the new one at any of its m+1
    values, or raises the new one from a value below m.  P h_m is
    P h_(m-1) + x^m P, so one product L = P h_(m-1) serves both.
    """
    poly, arcs = state
    lower = _times_h(poly, m - 1, width)
    return lower + (poly << width * m), _times_h(arcs, m, width) + lower


def _middle_nodes(omega: int, poly: list[int]) -> int:
    """Nodes on level floor(Omega/2), the widest (conjecture 2's theorem)."""
    return poly[omega // 2]


def _middle_arcs(omega: int, arcs: list[int]) -> int:
    """Arcs leaving level floor((Omega-1)/2), the most (conjecture 3's
    theorem); 0 for the empty signature."""
    return arcs[(omega - 1) // 2] if omega else 0


def width_nodes(parts: Iterable[int]) -> int:
    """W_v: largest level by node count, read at its proven peak floor(Omega/2)."""
    nodes, _ = level_counts(parts)
    return _middle_nodes(len(nodes) - 1, nodes)


def width_arcs(parts: Iterable[int]) -> int:
    """W_e: largest level by leaving-arc count, read at its proven peak
    floor((Omega-1)/2); 0 for the empty signature."""
    nodes, arcs = level_counts(parts)
    return _middle_arcs(len(nodes) - 1, arcs)


def _width_column(
    sigs: list[PrimeSignature], half: int, read: Callable[[int, list[int]], int]
) -> list[int]:
    """A width over ``sigs`` by ``_prefix_column``, carrying packed (P, A):
    ``read`` applied to P (``half`` 0) or A (``half`` 1), unpacked to
    Omega + 1 digits; A's top digit is 0."""
    top = max(map(sum, sigs))
    size = _digit_bytes(sigs, top)
    width = 8 * size
    return _prefix_column(
        sigs,
        top,
        (1, 0),
        lambda state, m: _chain_step(state, m, width),
        lambda omega, state: read(omega, _unpack(state[half], omega + 1, size)),
    )


def _degree(sig: PrimeSignature) -> int:
    """Maximum node degree of the Hasse diagram: omega + #exponents above 1."""
    return len(sig) + sum(1 for m in sig if m > 1)


def _hasse_paths(sig: PrimeSignature) -> int:
    """Source-to-sink path count of the Hasse diagram.

    Equals the number of ordered prime factorizations: the multinomial
    (sum m_i)! / prod m_i!.
    """
    value = math.factorial(sum(sig))
    for m in sig:
        value //= math.factorial(m)
    return value


def _node_parity(sig: PrimeSignature) -> tuple[int, int]:
    """(|V_E|, |V_O|): nodes on even and odd levels; |V_O| = floor(|V|/2)."""
    n = _order(sig)
    return n - n // 2, n // 2


def _arc_parity(sig: PrimeSignature) -> tuple[int, int]:
    """(|E_E|, |E_O|) by tail-level parity; |E_O| = floor(|E^H|/2)."""
    e = _hasse_size(sig)
    return e - e // 2, e // 2


def _closure_size(sig: PrimeSignature) -> int:
    """Arc count of the transitive closure, in closed form.

    Summing the divisor-count function over the lattice gives
    prod (m_i+1)(m_i+2)/2, and every node contributes its proper divisors
    as incoming arcs, so |E^T| = prod (m_i+1)(m_i+2)/2 - |V|.
    """
    return math.prod((m + 1) * (m + 2) // 2 for m in sig) - _order(sig)


def _closure_paths(sig: PrimeSignature, *, omega_budget: int = DEFAULT_OMEGA_BUDGET) -> int:
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
    total = sum(sig)
    _check_omega(total, omega_budget)
    if total <= 1:
        return 1
    multichains = [1] * total  # M(j) for j = 1..Omega
    for m, mult in Counter(sig).items():
        row = _multichain_row(m, total)
        multichains = list(map(mul, multichains, map(pow, row, repeat(mult))))
    return sum(map(mul, _closure_weights(total), multichains))


def _closure_paths_column(sigs: list[PrimeSignature]) -> list[int]:
    """|P^T| = sum_j T(Omega, j) M(j) over ``sigs``; see ``closure_paths``.

    ``sigs`` is closed under dropping the smallest part, as for
    ``_prefix_column``.  A node's vector M is its parent's times the
    appended part's binomial row, and each grade's T(Omega, .) is computed
    once.  The default omega budget is checked once, for the largest Omega
    of the list, before any work.
    """
    top = max(map(sum, sigs))
    _check_omega(top, DEFAULT_OMEGA_BUDGET)
    rows = [None] + [_multichain_row(m, top) for m in range(1, top + 1)]
    weights = [None] + [_closure_weights(total) for total in range(1, top + 1)]

    def extend(multichains: list[int], part: int) -> list[int]:
        return list(map(mul, multichains, rows[part]))

    def read(omega: int, multichains: list[int]) -> int:
        return sum(map(mul, weights[omega], multichains)) if omega else 1

    return _prefix_column(sigs, top, [1] * top, extend, read)


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


# The public forms: any exponent iterable, checked once, into the formula.
order = checked(_order)
hasse_size = checked(_hasse_size)
level_counts = checked(_level_counts)
degree = checked(_degree)
hasse_paths = checked(_hasse_paths)
node_parity = checked(_node_parity)
arc_parity = checked(_arc_parity)
closure_size = checked(_closure_size)
closure_paths = checked(_closure_paths)

#: The fourteen invariants in table-row order, one row each:
#: (key, record field, function of a canonical signature, accepted spellings).
#: A name resolves to a key when it equals the key or, lowercased, one of the
#: spellings.  A row's function is its formula, which does not check the
#: signature again, except that the three rows with a column in ``COLUMNS``,
#: which no table maps one signature at a time, hold the public functions.
TABLE = (
    ("V", "order", _order, ("|v|", "v")),
    ("EH", "hasse_size", _hasse_size, ("|e^h|", "e^h", "eh")),
    ("Omega", "big_omega", sum, ("bigomega",)),
    ("omega", "small_omega", len, ("smallomega",)),
    ("Wv", "width_nodes", width_nodes, ("w_v", "wv")),
    ("We", "width_arcs", width_arcs, ("w_e", "we")),
    ("Delta", "degree", _degree, ("delta", "d")),
    ("PH", "hasse_paths", _hasse_paths, ("|p^h|", "p^h", "ph")),
    ("VE", "v_even", lambda s: _node_parity(s)[0], ("|v_e|", "v_e", "ve")),
    ("VO", "v_odd", lambda s: _node_parity(s)[1], ("|v_o|", "v_o", "vo")),
    ("EE", "e_even", lambda s: _arc_parity(s)[0], ("|e_e|", "e_e", "ee")),
    ("EO", "e_odd", lambda s: _arc_parity(s)[1], ("|e_o|", "e_o", "eo")),
    ("ET", "closure_size", _closure_size, ("|e^t|", "e^t", "et")),
    ("PT", "closure_paths", closure_paths, ("|p^t|", "p^t", "pt")),
)

#: Key -> the row's whole column over a list of signatures closed under
#: dropping the smallest part (a graded-order prefix, or the classes of
#: ``natural_classes``), built in one walk of the partition tree, for the
#: rows that have one.  Each equals the row function mapped over ``sigs``.
#: ``Wv`` and ``We`` both carry packed (P, A) down the walk, each step the one
#: that ``level_counts`` folds, with digits wide enough for the largest
#: signature of the list; each unpacks its half of the state and reads it
#: with the same function as ``width_nodes`` and ``width_arcs``.
COLUMNS: dict[str, Callable[[list[PrimeSignature]], list[int]]] = {
    "Wv": lambda sigs: _width_column(sigs, 0, _middle_nodes),
    "We": lambda sigs: _width_column(sigs, 1, _middle_arcs),
    "PT": _closure_paths_column,
}


class InvariantRecord(namedtuple("InvariantRecord", [field for _, field, _, _ in TABLE])):
    """The fourteen invariants of one signature class, in table-row order."""

    __slots__ = ()

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


def all_invariants(
    parts: Iterable[int], *, omega_budget: int = DEFAULT_OMEGA_BUDGET
) -> InvariantRecord:
    """Bundle all fourteen invariants for one signature.

    The signature is checked once, here.  Each value is its row's formula
    applied to the canonical tuple, except that W_v and W_e are read off one
    ``_level_counts`` fold with the rows' readers, and |P^T| is also given
    the omega budget.  The budget is checked before any row runs, so that no
    level list or factorial is built for an Omega it refuses.
    """
    sig = as_signature(parts)
    omega = sum(sig)
    _check_omega(omega, omega_budget)
    nodes, arcs = _level_counts(sig)
    shared = {
        "Wv": _middle_nodes(omega, nodes),
        "We": _middle_arcs(omega, arcs),
        "PT": _closure_paths(sig, omega_budget=omega_budget),
    }
    return InvariantRecord(
        *(shared[key] if key in shared else func(sig) for key, _, func, _ in TABLE)
    )
