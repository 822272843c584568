"""Integer factorization, prime signatures, and their two standard orderings.

A prime signature is the multiset of exponents in a prime factorization,
held here as a tuple sorted in descending order.  The empty tuple is the
signature of 1.  Signatures index isomorphism classes of divisor-lattice
graphs, so everything downstream (graphs, invariants, sequences) keys on
them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from divgraph.errors import BudgetError

INT_BOUND = 2**63 - 1

#: Most n values, table rows or signatures that one request may ask for:
#: a sequence table's count, and a conjecture scan's --max-n, --colex-count
#: and number of signatures with 1 <= Omega <= --max-omega (so --max-omega
#: is at most 36).  Signature-order work grows with Omega as well as with
#: the count: at 10^5 a colex |P^T| table took about 1 s and a W_e table
#: about 0.8 s at a 20 MB tracemalloc peak, and a natural-order table
#: 0.03-0.04 s at a 2 MB peak, while at 10^6 a colex V table alone took
#: 5 s at a 202 MB peak RSS (2-CPU x86-64, Python 3.11).
SIZE_BUDGET = 10**5

Factorization = tuple[tuple[int, int], ...]  # ((prime, exponent), ...), primes ascending
PrimeSignature = tuple[int, ...]  # exponents, descending


class SignatureOrder(Enum):
    GRADED_COLEX = "colex"
    CANONICAL = "canonical"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
#: psi_k for k = 1..11, the least strong pseudoprime to the first k prime
#: bases (OEIS A014233); see ``_is_prime``.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051)


def factorize(n: int) -> Factorization:
    """Prime factorization of ``n`` as ((p1, m1), (p2, m2), ...) with p1 < p2 < ...

    Trial division by the primes below 100, then deterministic Miller–Rabin
    to test each cofactor, on as many of the prime bases 2, 3, ..., 37 as
    its size needs (see ``_is_prime``); all twelve are exact for
    n < 3.18·10^23 (Sorenson and Webster, Math. Comp. 86, 2017), so for
    every n up to ``INT_BOUND``.  Composites are split by Brent's variant of
    Pollard's rho (Brent, BIT 20, 1980).  ``n`` is checked against
    ``INT_BOUND`` up front.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1 or n > INT_BOUND:
        raise ValueError(f"n out of range [1, {INT_BOUND}]: {n}")
    pairs = []
    rest = n
    for p in _SMALL_PRIMES:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            pairs.append((p, e))
    large: dict[int, int] = {}
    pending = [rest] if rest > 1 else []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += (d, m // d)
    return tuple(pairs) + tuple(sorted(large.items()))


def _is_prime(n: int) -> bool:
    """Miller–Rabin on the first k prime bases, k the least with n < psi_k.

    psi_k is the least strong pseudoprime to the first k prime bases, so
    every odd n < psi_k that passes those k rounds is prime: psi_1..psi_4
    are from Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980),
    psi_5..psi_8 from Jaeschke (Math. Comp. 61, 1993) and psi_9..psi_11 from
    Jiang and Deng (Math. Comp. 83, 2014).  The base count thus follows the
    size of n: one base below 2047, and all twelve (2 to 37, exact for
    n < 3.18·10^23) from psi_11 = 3825123056546413051 up.  ``n`` has no
    prime factor below 100, as ``factorize`` leaves it, so every base is
    below n.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:bisect.bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite ``n``, by Brent's cycle search.

    Iterates y -> y^2 + c mod n, multiplying up to 128 differences before
    each gcd; a batch that overshoots to n is replayed one step at a time,
    and a c whose cycle closes modulo n itself gives way to c + 1.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def signature_of(n: int) -> PrimeSignature:
    """Prime signature of ``n``: the exponent multiset, sorted descending."""
    return tuple(sorted((e for _, e in factorize(n)), reverse=True))


def as_signature(parts: Iterable[int]) -> PrimeSignature:
    """Canonicalize an exponent multiset: validate positivity, sort descending."""
    t = tuple(parts)
    for p in t:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"signature parts must be positive integers, got {t!r}")
    return tuple(sorted(t, reverse=True))


def checked(formula: Callable) -> Callable:
    """The public form of ``formula``, a function of a canonical signature:
    it takes any exponent iterable, checks and sorts it with ``as_signature``
    and passes the tuple on, with any keyword arguments."""

    def public(parts: Iterable[int], **kwargs):
        return formula(as_signature(parts), **kwargs)

    public.__name__ = public.__qualname__ = formula.__name__.lstrip("_")
    public.__module__, public.__doc__ = formula.__module__, formula.__doc__
    return public


def partitions_of(k: int) -> list[PrimeSignature]:
    """All partitions of ``k`` as descending tuples, in descending lexicographic order.

    That order is exactly the within-grade order of the canonical signature
    enumeration; partitions_of(0) is [()].
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return next(itertools.islice(_graded_partitions(), k, None))


def _graded_partitions() -> Iterator[list[PrimeSignature]]:
    """The partitions of 0, 1, 2, ..., one grade at a time, each in descending
    lexicographic order.

    Grade k is (k,) followed by (p,) + q for p = k-1, ..., 1 and q over
    grade k-p with q[0] <= p, in that order: each grade is one comprehension
    over the earlier ones, with no recursion and no sort.
    """
    grades = [[()]]
    yield grades[0]
    for k in itertools.count(1):
        grade = [(k,)]
        grade += [(p,) + q for p in range(k - 1, 0, -1) for q in grades[k - p] if q[0] <= p]
        grades.append(grade)
        yield grade


def partition_count(k: int) -> int:
    """Number of partitions of ``k`` (p(0) = 1), counted part size by part
    size without enumerating them."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    counts = [1] + [0] * k  # counts[t]: partitions of t into the parts so far
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            counts[total] += counts[total - part]
    return counts[k]


def check_size(what: str, size: int) -> None:
    """Refuse a request for more than SIZE_BUDGET items before any is made."""
    if size > SIZE_BUDGET:
        raise BudgetError(f"{what} {size} exceeds the size budget {SIZE_BUDGET}")


def enumerate_signatures(order: SignatureOrder, count: int) -> list[PrimeSignature]:
    """First ``count`` signatures in the requested total order, starting at ().

    Both orders are graded by the exponent sum.  Within one grade the
    canonical order is descending lexicographic on the descending tuples;
    the graded colexicographic order additionally groups by length first.
    Each grade is built once, from the earlier ones (see ``_graded_partitions``).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if not isinstance(order, SignatureOrder):
        raise ValueError(f"unknown order {order!r}")
    out: list[PrimeSignature] = []
    for grade in _graded_partitions():
        if order is SignatureOrder.GRADED_COLEX:
            grade = sorted(grade, key=len)  # stable: keeps lex-descending within a length
        out += grade
        if len(out) >= count:
            return out[:count]


def _least_integer(sig: PrimeSignature) -> int:
    """Smallest positive integer whose signature equals the given multiset.

    Largest exponent goes on the smallest prime: 2^s1 * 3^s2 * 5^s3 * ...
    The value is exact however large.
    """
    return math.prod(map(pow, _first_primes(len(sig)), sig))


least_integer = checked(_least_integer)


def _first_primes(k: int) -> Sequence[int]:
    """The first ``k`` primes: a slice of ``_SMALL_PRIMES`` up to its 25,
    and past them a copy extended by trial division up to the root of each
    odd candidate."""
    if k <= len(_SMALL_PRIMES):
        return _SMALL_PRIMES[:k]
    primes = list(_SMALL_PRIMES)
    c = primes[-1]
    while len(primes) < k:
        c += 2
        if all(c % p for p in itertools.takewhile(math.isqrt(c).__ge__, primes)):
            primes.append(c)
    return primes


def spf_sieve(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit (spf[0] = 0, spf[1] = 1).

    The primes up to sqrt(limit) come from a bytearray sieve.  Each writes
    its multiples from p^2 on by one slice assignment, largest prime first,
    so the smallest prime factor writes last; the entries left at 0 are 0,
    1 and the primes, and each is set to its own index.  No int object is
    made per entry, only per prime.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    root = math.isqrt(limit)
    marks = bytearray([1]) * (root + 1)
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(root) + 1):
        if marks[p]:
            marks[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    spf = [0] * (limit + 1)
    for p in reversed(list(itertools.compress(range(root + 1), marks))):
        spf[p * p :: p] = [p] * len(range(p * p, limit + 1, p))
    for n in itertools.compress(range(limit + 1), map(operator.not_, spf)):
        spf[n] = n
    return spf


def signature_from_sieve(n: int, spf: list[int]) -> PrimeSignature:
    """Prime signature of ``n`` read off a ``spf_sieve`` table that covers it."""
    exps = []
    while n > 1:
        p = spf[n]
        n //= p
        e = 1
        while spf[n] == p:  # spf[1] = 1 ends the run
            n //= p
            e += 1
        exps.append(e)
    exps.sort(reverse=True)
    return tuple(exps)


def natural_classes(limit: int) -> tuple[list[int], list[PrimeSignature]]:
    """Signature classes of 1, 2, ..., ``limit``, read off one sieve.

    Returns ``(classes, sigs)``: ``classes[n - 1]`` is the class number of
    n and ``sigs[c]`` the signature of class c.  Classes are numbered in
    order of first appearance, so ``sigs[0]`` is ().  With p the least
    prime of n and p^e exactly dividing n, the class of n is the class of
    n/p^e extended by e.  That step is worked out once per (class, e);
    different pairs can reach one signature, so a map from signatures to
    class numbers keeps each signature in one class.
    """
    spf = spf_sieve(limit)
    classes = [0] * (limit + 1)  # classes[n]; entry 0 is dropped on return
    sigs: list[PrimeSignature] = [()]
    numbers = {(): 0}
    steps: list[dict[int, int]] = [{}]  # steps[c][e]: class of sigs[c] extended by e
    for n in range(2, limit + 1):
        p = spf[n]
        m = n // p
        e = 1
        while spf[m] == p:  # spf[1] = 1 ends the run
            m //= p
            e += 1
        step = steps[classes[m]]
        c = step.get(e)
        if c is None:
            sig = tuple(sorted(sigs[classes[m]] + (e,), reverse=True))
            c = step[e] = numbers.setdefault(sig, len(sigs))
            if c == len(sigs):
                sigs.append(sig)
                steps.append({})
        classes[n] = c
    del classes[0]
    return classes, sigs


def signature_display(sig: PrimeSignature) -> str:
    """Render a signature the way the order tables print it: (2,1); () is (0)."""
    if not sig:
        return "(0)"
    return "(" + ",".join(str(p) for p in sig) + ")"


def signature_key(sig: PrimeSignature) -> str:
    """Dot-joined serialization used by the CLI and CSV output: (2,1) -> "2.1".

    The empty signature serializes as "0", mirroring the (0) display form.
    """
    if not sig:
        return "0"
    return ".".join(map(str, sig))


def parse_signature_key(text: str) -> tuple[int, ...]:
    """Inverse of signature_key. Accepts any positive-integer exponent tuple.

    Order is preserved (an exponent tuple in factorization order is valid
    input everywhere); "0" denotes the empty signature.
    """
    text = text.strip()
    if text == "0":
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split("."))
    except ValueError:
        raise ValueError(f"bad signature syntax {text!r}; expected e.g. 2.3.1") from None
    if any(p < 1 for p in parts):
        raise ValueError(f"signature parts must be >= 1, got {text!r}")
    return parts
