"""Integer factorization, prime signatures, and their two standard orderings.

A prime signature is the multiset of exponents in a prime factorization,
held here as a tuple sorted in descending order.  The empty tuple is the
signature of 1.  Signatures index isomorphism classes of divisor-lattice
graphs, so everything downstream (graphs, invariants, sequences) keys on
them.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from typing import Iterable, Iterator

from divgraph.errors import BudgetError

INT_BOUND = 2**63 - 1

#: Most n values, table rows or signatures that one request may ask for:
#: a sequence table's count, and a conjecture scan's --max-n, --colex-count
#: and number of signatures with 1 <= Omega <= --max-omega (so --max-omega
#: is at most 36).  Signature-order work grows with Omega as well as with
#: the count: at 10^5 a colex W_e table took about 12 s at a 64 MB peak and
#: a natural-order table 0.15 s, while at 10^6 a colex V table alone took
#: 13 s at 533 MB (2-CPU x86-64, Python 3.11).
SIZE_BUDGET = 10**5

Factorization = tuple[tuple[int, int], ...]  # ((prime, exponent), ...), primes ascending
PrimeSignature = tuple[int, ...]  # exponents, descending


class SignatureOrder(Enum):
    GRADED_COLEX = "colex"
    CANONICAL = "canonical"


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_BASES = _SMALL_PRIMES[:12]  # 2, 3, ..., 37


def factorize(n: int) -> Factorization:
    """Prime factorization of ``n`` as ((p1, m1), (p2, m2), ...) with p1 < p2 < ...

    Trial division by the primes below 100, then deterministic Miller–Rabin
    on the bases 2, 3, ..., 37 to test each cofactor, which is exact for
    n < 3.3·10^24 (Sorenson and Webster, Math. Comp. 86, 2017), so for every
    n up to ``INT_BOUND``; composites are split by Brent's variant of
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
    """Miller–Rabin on the first twelve prime bases: exact for n < 3.3·10^24.

    ``n`` has no prime factor below 100, as ``factorize`` leaves it.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def factorization_value(f: Factorization) -> int:
    prod = 1
    for p, e in f:
        prod *= p**e
    return prod


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


def big_omega(parts: Iterable[int]) -> int:
    """Number of prime factors counted with multiplicity (sum of exponents)."""
    return sum(as_signature(parts))


def small_omega(parts: Iterable[int]) -> int:
    """Number of distinct prime factors (count of exponents)."""
    return len(as_signature(parts))


def partitions_of(k: int) -> list[PrimeSignature]:
    """All partitions of ``k`` as descending tuples, in descending lexicographic order.

    That order is exactly the within-grade order of the canonical signature
    enumeration; partitions_of(0) is [()].
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    out: list[PrimeSignature] = []

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
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    out: list[PrimeSignature] = []
    k = 0
    while len(out) < count:
        grade = partitions_of(k)
        if order is SignatureOrder.GRADED_COLEX:
            grade = sorted(grade, key=len)  # stable: keeps lex-descending within a length
        elif order is not SignatureOrder.CANONICAL:
            raise ValueError(f"unknown order {order!r}")
        out.extend(grade)
        k += 1
    return out[:count]


def least_integer(parts: Iterable[int]) -> int:
    """Smallest positive integer whose signature equals the given multiset.

    Largest exponent goes on the smallest prime: 2^s1 * 3^s2 * 5^s3 * ...
    The value is exact however large.
    """
    sig = as_signature(parts)
    return math.prod(map(pow, _first_primes(len(sig)), sig))


def _first_primes(k: int) -> list[int]:
    primes: list[int] = []
    c = 2
    while len(primes) < k:
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
        c += 1 if c == 2 else 2
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


def natural_signatures(limit: int) -> Iterator[PrimeSignature]:
    """Prime signatures of 1, 2, ..., ``limit`` in order, read off one sieve.

    The sieve is built by the call; each signature is read as the iterator
    reaches it, so a caller that keeps only distinct signatures never holds
    ``limit`` of them.
    """
    spf = spf_sieve(limit)
    return map(signature_from_sieve, range(1, limit + 1), itertools.repeat(spf, limit))


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
