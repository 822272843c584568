"""Factorization, signatures, partitions, and the two signature orders."""

import bisect
import math
import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from divgraph import signatures
from divgraph.errors import BudgetError
from divgraph.signatures import (
    _PSI,
    _is_prime,
    INT_BOUND,
    SIZE_BUDGET,
    SignatureOrder,
    as_signature,
    check_size,
    enumerate_signatures,
    factorize,
    least_integer,
    natural_classes,
    parse_signature_key,
    partition_count,
    partitions_of,
    signature_display,
    signature_from_sieve,
    signature_key,
    signature_of,
    spf_sieve,
)

from _reference import (
    TWELVE_BASES,
    factorization_value,
    factorize_by_trial_division,
    is_prime_by_twelve_bases,
    is_strong_probable_prime,
    partitions_by_recursion,
    signatures_by_recursion,
    spf_sieve_by_loops,
)
from fixtures.signature_orders import CANONICAL_30, FIRST_SHARED, GRADED_COLEX_30


class TestFactorize:
    def test_worked_examples(self):
        assert factorize(20) == ((2, 2), (5, 1))
        assert factorize(540) == ((2, 2), (3, 3), (5, 1))
        assert factorize(1) == ()

    def test_large_prime(self):
        assert factorize(104729) == ((104729, 1),)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)
        with pytest.raises(ValueError):
            factorize(2**63)

    @given(st.integers(min_value=1, max_value=100_000))
    def test_reconstructs_n(self, n):
        pairs = factorize(n)
        assert factorization_value(pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)
        assert all(e >= 1 for _, e in pairs)


# Exact factorizations, most out of trial division's reach in reasonable time,
# plus composites that fool Miller–Rabin on a few bases.
HARD_CASES = [
    (9223372036854775783, ((9223372036854775783, 1),)),  # largest prime below 2^63
    (2**63 - 1, ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))),
    (3037000453 * 3037000493, ((3037000453, 1), (3037000493, 1))),  # balanced semiprime
    ((2**31 - 1) ** 2, ((2**31 - 1, 2),)),
    (2097143**3, ((2097143, 3),)),
    # psi_k, the least strong pseudoprime to the first k prime bases
    (1373653, ((829, 1), (1657, 1))),  # psi_2: bases 2, 3
    (25326001, ((2251, 1), (11251, 1))),  # psi_3: bases 2, 3, 5
    (3215031751, ((151, 1), (751, 1), (28351, 1))),  # psi_4: bases 2..7
    (2152302898747, ((6763, 1), (10627, 1), (29947, 1))),  # psi_5: bases 2..11
    (3474749660383, ((1303, 1), (16927, 1), (157543, 1))),  # psi_6: bases 2..13
    (341550071728321, ((10670053, 1), (32010157, 1))),  # psi_7 = psi_8: bases 2..19
    # psi_9 = psi_10 = psi_11: bases 2..31
    (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
    (561, ((3, 1), (11, 1), (17, 1))),  # Carmichael number
]


class TestFactorizeAgainstTrialDivision:
    def test_every_n_up_to_1e5(self):
        for n in range(1, 100_001):
            assert factorize(n) == factorize_by_trial_division(n), n

    @given(st.integers(min_value=1, max_value=10**10))
    def test_random_n_up_to_1e10(self, n):
        assert factorize(n) == factorize_by_trial_division(n)

    @pytest.mark.parametrize("n, pairs", HARD_CASES, ids=[str(n) for n, _ in HARD_CASES])
    def test_exact_factorization(self, n, pairs):
        assert factorize(n) == pairs
        assert factorization_value(pairs) == n

    def test_hard_cases_finish_within_cap(self):
        start = time.perf_counter()
        for n, _ in HARD_CASES:
            factorize(n)
        assert time.perf_counter() - start < 3.0


class TestMillerRabinBases:
    """``_is_prime`` takes the first k bases, k the least with n < psi_k."""

    def test_each_psi_fools_its_first_k_bases_and_no_more(self):
        # a typo in the table would almost surely fail the first check, and a
        # base that rejects a number proves it composite
        for k, psi in enumerate(_PSI, 1):
            assert all(is_strong_probable_prime(psi, a) for a in TWELVE_BASES[:k]), k
            assert not all(is_strong_probable_prime(psi, a) for a in TWELVE_BASES[k:]), k
            assert not _is_prime(psi), k

    def test_twelve_bases_cover_every_n_up_to_int_bound(self):
        psi_12 = 318_665_857_834_031_151_167_461  # Sorenson and Webster (2017)
        assert all(is_strong_probable_prime(psi_12, a) for a in TWELVE_BASES)
        assert len(_PSI) == 11
        assert list(_PSI) == sorted(_PSI)
        assert _PSI[-1] < INT_BOUND < psi_12

    def test_equals_sieve_primality_on_every_candidate_up_to_2e5(self):
        # every odd n in [101, 2e5] with no prime factor below 100: one or
        # two bases, across psi_1 = 2047
        spf = spf_sieve_by_loops(200_000)
        candidates = [n for n in range(101, 200_001, 2) if spf[n] > 97]
        assert 2047 < candidates[-1]
        for n in candidates:
            assert _is_prime(n) == (spf[n] == n), n

    def test_equals_all_twelve_bases_on_random_odd_n_below_2_63(self):
        rng = random.Random(2014)
        small = math.prod(p for p, q in enumerate(spf_sieve_by_loops(100)) if p == q > 2)
        seen = set()
        for _ in range(20_000):
            n = rng.getrandbits(rng.randint(7, 63)) | 1
            if n > 100 and math.gcd(n, small) == 1:
                prime = _is_prime(n)
                assert prime == is_prime_by_twelve_bases(n), n
                seen.add((prime, bisect.bisect_right(_PSI, n) + 1))
        # both answers at every base count the table gives (1-7, 9 and 12),
        # except composites below 2047, which all have a prime factor below 100
        counts = {bisect.bisect_right(_PSI, n) + 1 for n in (0, *_PSI)}
        assert seen == {(p, k) for p in (False, True) for k in counts} - {(False, 1)}


class TestSignatureOf:
    def test_congruent_pair(self):
        assert signature_of(4500) == (3, 2, 2)
        assert signature_of(33075) == (3, 2, 2)

    def test_one(self):
        assert signature_of(1) == ()

    def test_descending(self):
        assert signature_of(2**1 * 3**4) == (4, 1)

    def test_sieve_agrees_with_trial_division(self):
        spf = spf_sieve(3000)
        for n in range(1, 3001):
            assert signature_from_sieve(n, spf) == signature_of(n)

    def test_sieve_agrees_with_factorize_up_to_1e5(self):
        spf = spf_sieve(100_000)
        for n in range(1, 100_001):
            assert signature_from_sieve(n, spf) == signature_of(n), n


class TestNaturalSignatures:
    """``natural_classes`` against the per-n readers."""

    def test_equals_factorization_up_to_1e4(self):
        classes, sigs = natural_classes(10_000)
        assert [sigs[c] for c in classes] == [signature_of(n) for n in range(1, 10_001)]

    def test_equals_per_n_sieve_reads_at_1e5(self):
        spf = spf_sieve(100_000)
        expected = [signature_from_sieve(n, spf) for n in range(1, 100_001)]
        classes, sigs = natural_classes(100_000)
        assert [sigs[c] for c in classes] == expected

    def test_one(self):
        assert natural_classes(1) == ([0], [()])

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_validated(self, limit):
        with pytest.raises(ValueError):
            natural_classes(limit)

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 12, 1000, 100_000])
    def test_classes_numbered_by_first_appearance(self, limit):
        classes, sigs = natural_classes(limit)
        assert len(classes) == limit
        assert len(set(sigs)) == len(sigs)
        assert classes[0] == 0 and sigs[0] == ()
        assert set(classes) == set(range(len(sigs)))
        assert list(dict.fromkeys(classes)) == list(range(len(sigs)))


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: factorize("12"), "n must be an integer, got '12'"),
            (lambda: factorize(12.0), "n must be an integer, got 12.0"),
            (lambda: enumerate_signatures("colex", 3), "unknown order 'colex'"),
        ],
        ids=["factorize-str", "factorize-float", "enumerate-str-order"],
    )
    def test_error_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestSizeBudget:
    def test_at_budget_accepted(self):
        check_size("count", SIZE_BUDGET)

    def test_over_budget_refused(self):
        with pytest.raises(BudgetError, match=f"count {SIZE_BUDGET + 1} exceeds the size budget"):
            check_size("count", SIZE_BUDGET + 1)


class TestSieve:
    def test_equals_loop_sieve(self):
        for limit in [*range(1, 2001), 10**5, 10**6]:
            spf = spf_sieve(limit)
            assert type(spf) is list
            assert spf == spf_sieve_by_loops(limit), limit

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_validated(self, limit):
        with pytest.raises(ValueError):
            spf_sieve(limit)


# Independent partition counter: recurrence only, no generation.
@lru_cache(maxsize=None)
def _count_partitions(k, max_part):
    if k == 0:
        return 1
    return sum(
        _count_partitions(k - p, p) for p in range(1, min(k, max_part) + 1)
    )


class TestPartitions:
    def test_zero(self):
        assert partitions_of(0) == [()]

    def test_four(self):
        assert set(partitions_of(4)) == {
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        }

    def test_six_has_eleven(self):
        assert len(partitions_of(6)) == 11

    @pytest.mark.parametrize("k", range(13))
    def test_count_matches_recurrence(self, k):
        parts = partitions_of(k)
        assert len(parts) == _count_partitions(k, k)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == k for p in parts)
        assert all(tuple(sorted(p, reverse=True)) == p for p in parts)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_partition_count_matches_recurrence(self):
        assert [partition_count(k) for k in range(61)] == [_count_partitions(k, k) for k in range(61)]
        assert partition_count(100) == 190_569_292

    def test_partition_count_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_count(-1)


class TestOrders:
    def test_colex_matches_figure(self):
        sigs = enumerate_signatures(SignatureOrder.GRADED_COLEX, 30)
        assert [signature_display(s) for s in sigs] == GRADED_COLEX_30

    def test_canonical_matches_figure(self):
        sigs = enumerate_signatures(SignatureOrder.CANONICAL, 30)
        assert [signature_display(s) for s in sigs] == CANONICAL_30

    def test_orders_share_prefix_then_differ(self):
        colex = enumerate_signatures(SignatureOrder.GRADED_COLEX, 30)
        canon = enumerate_signatures(SignatureOrder.CANONICAL, 30)
        assert colex[:FIRST_SHARED] == canon[:FIRST_SHARED]
        assert colex[FIRST_SHARED] != canon[FIRST_SHARED]

    def test_starts_with_empty_signature(self):
        for order in SignatureOrder:
            assert enumerate_signatures(order, 1) == [()]

    @pytest.mark.parametrize("order", list(SignatureOrder))
    def test_graded_and_contiguous(self, order):
        sigs = enumerate_signatures(order, 250)
        sums = [sum(s) for s in sigs]
        assert sums == sorted(sums)
        # each complete grade holds exactly the partitions of its sum
        k = 0
        position = 0
        while True:
            count = _count_partitions(k, max(k, 1))
            if position + count > len(sigs):
                break
            block = sigs[position : position + count]
            assert sorted(block) == sorted(partitions_of(k))
            position += count
            k += 1

    def test_independent_sort_agrees(self):
        # Sorting all small partitions by the documented keys reproduces both
        # enumerations.
        pool = [s for k in range(9) for s in partitions_of(k)]
        by_colex = sorted(pool, key=lambda s: (sum(s), len(s), tuple(-p for p in s)))
        by_canon = sorted(pool, key=lambda s: (sum(s), tuple(-p for p in s)))
        n = len(pool)
        assert enumerate_signatures(SignatureOrder.GRADED_COLEX, n) == by_colex
        assert enumerate_signatures(SignatureOrder.CANONICAL, n) == by_canon

    def test_count_validated(self):
        with pytest.raises(ValueError):
            enumerate_signatures(SignatureOrder.CANONICAL, 0)

    @pytest.mark.parametrize(
        "order, count, omega",
        [
            pytest.param(order, count, omega, id=str(order) + suffix)
            for order in SignatureOrder
            # the size budget reaches Omega = 37; 139 signatures are grades 0
            # to 10, one sequence table, and 1 050 end inside grade 17
            for count, omega, suffix in ((SIZE_BUDGET, 37, ""), (139, 10, "-139"), (1050, 17, "-1050"))
        ],
    )
    def test_equals_recursive_grades_at_size_budget(self, order, count, omega):
        # grades built from earlier grades against grades built by recursion
        sigs = enumerate_signatures(order, count)
        assert sigs == signatures_by_recursion(order, count)
        assert sum(sigs[-1]) == omega
        for k in (0, 1, 2, 5, 17, omega):
            assert partitions_of(k) == partitions_by_recursion(k)

    @pytest.mark.parametrize("order", list(SignatureOrder))
    def test_every_count_cuts_the_same_prefix(self, order):
        full = enumerate_signatures(order, 300)
        for count in range(1, 301):
            assert enumerate_signatures(order, count) == full[:count]


class TestLeastInteger:
    @pytest.mark.parametrize(
        "sig,expected",
        [((2, 1), 12), ((2, 2, 1), 180), ((), 1), ((1, 1, 1), 30), ((3, 2), 72)],
    )
    def test_examples(self, sig, expected):
        assert least_integer(sig) == expected

    def test_input_order_irrelevant(self):
        assert least_integer((1, 2, 2)) == least_integer((2, 2, 1)) == 180

    def test_overflow(self):
        # the product of the first sixteen primes, past 2^63
        assert least_integer((1,) * 16) == 32589158477190044730

    def test_square_free_after_longer_and_shorter_calls(self):
        # each call sees exactly its first len(sig) primes, whichever lengths
        # came before
        primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
        for k in (40, 3, 62, 0, 17, 62):
            assert least_integer((1,) * k) == math.prod(primes[:k])

    @pytest.mark.parametrize("k", [25, 26, 37, 3000])
    def test_square_free_past_the_trial_division_primes(self, k):
        # the 25 primes below 100, then trial division; the 3000th prime is
        # 27 449
        spf = spf_sieve_by_loops(30_000)
        primes = [n for n in range(2, 30_001) if spf[n] == n]
        assert least_integer((1,) * k) == math.prod(primes[:k])
        assert least_integer((2,) * k) == math.prod(primes[:k]) ** 2

    def test_keeps_no_state_between_calls(self):
        # in a fresh interpreter, so no earlier call has asked for the primes
        code = (
            "from divgraph import signatures as s\n"
            "before = dict(vars(s))\n"
            "s.least_integer((1,) * 3000)\n"
            "assert vars(s) == before, sorted(k for k in before if vars(s)[k] is not before[k])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(signatures.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    @given(st.integers(min_value=1, max_value=20_000))
    def test_minimal_in_class(self, n):
        li = least_integer(signature_of(n))
        assert li <= n
        assert signature_of(li) == signature_of(n)

    def test_equality_iff_least_member(self):
        by_sig = {}
        for n in range(1, 2001):
            by_sig.setdefault(signature_of(n), []).append(n)
        for sig, members in by_sig.items():
            li = least_integer(sig)
            for n in members:
                assert (li == n) == (n == min(members))


class TestKeySyntax:
    @pytest.mark.parametrize("sig", [(), (1,), (2, 1), (2, 3, 1), (10, 10)])
    def test_round_trip(self, sig):
        assert parse_signature_key(signature_key(sig)) == sig

    def test_display(self):
        assert signature_display(()) == "(0)"
        assert signature_display((3, 3)) == "(3,3)"

    @pytest.mark.parametrize("bad", ["", "2.0.1", "a.b", "-1", "2..1"])
    def test_rejects_bad_syntax(self, bad):
        with pytest.raises(ValueError):
            parse_signature_key(bad)


class TestAsSignature:
    def test_sorts_descending(self):
        assert as_signature([1, 3, 2]) == (3, 2, 1)

    @pytest.mark.parametrize("bad", [(0,), (-1,), (1.5,), (True,)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            as_signature(bad)
