"""Closed formulas: worked examples, dual-route cross-checks, and properties."""

import math
import time

import pytest
from hypothesis import given, strategies as st

from divgraph.errors import BudgetError
from divgraph.graphs import GraphKind, build_graph, level_profile
from divgraph.invariants import (
    all_invariants,
    arc_parity,
    closure_paths,
    closure_size,
    degree,
    hasse_paths,
    hasse_size,
    height,
    level_arc_counts,
    level_node_counts,
    node_parity,
    order,
    width_arcs,
    width_nodes,
)
from divgraph.signatures import partitions_of

from _corpus import oracle_corpus, small_corpus
from _reference import (
    closure_paths_double_sum,
    closure_size_by_divisor_sum,
    hasse_paths_recursive,
    level_arc_counts_by_convolution,
    level_node_counts_by_convolution,
    width_arcs_by_max,
    width_nodes_by_max,
)

signatures = st.lists(st.integers(min_value=1, max_value=5), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
shuffles = st.randoms(use_true_random=False)


class TestOrder:
    @pytest.mark.parametrize(
        "sig,expected", [((2, 1), 6), ((), 1), ((4, 4), 25), ((2, 2, 1), 18), ((2, 3, 1), 24)]
    )
    def test_examples(self, sig, expected):
        assert order(sig) == expected

    def test_overflow(self):
        assert order((2**40, 2**40)) == (2**40 + 1) ** 2


class TestHasseSize:
    @pytest.mark.parametrize(
        "sig,expected", [((2, 1), 7), ((1, 1, 1), 12), ((), 0), ((5,), 5), ((4, 4), 40)]
    )
    def test_examples(self, sig, expected):
        assert hasse_size(sig) == expected

    def test_matches_cartesian_recursion_literally(self):
        # |E(M)| = |E(M - m)| * (m + 1) + m * |V(M - m)|, peeled in any order
        def literal(sig):
            if len(sig) == 1:
                return sig[0]
            return literal(sig[:-1]) * (sig[-1] + 1) + sig[-1] * order(sig[:-1])

        for sig in [*small_corpus(8), (2**40, 2**40), (1,) * 60, (5000, 3, 3)]:
            if sig:
                assert hasse_size(sig) == literal(sig)


class TestLevels:
    def test_node_counts_worked_example(self):
        assert level_node_counts((2, 3, 1)) == [1, 3, 5, 6, 5, 3, 1]

    @pytest.mark.parametrize(
        "sig,expected", [((1,), [1, 1]), ((2,), [1, 1, 1]), ((), [1])]
    )
    def test_node_counts_trivial(self, sig, expected):
        assert level_node_counts(sig) == expected

    def test_arc_counts_worked_example(self):
        counts = level_arc_counts((2, 3, 1))
        assert counts[0] == 3
        assert max(counts) == 12
        assert counts == [3, 8, 12, 12, 8, 3]

    def test_arc_counts_trivial(self):
        assert level_arc_counts((1,)) == [1]
        assert level_arc_counts(()) == []

    def test_running_sums_equal_convolution(self):
        sigs = [p for k in range(19) for p in partitions_of(k)]
        assert len(sigs) == 1597
        sigs += [(1,) * 40, (40,), (20, 20), (5, 4, 3, 2, 1) * 3]
        for sig in sigs:
            assert level_node_counts(sig) == level_node_counts_by_convolution(sig), sig
            assert level_arc_counts(sig) == level_arc_counts_by_convolution(sig), sig

    def test_counts_equal_built_hasse_diagram(self):
        # level_profile reads the counts off the nodes and arcs of a built graph
        for sig in oracle_corpus(order_cap=300):
            profile = level_profile(build_graph(sig, GraphKind.HASSE))
            assert level_node_counts(sig) == profile.node_counts, sig
            assert level_arc_counts(sig) == profile.arc_counts, sig

    @given(signatures)
    def test_totals_and_symmetry(self, sig):
        nodes = level_node_counts(sig)
        arcs = level_arc_counts(sig)
        assert sum(nodes) == order(sig)
        assert sum(arcs) == hasse_size(sig)
        assert nodes == nodes[::-1]
        assert arcs == arcs[::-1]
        if sum(sig) >= 1:
            assert nodes[1] == nodes[-2] == len(sig)


class TestWidths:
    def test_worked_examples(self):
        assert width_nodes((2, 3, 1)) == 6
        assert width_arcs((2, 3, 1)) == 12

    def test_empty_signature_conventions(self):
        assert width_nodes(()) == 1
        assert width_arcs(()) == 0

    @given(signatures, shuffles)
    def test_peak_level_equals_max_over_levels(self, sig, rng):
        mixed = list(sig)
        rng.shuffle(mixed)
        assert width_nodes(mixed) == width_nodes_by_max(sig)
        assert width_arcs(mixed) == width_arcs_by_max(sig)

    @pytest.mark.parametrize("sig", [(1,) * 300, (3,) * 60, (40, 1), (7, 5, 5, 2)])
    def test_peak_level_equals_max_over_levels_past_the_omega_budget(self, sig):
        assert width_nodes(sig) == width_nodes_by_max(sig)
        assert width_arcs(sig) == width_arcs_by_max(sig)


class TestDegree:
    @pytest.mark.parametrize(
        "sig,expected", [((2, 3, 1), 5), ((), 0), ((2, 2), 4), ((1, 1), 2), ((7,), 2)]
    )
    def test_examples(self, sig, expected):
        assert degree(sig) == expected


class TestHassePaths:
    @pytest.mark.parametrize(
        "sig,expected", [((1, 1, 1), 6), ((3, 1), 4), ((), 1), ((2, 2), 6)]
    )
    def test_examples(self, sig, expected):
        assert hasse_paths(sig) == expected

    def test_multinomial_equals_recursion(self):
        for k in range(13):
            for sig in partitions_of(k):
                assert hasse_paths(sig) == hasse_paths_recursive(sig)

    def test_grows_factorially(self):
        assert hasse_paths((1,) * 20) == math.factorial(20)


class TestParity:
    @pytest.mark.parametrize(
        "sig,expected", [((2, 1), (3, 3)), ((), (1, 0)), ((4,), (3, 2))]
    )
    def test_node_examples(self, sig, expected):
        assert node_parity(sig) == expected

    @pytest.mark.parametrize(
        "sig,expected", [((2, 1), (4, 3)), ((), (0, 0)), ((2, 2), (6, 6))]
    )
    def test_arc_examples(self, sig, expected):
        assert arc_parity(sig) == expected

    @given(signatures)
    def test_floor_identities(self, sig):
        v_even, v_odd = node_parity(sig)
        e_even, e_odd = arc_parity(sig)
        assert v_even + v_odd == order(sig)
        assert abs(v_even - v_odd) <= 1
        assert e_even + e_odd == hasse_size(sig)
        assert abs(e_even - e_odd) <= 1


class TestClosureSize:
    @pytest.mark.parametrize(
        "sig,expected", [((2, 1), 12), ((1, 1, 1), 19), ((), 0), ((4,), 10)]
    )
    def test_examples(self, sig, expected):
        assert closure_size(sig) == expected

    def test_closed_form_equals_divisor_sum(self):
        for sig in small_corpus(8):
            assert closure_size(sig) == closure_size_by_divisor_sum(sig)

    def test_overflow(self):
        m = 2**40
        assert closure_size((m, m)) == ((m + 1) * (m + 2) // 2) ** 2 - (m + 1) ** 2

    def test_unbounded_is_exact(self):
        assert closure_size((1,) * 40) == 3**40 - 2**40
        assert all_invariants((1,) * 40).closure_size == 3**40 - 2**40


# The ordered Bell (Fubini) number a(3000) mod 10^9, from the recurrence
# a(n) = sum_{k=1..n} C(n, k) a(n - k) run on residues with Pascal's rule.
FUBINI_3000_MOD_1E9 = 515734315


class TestClosurePaths:
    @pytest.mark.parametrize(
        "sig,expected",
        [((4,), 8), ((2, 2), 26), ((1, 1, 1, 1), 75), ((), 1), ((1,), 1), ((3, 3), 252)],
    )
    def test_examples(self, sig, expected):
        assert closure_paths(sig) == expected

    def test_budget(self):
        with pytest.raises(BudgetError):
            closure_paths((1,) * 41, omega_budget=40)

    def test_squarefree_gives_fubini_numbers(self):
        # ordered set partitions: a(k) = sum_{i=1..k} C(k, i) a(k - i), a(0) = 1
        fubini = [1]
        for k in range(1, 41):
            fubini.append(sum(math.comb(k, i) * fubini[k - i] for i in range(1, k + 1)))
        for k in range(41):
            assert closure_paths((1,) * k) == fubini[k], k

    def test_prime_power_gives_compositions(self):
        for m in range(1, 41):
            assert closure_paths((m,)) == 2 ** (m - 1), m

    def test_folded_sum_equals_double_sum(self):
        sigs = [p for k in range(19) for p in partitions_of(k)]
        assert len(sigs) == 1597
        sigs += [(99,), (1,) * 40, (5, 4, 3, 2, 1) * 8]
        for sig in sigs:
            assert closure_paths(sig, omega_budget=120) == closure_paths_double_sum(sig), sig

    def test_raised_budget_finishes_within_cap(self):
        # the unfolded double sum takes about 100 s on this input
        start = time.perf_counter()
        assert closure_paths((2000,), omega_budget=5000) == 2**1999
        assert time.perf_counter() - start < 3.0

    def test_repeated_parts_step_once_per_distinct_part(self):
        # one binomial factor per distinct part, raised to its multiplicity;
        # stepping every part took about 10 s on the first input
        start = time.perf_counter()
        assert closure_paths((1,) * 3000, omega_budget=5000) % 10**9 == FUBINI_3000_MOD_1E9
        assert time.perf_counter() - start < 5.0
        for sig in [(1,) * 60, (2,) * 40, (3, 3, 3, 1, 1, 1, 1) * 6, (7, 7, 2, 2, 2, 2, 1)]:
            assert closure_paths(sig, omega_budget=120) == closure_paths_double_sum(sig), sig

    def test_literal_divisor_recursion_agrees(self):
        # f(n) = sum of f(v) over proper divisors v, computed over concrete
        # divisor sets; independent of the signature-level DP.
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def literal(n):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            if len(divisors) <= 2:
                return 1
            return sum(literal(d) for d in divisors if d < n)

        from divgraph.signatures import least_integer

        for sig in small_corpus(7):
            assert closure_paths(sig) == literal(least_integer(sig))


class TestHeightAndBundle:
    @pytest.mark.parametrize("sig,expected", [((2, 1), 3), ((), 0), ((5,), 5)])
    def test_height(self, sig, expected):
        assert height(sig) == expected

    def test_omega_budget_checked_first(self):
        # no level list of 10^9 entries and no factorial of 10^9 is built
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="Omega 1000000000 exceeds omega budget 40"):
            all_invariants((10**9,))
        assert time.perf_counter() - start < 1.0

    def test_empty_record(self):
        assert all_invariants(()).as_tuple() == (1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1)

    def test_semiprime_record(self):
        rec = all_invariants((1, 1))
        assert (rec.order, rec.hasse_size, rec.closure_paths) == (4, 4, 3)

    def test_table_column_for_12(self):
        rec = all_invariants((2, 1))
        assert rec.as_tuple() == (6, 7, 3, 2, 2, 3, 3, 3, 3, 3, 4, 3, 12, 8)

    @given(signatures, shuffles)
    def test_permutation_invariance(self, sig, rng):
        mixed = list(sig)
        rng.shuffle(mixed)
        assert all_invariants(mixed) == all_invariants(sig)

    @given(signatures)
    def test_monotonicity(self, sig):
        rec = all_invariants(sig)
        assert rec.hasse_size <= rec.closure_size
        if rec.big_omega >= 1:
            assert rec.hasse_paths <= rec.closure_paths
        assert rec.v_even + rec.v_odd == rec.order
        assert rec.e_even + rec.e_odd == rec.hasse_size
