"""Closed formulas: worked examples, dual-route cross-checks, and properties."""

import math
import sys
import time

import pytest
from hypothesis import given, strategies as st

from divgraph import invariants
from divgraph.errors import BudgetError
from divgraph.graphs import GraphKind, build_graph, level_profile
from divgraph.invariants import (
    TABLE,
    all_invariants,
    arc_parity,
    closure_paths,
    closure_size,
    degree,
    hasse_paths,
    hasse_size,
    level_counts,
    node_parity,
    order,
    width_arcs,
    width_nodes,
)
from divgraph.signatures import least_integer, partitions_of

from _corpus import oracle_corpus, small_corpus
from _reference import (
    closure_paths_double_sum,
    level_arc_counts_by_convolution,
    level_arc_counts_by_lowering,
    level_chain_by_running_sums,
    level_node_counts_by_convolution,
    times_chain,
    width_arcs_by_max,
    width_nodes_by_max,
)

signatures = st.lists(st.integers(min_value=1, max_value=5), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
shuffles = st.randoms(use_true_random=False)


def _graph_size(parts):
    """Node and arc counts of the Hasse diagram, which keeps the parts' order."""
    g = build_graph(parts, GraphKind.HASSE)
    return len(g.nodes), len(g.arcs)


# Every public function of a signature: the ones behind the TABLE rows, and
# the others that take one.
PUBLIC = {
    "order": order,
    "hasse_size": hasse_size,
    "width_nodes": width_nodes,
    "width_arcs": width_arcs,
    "degree": degree,
    "hasse_paths": hasse_paths,
    "node_parity": node_parity,
    "arc_parity": arc_parity,
    "closure_size": closure_size,
    "closure_paths": closure_paths,
    "level_counts": level_counts,
    "least_integer": least_integer,
    "build_graph": _graph_size,
}


class TestInputChecks:
    """The public functions check their input, however the formulas behind
    them share it."""

    @pytest.mark.parametrize("bad", [(0,), (-1,), (True,), (1.5,), ("1",), (2, 0, 1)], ids=repr)
    @pytest.mark.parametrize("name", list(PUBLIC))
    def test_bad_parts_raise(self, name, bad):
        with pytest.raises(ValueError) as info:
            PUBLIC[name](bad)
        assert str(info.value) == f"signature parts must be positive integers, got {bad!r}"

    @pytest.mark.parametrize("name", list(PUBLIC))
    def test_any_order_and_iterable(self, name):
        func = PUBLIC[name]
        expected = func((3, 2, 1))
        assert func((1, 3, 2)) == func([2, 1, 3]) == func(iter((1, 2, 3))) == expected

    @pytest.mark.parametrize("name", [name for name in PUBLIC if name != "build_graph"])
    def test_public_form_keeps_its_name_and_docstring(self, name):
        func = PUBLIC[name]
        assert func.__name__ == name and func.__doc__
        assert getattr(sys.modules[func.__module__], name) is func

    @pytest.mark.parametrize("sig", [(), (2, 1), (1, 3, 2), (1,) * 30])
    def test_all_invariants_checks_once(self, sig, signature_checks):
        all_invariants(sig)
        assert signature_checks == [tuple(sorted(sig, reverse=True))]


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
        assert level_counts((2, 3, 1))[0] == [1, 3, 5, 6, 5, 3, 1]

    @pytest.mark.parametrize(
        "sig,expected", [((1,), [1, 1]), ((2,), [1, 1, 1]), ((), [1])]
    )
    def test_node_counts_trivial(self, sig, expected):
        assert level_counts(sig)[0] == expected

    def test_arc_counts_worked_example(self):
        counts = level_counts((2, 3, 1))[1]
        assert counts[0] == 3
        assert max(counts) == 12
        assert counts == [3, 8, 12, 12, 8, 3]

    def test_arc_counts_trivial(self):
        assert level_counts((1,))[1] == [1]
        assert level_counts(())[1] == []

    def test_running_sums_equal_convolution(self):
        sigs = [p for k in range(19) for p in partitions_of(k)]
        assert len(sigs) == 1597
        sigs += [(1,) * 40, (40,), (20, 20), (5, 4, 3, 2, 1) * 3]
        for sig in sigs:
            expected = level_node_counts_by_convolution(sig), level_arc_counts_by_convolution(sig)
            assert level_counts(sig) == expected, sig

    def test_counts_equal_built_hasse_diagram(self):
        # level_profile reads the counts off the nodes and arcs of a built graph
        for sig in oracle_corpus(order_cap=300):
            profile = level_profile(build_graph(sig, GraphKind.HASSE))
            assert level_counts(sig) == (profile.node_counts, profile.arc_counts), sig

    @pytest.mark.parametrize("sig", [(1,) * 300, (2,) * 100 + (1,) * 100, (3,) * 60, (40, 1)])
    def test_arc_counts_equal_lowered_rank_sequences_past_the_omega_budget(self, sig):
        # long runs of 1s take the recurrence's shortcut for a part of 1
        assert level_counts(sig)[1] == level_arc_counts_by_lowering(sig)

    @given(signatures)
    def test_totals_and_symmetry(self, sig):
        nodes, arcs = level_counts(sig)
        assert sum(nodes) == order(sig)
        assert sum(arcs) == hasse_size(sig)
        assert nodes == nodes[::-1]
        assert arcs == arcs[::-1]
        if sum(sig) >= 1:
            assert nodes[1] == nodes[-2] == len(sig)


def _assert_rows_equal_running_sums(sig):
    """Check the four row functions against the list running-sum route;
    return the (W_v, W_e) pair checked."""
    nodes, arcs = level_chain_by_running_sums(sig)
    omega = len(nodes) - 1
    widths = nodes[omega // 2], arcs[(omega - 1) // 2] if omega else 0
    assert level_counts(sig) == (nodes, arcs)
    assert (width_nodes(sig), width_arcs(sig)) == widths
    return widths


def _assert_columns_equal_prefix_widths(sig):
    # the prefixes of a signature are closed under dropping the smallest part
    prefixes = [sig[:i] for i in range(len(sig) + 1)]
    state = ([1], [])
    node_widths, arc_widths = [1], [0]
    for m in sig:
        state = times_chain(state, m)
        nodes, arcs = state
        node_widths.append(nodes[(len(nodes) - 1) // 2])
        arc_widths.append(arcs[(len(arcs) - 1) // 2])
    assert invariants.COLUMNS["Wv"](prefixes) == node_widths
    assert invariants.COLUMNS["We"](prefixes) == arc_widths


LONG_SHAPES = [(1,) * 300, (2,) * 200 + (1,) * 200, tuple(range(60, 0, -1)), (5528, 5528), (14290,)]


class TestPackedFolds:
    """The packed folds and columns against the list running-sum route."""

    def test_rows_and_columns_equal_running_sums_up_to_omega_20(self):
        sigs = [p for k in range(21) for p in partitions_of(k)]
        assert len(sigs) == 2714
        node_widths, arc_widths = map(list, zip(*map(_assert_rows_equal_running_sums, sigs)))
        assert invariants.COLUMNS["Wv"](sigs) == node_widths
        assert invariants.COLUMNS["We"](sigs) == arc_widths

    @pytest.mark.parametrize("sig", LONG_SHAPES, ids=lambda sig: f"{len(sig)}-parts-from-{sig[0]}")
    def test_rows_and_columns_equal_running_sums_on_long_shapes(self, sig):
        _assert_rows_equal_running_sums(sig)
        _assert_columns_equal_prefix_widths(sig)

    @pytest.mark.parametrize(
        "sig,size",
        [((), 8), ((1,), 8), ((1,) * 58, 8), ((1,) * 59, 9), ((14290,), 8)],
        ids=["empty", "one", "58-ones", "59-ones", "one-long-part"],
    )
    def test_digit_width_holds_parts_times_nodes(self, sig, size):
        # a digit holds w |V|: 58 * 2^58 < 2^64 <= 59 * 2^59; a single long
        # part needs small digits, but many of them
        assert invariants._digit_bytes([sig], sum(sig)) == size
        _assert_rows_equal_running_sums(sig)
        _assert_columns_equal_prefix_widths(sig)

    def test_column_width_comes_from_the_largest_bound(self):
        ones = [(1,) * k for k in range(60)]
        assert invariants._digit_bytes(ones[:59], 58) == 8
        assert invariants._digit_bytes(ones, 59) == invariants._digit_bytes(ones[::-1], 59) == 9


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
        assert all_invariants(sig).big_omega == expected

    def test_omega_budget_checked_first(self):
        # no level list of 10^9 entries and no factorial of 10^9 is built
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="Omega 1000000000 exceeds omega budget 62"):
            all_invariants((10**9,))
        assert time.perf_counter() - start < 1.0

    def test_every_64_bit_class_answers_at_the_default_budget(self):
        # a DFS over parts m_1 >= m_2 >= ..., the k-th part on the k-th
        # prime, that stops once the least integer passes 2^63 - 1
        limit, primes = 2**63 - 1, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        classes, stack = [], [((), 1)]
        while stack:
            sig, value = stack.pop()
            classes.append(sig)
            p, top = primes[len(sig)], sig[-1] if sig else 63
            for m in range(1, top + 1):
                value_m = value * p**m
                if value_m > limit:
                    break
                stack.append(((*sig, m), value_m))
        over = [sig for sig in classes if sum(sig) > 40]
        assert (len(classes), len(over), max(map(sum, over))) == (43_607, 6_825, 62)
        # the classes are closed under dropping the smallest part, so the
        # PT column, which checks the default budget too, covers them all
        column = dict(zip(classes, invariants.COLUMNS["PT"](classes)))
        for sig in over:
            record = all_invariants(sig)
            assert (record.big_omega, record.closure_paths) == (sum(sig), column[sig])

    @pytest.mark.parametrize("sig", [(), (1,), (2, 3, 1), (1,) * 300])
    def test_one_level_fold_per_record(self, sig, monkeypatch):
        # W_v and W_e are both read off a single (P, A) fold
        calls = []
        fold = invariants._level_counts
        monkeypatch.setattr(invariants, "_level_counts", lambda sig: calls.append(sig) or fold(sig))
        rec = all_invariants(sig, omega_budget=300)
        assert len(calls) == 1
        assert (rec.width_nodes, rec.width_arcs) == (width_nodes(sig), width_arcs(sig))

    def test_record_equals_row_functions_up_to_omega_20(self):
        sigs = [p for k in range(21) for p in partitions_of(k)]
        assert len(sigs) == 2714
        for sig in sigs:
            assert all_invariants(sig).as_tuple() == tuple(func(sig) for _, _, func, _ in TABLE), sig

    def test_empty_record(self):
        assert all_invariants(()).as_tuple() == (1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1)

    def test_semiprime_record(self):
        rec = all_invariants((1, 1))
        assert (rec.order, rec.hasse_size, rec.closure_paths) == (4, 4, 3)

    def test_table_column_for_12(self):
        rec = all_invariants((2, 1))
        assert rec.as_tuple() == (6, 7, 3, 2, 2, 3, 3, 3, 3, 3, 4, 3, 12, 8)

    @pytest.mark.parametrize("sig", [(), (2, 1), (5, 3, 3, 1), (2000,)])
    def test_record_views(self, sig):
        rec = all_invariants(sig, omega_budget=2000)
        fields = [field for _, field, _, _ in TABLE]
        assert rec.as_tuple() == tuple(getattr(rec, field) for field in fields)
        as_dict = rec.as_dict()
        assert list(as_dict) == fields
        assert all(as_dict[field] is getattr(rec, field) for field in fields)
        assert type(rec)(**as_dict) == rec
        assert repr(rec).startswith(f"InvariantRecord(order={rec.order}, hasse_size=")

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
