"""Sequence tables, the three serialization formats, and b-file comparison."""

import functools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from divgraph import invariants, sequences, signatures
from divgraph.errors import BFileFormatError, BudgetError
from divgraph.invariants import all_invariants, closure_paths
from divgraph.sequences import (
    INVARIANT_FUNCS,
    EmitFormat,
    Ordering,
    compare_bfile,
    emit,
    generate,
    normalize_invariant,
    parse_bfile,
)
from divgraph.signatures import (
    SignatureOrder,
    enumerate_signatures,
    partition_count,
    signature_from_sieve,
    signature_of,
    spf_sieve,
)

from _reference import compare_bfile_by_rows, emit_by_rows, parse_bfile_by_lines
from fixtures.table_rows import NATURAL_ERRATA, NATURAL_ROWS

DATA = Path(__file__).parent / "data"


class TestGenerate:
    def test_natural_order_counts(self):
        table = generate("|V|", Ordering.NATURAL, 12)
        assert table.values() == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
        assert [e.key for e in table.entries] == list(range(1, 13))

    def test_colex_closure_paths(self):
        table = generate("|P^T|", Ordering.GRADED_COLEX, 10)
        assert table.values() == [1, 1, 2, 3, 4, 8, 13, 8, 20, 26]

    def test_arc_width_definition_wins_at_n_1(self):
        # the natural-order reference row prints 1 here; the definition
        # (and the signature-order tables) give 0
        table = generate("W_e", Ordering.NATURAL, 1)
        assert table.values() == [0]
        assert NATURAL_ROWS["We"][0] == 1
        assert NATURAL_ERRATA[("We", 1)] == 0

    def test_li_under_natural_rejected(self):
        with pytest.raises(ValueError):
            generate("LI", Ordering.NATURAL, 5)

    def test_unknown_invariant(self):
        with pytest.raises(ValueError):
            generate("XX", Ordering.NATURAL, 5)

    def test_signature_keys_start_at_zero(self):
        table = generate("V", Ordering.CANONICAL, 3)
        assert [e.key for e in table.entries] == [0, 1, 2]
        assert table.entries[0].signature == ()

    def test_values_equal_invariant_records(self):
        # the sequence layer adds no computation: every value is the
        # corresponding record field of signature_of(n)
        field_by_name = {
            "V": "order", "EH": "hasse_size", "Omega": "big_omega",
            "omega": "small_omega", "Wv": "width_nodes", "We": "width_arcs",
            "Delta": "degree", "PH": "hasse_paths", "VE": "v_even",
            "VO": "v_odd", "EE": "e_even", "EO": "e_odd",
            "ET": "closure_size", "PT": "closure_paths",
        }
        count = 2000
        tables = {
            name: generate(name, Ordering.NATURAL, count).values()
            for name in field_by_name
        }
        for n in range(1, count + 1):
            rec = all_invariants(signature_of(n))
            for name, field in field_by_name.items():
                assert tables[name][n - 1] == getattr(rec, field), (name, n)

    def test_natural_order_never_factorizes(self, monkeypatch):
        # natural order reads every signature off one sieve
        def forbidden(*args, **kwargs):
            raise AssertionError("factorize called")

        monkeypatch.setattr(signatures, "factorize", forbidden)
        for name in INVARIANT_FUNCS:
            if name != "LI":
                assert len(generate(name, Ordering.NATURAL, 500).entries) == 500

    def test_orders_agree_on_first_22(self):
        for name in ["V", "EH", "We", "PH", "LI"]:
            colex = generate(name, Ordering.GRADED_COLEX, 22).values()
            canon = generate(name, Ordering.CANONICAL, 22).values()
            assert colex == canon

    def test_signature_congruence(self):
        # equal signatures give equal invariant values; spot the published
        # congruent pair plus sieve-built classes
        assert all_invariants(signature_of(4500)) == all_invariants(signature_of(33075))
        spf = spf_sieve(10_000)
        classes = {}
        for n in range(1, 10_001):
            classes.setdefault(signature_from_sieve(n, spf), []).append(n)
        for sig, members in list(classes.items())[:60]:
            if len(members) >= 2:
                first, second = members[0], members[-1]
                assert all_invariants(signature_of(first)) == all_invariants(
                    signature_of(second)
                )


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: generate("V", Ordering.CANONICAL, 0), "count must be positive, got 0"),
            (lambda: emit(generate("V", Ordering.CANONICAL, 3), "csv"), "unknown format 'csv'"),
            (lambda: generate("V", "natural", 5), "unknown ordering 'natural'"),
            (lambda: generate("V", Ordering.NATURAL, True), "count must be an integer, got True"),
            (lambda: generate("V", Ordering.CANONICAL, 2.5), "count must be an integer, got 2.5"),
            (lambda: generate("V", Ordering.NATURAL, "5"), "count must be an integer, got '5'"),
        ],
        ids=["generate-count-0", "emit-str-format", "generate-str-ordering", "generate-bool-count",
             "generate-float-count", "generate-str-count"],
    )
    def test_error_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


class TestFixtureRows:
    @pytest.mark.parametrize("name", sorted(NATURAL_ROWS))
    def test_natural_rows(self, name):
        row = NATURAL_ROWS[name]
        computed = generate(name, Ordering.NATURAL, len(row)).values()
        for i, (ours, printed) in enumerate(zip(computed, row)):
            expected = NATURAL_ERRATA.get((name, i + 1), printed)
            assert ours == expected, f"{name} at n={i + 1}: computed {ours}, printed {printed}"


class TestEmit:
    def test_bfile_format(self):
        table = generate("V", Ordering.NATURAL, 3)
        assert emit(table, EmitFormat.BFILE) == b"1 1\n2 2\n3 2\n"

    def test_csv_natural(self):
        table = generate("V", Ordering.NATURAL, 2)
        assert emit(table, EmitFormat.CSV) == b"key,value\n1,1\n2,2\n"

    def test_csv_signature_column(self):
        table = generate("V", Ordering.GRADED_COLEX, 3)
        assert emit(table, EmitFormat.CSV) == (
            b"key,signature,value\n0,0,1\n1,1,2\n2,2,3\n"
        )

    def test_json_last_colex_hasse_paths(self):
        table = generate("|P^H|", Ordering.GRADED_COLEX, 30)
        payload = json.loads(emit(table, EmitFormat.JSON))
        assert payload["invariant"] == "PH"
        assert payload["ordering"] == "colex"
        assert payload["entries"][-1]["value"] == 720
        assert payload["entries"][-1]["signature"] == [1, 1, 1, 1, 1, 1]

    def test_bfile_round_trip(self):
        for name in ["V", "PT", "We"]:
            for ordering in Ordering:
                if name == "LI" and ordering is Ordering.NATURAL:
                    continue
                table = generate(name, ordering, 40)
                parsed = parse_bfile(emit(table, EmitFormat.BFILE))
                assert parsed == [(e.key, e.value) for e in table.entries]

    def test_empty_table_emits_bare_header(self):
        from divgraph.sequences import SequenceTable

        empty = SequenceTable(invariant="V", ordering=Ordering.NATURAL, value_column=[])
        assert emit(empty, EmitFormat.CSV) == b"key,value\n"
        assert emit(empty, EmitFormat.BFILE) == b""
        assert emit(empty, EmitFormat.JSON) == b'{"invariant": "V", "ordering": "natural", "entries": []}'
        # an empty signature-order table, and a hand-built signature column
        # with () past the first row and tuples that are not canonical
        tables = [
            empty,
            SequenceTable("V", Ordering.GRADED_COLEX, [], []),
            SequenceTable("PT", Ordering.CANONICAL, [3, 1, 8, 26], [(1, 1), (), (1, 3), (1, 2, 1, 1)]),
        ]
        for table in tables:
            for fmt in EmitFormat:
                assert emit(table, fmt) == emit_by_rows(table, fmt), (table, fmt)
        assert emit(tables[2], EmitFormat.CSV).splitlines()[2:4] == [b"1,0,1", b"2,1.3,8"]


class TestParseBFile:
    def test_tolerates_comments_and_whitespace(self):
        pairs = parse_bfile(b"# header\n\n  1 5\n2 7\n")
        assert pairs == [(1, 5), (2, 7)]

    def test_rejects_garbage_with_line_number(self):
        with pytest.raises(BFileFormatError) as excinfo:
            parse_bfile(b"1 5\nnot a line\n")
        assert excinfo.value.line_number == 2

    def test_rejects_non_increasing(self):
        with pytest.raises(BFileFormatError):
            parse_bfile(b"2 5\n2 6\n")

    def test_rejects_empty(self):
        with pytest.raises(BFileFormatError):
            parse_bfile(b"# nothing\n")

    # each error kind after two comment lines and two blank ones, so that
    # the reported line counts every physical line
    PREAMBLE = b"# A000005\n\n  # indented comment\n   \n1 1\n2 2\n"

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            (b"3 2 7", "line 7: expected 'index value', got '3 2 7'"),
            (b"3", "line 7: expected 'index value', got '3'"),
            (b"3 two", "line 7: non-integer field in '3 two'"),
            (b"x 2", "line 7: non-integer field in 'x 2'"),
            (b"2 9", "line 7: index 2 not increasing"),
            (b"1 9", "line 7: index 1 not increasing"),
        ],
    )
    def test_error_line_numbers_count_comments_and_blanks(self, bad_line, message):
        with pytest.raises(BFileFormatError) as excinfo:
            parse_bfile(self.PREAMBLE + bad_line + b"\n4 4\n")
        assert excinfo.value.line_number == 7
        assert str(excinfo.value) == message

    def test_first_error_wins(self):
        # a non-increasing index on line 2 comes before three fields on line 3
        with pytest.raises(BFileFormatError) as excinfo:
            parse_bfile(b"5 1\n5 2\n6 1 1\n")
        assert str(excinfo.value) == "line 2: index 5 not increasing"

    def test_only_comments_and_blanks(self):
        with pytest.raises(BFileFormatError) as excinfo:
            parse_bfile(b"# one\n\n   \n# two\n")
        assert excinfo.value.line_number == 1
        assert str(excinfo.value) == "line 1: no data lines"

    def test_crlf_and_trailing_spaces(self):
        data = b"# header \r\n\r\n1 5  \r\n 2\t7\t\r\n3 -1\r\n"
        assert parse_bfile(data) == [(1, 5), (2, 7), (3, -1)]
        assert parse_bfile(data.replace(b"\r\n", b"\n")) == [(1, 5), (2, 7), (3, -1)]

    def test_crlf_error_keeps_line_number(self):
        with pytest.raises(BFileFormatError) as excinfo:
            parse_bfile(b"# h\r\n1 5\r\n2 x \r\n")
        assert excinfo.value.line_number == 3
        assert str(excinfo.value) == "line 3: non-integer field in '2 x '"


class TestCompare:
    def test_divisor_count_reference(self):
        table = generate("V", Ordering.NATURAL, 40)
        report = compare_bfile(table, (DATA / "b000005.txt").read_bytes())
        assert report.full_match
        assert report.offset_shift == 0
        assert report.matched_prefix == 40

    def test_offset_zero_reference(self):
        # the perfect-partition reference counts from 0, one below our keys
        table = generate("PT", Ordering.NATURAL, 40)
        report = compare_bfile(table, (DATA / "b002033.txt").read_bytes())
        assert report.full_match
        assert report.offset_shift == -1

    def test_corruption_detected_at_key(self):
        table = generate("V", Ordering.NATURAL, 40)
        lines = (DATA / "b000005.txt").read_text().splitlines()
        lines[12] = "12 99"  # key 12 after the comment line
        report = compare_bfile(table, ("\n".join(lines) + "\n").encode())
        assert not report.full_match
        assert report.first_mismatch == (12, 6, 99)
        assert report.matched_prefix == 11


class TestNormalize:
    @pytest.mark.parametrize(
        "alias,key",
        [
            ("|V|", "V"),
            ("V", "V"),
            ("|E^H|", "EH"),
            ("W_e", "We"),
            ("Omega", "Omega"),
            ("omega", "omega"),
            ("bigomega", "Omega"),
            ("|P^T|", "PT"),
            ("li", "LI"),
        ],
    )
    def test_aliases(self, alias, key):
        assert normalize_invariant(alias) == key

    # every spelling accepted besides the exact keys, matched case-insensitively
    SPELLINGS = {
        "|v|": "V", "v": "V",
        "|e^h|": "EH", "e^h": "EH", "eh": "EH",
        "bigomega": "Omega", "smallomega": "omega",
        "w_v": "Wv", "wv": "Wv", "w_e": "We", "we": "We",
        "delta": "Delta", "d": "Delta",
        "|p^h|": "PH", "p^h": "PH", "ph": "PH",
        "|v_e|": "VE", "v_e": "VE", "ve": "VE",
        "|v_o|": "VO", "v_o": "VO", "vo": "VO",
        "|e_e|": "EE", "e_e": "EE", "ee": "EE",
        "|e_o|": "EO", "e_o": "EO", "eo": "EO",
        "|e^t|": "ET", "e^t": "ET", "et": "ET",
        "|p^t|": "PT", "p^t": "PT", "pt": "PT",
        "li": "LI",
    }

    @pytest.mark.parametrize("spelling,key", sorted(SPELLINGS.items()))
    def test_every_spelling_any_case(self, spelling, key):
        assert normalize_invariant(spelling) == key
        assert normalize_invariant(spelling.upper()) == key
        assert normalize_invariant(spelling.title()) == key

    @pytest.mark.parametrize(
        "key", ["V", "EH", "Omega", "omega", "Wv", "We", "Delta", "PH",
                "VE", "VO", "EE", "EO", "ET", "PT", "LI"]
    )
    def test_exact_keys(self, key):
        assert normalize_invariant(key) == key

    @pytest.mark.parametrize("name", ["OMEGA", "oMega", "XX", "height", "", "|v"])
    def test_rejected(self, name):
        with pytest.raises(ValueError, match="unknown invariant"):
            normalize_invariant(name)


# Every row in every order it exists in, at the benchmark's sizes (139
# signatures with Omega <= 10, 1500 natural-order rows) and at 1 and 2.  By
# the 1500th signature the least integer is past 2^63, and stays exact.
TABLE_CASES = [
    (name, ordering, count)
    for name in INVARIANT_FUNCS
    for ordering in Ordering
    if not (name == "LI" and ordering is Ordering.NATURAL)
    for count in (1, 2, 139, 1500)
]


def _case_id(case):
    name, ordering, count = case
    return f"{name}-{ordering.value}-{count}"


class TestColumnsEqualRowByRow:
    """The column serializers and comparison against the row-by-row ones."""

    @pytest.mark.parametrize("case", TABLE_CASES, ids=_case_id)
    def test_emit_byte_identical(self, case):
        table = generate(*case)
        for fmt in EmitFormat:
            assert emit(table, fmt) == emit_by_rows(table, fmt), fmt

    @pytest.mark.parametrize("case", TABLE_CASES, ids=_case_id)
    def test_compare_reports_equal(self, case):
        table = generate(*case)
        own = emit(table, EmitFormat.BFILE)
        lines = own.decode().splitlines()
        middle = len(lines) // 2
        key, _ = lines[middle].split()
        corrupted = lines[:middle] + [f"{key} -7"] + lines[middle + 1 :]
        references = {
            "full match": own,
            "corrupted": ("\n".join(corrupted) + "\n").encode(),
            "offset shifted": (DATA / "b002033.txt").read_bytes(),
            "shorter": ("\n".join(lines[: max(1, len(lines) // 3)]) + "\n").encode(),
        }
        for label, reference in references.items():
            assert compare_bfile(table, reference) == compare_bfile_by_rows(table, reference), label
        assert compare_bfile(table, own).full_match

    @pytest.mark.parametrize(
        "data",
        [
            b"# A\n\n1 5\n2 7\n",
            b"1 5\r\n 2\t7 \r\n",
            b"0 1\n1 -2\n10 3\n",
            b"1 +5\n2 1_000\n",
            b"1 5\n2 5 5\n",
            b"1 5\n2\n",
            b"1 5\n2 x\n",
            b"1 5\n1 6\n",
            b"3 5\n2 6\n",
            b"1 5\n# 2\n2 6 #\n",
            b"",
            b"# only\n",
            b"\xff 1\n",
        ],
    )
    def test_parse_equals_line_by_line(self, data):
        try:
            expected = parse_bfile_by_lines(data)
        except BFileFormatError as exc:
            with pytest.raises(BFileFormatError) as excinfo:
                parse_bfile(data)
            assert (str(excinfo.value), excinfo.value.line_number) == (str(exc), exc.line_number)
        else:
            assert parse_bfile(data) == expected

    def test_hot_path_builds_no_entries(self, monkeypatch):
        expected = {}

        def forbidden(*args, **kwargs):
            raise AssertionError("SequenceEntry built on the hot path")

        with monkeypatch.context() as patched:
            patched.setattr(sequences, "SequenceEntry", forbidden)
            table = generate("V", Ordering.NATURAL, 1500)
            for fmt in EmitFormat:
                expected[fmt] = emit(table, fmt)
            report = compare_bfile(table, (DATA / "b000005.txt").read_bytes())
            assert report.full_match and report.overlap == 40
            with pytest.raises(AssertionError, match="hot path"):
                table.entries
        # asked for, the rows are built and equal the row-by-row reference's view
        entries = table.entries
        assert [(e.key, e.value, e.signature) for e in entries] == [
            (n, v, None) for n, v in zip(range(1, 1501), table.values())
        ]
        for fmt in EmitFormat:
            assert emit_by_rows(table, fmt) == expected[fmt]


# The first signature-order counts that end a grade, for Omega = 0..10.
GRADE_ENDS = [sum(map(partition_count, range(k + 1))) for k in range(11)]
SIGNATURE_ORDERS = [Ordering.GRADED_COLEX, Ordering.CANONICAL]
COLUMN_CASES = [
    (name, ordering, count)
    for name in INVARIANT_FUNCS
    for ordering in SIGNATURE_ORDERS
    for count in sorted({1, 2, *GRADE_ENDS})
] + [(name, ordering, 20_000) for name in ("Wv", "We", "PT", "LI") for ordering in SIGNATURE_ORDERS]


class TestSignatureOrderColumns:
    """Every signature-order column against its row function, one call per row."""

    @pytest.mark.parametrize("case", COLUMN_CASES, ids=_case_id)
    def test_column_equals_row_function(self, case):
        name, ordering, count = case
        table = generate(name, ordering, count)
        sigs = enumerate_signatures(SignatureOrder(ordering.value), count)
        assert table.signature_column == sigs
        assert table.value_column == list(map(INVARIANT_FUNCS[name], sigs))

    def test_grade_ends(self):
        assert GRADE_ENDS == [1, 2, 4, 7, 12, 19, 30, 45, 67, 97, 139]

    @pytest.mark.parametrize("ordering", SIGNATURE_ORDERS, ids=lambda o: o.value)
    @pytest.mark.parametrize("name", list(INVARIANT_FUNCS))
    def test_no_check_per_row(self, name, ordering, signature_checks):
        # the enumerated signatures are canonical, so no row checks its own
        assert len(generate(name, ordering, 139).value_column) == 139
        assert signature_checks == []

    @pytest.mark.parametrize("ordering", SIGNATURE_ORDERS, ids=lambda o: o.value)
    @pytest.mark.parametrize("count", [1, 29, 30, 31, 44, 45, 46, 67])
    def test_closure_paths_budget_raises_where_rows_would(self, ordering, count, monkeypatch):
        # a budget of 6 admits grades 0..6, which end at count 30; the
        # column checks the default budget, lowered here to 6
        sigs = enumerate_signatures(SignatureOrder(ordering.value), count)
        column = invariants.COLUMNS["PT"]
        monkeypatch.setattr(invariants, "DEFAULT_OMEGA_BUDGET", 6)
        try:
            expected = [closure_paths(sig, omega_budget=6) for sig in sigs]
        except BudgetError:
            assert count > 30
            with pytest.raises(BudgetError, match="exceeds omega budget 6"):
                column(sigs)
        else:
            assert count <= 30
            assert column(sigs) == expected


NATURAL_KEYS = [name for name in INVARIANT_FUNCS if name != "LI"]


class TestNaturalColumns:
    """Every natural-order column against its row function read at each n."""

    @pytest.mark.parametrize("name", NATURAL_KEYS)
    def test_column_equals_per_n_route(self, name):
        func = functools.cache(INVARIANT_FUNCS[name])  # keeps the 10^4 reads fast
        spf = spf_sieve(10_000)
        expected = [func(signature_from_sieve(n, spf)) for n in range(1, 10_001)]
        assert generate(name, Ordering.NATURAL, 10_000).value_column == expected

    @pytest.mark.parametrize("name", NATURAL_KEYS)
    def test_row_function_called_once_per_signature(self, monkeypatch, name):
        # a row with a column builds it in one call over the class
        # signatures and never calls its row function
        calls = Counter()
        column_calls = []
        func = INVARIANT_FUNCS[name]
        column = invariants.COLUMNS.get(name)

        def counted(sig):
            calls[sig] += 1
            return func(sig)

        def counted_column(sigs):
            column_calls.append(Counter(sigs))
            return column(sigs)

        monkeypatch.setitem(INVARIANT_FUNCS, name, counted)
        if column is not None:
            monkeypatch.setitem(invariants.COLUMNS, name, counted_column)
        generate(name, Ordering.NATURAL, 1500)
        spf = spf_sieve(1500)
        distinct = {signature_from_sieve(n, spf) for n in range(1, 1501)}
        assert len(distinct) == 45
        if column is None:
            assert calls == Counter(distinct) and column_calls == []
        else:
            assert calls == Counter() and column_calls == [Counter(distinct)]

    @pytest.mark.parametrize("name", sorted(invariants.COLUMNS))
    def test_columns_take_any_list_closed_under_dropping_the_smallest_part(self, name):
        # the natural classes, and a shuffled order in which every signature
        # comes after the one without its smallest part
        column, func = invariants.COLUMNS[name], INVARIANT_FUNCS[name]
        sigs = signatures.natural_classes(10**5)[1]
        assert column(sigs) == list(map(func, sigs))
        rng = random.Random(18)
        rank = {(): 0.0}
        for sig in sorted(sigs, key=len)[1:]:  # a random rank, never below the parent's
            rank[sig] = max(rank[sig[:-1]], rng.random())
        shuffled = sorted(sigs, key=lambda sig: (rank[sig], len(sig)))
        assert shuffled != sorted(sigs, key=len) and shuffled != sigs
        assert column(shuffled) == list(map(func, shuffled))
