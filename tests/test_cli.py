"""Subcommand behavior, exit codes, and output determinism."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from _reference import parse_by_top_level_parser

import divgraph
from divgraph import cli, conjectures, graphs, invariants, kernels, sequences, signatures
from divgraph.cli import main
from divgraph.signatures import SIZE_BUDGET

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariants:
    def test_by_n(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "12")
        assert code == 0
        assert "V = 6" in out
        assert "EH = 7" in out
        assert "PT = 8" in out
        assert "signature = 2.1" in out

    def test_by_signature_unsorted_bounds(self, capsys):
        code, out, _ = run(capsys, "invariants", "--sig", "2.3.1")
        assert code == 0
        assert "Delta = 5" in out
        assert "Wv = 6" in out
        assert "We = 12" in out
        assert "LI = 360" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "1")
        assert code == 0
        assert "V = 1" in out
        assert "We = 0" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "invariants", "--n", "540", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["Delta"] == 5
        assert payload["signature"] == "3.2.1"
        assert payload["n"] == 540

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["--n", "540"],
                "V = 24\nEH = 46\nOmega = 6\nomega = 3\nWv = 6\nWe = 12\nDelta = 5\nPH = 60\n"
                "VE = 12\nVO = 12\nEE = 23\nEO = 23\nET = 156\nPT = 604\nheight = 6\n"
                "n = 540\nsignature = 3.2.1\n",
            ),
            (
                ["--sig", "2.3.1"],
                "V = 24\nEH = 46\nOmega = 6\nomega = 3\nWv = 6\nWe = 12\nDelta = 5\nPH = 60\n"
                "VE = 12\nVO = 12\nEE = 23\nEO = 23\nET = 156\nPT = 604\nheight = 6\n"
                "signature = 3.2.1\nLI = 360\n",
            ),
            (
                ["--n", "540", "--format", "json"],
                '{"V": 24, "EH": 46, "Omega": 6, "omega": 3, "Wv": 6, "We": 12, "Delta": 5, '
                '"PH": 60, "VE": 12, "VO": 12, "EE": 23, "EO": 23, "ET": 156, "PT": 604, '
                '"height": 6, "n": 540, "signature": "3.2.1"}\n',
            ),
            (
                ["--sig", "2.3.1", "--format", "json"],
                '{"V": 24, "EH": 46, "Omega": 6, "omega": 3, "Wv": 6, "We": 12, "Delta": 5, '
                '"PH": 60, "VE": 12, "VO": 12, "EE": 23, "EO": 23, "ET": 156, "PT": 604, '
                '"height": 6, "signature": "3.2.1", "LI": 360}\n',
            ),
        ],
        ids=["n-text", "sig-text", "n-json", "sig-json"],
    )
    def test_full_output_factors_n_once(self, capsys, monkeypatch, argv, stdout):
        calls = []
        original = signatures.factorize

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(signatures, "factorize", counting)
        monkeypatch.setattr(cli, "factorize", counting)
        assert run(capsys, "invariants", *argv) == (0, stdout, "")
        assert len(calls) == (1 if argv[0] == "--n" else 0)

    @pytest.mark.parametrize(
        "n, signature, V",
        [(9223372036854775783, "1", 2), (3037000453 * 3037000493, "1.1", 4)],
        ids=["largest-63-bit-prime", "balanced-semiprime"],
    )
    def test_any_63_bit_n_within_cap(self, capsys, n, signature, V):
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--n", str(n), "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["n"], payload["signature"], payload["V"]) == (n, signature, V)

    def test_least_integer_beyond_64_bits_is_exact(self, capsys):
        argv = ("invariants", "--sig", "80", "--omega-budget", "100")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.endswith("signature = 80\nLI = 1208925819614629174706176\n")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["LI"] == 2**80

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_integers_past_the_digit_limit_print_exactly(self, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        argv = ("invariants", "--sig", "14290", "--omega-budget", "20000", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            if fmt == "json":
                values = json.loads(out)
            else:
                values = dict(line.split(" = ") for line in out.splitlines())
            li, pt = int(values["LI"]), int(values["PT"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert (li, pt) == (2**14290, 2**14289)

    def test_closure_size_past_64_bits_is_exact(self, capsys):
        # forty 1s fit the default omega budget; ET = 3^40 - 2^40 > 2^63
        sig = ".".join(["1"] * 40)
        code, out, err = run(capsys, "invariants", "--sig", sig)
        assert (code, err) == (0, "")
        assert f"ET = {3**40 - 2**40}\n" in out
        code, out, err = run(capsys, "invariants", "--sig", sig, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["ET"] == 3**40 - 2**40

    def test_omega_over_budget_refused_up_front(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", "--sig", "3000000")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert "Omega 3000000 exceeds omega budget 62" in err

    def test_every_64_bit_n_fits_the_default_omega_budget(self, capsys):
        # 2^62 has the largest Omega of any n below 2^63
        code, out, err = run(capsys, "invariants", "--n", str(2**62))
        assert (code, err) == (0, "")
        assert "PT = 2305843009213693952\n" in out

    def test_bad_signature_syntax(self, capsys):
        code, _, err = run(capsys, "invariants", "--sig", "2.x.1")
        assert code == 1
        assert "error" in err

    def test_n_and_sig_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["invariants", "--n", "12", "--sig", "2.1"])
        assert excinfo.value.code == 2

    def test_omega_budget_flag_beats_environment(self, capsys, monkeypatch):
        # 2.3 has Omega 5; only the flag bounds it, whatever the environment holds
        monkeypatch.setenv("DIVGRAPH_OMEGA_BUDGET", "3")
        code, out, _ = run(capsys, "invariants", "--sig", "2.3", "--omega-budget", "5")
        assert code == 0
        assert "PT = 76" in out
        monkeypatch.setenv("DIVGRAPH_OMEGA_BUDGET", "40")
        code, out, err = run(capsys, "invariants", "--sig", "2.3", "--omega-budget", "3")
        assert (code, out) == (1, "")
        assert "Omega 5 exceeds omega budget 3" in err

    def test_out_of_range_n(self, capsys):
        code, _, err = run(capsys, "invariants", "--n", "0")
        assert code == 1
        assert "error" in err


class TestSequence:
    def test_natural_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--inv", "V", "--order", "natural", "--count", "12",
            "--format", "csv",
        )
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        assert values == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]

    def test_natural_csv_full_reference_row(self, capsys):
        from fixtures.table_rows import NATURAL_ROWS

        code, out, _ = run(
            capsys, "sequence", "--inv", "V", "--order", "natural", "--count", "50",
            "--format", "csv",
        )
        assert code == 0
        values = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
        row = NATURAL_ROWS["V"]
        assert values[: len(row)] == row[:50]

    def test_li_canonical_json_ends_210(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--inv", "LI", "--order", "canonical", "--count", "12",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][-1]["value"] == 210

    def test_li_past_2_63_is_exact(self, capsys):
        code, out, err = run(
            capsys, "sequence", "--inv", "LI", "--order", "canonical", "--count", "916",
            "--format", "bfile",
        )
        assert (code, err) == (0, "")
        values = dict(line.split() for line in out.splitlines())
        assert values["914"] == "32589158477190044730"
        code, out, _ = run(capsys, "invariants", "--sig", ".".join(["1"] * 16))
        assert code == 0
        assert f"LI = {values['914']}\n" in out

    def test_li_natural_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sequence", "--inv", "LI", "--order", "natural")
        assert code == 1
        assert "error" in err

    def test_deterministic_output(self, capsys):
        args = ("sequence", "--inv", "PT", "--order", "colex", "--count", "30",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sequence", "--inv", "V", "--frobnicate"])
        assert excinfo.value.code == 2


class TestGraph:
    def test_dot_hasse_20(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "20", "--kind", "hasse",
                           "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 6
        assert out.count("->") == 7

    def test_closure_20_has_12_arcs(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "20", "--kind", "closure",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["arcs"]) == 12

    def test_single_node(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "1", "--kind", "hasse",
                           "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 1
        assert "->" not in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "graph", "--sig", "99.99.99",
                           "--node-budget", "1000")
        assert code == 1
        assert "budget" in err

    def test_budget_flag_beats_environment(self, capsys, monkeypatch):
        # the Hasse diagram of 2.1 has 6 nodes
        monkeypatch.setenv("DIVGRAPH_NODE_BUDGET", "3")
        code, out, _ = run(capsys, "graph", "--sig", "2.1", "--node-budget", "6")
        assert code == 0
        assert out.count("[label=") == 6
        monkeypatch.setenv("DIVGRAPH_NODE_BUDGET", "1000")
        code, out, err = run(capsys, "graph", "--sig", "2.1", "--node-budget", "3")
        assert (code, out) == (1, "")
        assert "budget 3" in err

    def test_closure_over_arc_budget_refused_before_building(self, capsys, monkeypatch):
        def refuse(bounds):
            raise AssertionError("built a graph over the arc budget")

        monkeypatch.setattr(kernels, "Nodes", refuse)
        monkeypatch.setattr(kernels, "closure_arcs", refuse)
        # 2^19 nodes pass the node budget; the closure has 3^19 - 2^19 arcs
        code, out, err = run(capsys, "graph", "--sig", ".".join(["1"] * 19), "--kind", "closure")
        assert (code, out) == (1, "")
        assert "1161737179 arcs exceeds arc budget 10000000" in err

    def test_closure_past_64_bits_meets_the_arc_budget(self, capsys):
        code, out, err = run(
            capsys, "graph", "--sig", ".".join(["1"] * 64), "--kind", "closure",
            "--node-budget", str(2**64),
        )
        assert (code, out) == (1, "")
        assert "exceeds arc budget" in err
        assert "Traceback" not in err

    def test_arc_budget_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("DIVGRAPH_ARC_BUDGET", "3")
        # the closure of 2.1 has 12 arcs
        code, out, _ = run(capsys, "graph", "--sig", "2.1", "--kind", "closure", "--arc-budget", "12")
        assert code == 0
        assert out.count("->") == 12
        monkeypatch.setenv("DIVGRAPH_ARC_BUDGET", "1000")
        code, _, err = run(capsys, "graph", "--sig", "2.1", "--kind", "closure", "--arc-budget", "11")
        assert code == 1
        assert "arc budget 11" in err
        # the arc budget bounds closures only
        code, out, _ = run(capsys, "graph", "--sig", "2.1", "--kind", "hasse", "--arc-budget", "11")
        assert code == 0
        assert out.count("->") == 7

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    def test_output_longer_than_one_write_slice(self, tmp_path, fmt):
        # the Hasse diagram of fourteen 1s has 114 688 arcs, some MB in either format
        g = graphs.build_graph((1,) * 14, graphs.GraphKind.HASSE)
        expected = (graphs.to_dot(g) if fmt == "dot" else graphs.to_json(g) + "\n").encode()
        assert len(expected) > 2 * cli._WRITE_SLICE
        argv = ["graph", "--sig", ".".join(["1"] * 14), "--format", fmt]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "divgraph.cli", *argv], capture_output=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == expected
        target = tmp_path / f"g.{fmt}"
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_bytes() == expected

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(capsys, "graph", "--n", "6", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph hasse {")


class TestUnwritableOut:
    """An --out that cannot be opened is an error message, not a traceback;
    compare reports it with its exit 2, which keeps 1 for a value mismatch."""

    ARGVS = [
        (["invariants", "--n", "5"], 1),
        (["sequence", "--inv", "V", "--count", "5"], 1),
        (["graph", "--sig", "2.1"], 1),
        (["compare", "--inv", "V", "--count", "40", "--bfile", str(DATA / "b000005.txt")], 2),
        (["conjectures", "--id", "2", "--max-n", "30"], 1),
    ]

    @pytest.mark.parametrize("argv, code", ARGVS, ids=[argv[0] for argv, _ in ARGVS])
    @pytest.mark.parametrize("target", ["missing-dir/out", "."], ids=["missing-dir", "a-dir"])
    def test_error_and_exit_code(self, capsys, tmp_path, argv, code, target):
        got, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err


class TestClosedStdout:
    """A stdout whose reader exits before the write, as ``| head`` can, is an
    error message, not a traceback, and the exit-time flush stays silent."""

    ARGVS = [
        (["sequence", "--inv", "V", "--count", "100000"], 1),
        (["graph", "--sig", "6.5.4.2.1", "--kind", "closure"], 1),
        (["invariants", "--n", "540"], 1),
        (["conjectures", "--id", "2", "--max-n", "1000"], 1),
        (["compare", "--inv", "V", "--count", "40", "--bfile", str(DATA / "b000005.txt")], 2),
    ]

    @pytest.mark.parametrize("argv, code", ARGVS, ids=[argv[0] for argv, _ in ARGVS])
    def test_error_and_exit_code(self, argv, code):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "divgraph.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        proc.stdout.close()  # before the child has started to write
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == code
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: cannot write to stdout: Broken pipe"
        ]
        assert "Traceback" not in err and "Exception ignored" not in err


class TestInProcess:
    def test_calls_in_one_process_share_no_state(self, capsys):
        cli._parser.cache_clear()
        alone = run(capsys, "invariants", "--sig", "2.1", "--format", "json")
        assert alone[0] == 0
        assert run(capsys, "graph", "--sig", "1.1", "--node-budget", "3")[0] == 1
        assert run(capsys, "graph", "--sig", "1.1")[0] == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["graph", "--sig", "1.1", "--kind", "tree"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run(capsys, "invariants", "--sig", "2.1", "--format", "json") == alone
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "argv, sig",
        [
            (("invariants", "--sig", "2.3.1"), (3, 2, 1)),
            (("graph", "--sig", "2.1", "--kind", "closure"), (2, 1)),
        ],
        ids=["invariants", "closure"],
    )
    def test_one_signature_check_per_request(self, capsys, signature_checks, argv, sig):
        assert run(capsys, *argv)[0] == 0
        assert signature_checks == [sig]


class TestBudgetFlags:
    """Each budget comes from its flag, else from the library default."""

    ENV_NAMES = ["DIVGRAPH_NODE_BUDGET", "DIVGRAPH_ARC_BUDGET", "DIVGRAPH_OMEGA_BUDGET"]

    @staticmethod
    def _result(capsys, argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "conjectures":  # the report's timing varies from run to run
            out = {**json.loads(out), "elapsed_seconds": None}
        return code, out, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "--sig", "2.3"],
            ["graph", "--sig", "2.1", "--kind", "closure"],
            ["conjectures", "--id", "1", "--max-omega", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_environment_is_ignored(self, capsys, monkeypatch, argv):
        for name in self.ENV_NAMES:
            monkeypatch.delenv(name, raising=False)
        expected = self._result(capsys, argv)
        assert expected[0] == 0
        for value in ["3", "x"]:
            for name in self.ENV_NAMES:
                monkeypatch.setenv(name, value)
            assert self._result(capsys, argv) == expected, value

    @pytest.mark.parametrize(
        "sub, flag, default",
        [
            ("invariants", "--omega-budget", invariants.DEFAULT_OMEGA_BUDGET),
            ("graph", "--node-budget", graphs.DEFAULT_NODE_BUDGET),
            ("graph", "--arc-budget", graphs.DEFAULT_ARC_BUDGET),
            ("conjectures", "--node-budget", graphs.DEFAULT_NODE_BUDGET),
        ],
    )
    def test_flag_defaults_to_the_library_constant(self, capsys, sub, flag, default):
        _, commands = cli._parser()
        assert commands[sub].get_default(flag[2:].replace("-", "_")) == default
        with pytest.raises(SystemExit) as excinfo:
            main([sub, "--help"])
        assert excinfo.value.code == 0
        assert f"default {default}\n" in capsys.readouterr().out

    def test_version_names_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        expected = f"divgraph {divgraph.__version__} ({kernels.active_backend()} kernels)\n"
        assert capsys.readouterr().out == expected


class TestCompare:
    def test_full_match_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--inv", "V", "--order", "natural", "--count", "40",
            "--bfile", str(DATA / "b000005.txt"),
        )
        assert code == 0
        assert json.loads(out)["first_mismatch"] is None

    def test_offset_reference_matches(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--inv", "PT", "--order", "natural", "--count", "40",
            "--bfile", str(DATA / "b002033.txt"),
        )
        assert code == 0
        assert json.loads(out)["offset_shift"] == -1

    def test_corrupted_reference_exits_one(self, capsys, tmp_path):
        lines = (DATA / "b000005.txt").read_text().splitlines()
        lines[3] = "3 999"
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "compare", "--inv", "V", "--order", "natural", "--count", "40",
            "--bfile", str(bad),
        )
        assert code == 1
        assert json.loads(out)["first_mismatch"]["key"] == 3

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compare", "--inv", "V", "--bfile", str(tmp_path / "nope.txt"),
        )
        assert code == 2
        assert "error" in err

    def test_unparseable_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "garbage.txt"
        bad.write_text("hello world extra\n")
        code, _, err = run(capsys, "compare", "--inv", "V", "--bfile", str(bad))
        assert code == 2
        assert "error" in err

    def test_unknown_invariant_exits_two(self, capsys):
        code, out, err = run(
            capsys, "compare", "--inv", "XYZ", "--bfile", str(DATA / "b000005.txt"),
        )
        assert code == 2
        assert out == ""
        assert "unknown invariant" in err


class TestConjectures:
    def test_conjecture_1_small_scan(self, capsys):
        code, out, _ = run(
            capsys, "conjectures", "--id", "1", "--max-omega", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counterexamples"] == []
        assert payload["checked"] > 0

    def test_conjecture_1_mode_is_a_usage_error(self, capsys):
        # one certificate settles both readings of "disjoint", so there is no --mode
        with pytest.raises(SystemExit) as excinfo:
            main(["conjectures", "--id", "1", "--max-omega", "5", "--mode", "node"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_conjecture_1_scan_past_the_node_budget_builds_nothing(self, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graphs, "build_graph", forbidden)
        monkeypatch.setattr(conjectures, "build_graph", forbidden)
        code, out, err = run(capsys, "conjectures", "--id", "1", "--max-omega", "16")
        assert (code, out) == (1, "")
        assert err == (
            "error: --max-omega 16 builds 1532084 nodes in all,"
            " more than the node budget 1000000\n"
        )

    def test_node_budget_sum_checks_no_signature(self, capsys, signature_checks):
        # the 99 132 signatures are canonical tuples from enumerate_signatures
        code, out, err = run(capsys, "conjectures", "--id", "1", "--max-omega", "36")
        assert (code, out, signature_checks) == (1, "", [])
        assert err == (
            "error: --max-omega 36 builds 2461288716936 nodes in all,"
            " more than the node budget 1000000\n"
        )

    @pytest.mark.parametrize("budget", [495, 496], ids=["495-flag", "496-flag"])
    def test_node_budget_bounds_the_summed_order(self, capsys, budget):
        # the Hasse diagrams of the 29 signatures with Omega <= 6 have 496 nodes in all
        code, out, err = run(
            capsys, "conjectures", "--id", "1", "--max-omega", "6", "--node-budget", str(budget)
        )
        if budget < 496:
            assert (code, out) == (1, "")
            assert err == (
                "error: --max-omega 6 builds 496 nodes in all, more than the node budget 495\n"
            )
        else:
            payload = json.loads(out)
            assert (code, err) == (0, "")
            assert (payload["checked"], payload["skipped"], payload["counterexamples"]) == (29, [], [])

    @pytest.mark.parametrize("max_omega", ["0", "-3"])
    def test_vacuous_conjecture_1_scan_rejected(self, capsys, max_omega):
        code, out, err = run(capsys, "conjectures", "--id", "1", "--max-omega", max_omega)
        assert code == 1
        assert out == ""
        assert "--max-omega must be at least 1" in err

    @pytest.mark.parametrize("conjecture, flag", [("1", "--max-omega"), ("2", "--max-n"),
                                                  ("3", "--colex-count")])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_vacuous_scan_names_its_flag(self, capsys, conjecture, flag, value):
        code, out, err = run(capsys, "conjectures", "--id", conjecture, flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} must be at least 1, got {value}\n"

    def test_conjecture_2_scan(self, capsys):
        code, out, _ = run(capsys, "conjectures", "--id", "2", "--max-n", "2000")
        assert code == 0
        assert json.loads(out)["counterexamples"] == []

    @pytest.mark.parametrize("max_n", [1, 2, 1000, 100_000])
    def test_conjecture_2_checks_each_distinct_signature(self, capsys, max_n):
        spf = signatures.spf_sieve(max_n)
        distinct = {signatures.signature_from_sieve(n, spf) for n in range(1, max_n + 1)}
        code, out, _ = run(capsys, "conjectures", "--id", "2", "--max-n", str(max_n))
        assert code == 0
        payload = json.loads(out)
        assert (payload["checked"], payload["counterexamples"]) == (len(distinct), [])

    def test_conjecture_3_scan(self, capsys):
        code, out, _ = run(capsys, "conjectures", "--id", "3", "--colex-count", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["counterexamples"] == []
        assert payload["checked"] == 59  # empty signature is skipped

    def test_long_colex_scan_within_cap(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "conjectures", "--id", "3", "--colex-count", "20000")
        assert time.perf_counter() - start < 5.0
        assert code == 0
        payload = json.loads(out)
        assert (payload["checked"], payload["counterexamples"]) == (19999, [])

    def test_help_available_everywhere(self, capsys):
        for sub in ["invariants", "sequence", "graph", "compare", "conjectures"]:
            with pytest.raises(SystemExit) as excinfo:
                main([sub, "--help"])
            assert excinfo.value.code == 0
            capsys.readouterr()


class TestSizeBudget:
    """Sizes over the size budget are refused before a sieve, a signature
    list or a partition list is made; sizes at the budget get that far."""

    OVER = str(SIZE_BUDGET + 1)
    REFUSED = [
        (["sequence", "--inv", "V", "--count", OVER], 1, f"count {OVER} exceeds the size budget"),
        (["sequence", "--inv", "PT", "--order", "colex", "--count", "1000000000"], 1,
         "count 1000000000 exceeds the size budget"),
        (["sequence", "--inv", "LI", "--order", "canonical", "--count", OVER], 1,
         f"count {OVER} exceeds the size budget"),
        (["compare", "--inv", "V", "--count", OVER, "--bfile", str(DATA / "b000005.txt")], 2,
         f"count {OVER} exceeds the size budget"),
        (["conjectures", "--id", "2", "--max-n", "1000000000"], 1,
         "--max-n 1000000000 exceeds the size budget"),
        (["conjectures", "--id", "3", "--colex-count", OVER], 1,
         f"--colex-count {OVER} exceeds the size budget"),
        (["conjectures", "--id", "1", "--max-omega", "37"], 1,
         "--max-omega 37 scans at least 120769 signatures, more than the size budget"),
        (["conjectures", "--id", "1", "--max-omega", str(2**64)], 1,
         f"--max-omega {2**64} scans at least 120769 signatures"),
    ]
    AT_BUDGET = [
        ["sequence", "--inv", "V", "--count", str(SIZE_BUDGET)],
        ["sequence", "--inv", "V", "--order", "colex", "--count", str(SIZE_BUDGET)],
        ["conjectures", "--id", "2", "--max-n", str(SIZE_BUDGET)],
        ["conjectures", "--id", "3", "--colex-count", str(SIZE_BUDGET)],
        ["conjectures", "--id", "1", "--max-omega", "36"],  # 99132 signatures
    ]

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sized work started")

        monkeypatch.setattr(signatures, "spf_sieve", forbidden)
        for module in (signatures, sequences, cli):
            monkeypatch.setattr(module, "enumerate_signatures", forbidden)

    @pytest.mark.parametrize("argv, code, message", REFUSED)
    def test_refused_up_front(self, capsys, no_allocation, argv, code, message):
        start = time.perf_counter()
        got_code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert (got_code, out) == (code, "")
        assert message in err and str(SIZE_BUDGET) in err

    @pytest.mark.parametrize("argv", AT_BUDGET)
    def test_budget_itself_accepted(self, no_allocation, argv):
        with pytest.raises(AssertionError, match="sized work started"):
            main(argv)

    @pytest.mark.parametrize(
        "sub, flag", [("sequence", "--count"), ("compare", "--count"),
                      ("conjectures", "--max-n"), ("conjectures", "--colex-count"),
                      ("conjectures", "--max-omega")]
    )
    def test_help_names_the_budget(self, sub, flag):
        _, commands = cli._parser()
        text = " ".join(commands[sub].format_help().split())
        # the option's own entry: "--count COUNT help...", up to the next option
        entry = text.split(f" {flag} {flag[2:].replace('-', '_').upper()} ", 1)[1].split(" --", 1)[0]
        assert f"at most {SIZE_BUDGET}" in entry and "(the size budget)" in entry


# --- random command lines ----------------------------------------------------
# Every generated input is bounded by its own size: graphs have at most 625
# nodes, sequences at most 300 entries, scans at most Omega 6, n 3000 or 300
# signatures, and an invariant's Omega at most 72.  Budget flags can refuse
# some of that work but never allow more.  Sizes
# past the size budget, up to 2^64, are drawn too: they must be refused, and
# so must an --out in a directory that does not exist.


def _sig_text(max_part, max_len):
    parts = st.lists(st.integers(1, max_part), min_size=1, max_size=max_len)
    return st.one_of(
        parts.map(lambda ps: ".".join(map(str, ps))),
        st.sampled_from(["0", "2.x", "", "0.1", "-1", "1..2"]),
    )


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _target(max_part, max_len):
    by_n = st.integers(-1, 2**64).map(lambda n: ["--n", str(n)])
    by_sig = _sig_text(max_part, max_len).map(lambda t: ["--sig", t])
    return st.one_of(by_n, by_sig)


_invariant_names = st.sampled_from(
    ["V", "EH", "Omega", "omega", "Wv", "We", "Delta", "PH", "VE", "VO", "EE", "EO",
     "ET", "PT", "LI", "w_e", "bogus"]
)
_count = st.one_of(st.integers(-1, 300), st.integers(SIZE_BUDGET + 1, 2**64))
_missing_out = _optional("--out", st.just(DATA / "missing-dir" / "out"))

_argvs = st.one_of(
    st.tuples(
        st.just(["invariants"]),
        _target(12, 6),
        _optional("--format", st.sampled_from(["text", "json", "xml"])),
        _optional("--omega-budget", st.integers(-2, 80)),
        _missing_out,
    ),
    st.tuples(
        st.just(["sequence"]),
        _invariant_names.map(lambda v: ["--inv", v]),
        _optional("--order", st.sampled_from(["natural", "colex", "canonical", "random"])),
        _optional("--count", _count),
        _optional("--format", st.sampled_from(["csv", "json", "bfile"])),
        _missing_out,
    ),
    st.tuples(
        st.just(["graph"]),
        _target(4, 4),
        _optional("--kind", st.sampled_from(["hasse", "closure", "tree"])),
        _optional("--format", st.sampled_from(["dot", "json"])),
        _optional("--node-budget", st.integers(-1, 700)),
        _optional("--arc-budget", st.integers(-1, 60_000)),
        _missing_out,
    ),
    st.tuples(
        st.just(["compare"]),
        _invariant_names.map(lambda v: ["--inv", v]),
        _optional("--order", st.sampled_from(["natural", "colex", "canonical"])),
        _optional("--count", _count),
        st.sampled_from(["b000005.txt", "b002033.txt", "missing.txt"]).map(
            lambda name: ["--bfile", str(DATA / name)]
        ),
        _missing_out,
    ),
    st.tuples(
        st.just(["conjectures"]),
        st.sampled_from(["1", "2", "3", "4"]).map(lambda i: ["--id", i]),
        _optional("--max-omega", st.one_of(st.integers(-1, 6), st.integers(37, 2**64))),
        _optional("--max-n", st.one_of(st.integers(-1, 3000), st.integers(SIZE_BUDGET + 1, 2**64))),
        _optional("--colex-count", _count),
        _optional("--node-budget", st.integers(-1, 700)),
        _missing_out,
    ),
).map(lambda pieces: [arg for piece in pieces for arg in piece])


class TestRandomCommandLines:
    @settings(max_examples=80, deadline=None)
    @given(argv=_argvs)
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
        assert time.perf_counter() - start < 10.0, argv
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv


def _parsed(parse, argv):
    """What parsing ``argv`` gives: the namespace's attributes or the exit
    code, with everything written to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:  # usage errors, --help and --version
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParseRoute:
    """``main`` parses a command line as the top-level parser alone would."""

    EDGE_CASES = [
        [], ["-h"], ["--version"], ["bogus"],
        ["invariants"], ["invariants", "-h"], ["invariants", "--n", "5", "extra"],
        ["invariants", "--", "--n", "5"],
        ["graph", "--sig", "1", "--version"], ["invariants", "--form", "json", "--n", "6"],
        ["--version", "invariants"], ["invariants", "--n", "5", "--n", "6"], ["invariants", "--n"],
        # the top-level parser refuses "--=x" as an abbreviation of both --help and --version
        ["invariants", "--n", "5", "--=x"], ["invariants", "--n=5"], ["graph", "--sig=1", "-h"],
        ["-h", "invariants"], ["invariants", "--n", "5", "-h", "--ver"],
    ]

    @pytest.mark.parametrize("argv", EDGE_CASES, ids=lambda argv: " ".join(argv) or "no-args")
    def test_edge_case(self, argv):
        assert _parsed(cli._parse, argv) == _parsed(parse_by_top_level_parser, argv)

    @pytest.mark.parametrize("argv", [[], ["graph", "--sig", "2.1"], ["invariants", "--n", "5", "x"]], ids=str)
    def test_sys_argv(self, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["divgraph", *argv])
        assert _parsed(cli._parse, None) == _parsed(parse_by_top_level_parser, None)

    @settings(max_examples=300, deadline=None)
    @given(argv=_argvs)
    def test_random_command_line(self, argv):
        assert _parsed(cli._parse, argv) == _parsed(parse_by_top_level_parser, argv)
