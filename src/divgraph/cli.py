"""Command-line interface.

Subcommands: invariants, sequence, graph, compare, conjectures.  Each
budget comes from its flag, else from the environment (DIVGRAPH_NODE_BUDGET,
DIVGRAPH_ARC_BUDGET, DIVGRAPH_OMEGA_BUDGET), else from the library default.
The arc budget bounds the arcs of a ``graph --kind closure`` and is checked
before the closure is built.  One fixed size budget, ``SIZE_BUDGET`` in
``divgraph.signatures``, bounds ``--count``, ``--max-n``, ``--colex-count``
and the number of signatures that ``--max-omega`` covers; it is checked
before any sieve or signature list is made.  All numeric output is full
decimal, however many digits it has.

Exit codes: 0 success; 1 an error (bad input, budget exceeded) or, for
compare, a value mismatch; 2 a command-line usage error or, for compare, an
input it cannot compare against; 3 a conjecture counterexample was found.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Optional, Sequence

from divgraph import conjectures as conj
from divgraph import graphs, invariants, sequences
from divgraph.errors import BudgetError
from divgraph.kernels import active_backend
from divgraph.signatures import (
    SIZE_BUDGET,
    SignatureOrder,
    check_size,
    enumerate_signatures,
    factorize,
    least_integer,
    natural_signatures,
    parse_signature_key,
    partition_count,
    partitions_of,
    signature_key,
)


def _budget(flag: Optional[int], name: str, default: int) -> int:
    """The flag value if given, else the environment variable, else default."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="positive integer to analyze")
    group.add_argument("--sig", type=str, help="exponent tuple, dot-separated (e.g. 2.3.1; 0 for n=1)")


def _resolve_target(args: argparse.Namespace) -> tuple[tuple[int, ...], Optional[int]]:
    """Exponent bounds plus the concrete n when one was given."""
    if args.n is not None:
        pairs = factorize(args.n)
        return tuple(e for _, e in pairs), args.n
    return parse_signature_key(args.sig), None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@contextlib.contextmanager
def _no_int_digit_limit():
    """Lift the interpreter's int-to-str digit limit (Python 3.11, and the
    3.10 security releases) for the duration, then restore it."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_invariants(args: argparse.Namespace) -> int:
    bounds, n = _resolve_target(args)
    omega_budget = _budget(
        args.omega_budget, "DIVGRAPH_OMEGA_BUDGET", invariants.DEFAULT_OMEGA_BUDGET
    )
    record = invariants.all_invariants(bounds, omega_budget=omega_budget)
    values = dict(zip((key for key, *_ in invariants.TABLE), record.as_tuple()))
    key = signature_key(tuple(sorted(bounds, reverse=True)))
    if n is not None:
        extras = {"height": record.big_omega, "n": n, "signature": key}
    else:
        li = least_integer(bounds)
        extras = {"height": record.big_omega, "signature": key, "LI": li}
    with _no_int_digit_limit():  # LI, PH and PT may pass the limit
        if args.format == "json":
            text = json.dumps({**values, **extras}) + "\n"
        else:
            text = "".join(f"{k} = {v}\n" for k, v in {**values, **extras}.items())
    _write_out(text, args.out)
    return 0


def cmd_sequence(args: argparse.Namespace) -> int:
    table = sequences.generate(args.inv, sequences.Ordering(args.order), args.count)
    payload = sequences.emit(table, sequences.EmitFormat(args.format))
    _write_out(payload.decode(), args.out)
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    bounds, _ = _resolve_target(args)
    kind = graphs.GraphKind(args.kind)
    node_budget = _budget(args.node_budget, "DIVGRAPH_NODE_BUDGET", graphs.DEFAULT_NODE_BUDGET)
    arc_budget = _budget(args.arc_budget, "DIVGRAPH_ARC_BUDGET", graphs.DEFAULT_ARC_BUDGET)
    g = graphs.build_graph(bounds, kind, node_budget=node_budget, arc_budget=arc_budget)
    text = graphs.to_dot(g) if args.format == "dot" else graphs.to_json(g) + "\n"
    _write_out(text, args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # exit 1 is reserved for a value mismatch; every failure to compare is 2
    try:
        table = sequences.generate(args.inv, sequences.Ordering(args.order), args.count)
        with open(args.bfile, "rb") as fh:
            reference = fh.read()
        report = sequences.compare_bfile(table, reference)
    except (OSError, ValueError, BudgetError) as exc:  # BFileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_out(json.dumps(report.to_dict()) + "\n", args.out)
    return 0 if report.full_match else 1


def cmd_conjectures(args: argparse.Namespace) -> int:
    modes = {
        "node": (conj.DisjointMode.NODE,),
        "arc": (conj.DisjointMode.ARC,),
        "both": (conj.DisjointMode.NODE, conj.DisjointMode.ARC),
    }[args.mode]
    if args.id == 1:
        if args.max_omega < 1:
            raise ValueError(f"--max-omega must be at least 1, got {args.max_omega}")
        size = 0
        for k in range(1, args.max_omega + 1):  # stops soon after the budget is passed
            size += partition_count(k)
            if size > SIZE_BUDGET:
                raise BudgetError(
                    f"--max-omega {args.max_omega} scans at least {size} signatures,"
                    f" more than the size budget {SIZE_BUDGET}"
                )
        sigs = [s for k in range(1, args.max_omega + 1) for s in partitions_of(k)]
        scope = f"all signatures with 1 <= Omega <= {args.max_omega}"
    elif args.id == 2:
        check_size("--max-n", args.max_n)
        sigs = sorted(set(natural_signatures(args.max_n)))
        scope = f"signatures of n <= {args.max_n}"
    elif args.id == 3:
        check_size("--colex-count", args.colex_count)
        sigs = enumerate_signatures(SignatureOrder.GRADED_COLEX, args.colex_count)
        scope = f"first {args.colex_count} graded-colex signatures"
    else:
        raise ValueError(f"unknown conjecture id {args.id}")
    node_budget = _budget(args.node_budget, "DIVGRAPH_NODE_BUDGET", graphs.DEFAULT_NODE_BUDGET)
    report = conj.scan(args.id, sigs, modes=modes, node_budget=node_budget, scope=scope)
    _write_out(report.to_json() + "\n", args.out)
    return 0 if report.ok else 3


_SIZE_HELP = f"{{}}; at most {SIZE_BUDGET} (the size budget)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divgraph",
        description="Divisor-lattice graphs, their invariants, and integer sequences.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s ({active_backend()} kernels)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="all fourteen invariants of one n or signature")
    _add_target_flags(p_inv)
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    p_inv.add_argument("--omega-budget", type=int, default=None)
    p_inv.add_argument("--out", type=str, default=None)
    p_inv.set_defaults(func=cmd_invariants)

    p_seq = sub.add_parser("sequence", help="emit an invariant sequence")
    p_seq.add_argument("--inv", required=True, help="invariant name (V, EH, ..., PT, LI)")
    p_seq.add_argument("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_seq.add_argument("--count", type=int, default=50, help=_SIZE_HELP.format("number of entries"))
    p_seq.add_argument("--format", choices=[f.value for f in sequences.EmitFormat], default="csv")
    p_seq.add_argument("--out", type=str, default=None)
    p_seq.set_defaults(func=cmd_sequence)

    p_graph = sub.add_parser("graph", help="emit an explicit graph as DOT or JSON")
    _add_target_flags(p_graph)
    p_graph.add_argument("--kind", choices=[k.value for k in graphs.GraphKind], default="hasse")
    p_graph.add_argument("--format", choices=["dot", "json"], default="dot")
    p_graph.add_argument("--node-budget", type=int, default=None)
    p_graph.add_argument("--arc-budget", type=int, default=None)
    p_graph.add_argument("--out", type=str, default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_cmp = sub.add_parser("compare", help="compare a sequence against a local b-file")
    p_cmp.add_argument("--inv", required=True)
    p_cmp.add_argument("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_cmp.add_argument("--count", type=int, default=50, help=_SIZE_HELP.format("number of entries"))
    p_cmp.add_argument("--bfile", required=True, help="path to the reference b-file")
    p_cmp.add_argument("--out", type=str, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_conj = sub.add_parser("conjectures", help="scan a conjecture for counterexamples")
    p_conj.add_argument("--id", type=int, choices=[1, 2, 3], required=True)
    p_conj.add_argument("--mode", choices=["node", "arc", "both"], default="both")
    p_conj.add_argument(
        "--max-omega", type=int, default=8,
        help=f"id 1: every signature with 1 <= Omega <= MAX_OMEGA; at most {SIZE_BUDGET}"
        " signatures (the size budget)",
    )
    p_conj.add_argument(
        "--max-n", type=int, default=100_000,
        help=_SIZE_HELP.format("id 2: the signatures of n = 1..MAX_N"),
    )
    p_conj.add_argument(
        "--colex-count", type=int, default=200,
        help=_SIZE_HELP.format("id 3: the first COLEX_COUNT graded-colex signatures"),
    )
    p_conj.add_argument("--node-budget", type=int, default=None)
    p_conj.add_argument("--out", type=str, default=None)
    p_conj.set_defaults(func=cmd_conjectures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves no state on it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
