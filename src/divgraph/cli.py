"""Command-line interface.

Subcommands: invariants, sequence, graph, compare, conjectures.  Each
budget comes from its flag, else from the library default.  The arc budget
bounds the arcs of a ``graph --kind closure`` and is checked before the
closure is built.  One fixed size budget, ``SIZE_BUDGET`` in
``divgraph.signatures``, bounds ``--count``, ``--max-n``, ``--colex-count``
and the number of signatures that ``--max-omega`` covers; it is checked
before any sieve or signature list is made.  A conjecture 1 scan builds one
Hasse diagram per signature, and the node budget bounds their summed order
before the first is built.  All numeric output is full decimal, however
many digits it has.

Exit codes: 0 success; 1 an error (bad input, budget exceeded, an --out
or a stdout that cannot be written, as when a pipe's reader has exited)
or, for compare, a value mismatch; 2 a command-line usage error or, for
compare, any failure to compare or to write the report; 3 a conjecture
counterexample was found.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Optional, Sequence

from divgraph import __version__, graphs, invariants, sequences
from divgraph import conjectures as conj
from divgraph.errors import BudgetError
from divgraph.kernels import active_backend
from divgraph.signatures import (
    SIZE_BUDGET,
    SignatureOrder,
    check_size,
    enumerate_signatures,
    factorize,
    least_integer,
    natural_classes,
    parse_signature_key,
    partition_count,
    signature_key,
)


def _add_target_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="positive integer to analyze")
    group.add_argument("--sig", type=str, help="exponent tuple, dot-separated (e.g. 2.3.1; 0 for n=1)")


def _add_budget_flag(parser: argparse.ArgumentParser, flag: str, default: int) -> None:
    parser.add_argument(flag, type=int, default=default, help="default %(default)s")


def _resolve_target(args: argparse.Namespace) -> tuple[tuple[int, ...], Optional[int]]:
    """Exponent bounds plus the concrete n when one was given."""
    if args.n is not None:
        pairs = factorize(args.n)
        return tuple(e for _, e in pairs), args.n
    return parse_signature_key(args.sig), None


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


#: Characters handed to the text stream per write, so it encodes one slice
#: at a time rather than a bytes copy of the whole output.
_WRITE_SLICE = 1 << 20


def _write_out(text: str, out: Optional[str], end: str = "") -> None:
    """Write ``text`` and then ``end`` to stdout, or to the file ``out``."""
    to_stdout = out is None or out == "-"
    try:
        with contextlib.nullcontext(sys.stdout) if to_stdout else open(out, "w") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
            fh.write(end)
            fh.flush()
    except OSError as exc:  # for stdout, say, a pipe whose reader has exited
        if to_stdout:  # the interpreter flushes stdout again at exit: send that to nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        target = "to stdout" if to_stdout else f"--out {out}"
        raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from None


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
    record = invariants.all_invariants(bounds, omega_budget=args.omega_budget)
    values = dict(zip((key for key, *_ in invariants.TABLE), record))
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
    g = graphs.build_graph(bounds, kind, node_budget=args.node_budget, arc_budget=args.arc_budget)
    if args.format == "dot":
        _write_out(graphs.to_dot(g), args.out)
    else:  # the newline goes on its own, not by a copy of the JSON with it appended
        _write_out(graphs.to_json(g), args.out, end="\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    table = sequences.generate(args.inv, sequences.Ordering(args.order), args.count)
    with open(args.bfile, "rb") as fh:
        reference = fh.read()
    report = sequences.compare_bfile(table, reference)
    _write_out(json.dumps(report.to_dict()) + "\n", args.out)
    return 0 if report.full_match else 1


def cmd_conjectures(args: argparse.Namespace) -> int:
    if args.id == 1:
        _check_positive("--max-omega", args.max_omega)
        size = 0
        for k in range(1, args.max_omega + 1):  # stops soon after the budget is passed
            size += partition_count(k)
            if size > SIZE_BUDGET:
                raise BudgetError(
                    f"--max-omega {args.max_omega} scans at least {size} signatures,"
                    f" more than the size budget {SIZE_BUDGET}"
                )
        sigs = enumerate_signatures(SignatureOrder.CANONICAL, size + 1)[1:]
        scope = f"all signatures with 1 <= Omega <= {args.max_omega}"
    elif args.id == 2:
        _check_positive("--max-n", args.max_n)
        check_size("--max-n", args.max_n)
        sigs = sorted(natural_classes(args.max_n)[1])
        scope = f"signatures of n <= {args.max_n}"
    elif args.id == 3:
        _check_positive("--colex-count", args.colex_count)
        check_size("--colex-count", args.colex_count)
        sigs = enumerate_signatures(SignatureOrder.GRADED_COLEX, args.colex_count)
        scope = f"first {args.colex_count} graded-colex signatures"
    if args.id == 1 and (nodes := sum(map(invariants.order, sigs))) > args.node_budget:
        raise BudgetError(
            f"--max-omega {args.max_omega} builds {nodes} nodes in all,"
            f" more than the node budget {args.node_budget}"
        )
    report = conj.scan(args.id, sigs, node_budget=args.node_budget, scope=scope)
    _write_out(report.to_json() + "\n", args.out)
    return 0 if report.ok else 3


_SIZE_HELP = f"{{}}; at most {SIZE_BUDGET} (the size budget)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divgraph",
        description="Divisor-lattice graphs, their invariants, and integer sequences.",
    )
    version = f"%(prog)s {__version__} ({active_backend()} kernels)"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="all fourteen invariants of one n or signature")
    _add_target_flags(p_inv)
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    _add_budget_flag(p_inv, "--omega-budget", invariants.DEFAULT_OMEGA_BUDGET)
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
    _add_budget_flag(p_graph, "--node-budget", graphs.DEFAULT_NODE_BUDGET)
    _add_budget_flag(p_graph, "--arc-budget", graphs.DEFAULT_ARC_BUDGET)
    p_graph.add_argument("--out", type=str, default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_cmp = sub.add_parser("compare", help="compare a sequence against a local b-file")
    p_cmp.add_argument("--inv", required=True)
    p_cmp.add_argument("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_cmp.add_argument("--count", type=int, default=50, help=_SIZE_HELP.format("number of entries"))
    p_cmp.add_argument("--bfile", required=True, help="path to the reference b-file")
    p_cmp.add_argument("--out", type=str, default=None)
    # exit 1 is reserved for a value mismatch; every failure to compare is 2
    p_cmp.set_defaults(func=cmd_compare, failure=2)

    p_conj = sub.add_parser("conjectures", help="scan a conjecture for counterexamples")
    p_conj.add_argument("--id", type=int, choices=[1, 2, 3], required=True)
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
    _add_budget_flag(p_conj, "--node-budget", graphs.DEFAULT_NODE_BUDGET)
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
    except (OSError, ValueError, BudgetError) as exc:  # BFileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return getattr(args, "failure", 1)


if __name__ == "__main__":
    sys.exit(main())
