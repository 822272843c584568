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

A request is parsed one of two ways, to the namespace that the top-level
parser's ``parse_args`` would give.  A plain request is a command name and
then ``flag value`` pairs: each flag one of that command's options, spelled
in full and given once, no value starting with "-", each value of its
option's type and among its choices, every required option given, and one
of --n and --sig where the command takes them.  The command's parser reads
it from its own declarations, without running argparse.  Every other
request (help, ``--version``, an abbreviated flag, a ``--flag=value``, a
``--``, any usage error) goes to the top-level parser.

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
    _least_integer,
    check_size,
    enumerate_signatures,
    factorize,
    natural_classes,
    parse_signature_key,
    partition_count,
    signature_key,
)


class _Command(argparse.ArgumentParser):
    """One command's parser, which keeps what it declares so that ``read``
    can parse a plain request without running argparse: the ``Action`` that
    ``add_argument`` returns for each store option, the --n/--sig pair of
    ``target``'s required group, and the ``set_defaults`` values."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.options: dict[str, argparse.Action] = {}
        self.one_of: tuple[argparse.Action, ...] = ()
        self.set_values: dict[str, object] = {}

    def option(self, flag: str, *, group=None, **kwargs) -> argparse.Action:
        """Declare a store option, a flag that takes one value, on this
        parser or on one of its groups."""
        action = self.options[flag] = (self if group is None else group).add_argument(flag, **kwargs)
        return action

    def target(self) -> None:
        """Declare --n and --sig, exactly one of which a request gives."""
        group = self.add_mutually_exclusive_group(required=True)
        self.one_of = (
            self.option("--n", group=group, type=int, help="positive integer to analyze"),
            self.option("--sig", group=group, type=str, help="exponent tuple, dot-separated (e.g. 2.3.1; 0 for n=1)"),
        )

    def set_defaults(self, **kwargs) -> None:
        super().set_defaults(**kwargs)
        self.set_values.update(kwargs)

    def read(self, pairs: list[str]) -> Optional[argparse.Namespace]:
        """The namespace that ``parse_args(pairs)`` gives, when ``pairs`` are
        ``flag value`` pairs in which each flag is one of the store options,
        spelled in full and given once, no value starts with "-", the
        option's type takes each value and gives one of its choices, every
        required option is given and exactly one of --n/--sig where the
        command takes them; else None, for argparse to parse or refuse."""
        if len(pairs) % 2:
            return None
        given = {}
        for flag, value in zip(pairs[::2], pairs[1::2]):
            action = self.options.get(flag)
            if action is None or action.dest in given or value[:1] == "-":
                return None
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            given[action.dest] = value
        if any(a.required and a.dest not in given for a in self.options.values()):
            return None
        if self.one_of and sum(a.dest in given for a in self.one_of) != 1:
            return None
        defaults = {a.dest: a.default for a in self.options.values()}
        return argparse.Namespace(**{**defaults, **self.set_values, **given})


def _add_budget_flag(parser: _Command, flag: str, default: int) -> None:
    parser.option(flag, type=int, default=default, help="default %(default)s")


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
    sig = tuple(sorted(bounds, reverse=True))
    if n is not None:
        extras = {"height": record.big_omega, "n": n, "signature": signature_key(sig)}
    else:
        extras = {"height": record.big_omega, "signature": signature_key(sig), "LI": _least_integer(sig)}
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
        if (nodes := sum(map(invariants._order, sigs))) > args.node_budget:
            raise BudgetError(
                f"--max-omega {args.max_omega} builds {nodes} nodes in all,"
                f" more than the node budget {args.node_budget}"
            )
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
    report = conj.scan(args.id, sigs, node_budget=args.node_budget, scope=scope)
    _write_out(report.to_json() + "\n", args.out)
    return 0 if report.ok else 3


_SIZE_HELP = f"{{}}; at most {SIZE_BUDGET} (the size budget)"


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The top-level parser, whose ``parse_args`` parses any command line, and
    its command table: each command's own parser by name, as the subparsers
    action holds them."""
    parser = argparse.ArgumentParser(
        prog="divgraph",
        description="Divisor-lattice graphs, their invariants, and integer sequences.",
    )
    version = f"%(prog)s {__version__} ({active_backend()} kernels)"
    parser.add_argument("--version", action="version", version=version)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)

    p_inv = sub.add_parser("invariants", help="all fourteen invariants of one n or signature")
    p_inv.target()
    p_inv.option("--format", choices=["text", "json"], default="text")
    _add_budget_flag(p_inv, "--omega-budget", invariants.DEFAULT_OMEGA_BUDGET)
    p_inv.option("--out", type=str, default=None)
    p_inv.set_defaults(func=cmd_invariants)

    p_seq = sub.add_parser("sequence", help="emit an invariant sequence")
    p_seq.option("--inv", required=True, help="invariant name (V, EH, ..., PT, LI)")
    p_seq.option("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_seq.option("--count", type=int, default=50, help=_SIZE_HELP.format("number of entries"))
    p_seq.option("--format", choices=[f.value for f in sequences.EmitFormat], default="csv")
    p_seq.option("--out", type=str, default=None)
    p_seq.set_defaults(func=cmd_sequence)

    p_graph = sub.add_parser("graph", help="emit an explicit graph as DOT or JSON")
    p_graph.target()
    p_graph.option("--kind", choices=[k.value for k in graphs.GraphKind], default="hasse")
    p_graph.option("--format", choices=["dot", "json"], default="dot")
    _add_budget_flag(p_graph, "--node-budget", graphs.DEFAULT_NODE_BUDGET)
    _add_budget_flag(p_graph, "--arc-budget", graphs.DEFAULT_ARC_BUDGET)
    p_graph.option("--out", type=str, default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_cmp = sub.add_parser("compare", help="compare a sequence against a local b-file")
    p_cmp.option("--inv", required=True)
    p_cmp.option("--order", choices=[o.value for o in sequences.Ordering], default="natural")
    p_cmp.option("--count", type=int, default=50, help=_SIZE_HELP.format("number of entries"))
    p_cmp.option("--bfile", required=True, help="path to the reference b-file")
    p_cmp.option("--out", type=str, default=None)
    # exit 1 is reserved for a value mismatch; every failure to compare is 2
    p_cmp.set_defaults(func=cmd_compare, failure=2)

    p_conj = sub.add_parser("conjectures", help="scan a conjecture for counterexamples")
    p_conj.option("--id", type=int, choices=[1, 2, 3], required=True)
    p_conj.option(
        "--max-omega", type=int, default=8,
        help=f"id 1: every signature with 1 <= Omega <= MAX_OMEGA; at most {SIZE_BUDGET}"
        " signatures (the size budget)",
    )
    p_conj.option(
        "--max-n", type=int, default=100_000,
        help=_SIZE_HELP.format("id 2: the signatures of n = 1..MAX_N"),
    )
    p_conj.option(
        "--colex-count", type=int, default=200,
        help=_SIZE_HELP.format("id 3: the first COLEX_COUNT graded-colex signatures"),
    )
    _add_budget_flag(p_conj, "--node-budget", graphs.DEFAULT_NODE_BUDGET)
    p_conj.option("--out", type=str, default=None)
    p_conj.set_defaults(func=cmd_conjectures)

    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    """The top-level parser and its command table, built once per process;
    parsing leaves no state on either.  Each command's parser holds the
    declarations that ``_parse`` reads a plain request from, so the table of
    options it reads is built here too, on the first request."""
    return build_parser()


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The namespace, exit and output of ``build_parser()[0].parse_args(argv)``.

    A plain request, a command name and then ``flag value`` pairs that the
    command's ``read`` accepts, is read there, without argparse.  Every other
    request goes to the top-level parser, which gives every usage error and
    the help and version text."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    args = None if command is None else command.read(argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, BudgetError) as exc:  # BFileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return getattr(args, "failure", 1)


if __name__ == "__main__":
    sys.exit(main())
