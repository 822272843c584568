"""Integer-sequence generation over the three orderings, plus interchange formats.

A sequence table pairs keys with invariant values: keys are n = 1, 2, ...
in natural order, or 0-based signature indices under the two signature
orders.  Tables are held as columns, serialize to CSV, JSON, and OEIS
b-file text, and can be compared against a local b-file reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from operator import itemgetter, lt
from typing import Callable, Optional

from divgraph import invariants
from divgraph.errors import BFileFormatError
from divgraph.signatures import (
    PrimeSignature,
    SignatureOrder,
    _least_integer,
    check_size,
    enumerate_signatures,
    natural_classes,
)


class Ordering(Enum):
    NATURAL = "natural"
    GRADED_COLEX = "colex"
    CANONICAL = "canonical"


#: The invariant table plus the least-integer row, which has no record field.
_ROWS = invariants.TABLE + (("LI", None, _least_integer, ("li",)),)

#: Canonical invariant keys, in table-row order, each with its function of a
#: canonical signature (see ``invariants.TABLE``): for every row that
#: ``generate`` maps one signature at a time, a formula that checks nothing.
INVARIANT_FUNCS: dict[str, Callable[[tuple[int, ...]], int]] = {
    key: func for key, _, func, _ in _ROWS
}

_SPELLINGS = {spelling: key for key, _, _, spellings in _ROWS for spelling in spellings}


def normalize_invariant(name: str) -> str:
    """Resolve a user-supplied invariant name to its canonical key.

    "Omega" and "omega" differ only by case, so exact keys win before the
    spellings are matched case-insensitively.
    """
    if name in INVARIANT_FUNCS:
        return name
    key = _SPELLINGS.get(name.lower())
    if key is None:
        raise ValueError(f"unknown invariant {name!r}; choose from {sorted(INVARIANT_FUNCS)}")
    return key


@dataclass(frozen=True)
class SequenceEntry:
    key: int
    value: int
    signature: Optional[PrimeSignature] = None


@dataclass(frozen=True)
class SequenceTable:
    """One invariant's sequence under one ordering, held as columns.

    ``value_column[i]`` is the value at key ``i + 1`` in natural order and
    at key ``i`` under the signature orders, where ``signature_column[i]``
    is the signature it belongs to; natural-order tables have no signature
    column.  ``entries`` builds the rows as ``SequenceEntry`` objects on
    each access; generating, emitting and comparing never do.
    """

    invariant: str
    ordering: Ordering
    value_column: list[int]
    signature_column: Optional[list[PrimeSignature]] = None

    def keys(self) -> range:
        start = 1 if self.ordering is Ordering.NATURAL else 0
        return range(start, start + len(self.value_column))

    def values(self) -> list[int]:
        return list(self.value_column)

    @property
    def entries(self) -> list[SequenceEntry]:
        """The rows as ``SequenceEntry`` objects, built anew on each access."""
        columns = [self.keys(), self.value_column]
        if self.signature_column is not None:
            columns.append(self.signature_column)
        return list(map(SequenceEntry, *columns))


def generate(invariant: str, ordering: Ordering, count: int) -> SequenceTable:
    """First ``count`` values of one invariant under one ordering, as columns.

    Natural order keys by n starting at 1; signature orders key by index
    starting at 0 (the empty signature) and keep the signatures as a second
    column.  The least-integer row only exists under the signature orders.
    Natural order reads each n's signature class off one smallest-prime-factor
    sieve, computes each distinct signature's value once per call and maps
    those values over the classes.  In every order, a row in
    ``invariants.COLUMNS`` is built in one pass over the signatures, and
    any other row maps its formula over them, with no check per row.
    ``count`` is checked against the size budget before anything is made.
    """
    if not isinstance(ordering, Ordering):
        raise ValueError(f"unknown ordering {ordering!r}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    key = normalize_invariant(invariant)
    func = INVARIANT_FUNCS[key]
    natural = ordering is Ordering.NATURAL
    if natural and key == "LI":
        raise ValueError("LI is only defined under the signature orders")
    check_size("count", count)
    if natural:
        classes, sigs = natural_classes(count)
    else:
        sigs = enumerate_signatures(SignatureOrder(ordering.value), count)
    column = invariants.COLUMNS.get(key)
    values = column(sigs) if column else list(map(func, sigs))
    if natural:
        values = list(map(values.__getitem__, classes))
        return SequenceTable(invariant=key, ordering=ordering, value_column=values)
    return SequenceTable(invariant=key, ordering=ordering, value_column=values, signature_column=sigs)


class EmitFormat(Enum):
    CSV = "csv"
    JSON = "json"
    BFILE = "bfile"


def emit(table: SequenceTable, fmt: EmitFormat) -> bytes:
    """Serialize a table; see parse_bfile for the b-file inverse.

    Each format is one ``%`` fill of a row template repeated once per row
    (see ``_fill``), as ``graphs.to_dot`` fills its arc lines: ``map``
    picks the templates and ``chain`` flattens the columns' fields, so no
    row is formatted in Python.
    """
    keys, values, sigs = table.keys(), table.value_column, table.signature_column
    if fmt is EmitFormat.CSV:
        if sigs is None:
            return ("key,value\n" + _fill("%s,%s\n", "", keys, values)).encode()
        rows = _fill("%s,{},%s\n", "", keys, values, sigs, lambda w: ".".join(["%s"] * w) or "0")
        return ("key,signature,value\n" + rows).encode()
    if fmt is EmitFormat.JSON:
        # byte for byte what json.dumps gives for the dict with the row dicts
        head = json.dumps({"invariant": table.invariant, "ordering": table.ordering.value})
        if sigs is None:
            rows = _fill('{"key": %s, "value": %s}', ", ", keys, values)
        else:
            row = '{"key": %s, "signature": [{}], "value": %s}'
            rows = _fill(row, ", ", keys, values, sigs, lambda w: ", ".join(["%s"] * w))
        return (head[:-1] + ', "entries": [' + rows + "]}").encode()
    if fmt is EmitFormat.BFILE:
        return _fill("%s %s\n", "", keys, values).encode()
    raise ValueError(f"unknown format {fmt!r}")


def _fill(
    row: str,
    sep: str,
    keys: range,
    values: list[int],
    sigs: Optional[list[PrimeSignature]] = None,
    parts: Optional[Callable[[int], str]] = None,
) -> str:
    """The rows joined by ``sep``, by one ``%`` fill of ``row`` repeated,
    with a field for each key and value.  With ``sigs``, each row's ``{}``
    holds ``parts(w)``, the fields of its signature's w parts, so the
    template is picked by the signature's length."""
    if sigs is None:
        return sep.join(repeat(row, len(values))) % tuple(chain.from_iterable(zip(keys, values)))
    widths = list(map(len, sigs))
    rows = [row.replace("{}", parts(w)) for w in range(max(widths, default=0) + 1)]
    fields = chain.from_iterable(chain.from_iterable(zip(zip(keys), sigs, zip(values))))
    return sep.join(map(rows.__getitem__, widths)) % tuple(fields)


def parse_bfile(data: bytes) -> list[tuple[int, int]]:
    """Parse b-file text into (index, value) pairs.

    Tolerates '#' comment lines, blank lines, and leading whitespace;
    requires strictly increasing indices.
    """
    return list(zip(*_bfile_columns(data)))


def _bfile_columns(data: bytes) -> tuple[list[int], list[int]]:
    """The index and value columns of b-file text.

    Each line is split once.  Only a file that fails one of the checks is
    read again, line by line, to report its first bad line.
    """
    text = data.decode("utf-8", errors="replace")
    lines = text.splitlines()
    rows = list(filter(None, map(str.split, lines)))  # blank lines split to []
    if "#" in text:
        rows = [pieces for pieces in rows if not pieces[0].startswith("#")]
    if set(map(len, rows)) == {2}:
        try:
            indices = list(map(int, map(itemgetter(0), rows)))
            values = list(map(int, map(itemgetter(1), rows)))
        except ValueError:
            pass
        else:
            if all(map(lt, indices, islice(indices, 1, None))):
                return indices, values
    raise _first_bfile_error(lines)


def _first_bfile_error(lines: list[str]) -> BFileFormatError:
    """The error for the first bad line, or for a file with no data lines."""
    last: Optional[int] = None
    for line_number, raw in enumerate(lines, 1):
        pieces = raw.split()
        if not pieces or pieces[0].startswith("#"):
            continue
        if len(pieces) != 2:
            return BFileFormatError(f"expected 'index value', got {raw!r}", line_number)
        try:
            index, _ = int(pieces[0]), int(pieces[1])
        except ValueError:
            return BFileFormatError(f"non-integer field in {raw!r}", line_number)
        if last is not None and index <= last:
            return BFileFormatError(f"index {index} not increasing", line_number)
        last = index
    return BFileFormatError("no data lines", 1)


@dataclass(frozen=True)
class MatchReport:
    """Positional comparison of a table against a b-file reference.

    A constant index shift between the two is tolerated and reported, since
    published sequences start at varying offsets.
    """

    offset_shift: int  # reference first index minus table first key
    overlap: int  # entries compared
    matched_prefix: int  # consecutive equal values from the start
    first_mismatch: Optional[tuple[int, int, int]]  # (table key, ours, theirs)

    @property
    def full_match(self) -> bool:
        return self.first_mismatch is None

    def to_dict(self) -> dict:
        return {
            "offset_shift": self.offset_shift,
            "overlap": self.overlap,
            "matched_prefix": self.matched_prefix,
            "first_mismatch": None
            if self.first_mismatch is None
            else {
                "key": self.first_mismatch[0],
                "ours": self.first_mismatch[1],
                "theirs": self.first_mismatch[2],
            },
        }


def compare_bfile(table: SequenceTable, reference: bytes) -> MatchReport:
    """Compare table values against a parsed b-file, position by position."""
    indices, theirs = _bfile_columns(reference)
    ours = table.value_column
    overlap = min(len(ours), len(theirs))
    matched = overlap
    mismatch: Optional[tuple[int, int, int]] = None
    if ours[:overlap] != theirs[:overlap]:
        matched = next(i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b)
        mismatch = (table.keys()[matched], ours[matched], theirs[matched])
    return MatchReport(
        offset_shift=indices[0] - table.keys().start if ours else 0,
        overlap=overlap,
        matched_prefix=matched,
        first_mismatch=mismatch,
    )
