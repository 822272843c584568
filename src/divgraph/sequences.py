"""Integer-sequence generation over the three orderings, plus interchange formats.

A sequence table pairs keys with invariant values: keys are n = 1, 2, ...
in natural order, or 0-based signature indices under the two signature
orders.  Tables serialize to CSV, JSON, and OEIS b-file text, and can be
compared against a local b-file reference.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from divgraph import invariants
from divgraph.errors import BFileFormatError
from divgraph.signatures import (
    SignatureOrder,
    enumerate_signatures,
    least_integer,
    signature_from_sieve,
    signature_key,
    spf_sieve,
)


class Ordering(Enum):
    NATURAL = "natural"
    GRADED_COLEX = "colex"
    CANONICAL = "canonical"


#: The invariant table plus the least-integer row, which has no record field.
_ROWS = invariants.TABLE + (("LI", None, least_integer, ("li",)),)

#: Canonical invariant keys, in table-row order, each with its function.
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
    signature: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class SequenceTable:
    invariant: str
    ordering: Ordering
    entries: list[SequenceEntry]

    def values(self) -> list[int]:
        return [e.value for e in self.entries]


def generate(invariant: str, ordering: Ordering, count: int) -> SequenceTable:
    """First ``count`` values of one invariant under one ordering.

    Natural order keys by n starting at 1; signature orders key by index
    starting at 0 (the empty signature).  The least-integer row only exists
    under the signature orders.  Natural order reads each signature off one
    smallest-prime-factor sieve and computes each distinct signature's value
    once.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    key = normalize_invariant(invariant)
    func = INVARIANT_FUNCS[key]
    entries: list[SequenceEntry] = []
    if ordering is Ordering.NATURAL:
        if key == "LI":
            raise ValueError("LI is only defined under the signature orders")
        spf = spf_sieve(count)
        value_of = functools.cache(func)
        for n in range(1, count + 1):
            entries.append(SequenceEntry(key=n, value=value_of(signature_from_sieve(n, spf))))
    else:
        order = SignatureOrder(ordering.value)
        for i, sig in enumerate(enumerate_signatures(order, count)):
            entries.append(SequenceEntry(key=i, value=func(sig), signature=sig))
    return SequenceTable(invariant=key, ordering=ordering, entries=entries)


class EmitFormat(Enum):
    CSV = "csv"
    JSON = "json"
    BFILE = "bfile"


def emit(table: SequenceTable, fmt: EmitFormat) -> bytes:
    """Serialize a table; see parse_bfile for the b-file inverse."""
    if fmt is EmitFormat.CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        with_sig = table.ordering is not Ordering.NATURAL
        writer.writerow(["key", "signature", "value"] if with_sig else ["key", "value"])
        for e in table.entries:
            if with_sig:
                writer.writerow([e.key, signature_key(e.signature or ()), e.value])
            else:
                writer.writerow([e.key, e.value])
        return buf.getvalue().encode()
    if fmt is EmitFormat.JSON:
        payload = {
            "invariant": table.invariant,
            "ordering": table.ordering.value,
            "entries": [
                {"key": e.key, "value": e.value}
                if e.signature is None
                else {"key": e.key, "signature": list(e.signature), "value": e.value}
                for e in table.entries
            ],
        }
        return json.dumps(payload).encode()
    if fmt is EmitFormat.BFILE:
        return "".join(f"{e.key} {e.value}\n" for e in table.entries).encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_bfile(data: bytes) -> list[tuple[int, int]]:
    """Parse b-file text into (index, value) pairs.

    Tolerates '#' comment lines, blank lines, and leading whitespace;
    requires strictly increasing indices.
    """
    pairs: list[tuple[int, int]] = []
    for line_number, raw in enumerate(data.decode("utf-8", errors="replace").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pieces = line.split()
        if len(pieces) != 2:
            raise BFileFormatError(f"expected 'index value', got {raw!r}", line_number)
        try:
            index, value = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise BFileFormatError(f"non-integer field in {raw!r}", line_number) from None
        if pairs and index <= pairs[-1][0]:
            raise BFileFormatError(f"index {index} not increasing", line_number)
        pairs.append((index, value))
    if not pairs:
        raise BFileFormatError("no data lines", 1)
    return pairs


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
    ref = parse_bfile(reference)
    ours = table.entries
    overlap = min(len(ours), len(ref))
    matched = 0
    mismatch: Optional[tuple[int, int, int]] = None
    for i in range(overlap):
        if ours[i].value == ref[i][1]:
            matched += 1
        else:
            mismatch = (ours[i].key, ours[i].value, ref[i][1])
            break
    return MatchReport(
        offset_shift=ref[0][0] - ours[0].key if ours else 0,
        overlap=overlap,
        matched_prefix=matched,
        first_mismatch=mismatch,
    )
