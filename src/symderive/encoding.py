"""Fixed-length integer encoding of formula trees.

Each operator kind carries a fixed small integer code from ``DEFAULT_CODES``;
leaves and padding share code 0. A tree is flattened by a pre-order sweep
over its internal nodes (node code, then one code per child, then recurse
into internal children) and right-padded with zeros to the table's fixed
length, so structurally close trees land on nearby vectors. The distance
between two vectors is the count of positions where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EncodingOverflow, FileFormatError, TableMismatch
from .expr import KIND_TAGS, Formula
from .textfile import read_int

FeatureVector = tuple[int, ...]

DEFAULT_L_MAX = 64

# The one code assignment: learners and corpora are valid only under it.
# Code 7 is reserved and never assigned; nothing below assumes the nonzero
# codes are contiguous.
DEFAULT_CODES: dict[str, int] = {
    "Sym": 0,
    "Num": 0,
    "Plus": 1,
    "Minus": 2,
    "Times": 3,
    "Equal": 4,
    "Integral": 5,
    "Sum": 6,
    "Divide": 8,
    "Sqrt": 9,
    "Der": 10,
    "Ln": 11,
    "Exp": 12,
    "DerivRatio": 13,
    "Sin": 14,
    "Cos": 15,
    "Power": 16,
    "FuncApply": 17,
}

# Code of each operator kind, indexed by kind number.
_CODE_BY_KIND: list[int] = [DEFAULT_CODES[tag] for tag in KIND_TAGS]


@dataclass(frozen=True, slots=True)
class SymbolTable:
    """The fixed vector length of the encoding; the codes are always
    DEFAULT_CODES. Build once, share everywhere a model is involved: vectors
    of different lengths must never be compared."""

    l_max: int = DEFAULT_L_MAX

    def __post_init__(self) -> None:
        if self.l_max < 1:
            raise ValueError(f"l_max must be positive, got {self.l_max}")


def default_table(l_max: int = DEFAULT_L_MAX) -> SymbolTable:
    return SymbolTable(l_max)


def encode(f: Formula, table: SymbolTable) -> FeatureVector:
    """Encode a tree as a fixed-length vector of table.l_max codes, by the
    sweep over internal nodes described above; a childless tree encodes to
    all zeros.

    Raises EncodingOverflow when the unpadded sequence is longer than l_max.
    """
    out: list[int] = []
    if f.children:
        _encode(f, _CODE_BY_KIND, out)
    n = len(out)
    if n > table.l_max:
        raise EncodingOverflow(f"encoding needs {n} entries but the table is fixed at {table.l_max}")
    return tuple(out) + (0,) * (table.l_max - n)


def _encode(node: Formula, codes: list[int], out: list[int]) -> None:
    out.append(codes[node.kind])
    for child in node.children:
        out.append(codes[child.kind])
    for child in node.children:
        if child.children:
            _encode(child, codes, out)


def distance(a: FeatureVector, b: FeatureVector) -> int:
    """Positional mismatch count between two equal-length vectors."""
    if len(a) != len(b):
        raise TableMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def format_vector(v: FeatureVector) -> str:
    return " ".join(str(x) for x in v)


def parse_vector(text: str) -> FeatureVector:
    """Inverse of format_vector for a non-empty vector: ints as ``str``
    writes them, one space apart."""
    try:
        return tuple(map(read_int, text.split(" ")))
    except ValueError:
        raise FileFormatError(f"not a feature vector: {text!r}") from None
