"""Fixed-length integer encoding of formula trees.

Each operator kind is assigned a small integer code; leaves and padding share
code 0. A tree is flattened by a pre-order sweep over its internal nodes
(node code, then one code per child, then recurse into internal children) and
right-padded with zeros to the table's fixed length, so structurally close
trees land on nearby vectors. The distance between two vectors is the count
of positions where they differ.
"""

from __future__ import annotations

from .errors import EncodingOverflow, FileFormatError, TableMismatch
from .expr import KIND_BY_TAG, KIND_TAGS, N_KINDS, Formula

FeatureVector = tuple[int, ...]

DEFAULT_L_MAX = 64

# Code 7 is reserved and never assigned; code assignments may be sparse, and
# nothing below assumes the nonzero codes are contiguous.
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


class SymbolTable:
    """Immutable map from operator tags to integer codes, plus the fixed
    vector length. Build once, share everywhere a model is involved: vectors
    from different tables must never be compared."""

    __slots__ = ("codes", "l_max", "_by_kind")

    def __init__(self, codes: dict[str, int], l_max: int = DEFAULT_L_MAX):
        if l_max < 1:
            raise ValueError(f"l_max must be positive, got {l_max}")
        canonical: dict[str, int] = {}
        for tag, code in codes.items():
            kind = KIND_BY_TAG.get(tag)
            if kind is None:
                raise FileFormatError(f"symbol table names unknown tag {tag!r}")
            canonical[KIND_TAGS[kind]] = int(code)
        missing = [tag for tag in KIND_TAGS if tag not in canonical]
        if missing:
            raise FileFormatError(f"symbol table is missing codes for: {', '.join(missing)}")
        if canonical["Sym"] != 0 or canonical["Num"] != 0:
            raise FileFormatError("leaf kinds Sym and Num must carry code 0")
        seen: dict[int, str] = {}
        for tag in KIND_TAGS:
            code = canonical[tag]
            if code < 0:
                raise FileFormatError(f"negative code for {tag}")
            if code != 0 and code in seen:
                raise FileFormatError(f"code {code} assigned to both {seen[code]} and {tag}")
            if code != 0:
                seen[code] = tag
        object.__setattr__(self, "codes", dict(canonical))
        object.__setattr__(self, "l_max", int(l_max))
        object.__setattr__(self, "_by_kind", [canonical[KIND_TAGS[k]] for k in range(N_KINDS)])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("SymbolTable is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolTable):
            return NotImplemented
        return self.codes == other.codes and self.l_max == other.l_max

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.codes.items())), self.l_max))

    def code_for(self, tag: str) -> int:
        return self.codes[tag]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_table(self))

    @classmethod
    def load(cls, path: str) -> "SymbolTable":
        with open(path, "r", encoding="utf-8") as fh:
            return parse_table(fh.read())


def default_table(l_max: int = DEFAULT_L_MAX) -> SymbolTable:
    return SymbolTable(DEFAULT_CODES, l_max)


def serialize_table(table: SymbolTable) -> str:
    lines = [f"{tag}={table.codes[tag]}" for tag in KIND_TAGS]
    lines.append(f"L_max={table.l_max}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> SymbolTable:
    codes: dict[str, int] = {}
    l_max: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"symbol table line {lineno}: expected tag=code, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            number = int(value)
        except ValueError:
            raise FileFormatError(f"symbol table line {lineno}: {value!r} is not an integer") from None
        if key == "L_max":
            if number < 1:
                raise FileFormatError(f"symbol table line {lineno}: L_max must be positive, got {number}")
            l_max = number
        else:
            if key in codes:
                raise FileFormatError(f"symbol table line {lineno}: duplicate tag {key!r}")
            codes[key] = number
    if l_max is None:
        raise FileFormatError("symbol table has no L_max line")
    return SymbolTable(codes, l_max)


def encode(f: Formula, table: SymbolTable) -> FeatureVector:
    """Encode a tree as a fixed-length vector of table.l_max codes, by the
    sweep over internal nodes described above; a childless tree encodes to
    all zeros.

    Raises EncodingOverflow when the unpadded sequence is longer than l_max.
    """
    out: list[int] = []
    if f.children:
        _encode(f, table._by_kind, out)
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
    parts = text.split()
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise FileFormatError(f"not a feature vector: {text!r}") from None
