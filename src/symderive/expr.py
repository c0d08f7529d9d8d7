"""Formula trees and their textual constructor syntax.

A formula is an immutable multiway tree. Internal nodes carry an operator
kind (``Equal``, ``Plus``, ``Integral``, ...); leaves are named symbols
(``Sym("x")``) or numeric literals kept as exact decimal strings
(``Num(2)``, ``Num(2.50)``). The same constructor notation is both the
repr of a tree and the wire format used by every file format and CLI
command, and ``parse(to_text(f)) == f`` holds for every formula that nests
at most ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator

from .errors import ArityError, FileFormatError, InvalidPath, ParseError, UnknownKind
from .textfile import read_int

# Kind ids.
SYM = 0
NUM = 1
EQUAL = 2
PLUS = 3
MINUS = 4
TIMES = 5
DIVIDE = 6
POWER = 7
SQRT = 8
INTEGRAL = 9
DER = 10
DERIV_RATIO = 11
SUM = 12
LN = 13
EXP = 14
SIN = 15
COS = 16
FUNC = 17

# (tag, min arity, max arity); None means unbounded. Index = kind id.
_KIND_TABLE = (
    ("Sym", 0, 0),
    ("Num", 0, 0),
    ("Equal", 2, 2),
    ("Plus", 2, None),
    ("Minus", 2, 2),
    ("Times", 2, None),
    ("Divide", 2, 2),
    ("Power", 2, 2),
    ("Sqrt", 1, 1),
    ("Integral", 2, 2),  # (integrand, integration variable)
    ("Der", 1, 1),
    ("DerivRatio", 2, 2),  # d(first)/d(second) as a single node
    ("Sum", 1, 1),
    ("Ln", 1, 1),
    ("Exp", 1, 1),
    ("Sin", 1, 1),
    ("Cos", 1, 1),
    ("FuncApply", 0, None),
)

KIND_TAGS: tuple[str, ...] = tuple(row[0] for row in _KIND_TABLE)
KIND_BY_TAG: dict[str, int] = {tag: i for i, (tag, _, _) in enumerate(_KIND_TABLE)}
# Long-form alias accepted on input; output always uses the canonical tag.
KIND_BY_TAG["Differential"] = DER

N_KINDS = len(_KIND_TABLE)

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMERAL_RE = re.compile(r"-?[0-9]+(?:\.[0-9]+)?\Z")

Path = tuple[int, ...]


def format_path(path: Path) -> str:
    """Dotted child indices, as files write a site; the root is ""."""
    return ".".join(map(str, path))


def parse_path(text: str) -> Path:
    """Inverse of format_path; FileFormatError when text is not what it
    writes: child indices, each non-negative and written by ``str``, joined
    by dots."""
    if not text:
        return ()
    try:
        path = tuple(map(read_int, text.split(".")))
        if min(path) >= 0:
            return path
    except ValueError:
        pass
    raise FileFormatError(f"bad site path {text!r}")


def arity_bounds(kind: int) -> tuple[int, int | None]:
    """Return (min, max) child count for a kind; max None means unbounded."""
    return _KIND_TABLE[kind][1], _KIND_TABLE[kind][2]


class Formula:
    """One node of an immutable formula tree.

    ``payload`` holds the symbol name for Sym, the literal text for Num, the
    function name for FuncApply, and is None for every other kind. Equality
    and hashing are structural; the hash is computed once at construction.

    The constructor validates the kind, the child count and the payload, so
    every tree built from input (``parse``, ``mk``, ``sym``, ``num``,
    ``func``) is well formed. ``replace_at``, ``intern``, ``rewrite.substitute``
    and the builders that ``rewrite.Rule`` compiles from its right side rebuild
    nodes through ``_rebuild`` instead, without validating again: each node
    they make copies the kind, payload and child count of a node that
    already passed this check.

    Inside a corpus that ``dataset.build_corpus`` or ``dataset.load_corpus``
    returns, equal subtrees are one object (see ``intern``). Identity means
    nothing across calls, and ``==`` stays structural everywhere.

    ``_kinds`` is a cache of ``kind_set``: the kinds in the subtree as a
    bitmask, or 0 until first asked for. Both constructors store 0, and
    ``kind_set`` alone fills it, through the slot's own setter.

    ``_memo`` holds one fact derived from the node by one owner, as a
    tuple whose first item is the owner's key, or None. Both constructors
    store None, and the slot is written at most once, while it is None, so
    an owner never takes it from another: a reader trusts it only under its
    own key, and computes the fact afresh otherwise. On a rule's right side
    ``rewrite.Rule`` stores the (left-side variable names, builder) pair
    that ``rewrite.substitute`` runs; on a node that a rule set's mask
    walker reached, the walker stores its (key, rule bits, mask) entry for
    the rules that match in the subtree (``pattern.root_index``). Neither
    ``_kinds`` nor ``_memo`` takes part in equality, hashing or the repr.
    """

    __slots__ = ("kind", "payload", "children", "_hash", "_kinds", "_memo")

    kind: int
    payload: str | None
    children: tuple["Formula", ...]

    def __init__(self, kind: int, payload: str | None, children: tuple["Formula", ...]):
        if not 0 <= kind < N_KINDS:
            raise UnknownKind(f"no kind with id {kind}")
        tag, lo, hi = _KIND_TABLE[kind]
        n = len(children)
        if n < lo or (hi is not None and n > hi):
            bound = f"exactly {lo}" if lo == hi else f"at least {lo}"
            raise ArityError(f"{tag} takes {bound} children, got {n}")
        if kind == SYM or kind == FUNC:
            if payload is None or not NAME_RE.match(payload):
                raise ValueError(f"invalid {tag} name: {payload!r}")
        elif kind == NUM:
            if payload is None or not _NUMERAL_RE.match(payload):
                raise ValueError(f"invalid Num literal: {payload!r}")
        elif payload is not None:
            raise ValueError(f"{tag} carries no payload")
        _set_kind(self, kind)
        _set_payload(self, payload)
        _set_children(self, children)
        _set_hash(self, hash((kind, payload, children)))
        _set_kinds(self, 0)
        _set_memo(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Formula is immutable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.kind == other.kind
            and self.payload == other.payload
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return to_text(self)


# The slots' own setters: they bypass Formula.__setattr__, as
# object.__setattr__ would, at about half its cost. Both constructors and
# kind_set write the slots through them; rewrite.Rule and the mask walkers
# of pattern.root_index write _memo.
_new_node = object.__new__
_set_kind = Formula.kind.__set__  # type: ignore[attr-defined]
_set_payload = Formula.payload.__set__  # type: ignore[attr-defined]
_set_children = Formula.children.__set__  # type: ignore[attr-defined]
_set_hash = Formula._hash.__set__  # type: ignore[attr-defined]
_set_kinds = Formula._kinds.__set__  # type: ignore[attr-defined]
_set_memo = Formula._memo.__set__  # type: ignore[attr-defined]


def _rebuild(kind: int, payload: str | None, children: tuple[Formula, ...]) -> Formula:
    """A node built without validation, for a rebuild that keeps a valid
    node's kind, payload and child count and swaps only children. Only
    ``replace_at``, ``intern``, ``rewrite.substitute`` and the right-side
    builders that ``rewrite.Rule`` compiles call it; input goes through
    ``Formula(...)``."""
    node = _new_node(Formula)
    _set_kind(node, kind)
    _set_payload(node, payload)
    _set_children(node, children)
    _set_hash(node, hash((kind, payload, children)))
    _set_kinds(node, 0)
    _set_memo(node, None)
    return node


# Bit i of a kind set stands for kind i; every set holds its root's bit, so
# no computed set is 0.
KIND_BITS: tuple[int, ...] = tuple(1 << kind for kind in range(N_KINDS))


def kind_set(f: Formula) -> int:
    """The kinds that occur in f's subtree, as a bitmask of KIND_BITS.

    Computed the first time it is asked for and cached on f and on every
    node below it, so a subtree shared between trees is walked once."""
    kinds = f._kinds
    if not kinds:
        kinds = KIND_BITS[f.kind]
        for child in f.children:
            kinds |= child._kinds or kind_set(child)
        _set_kinds(f, kinds)
    return kinds


def intern(f: Formula, nodes: dict[Formula, Formula]) -> Formula:
    """The node of the intern table ``nodes`` that equals f, entering the
    nodes of f that it lacks, children first (hash-consing).

    A node is rebuilt only when one of its children was swapped for its
    twin in the table, so every node of the result is the table's own. A
    tree already in the table comes back after one probe: a dict tests
    identity before equality. Each child is probed here before any call,
    so a child the table holds costs none. The table is a plain dict that
    the caller owns and drops when it returns: no table is global."""
    shared = nodes.get(f)
    if shared is not None:
        return shared
    children = f.children
    if children:
        kids = []
        swapped = False
        for child in children:
            kid = nodes.get(child)
            if kid is None:
                kid = intern(child, nodes)
            if kid is not child:
                swapped = True
            kids.append(kid)
        if swapped:
            f = _rebuild(f.kind, f.payload, tuple(kids))
    nodes[f] = f
    return f


def sym(name: str) -> Formula:
    return Formula(SYM, name, ())


def num(literal: str | int) -> Formula:
    return Formula(NUM, str(literal), ())


def func(name: str, *children: Formula) -> Formula:
    return Formula(FUNC, name, children)


def mk(tag: str, *children: Formula) -> Formula:
    """Build an operator node by tag name. Leaves go through sym/num/func."""
    kind = KIND_BY_TAG.get(tag)
    if kind is None:
        raise UnknownKind(f"unknown node tag {tag!r}")
    if kind in (SYM, NUM, FUNC):
        raise ValueError(f"{tag} carries a payload; use sym()/num()/func()")
    return Formula(kind, None, children)


# ---------------------------------------------------------------------------
# printing


def to_text(f: Formula) -> str:
    parts: list[str] = []
    _write(f, parts.append)
    return "".join(parts)


# An operator's tag with its opening parenthesis, one string per kind.
_OPENINGS = tuple(tag + "(" for tag in KIND_TAGS)


def _write(f: Formula, put: Callable[[str], None]) -> None:
    """Pass f's text to ``put`` piece by piece, pre-order. It recurses
    through itself, never through ``to_text``."""
    k = f.kind
    if k == SYM:
        put(f'Sym("{f.payload}")')
        return
    if k == NUM:
        put(f"Num({f.payload})")
        return
    if k == FUNC:
        put(f'FuncApply("{f.payload}"')
        for c in f.children:
            put(",")
            _write(c, put)
        put(")")
        return
    put(_OPENINGS[k])
    first = True
    for c in f.children:
        if first:
            first = False
        else:
            put(",")
        _write(c, put)
    put(")")


# ---------------------------------------------------------------------------
# paths


def subtree_at(f: Formula, path: Path) -> Formula:
    node = f
    for depth, step in enumerate(path):
        if step < 0 or step >= len(node.children):
            raise InvalidPath(f"no child {step} at {path[:depth]}")
        node = node.children[step]
    return node


def replace_at(f: Formula, path: Path, replacement: Formula) -> Formula:
    """Return a copy of f with the subtree at path swapped for replacement."""
    if not path:
        return replacement
    step = path[0]
    if step < 0 or step >= len(f.children):
        raise InvalidPath(f"no child {step} under {KIND_TAGS[f.kind]}")
    kids = list(f.children)
    kids[step] = replace_at(kids[step], path[1:], replacement)
    return _rebuild(f.kind, f.payload, tuple(kids))


def walk(f: Formula) -> Iterator[tuple[Path, Formula]]:
    """Yield (path, node) pairs in pre-order: node first, children left to right."""
    stack: list[tuple[Path, Formula]] = [((), f)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((path + (i,), node.children[i]))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r'[ \t\r\n]*(?:'
    r'(?P<name>[A-Za-z_][A-Za-z0-9_]*)'
    r'|(?P<string>"[A-Za-z_][A-Za-z0-9_]*")'
    r'|(?P<number>-?[0-9]+(?:\.[0-9]+)?)'
    r'|(?P<punct>[(),])'
    r')'
)

_WS_RE = re.compile(r"[ \t\r\n]*")

# Deepest node nesting parse accepts: far above any generated formula (about
# 10 levels) and far under the interpreter's recursion limit, which the
# recursive parser and printer would otherwise hit.
MAX_DEPTH = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            at = _WS_RE.match(text, pos).end()  # type: ignore[union-attr]
            if at >= n:
                break
            raise ParseError(f"invalid token {text[at]!r}", at)
        kind = m.lastgroup
        assert kind is not None
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, want: str, what: str) -> str:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text), what)
        kind, value, pos = tok
        if kind != want:
            raise ParseError(f"unexpected {value!r}", pos, what)
        self.i += 1
        return value

    def _expect_punct(self, ch: str) -> None:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text), f"'{ch}'")
        kind, value, pos = tok
        if kind != "punct" or value != ch:
            raise ParseError(f"unexpected {value!r}", pos, f"'{ch}'")
        self.i += 1

    def parse(self) -> Formula:
        f = self._formula(1)
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], "end of input")
        return f

    def _formula(self, depth: int) -> Formula:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text), "a node tag")
        kind_tok, value, pos = tok
        if kind_tok != "name":
            raise ParseError(f"unexpected {value!r}", pos, "a node tag")
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", pos)
        kind = KIND_BY_TAG.get(value)
        if kind is None:
            raise UnknownKind(f"unknown node tag {value!r} at position {pos}")
        self.i += 1
        self._expect_punct("(")
        if kind == SYM:
            name = self._next("string", "a quoted symbol name")[1:-1]
            self._expect_punct(")")
            return Formula(SYM, name, ())
        if kind == NUM:
            literal = self._next("number", "a numeric literal")
            self._expect_punct(")")
            return Formula(NUM, literal, ())
        children: list[Formula] = []
        if kind == FUNC:
            fname = self._next("string", "a quoted function name")[1:-1]
            while self._is_comma():
                self.i += 1
                children.append(self._formula(depth + 1))
            self._expect_punct(")")
            return Formula(FUNC, fname, tuple(children))
        children.append(self._formula(depth + 1))
        while self._is_comma():
            self.i += 1
            children.append(self._formula(depth + 1))
        self._expect_punct(")")
        return Formula(kind, None, tuple(children))

    def _is_comma(self) -> bool:
        tok = self._peek()
        return tok is not None and tok[0] == "punct" and tok[1] == ","


def parse(text: str) -> Formula:
    """Parse constructor syntax into a formula tree.

    Raises ParseError for syntax problems and for nesting deeper than
    MAX_DEPTH, UnknownKind for an unrecognized tag, and ArityError when a
    node has the wrong number of children.
    """
    return _Parser(text).parse()


def parse_canonical(text: str) -> Formula:
    """Parse text that must be the tree's own ``to_text``, as files write a
    tree; FileFormatError when it is written any other way."""
    f = parse(text)
    canonical = to_text(f)
    if canonical != text:
        raise FileFormatError(f"tree {text!r} is not written as {canonical}")
    return f
