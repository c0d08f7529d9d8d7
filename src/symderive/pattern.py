"""Subtree matching with pattern variables, through compiled templates.

A template is an ordinary formula plus a set of variable names. Sym leaves
of the template whose name is in that set bind whole subtrees of the subject;
every other node must coincide exactly (same kind, payload, and child count).
Matching is purely syntactic: no commutativity, no arithmetic.

``compile_template`` turns a template into a ``Pattern`` once, when its
owner (a rule's left side, a pattern goal, the template of ``match``) is
built. The pattern's ``match`` is generated straight-line code: it checks
each template node's kind in pre-order, its payload only where the kind
carries one, and its child count only where the kind's arity varies; it
unpacks children into locals, binds a variable at its first pre-order
occurrence and compares later occurrences with ``==``. No template tree is
read while matching.

``find_first`` and ``find_all`` try the matcher only at nodes whose kind,
payload and child count equal the template root's, and they descend only
into subtrees whose kind set (``expr.kind_set``) holds the template root's
kind: no other subtree has a node the template can match. The tree's own
root is tried without asking for its kind set, so a scan that matches at
the root computes none.

``root_index`` groups patterns by their root node, and ``match_mask`` walks
a tree once to find which of them match anywhere. The walk is kind first:
a node whose kind roots no pattern, which is every leaf for the packaged
rules, is passed over before its key is built. ``rewrite.RuleSet`` builds
the index and ``derivation`` walks it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .expr import ALL_KINDS, FUNC, KIND_BITS, NAME_RE, NUM, SYM, Formula, Path, arity_bounds, kind_set, subtree_at

Binding = dict[str, Formula]
# A node's (kind, payload, child count): what a non-variable template root fixes.
RootKey = tuple[int, str | None, int]


class Match(NamedTuple):
    site: Path
    binding: Binding


class Pattern(NamedTuple):
    """A template compiled into its matcher.

    ``match(node)`` matches the template anchored at node's root and returns
    the binding, or None; repeated variables must bind structurally equal
    subtrees. ``key`` is the (kind, payload, child count) a node needs for
    the template to match there, or None when the template is a bare
    variable and matches anywhere.
    """

    template: Formula
    vars: frozenset[str]
    key: RootKey | None
    match: Callable[[Formula], Binding | None]


def compile_template(template: Formula, var_names: Iterable[str]) -> Pattern:
    """Compile template, with the variables among var_names, into a Pattern.
    Each variable must be a symbol name (ValueError otherwise): only Sym leaves act as variables."""
    names = frozenset(var_names)
    for name in sorted(names):
        if not NAME_RE.match(name):
            raise ValueError(f"pattern variable {name!r} is not a symbol name")
    source = _matcher_source(template, names)
    namespace: dict[str, object] = {}
    exec(compile(source, "<pattern>", "exec"), namespace)
    if template.kind == SYM and template.payload in names:
        key = None
    else:
        key = (template.kind, template.payload, len(template.children))
    return Pattern(template, names, key, namespace["match"])  # type: ignore[arg-type]


def _matcher_source(template: Formula, var_names: frozenset[str]) -> str:
    """Python source of ``def match(n0)`` for template.

    Each local ``n<i>`` is the subject node that faces one template node;
    ``n0`` faces the root. Only integers and ``repr()`` of template
    payloads, which the Formula constructor has validated, enter the text.
    """
    body: list[str] = []
    first: dict[str, str] = {}  # variable -> local of its first occurrence
    counter = itertools.count(1)

    def visit(node: Formula, local: str) -> None:
        if node.kind == SYM and node.payload in var_names:
            seen = first.setdefault(node.payload, local)  # type: ignore[arg-type]
            if seen != local:
                body.append(f"if {local} != {seen}:")
                body.append("    return None")
            return
        if node.kind in (SYM, NUM, FUNC):
            body.append(f"if {local}.kind != {node.kind} or {local}.payload != {node.payload!r}:")
        else:
            body.append(f"if {local}.kind != {node.kind}:")
        body.append("    return None")
        children = node.children
        lo, hi = arity_bounds(node.kind)
        if lo != hi:
            body.append(f"if len({local}.children) != {len(children)}:")
            body.append("    return None")
        if not children:
            return
        locals_ = [f"n{next(counter)}" for _ in children]
        body.append(f"{', '.join(locals_)}{',' if len(locals_) == 1 else ''} = {local}.children")
        for child, child_local in zip(children, locals_):
            visit(child, child_local)

    visit(template, "n0")
    pairs = ", ".join(f"{name!r}: {local}" for name, local in first.items())
    body.append(f"return {{{pairs}}}")
    return "def match(n0):\n" + "".join(f"    {line}\n" for line in body)


def match_at(f: Formula, site: Path, pattern: Pattern) -> Binding | None:
    """Match pattern against the subtree of f at site; None if it does not fit."""
    return pattern.match(subtree_at(f, site))


def find_first(f: Formula, pattern: Pattern) -> Match | None:
    """First matching site in pre-order (a node precedes its children,
    children are visited left to right)."""
    out: list[Match] = []
    _scan(f, (), pattern.match, pattern.key, _needed_kinds(pattern.key), out, True)
    return out[0] if out else None


def find_all(f: Formula, pattern: Pattern) -> list[Match]:
    """Every matching site, in the same pre-order as find_first."""
    out: list[Match] = []
    _scan(f, (), pattern.match, pattern.key, _needed_kinds(pattern.key), out, False)
    return out


def _needed_kinds(key: RootKey | None) -> int:
    """The kind set bits of which a subtree must hold one to hold a match:
    the template root's kind, or any kind for a bare variable."""
    return ALL_KINDS if key is None else KIND_BITS[key[0]]


def _scan(
    node: Formula,
    path: Path,
    match: Callable[[Formula], Binding | None],
    key: RootKey | None,
    need: int,
    out: list[Match],
    first_only: bool,
) -> bool:
    children = node.children
    # Only a node with the template root's key can match there.
    if key is None or (node.kind == key[0] and node.payload == key[1] and len(children) == key[2]):
        binding = match(node)
        if binding is not None:
            out.append(Match(path, binding))
            if first_only:
                return True
    for i, child in enumerate(children):
        # A subtree without the template root's kind holds no match.
        if (child._kinds or kind_set(child)) & need and _scan(child, path + (i,), match, key, need, out, first_only):
            return True
    return False


# (position in the pattern list, its matcher)
IndexEntry = tuple[int, Callable[[Formula], Binding | None]]


class RootIndex(NamedTuple):
    """Patterns grouped by what their root node must be.

    ``keyed`` maps a root's (kind, payload, child count) to the patterns
    whose root is that exact node; this is the first level of a
    discrimination tree. ``kinds`` holds the kinds that occur among those
    keys, so a node of any other kind is passed over without building its
    key. ``anywhere`` holds the positions of patterns whose root is a
    pattern variable: such a template is that bare variable, so it matches
    every node.
    """

    keyed: dict[RootKey, tuple[IndexEntry, ...]]
    kinds: frozenset[int]
    anywhere: tuple[int, ...]
    size: int


def root_index(patterns: Sequence[Pattern]) -> RootIndex:
    """Index patterns by their root node."""
    keyed: dict[RootKey, list[IndexEntry]] = {}
    anywhere: list[int] = []
    for i, pattern in enumerate(patterns):
        if pattern.key is None:
            anywhere.append(i)
        else:
            keyed.setdefault(pattern.key, []).append((i, pattern.match))
    return RootIndex(
        {key: tuple(group) for key, group in keyed.items()},
        frozenset(key[0] for key in keyed),
        tuple(anywhere),
        len(patterns),
    )


def match_mask(root: Formula, index: RootIndex) -> list[bool]:
    """Which indexed patterns match at some node of root, in one walk.

    A node whose kind roots no pattern is passed over; every other node is
    tried only against the patterns its root key selects. The walk ends as
    soon as every pattern has matched somewhere. Equal to running
    find_first once per pattern.
    """
    mask = [False] * index.size
    for i in index.anywhere:
        mask[i] = True
    left = index.size - len(index.anywhere)
    keyed, kinds = index.keyed, index.kinds
    stack = [root]
    while stack and left:
        node = stack.pop()
        if node.kind in kinds:
            for i, match in keyed.get((node.kind, node.payload, len(node.children)), ()):
                if not mask[i] and match(node) is not None:
                    mask[i] = True
                    left -= 1
        stack.extend(node.children)
    return mask
