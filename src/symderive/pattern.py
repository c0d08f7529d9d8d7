"""Subtree matching with pattern variables.

A template is an ordinary formula plus a set of variable names. Sym leaves
of the template whose name is in that set bind whole subtrees of the subject;
every other node must coincide exactly (same kind, payload, and child count).
Matching is purely syntactic: no commutativity, no arithmetic.

``root_index`` groups templates by their root node, and ``match_mask`` walks
a tree once to find which of them match anywhere; ``rewrite.RuleSet`` builds
the index and ``derivation`` walks it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .expr import SYM, Formula, Path, subtree_at


class Match(NamedTuple):
    site: Path
    binding: dict[str, Formula]


def _varset(var_names: Iterable[str]) -> frozenset[str]:
    return var_names if isinstance(var_names, frozenset) else frozenset(var_names)


def match_root(node: Formula, template: Formula, var_names: frozenset[str]) -> dict[str, Formula] | None:
    """Match template against node, anchored at node's root.

    Repeated variables must bind structurally equal subtrees. Returns the
    binding, or None.
    """
    binding: dict[str, Formula] = {}
    if _match(node, template, var_names, binding):
        return binding
    return None


def _match(node: Formula, tpl: Formula, var_names: frozenset[str], binding: dict[str, Formula]) -> bool:
    if tpl.kind == SYM:
        name = tpl.payload
        if name in var_names:
            bound = binding.get(name)
            if bound is None:
                binding[name] = node
                return True
            return bound == node
    if node.kind != tpl.kind or node.payload != tpl.payload:
        return False
    a = node.children
    b = tpl.children
    if len(a) != len(b):
        return False
    for ca, cb in zip(a, b):
        if not _match(ca, cb, var_names, binding):
            return False
    return True


def match_at(f: Formula, site: Path, template: Formula, var_names: Iterable[str]) -> dict[str, Formula] | None:
    """Match template against the subtree of f at site; None if it does not fit."""
    return match_root(subtree_at(f, site), template, _varset(var_names))


# A node's (kind, payload, child count): what a non-variable template root fixes.
RootKey = tuple[int, str | None, int]


def _root_key(template: Formula, var_names: frozenset[str]) -> RootKey | None:
    """The (kind, payload, child count) a node needs for template to match
    there, or None when the template is a bare variable and matches anywhere."""
    if template.kind == SYM and template.payload in var_names:
        return None
    return (template.kind, template.payload, len(template.children))


def find_first(f: Formula, template: Formula, var_names: Iterable[str]) -> Match | None:
    """First matching site in pre-order (a node precedes its children,
    children are visited left to right)."""
    names = _varset(var_names)
    out: list[Match] = []
    _scan(f, (), template, names, _root_key(template, names), out, True)
    return out[0] if out else None


def find_all(f: Formula, template: Formula, var_names: Iterable[str]) -> list[Match]:
    """Every matching site, in the same pre-order as find_first."""
    names = _varset(var_names)
    out: list[Match] = []
    _scan(f, (), template, names, _root_key(template, names), out, False)
    return out


def _scan(
    node: Formula,
    path: Path,
    template: Formula,
    var_names: frozenset[str],
    key: RootKey | None,
    out: list[Match],
    first_only: bool,
) -> bool:
    children = node.children
    # Only a node with the template root's key can match there.
    if key is None or (node.kind == key[0] and node.payload == key[1] and len(children) == key[2]):
        binding = match_root(node, template, var_names)
        if binding is not None:
            out.append(Match(path, binding))
            if first_only:
                return True
    for i, child in enumerate(children):
        if _scan(child, path + (i,), template, var_names, key, out, first_only):
            return True
    return False


# (position in the template list, template, its variable names)
IndexEntry = tuple[int, Formula, frozenset[str]]


class RootIndex(NamedTuple):
    """Templates grouped by what their root node must be.

    ``keyed`` maps a root's (kind, payload, child count) to the templates
    whose root is that exact node; this is the first level of a
    discrimination tree. ``anywhere`` holds the positions of templates whose
    root is a pattern variable: such a template is that bare variable, so it
    matches every node.
    """

    keyed: dict[RootKey, tuple[IndexEntry, ...]]
    anywhere: tuple[int, ...]
    size: int


def root_index(templates: Sequence[tuple[Formula, frozenset[str]]]) -> RootIndex:
    """Index (template, var_names) pairs by their root node."""
    keyed: dict[RootKey, list[IndexEntry]] = {}
    anywhere: list[int] = []
    for i, (template, var_names) in enumerate(templates):
        key = _root_key(template, var_names)
        if key is None:
            anywhere.append(i)
        else:
            keyed.setdefault(key, []).append((i, template, var_names))
    return RootIndex({key: tuple(group) for key, group in keyed.items()}, tuple(anywhere), len(templates))


def match_mask(root: Formula, index: RootIndex) -> list[bool]:
    """Which indexed templates match at some node of root, in one walk.

    Each node is tried only against the templates its root key selects; the
    walk ends as soon as every template has matched somewhere. Equal to
    running find_first once per template.
    """
    mask = [False] * index.size
    for i in index.anywhere:
        mask[i] = True
    left = index.size - len(index.anywhere)
    keyed = index.keyed
    stack = [root]
    while stack and left:
        node = stack.pop()
        for i, template, var_names in keyed.get((node.kind, node.payload, len(node.children)), ()):
            if not mask[i] and _match(node, template, var_names, {}):
                mask[i] = True
                left -= 1
        stack.extend(node.children)
    return mask
