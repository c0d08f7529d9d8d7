"""The hot tree loops: template matching, the action-mask walk, prefix
encoding, Hamming distance.

``pattern`` and ``encoding`` wrap these with the package's types and checks;
``rewrite.RuleSet`` builds the root index and ``derivation`` walks it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .expr import SYM, Formula, Path

# Which implementation of the loops this is; benchmark reports print it.
BACKEND = "python"


def match_root(node: Formula, template: Formula, var_names: frozenset[str]) -> dict[str, Formula] | None:
    """Match template against node, anchored at node's root.

    Pattern variables are Sym leaves of the template whose name is in
    var_names; each binds a whole subtree. Repeated variables must bind
    structurally equal subtrees. Returns the binding, or None.
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


def find_first(root: Formula, template: Formula, var_names: frozenset[str]) -> tuple[Path, dict[str, Formula]] | None:
    """First match site in pre-order (node before children, left to right)."""
    out: list[tuple[Path, dict[str, Formula]]] = []
    _scan(root, (), template, var_names, out, True)
    return out[0] if out else None


def find_all(root: Formula, template: Formula, var_names: frozenset[str]) -> list[tuple[Path, dict[str, Formula]]]:
    """All match sites in pre-order."""
    out: list[tuple[Path, dict[str, Formula]]] = []
    _scan(root, (), template, var_names, out, False)
    return out


def _scan(
    node: Formula,
    path: Path,
    template: Formula,
    var_names: frozenset[str],
    out: list[tuple[Path, dict[str, Formula]]],
    first_only: bool,
) -> bool:
    binding = match_root(node, template, var_names)
    if binding is not None:
        out.append((path, binding))
        if first_only:
            return True
    for i, child in enumerate(node.children):
        if _scan(child, path + (i,), template, var_names, out, first_only):
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

    keyed: dict[tuple[int, str | None, int], tuple[IndexEntry, ...]]
    anywhere: tuple[int, ...]
    size: int


def root_index(templates: Sequence[tuple[Formula, frozenset[str]]]) -> RootIndex:
    """Index (template, var_names) pairs by their root node."""
    keyed: dict[tuple[int, str | None, int], list[IndexEntry]] = {}
    anywhere: list[int] = []
    for i, (template, var_names) in enumerate(templates):
        if template.kind == SYM and template.payload in var_names:
            anywhere.append(i)
        else:
            keyed.setdefault((template.kind, template.payload, len(template.children)), []).append(
                (i, template, var_names)
            )
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


def encode_prefix(root: Formula, codes: list[int]) -> list[int]:
    """Unpadded integer encoding of a tree.

    Pre-order over nodes that have children: append the node's code, then one
    code per child, then recurse into children that themselves have children.
    Leaves contribute only their code in the parent's child block, so the
    encoding is blind to leaf names and literals. A childless root encodes
    to the empty prefix.
    """
    out: list[int] = []
    if root.children:
        _encode(root, codes, out)
    return out


def _encode(node: Formula, codes: list[int], out: list[int]) -> None:
    out.append(codes[node.kind])
    for child in node.children:
        out.append(codes[child.kind])
    for child in node.children:
        if child.children:
            _encode(child, codes, out)


def hamming(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Number of positions where two equal-length vectors differ."""
    if len(a) != len(b):
        raise ValueError("hamming requires equal-length vectors")
    n = 0
    for x, y in zip(a, b):
        if x != y:
            n += 1
    return n
