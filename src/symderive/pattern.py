"""Subtree matching with pattern variables, through compiled templates.

A template is an ordinary formula plus a set of variable names. Sym leaves
of the template whose name is in that set bind whole subtrees of the subject;
every other node must coincide exactly (same kind, payload, and child count).
Matching is purely syntactic: no commutativity, no arithmetic.

``compile_template`` turns a template into a ``Pattern`` once, when its
owner (a rule's left side, a pattern goal, the template of ``match``) is
built. The pattern's ``match`` is generated straight-line code: one ``and``
chain of the template's checks in pre-order, each node's kind, its payload
only where the kind carries one, and its child count only where the kind's
arity varies. It binds each subject node to a local as it checks its kind,
binds a variable at its first pre-order occurrence and compares later
occurrences with ``==``. No template tree is read while matching.

``find_first`` and ``find_all`` try the matcher only at nodes whose kind,
payload and child count equal the template root's, and they descend only
into subtrees whose kind set (``expr.kind_set``) holds the template root's
kind: no other subtree has a node the template can match. The tree's own
root is tried without asking for its kind set, so a scan that matches at
the root computes none.

``root_index`` compiles a rule set's left sides into one mask walker, a
discrimination net one level deep: it walks a tree once, dispatches each
node on its (kind, payload, child count) to the patterns rooted at such a
node, and tries them with the same checks their matchers make, generated
by the one function (``_template_checks``) that writes the matchers.
``rewrite.RuleSet`` compiles the walker and ``derivation`` runs it.
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


def _template_checks(
    template: Formula, var_names: frozenset[str], root_checked: bool = False, root_children: str = "n0.children"
) -> tuple[list[str], dict[str, str]]:
    """The checks that hold of subject node ``n0`` exactly when template
    matches there, as Python expressions to join with ``and`` in pre-order,
    and each variable's subject at its first pre-order occurrence.

    A template node is checked for its kind, for its payload only where the
    kind carries one, and for its child count only where the kind's arity
    varies; root_checked leaves out the root's own checks, for a caller
    that has made them. Every subject node below the root is bound to a
    local ``n<i>`` by ``:=`` in its kind check, and each child is read from
    its parent by index after that check; root_children is the expression
    for ``n0``'s children. A variable binds the subject at its first
    occurrence, and each later occurrence is compared with it by ``==``.
    Only integers and ``repr()`` of template payloads, which the Formula
    constructor has validated, enter the text.
    """
    checks: list[str] = []
    first: dict[str, str] = {}  # variable -> subject of its first occurrence
    counter = itertools.count(1)

    def visit(node: Formula, subject: str, is_root: bool) -> None:
        if node.kind == SYM and node.payload in var_names:
            seen = first.setdefault(node.payload, subject)  # type: ignore[arg-type]
            if seen != subject:
                checks.append(f"{subject} == {seen}")
            return
        local = subject
        if not (is_root and root_checked):
            if is_root:
                checks.append(f"{subject}.kind == {node.kind}")
            else:
                local = f"n{next(counter)}"
                checks.append(f"({local} := {subject}).kind == {node.kind}")
            if node.kind in (SYM, NUM, FUNC):
                checks.append(f"{local}.payload == {node.payload!r}")
            lo, hi = arity_bounds(node.kind)
            if lo != hi:
                checks.append(f"len({local}.children) == {len(node.children)}")
        children = root_children if is_root else f"{local}.children"
        for i, child in enumerate(node.children):
            visit(child, f"{children}[{i}]", False)

    visit(template, "n0", True)
    return checks, first


def _matcher_source(template: Formula, var_names: frozenset[str]) -> str:
    """Python source of ``def match(n0)`` for template: one ``and`` chain of
    its checks, then the binding."""
    checks, first = _template_checks(template, var_names)
    pairs = ", ".join(f"{name!r}: {subject}" for name, subject in first.items())
    source = "def match(n0):\n"
    if checks:
        source += f"    if not ({' and '.join(checks)}):\n        return None\n"
    return source + f"    return {{{pairs}}}\n"


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


# A rule set's mask walker: which of its patterns match at some node of a tree.
MaskWalker = Callable[[Formula], list[bool]]


def root_index(patterns: Sequence[Pattern]) -> MaskWalker:
    """Compile patterns into one walker that finds, in one walk of a tree,
    which of them match at some node of it.

    The walker is generated code. It dispatches once per node on the node's
    kind, then on its payload where the kind carries one, then on its child
    count where the kind's arity varies, to the patterns rooted at that
    exact node. Each of those it tries, until it has matched once, with the
    checks its matcher makes below the root (``_template_checks``) as one
    ``and`` chain. Patterns that are bare variables match every node and
    are marked before the walk starts; leaves are walked only when some
    pattern is rooted at one. The walk ends as soon as every pattern has
    matched somewhere. As in the matchers, only integers and ``repr()`` of
    validated payloads enter the text.
    """
    keyed: dict[int, dict[str | None, dict[int, list[int]]]] = {}
    mask = [False] * len(patterns)
    for i, pattern in enumerate(patterns):
        if pattern.key is None:
            mask[i] = True
        else:
            kind, payload, count = pattern.key
            keyed.setdefault(kind, {}).setdefault(payload, {}).setdefault(count, []).append(i)
    body: list[str] = []

    def emit(depth: int, line: str) -> None:
        body.append("    " * depth + line)

    for k, (kind, by_payload) in enumerate(keyed.items()):
        emit(2, f"{'if' if k == 0 else 'elif'} kind == {kind}:")
        for p, (payload, by_count) in enumerate(by_payload.items()):
            depth = 3
            if payload is not None:
                emit(depth, f"{'if' if p == 0 else 'elif'} n0.payload == {payload!r}:")
                depth += 1
            lo, hi = arity_bounds(kind)
            for c, (count, positions) in enumerate(by_count.items()):
                inner = depth
                if lo != hi:
                    emit(inner, f"{'if' if c == 0 else 'elif'} len(children) == {count}:")
                    inner += 1
                for i in positions:
                    checks, _ = _template_checks(
                        patterns[i].template, patterns[i].vars, root_checked=True, root_children="children"
                    )
                    emit(inner, f"if not mask[{i}]{''.join(f' and {check}' for check in checks)}:")
                    emit(inner + 1, f"mask[{i}] = True")
                    emit(inner + 1, "left -= 1")
                    emit(inner + 1, "if not left:")
                    emit(inner + 2, "return mask")
    if any(0 in by_count for by_payload in keyed.values() for by_count in by_payload.values()):
        emit(2, "stack.extend(children)")
    else:
        for line in ("for child in children:", "    if child.children:", "        push(child)"):
            emit(2, line)
    source = (
        "def walk(root):\n"
        f"    mask = {mask!r}\n"
        f"    left = {mask.count(False)}\n"
        "    if not left:\n"
        "        return mask\n"
        "    stack = [root]\n"
        "    pop, push = stack.pop, stack.append\n"
        "    while stack:\n"
        "        n0 = pop()\n"
        "        kind = n0.kind\n"
        "        children = n0.children\n"
        + "".join(f"{line}\n" for line in body)
        + "    return mask\n"
    )
    namespace: dict[str, object] = {}
    exec(compile(source, "<mask walker>", "exec"), namespace)
    return namespace["walk"]  # type: ignore[return-value]
