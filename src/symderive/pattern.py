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

A pattern is keyed on its root kind alone: the matcher's own chain checks
the root's payload and child count. Next to its matcher, each pattern gets
one site scanner, a closure that binds the root kind and the matcher, and
that ``find_first`` and ``find_all`` run. It calls the matcher at every node
of the root kind, and it descends only into subtrees whose kind set
(``expr.kind_set``) holds that kind: no other subtree has a node the
template can match. The tree's own root is tried without asking for its
kind set, so a scan that matches at the root computes none.

``root_index`` compiles a rule set's left sides into one mask walker, a
discrimination net one level deep: it dispatches a node on its kind to the
patterns rooted at that kind, and tries each with the checks its matcher
makes after the root kind, generated by the one function
(``_template_checks``) that writes the matchers. A subtree's rule bits are
those of its root ORed with its children's, and each node keeps them in
its ``_memo`` slot, so a rewritten tree, which shares every subtree off
its rewrite path, costs one dispatch per new node.
``rewrite.RuleSet`` compiles the walker and ``derivation`` runs it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .expr import FUNC, KIND_BITS, NAME_RE, NUM, SYM, Formula, Path, _set_memo, arity_bounds, kind_set, subtree_at

Binding = dict[str, Formula]


class Match(NamedTuple):
    site: Path
    binding: Binding


class Pattern(NamedTuple):
    """A template compiled into its matcher.

    ``match(node)`` matches the template anchored at node's root and returns
    the binding, or None; repeated variables must bind structurally equal
    subtrees. ``root_kind`` is the kind a node needs for the template to
    match there, or None when the template is a bare variable and matches
    anywhere. ``scan(node, path, out, first_only)``
    appends to out, in pre-order, a ``Match`` for each site of node's
    subtree where the template matches, its path prefixed by path; with
    first_only it stops at the first, and returns True once it has one.
    """

    template: Formula
    vars: frozenset[str]
    root_kind: int | None
    match: Callable[[Formula], Binding | None]
    scan: Callable[[Formula, Path, list[Match], bool], bool]


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
    match = namespace["match"]
    kind = None if template.kind == SYM and template.payload in names else template.kind
    return Pattern(template, names, kind, match, _scanner(match, kind))  # type: ignore[arg-type]


def _scanner(
    match: Callable[[Formula], Binding | None], kind: int | None
) -> Callable[[Formula, Path, list[Match], bool], bool]:
    """The site scanner of the pattern whose matcher is match and whose
    root kind is kind (see ``Pattern``)."""
    new_match = tuple.__new__
    if kind is None:
        # a bare variable matches every node

        def scan_all(node: Formula, path: Path, out: list[Match], first_only: bool) -> bool:
            out.append(new_match(Match, (path, match(node))))
            if first_only:
                return True
            for i, child in enumerate(node.children):
                scan_all(child, path + (i,), out, False)
            return False

        return scan_all
    need = KIND_BITS[kind]

    def scan(node: Formula, path: Path, out: list[Match], first_only: bool) -> bool:
        # Only a node of the template root's kind can match there; the
        # matcher checks the rest.
        if node.kind == kind:
            binding = match(node)
            if binding is not None:
                out.append(new_match(Match, (path, binding)))
                if first_only:
                    return True
        for i, child in enumerate(node.children):
            # A subtree without the template root's kind holds no match.
            if (child._kinds or kind_set(child)) & need and scan(child, path + (i,), out, first_only):
                return True
        return False

    return scan


def _template_checks(template: Formula, var_names: frozenset[str]) -> tuple[list[str], dict[str, str]]:
    """The checks that hold of subject node ``n0`` exactly when template
    matches there, as Python expressions to join with ``and`` in pre-order,
    and each variable's subject at its first pre-order occurrence.

    A template node is checked for its kind, for its payload only where the
    kind carries one, and for its child count only where the kind's arity
    varies; unless the template is a bare variable, the first check is the
    root's kind. Every subject node below the root is bound to a local
    ``n<i>`` by ``:=`` in its kind check, and each child is read from its
    parent by index after that check. A variable binds the subject at its
    first occurrence, and each later occurrence is compared with it by
    ``==``.
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
        if is_root:
            local = subject
            checks.append(f"{subject}.kind == {node.kind}")
        else:
            local = f"n{next(counter)}"
            checks.append(f"({local} := {subject}).kind == {node.kind}")
        if node.kind in (SYM, NUM, FUNC):
            checks.append(f"{local}.payload == {node.payload!r}")
        lo, hi = arity_bounds(node.kind)
        if lo != hi:
            checks.append(f"len({local}.children) == {len(node.children)}")
        for i, child in enumerate(node.children):
            visit(child, f"{local}.children[{i}]", False)

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
    children are visited left to right), found by the pattern's scanner."""
    out: list[Match] = []
    pattern.scan(f, (), out, True)
    return out[0] if out else None


def find_all(f: Formula, pattern: Pattern) -> list[Match]:
    """Every matching site, in the same pre-order as find_first, found by
    the pattern's scanner."""
    out: list[Match] = []
    pattern.scan(f, (), out, False)
    return out


# A rule set's mask walker: which of its patterns match at some node of a tree.
MaskWalker = Callable[[Formula], list[bool]]


def root_index(patterns: Sequence[Pattern]) -> MaskWalker:
    """Compile patterns into one walker that tells which of them match at
    some node of a tree, as a mask list.

    The walker is generated code. It finds a subtree's rule bits (bit i
    set when pattern i matches in the subtree) from the patterns that match
    at its root and the bits of its children. To find those at the root it
    dispatches once on the node's kind to the patterns rooted at that kind,
    and tries each with the checks its matcher makes after the root kind
    (``_template_checks``) as one ``and`` chain. Patterns that are bare
    variables match every node, so their bits are always set. As in the
    matchers, only integers and ``repr()`` of validated payloads enter the
    text.

    Each visited node keeps, in its ``_memo`` slot, the walker's entry for
    its bits: (the walker's key, the bits, their mask). There is one entry,
    and one mask list, per distinct bit set, so equal masks are one object,
    which the caller must not modify. A node whose slot holds another
    owner's fact (a rule's builder, another walker's entry) keeps it, and
    its bits are found afresh at each walk. A walk therefore visits only
    the nodes that no walk of this walker has visited before: in a
    rewritten tree, the new nodes on the rewrite path.
    """
    by_kind: dict[int, list[str]] = {}
    always = 0
    for i, pattern in enumerate(patterns):
        if pattern.root_kind is None:
            always |= 1 << i
            continue
        checks = _template_checks(pattern.template, pattern.vars)[0][1:]
        line = f"bits |= {1 << i}"
        by_kind.setdefault(pattern.root_kind, []).append(f"if {' and '.join(checks)}: {line}" if checks else line)
    body = "".join(
        f"    {'elif' if k else 'if'} kind == {kind}:\n" + "".join(f"        {line}\n" for line in lines)
        for k, (kind, lines) in enumerate(by_kind.items())
    )
    source = (
        "def entry_of(n0):\n"
        "    kind = n0.kind\n"
        f"    bits = {always}\n"
        + body
        + "    for child in n0.children:\n"
        "        memo = child._memo\n"
        "        if memo is not None and memo[0] is key:\n"
        "            bits |= memo[1]\n"
        "        else:\n"
        "            bits |= entry_of(child)[1]\n"
        "    entry = entries.get(bits)\n"
        "    if entry is None:\n"
        "        entry = entries[bits] = (key, bits, [bool(bits >> i & 1) for i in indices])\n"
        "    if n0._memo is None:\n"
        "        set_memo(n0, entry)\n"
        "    return entry\n"
        "\n"
        "def walk(root):\n"
        "    memo = root._memo\n"
        "    if memo is not None and memo[0] is key:\n"
        "        return memo[2]\n"
        "    return entry_of(root)[2]\n"
    )
    # The walker's key, its entries by bit set, and what they need.
    namespace: dict[str, object] = {
        "key": object(),
        "entries": {},
        "indices": range(len(patterns)),
        "set_memo": _set_memo,
    }
    exec(compile(source, "<mask walker>", "exec"), namespace)
    return namespace["walk"]  # type: ignore[return-value]
