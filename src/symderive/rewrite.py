"""Directed rewrite rules over formula trees.

A rule is a template pair: wherever the left template matches, the matched
subtree may be replaced by the right template instantiated with the match's
bindings. Rules are directed (no automatic reversal) and purely syntactic.

Rule files are line-oriented::

    # comment
    id | lhs | rhs | var,names | axiom
    id | lhs | rhs | var,names | script: other_rule@0.1; swap_sides@

The last field records how the rule was justified: ``axiom`` for primitive
rules, or a replay script of earlier rules in the same file. A rule set
replays every script when it is built, so a file is checked as it loads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Iterator

from . import pattern
from .errors import DuplicateId, Error, FileFormatError, InvalidPath, RuleNotApplicable, UnknownRule, ValidationFailed
from .expr import SYM, Formula, Path, _rebuild, _set_memo, format_path, parse, parse_path, replace_at, to_text, walk
from .textfile import read_file

_ID_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

# One validated derivation step: (rule id, site path).
Script = tuple[tuple[str, Path], ...]


def template_vars(template: Formula, var_names: Iterable[str]) -> frozenset[str]:
    """The subset of var_names that actually occurs in template."""
    names = frozenset(var_names)
    seen: set[str] = set()
    for _, node in walk(template):
        if node.kind == SYM and node.payload in names:
            seen.add(node.payload)  # type: ignore[arg-type]
    return frozenset(seen)


@dataclass(frozen=True)
class Rule:
    """A directed rewrite: lhs template, rhs template, shared variable set.

    ``script`` holds the (rule id, site) steps that justify a derived rule,
    and is empty for an axiom; ``RuleSet`` replays it over the rules before
    this one. It does not influence application. ``matcher`` is the lhs
    compiled once, when the rule is made. The rhs compiles at the same time
    into a builder, which ``substitute`` runs on the matcher's bindings; a
    rhs with no variable gets none. The builder is kept in the rhs node's
    ``_memo`` slot, keyed by the lhs variables, and only while the slot is
    empty: a rhs node that two rules share keeps the first rule's builder,
    which ``substitute`` runs only for a binding over that rule's variables,
    so it stays exact for both.
    """

    id: str
    lhs: Formula
    rhs: Formula
    vars: frozenset[str]
    script: Script = ()
    matcher: pattern.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id or not set(self.id) <= _ID_OK:
            raise ValueError(f"invalid rule id {self.id!r}")
        object.__setattr__(self, "vars", frozenset(self.vars))
        object.__setattr__(self, "script", tuple((rid, tuple(site)) for rid, site in self.script))
        if self.lhs == self.rhs:
            raise ValueError(f"rule {self.id}: left and right sides are identical")
        lhs_vars = template_vars(self.lhs, self.vars)
        rhs_vars = template_vars(self.rhs, self.vars)
        if not rhs_vars <= lhs_vars:
            loose = ", ".join(sorted(rhs_vars - lhs_vars))
            raise ValueError(f"rule {self.id}: right side introduces unbound variables: {loose}")
        object.__setattr__(self, "matcher", pattern.compile_template(self.lhs, self.vars))
        if rhs_vars and self.rhs._memo is None:
            _set_memo(self.rhs, (lhs_vars, _compile_builder(self.rhs, lhs_vars)))


def _compile_builder(template: Formula, names: frozenset[str]) -> Callable[[pattern.Binding], Formula]:
    """Compile template into ``build(binding)``, the generated straight-line
    code that equals ``substitute(template, binding)`` for every binding
    whose keys are exactly names.

    Each template node with a variable below it becomes one ``_rebuild``
    call, children before their parent; a subtree with no variable is the
    template's own node, passed in through the closure. ``_rebuild`` is read
    from this module's globals at each call, so patching it reaches every
    builder. Only integers, ``repr()`` of names and payloads that the
    Formula constructor has validated, and generated locals enter the text.
    """
    body: list[str] = []
    shared: list[Formula] = []
    loaded: dict[str, str] = {}  # variable -> the local holding its binding

    def visit(node: Formula) -> str | None:
        """The local that holds node's instance; None when node's subtree
        holds no variable, so that the instance is node itself."""
        if node.kind == SYM and node.payload in names:
            local = loaded.get(node.payload)  # type: ignore[arg-type]
            if local is None:
                local = loaded[node.payload] = f"v{len(loaded)}"  # type: ignore[index]
                body.append(f"{local} = binding[{node.payload!r}]")
            return local
        parts = [visit(child) for child in node.children]
        if not any(parts):
            return None
        for i, child in enumerate(node.children):
            if parts[i] is None:
                parts[i] = f"c{len(shared)}"
                shared.append(child)
        local = f"n{len(body)}"
        body.append(f"{local} = _rebuild({node.kind}, {node.payload!r}, ({', '.join(parts)},))")  # type: ignore[arg-type]
        return local

    root = visit(template)
    params = ", ".join(f"c{i}" for i in range(len(shared)))
    source = f"def rhs_builder({params}):\n    def build(binding):\n"
    source += "".join(f"        {line}\n" for line in body)
    source += f"        return {root}\n    return build\n"
    namespace: dict[str, object] = {}
    exec(compile(source, "<rhs>", "exec"), globals(), namespace)
    return namespace["rhs_builder"](*shared)  # type: ignore[operator]


def substitute(template: Formula, binding: pattern.Binding) -> Formula:
    """Instantiate a template: variable leaves are replaced by their bound
    subtrees, everything else is rebuilt as-is. A subtree with no bound
    variable is the template's own node, shared; a rebuilt node keeps its
    template node's kind, payload and child count, so it skips validation.

    On a rule's right side, with a binding whose keys are exactly the
    rule's left-side variables, as its matcher returns them, the builder
    that ``Rule`` compiled makes the same tree, its nodes unvalidated too;
    it is read from the template's ``_memo`` slot, and trusted only when
    the slot's key, the left-side variables, equals the binding's keys.
    Every other call walks the template."""
    compiled = template._memo
    if compiled is not None and binding.keys() == compiled[0]:
        return compiled[1](binding)
    if template.kind == SYM:
        bound = binding.get(template.payload)  # type: ignore[arg-type]
        if bound is not None:
            return bound
        return template
    if not template.children:
        return template
    kids = tuple(substitute(c, binding) for c in template.children)
    if kids == template.children:
        return template
    return _rebuild(template.kind, template.payload, kids)


def apply_rule_at(f: Formula, rule: Rule, site: Path) -> Formula:
    """Apply rule at an explicit site; RuleNotApplicable when it does not match."""
    binding = pattern.match_at(f, site, rule.matcher)
    if binding is None:
        raise RuleNotApplicable(f"rule {rule.id} does not match at site {format_path(site) or '(root)'}")
    return replace_at(f, site, substitute(rule.rhs, binding))


def apply_rule_first(f: Formula, rule: Rule) -> tuple[Formula, Path] | None:
    """Apply rule at the first matching site in pre-order.

    Returns (rewritten formula, site) or None when the rule matches nowhere.
    """
    hit = pattern.find_first(f, rule.matcher)
    if hit is None:
        return None
    return replace_at(f, hit.site, substitute(rule.rhs, hit.binding)), hit.site


class RuleSet:
    """An ordered, id-addressable collection of rules.

    Order matters: it fixes the action indices learners use, and the order in
    which search tries rules. The set checks each rule as it draws it from
    ``rules``, before it draws the next: its id must be new, and a derived
    rule's script is replayed over the rules before it, from its lhs to
    exactly its rhs.
    Instances are immutable; with_rule returns a new set. ``root_index``
    is the rules' left sides compiled into one mask walker:
    ``root_index(tree)`` is the action mask of tree.
    """

    __slots__ = ("rules", "_index", "root_index")

    def __init__(self, rules: Iterable[Rule]):
        checked: list[Rule] = []
        index: dict[str, int] = {}
        for rule in rules:
            _check_rule(rule, checked, index)
            index[rule.id] = len(checked)
            checked.append(rule)
        rules = tuple(checked)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "root_index", pattern.root_index([rule.matcher for rule in rules]))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RuleSet is immutable")

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __getitem__(self, action: int) -> Rule:
        return self.rules[action]

    def ids(self) -> tuple[str, ...]:
        return tuple(rule.id for rule in self.rules)

    def by_id(self, rule_id: str) -> Rule:
        return self.rules[self.index_of(rule_id)]

    def index_of(self, rule_id: str) -> int:
        try:
            return self._index[rule_id]
        except KeyError:
            raise UnknownRule(f"no rule with id {rule_id!r}") from None

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self._index

    def with_rule(self, rule: Rule) -> "RuleSet":
        return RuleSet(self.rules + (rule,))

    def content_hash(self) -> str:
        """Stable hash of the serialized rule set (identifies the action space)."""
        return hashlib.sha256(serialize_rules(self).encode("utf-8")).hexdigest()


def _check_rule(rule: Rule, rules: list[Rule], index: dict[str, int]) -> None:
    """Check a rule against the rules before it, which ``index`` maps by id:
    its id must be new, and its script must replay from its lhs to exactly
    its rhs."""
    if rule.id in index:
        raise DuplicateId(f"rule id {rule.id!r} appears twice")
    current = rule.lhs
    for step_no, (step_id, site) in enumerate(rule.script):
        if step_id not in index:
            raise UnknownRule(f"derived rule {rule.id}: script step {step_no} names unknown rule {step_id!r}")
        try:
            current = apply_rule_at(current, rules[index[step_id]], site)
        except (RuleNotApplicable, InvalidPath) as exc:
            raise ValidationFailed(f"derived rule {rule.id}: script step {step_no} failed: {exc}") from None
    if rule.script and current != rule.rhs:
        raise ValidationFailed(
            f"derived rule {rule.id}: script replay produced {to_text(current)}, not {to_text(rule.rhs)}"
        )


# ---------------------------------------------------------------------------
# rule files


def _format_script(script: Script) -> str:
    steps = ";".join(f"{rid}@{format_path(site)}" for rid, site in script)
    return f"script: {steps}"


def _parse_script(text: str) -> Script:
    body = text[len("script:"):].strip()
    if not body:
        raise FileFormatError("empty script")
    steps: list[tuple[str, Path]] = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if "@" not in chunk:
            raise FileFormatError(f"script step {chunk!r} lacks '@site'")
        rid, _, site_text = chunk.partition("@")
        steps.append((rid.strip(), parse_path(site_text.strip())))
    return tuple(steps)


def serialize_rules(rules: RuleSet) -> str:
    lines = []
    for rule in rules:
        vars_field = ",".join(sorted(rule.vars))
        origin = _format_script(rule.script) if rule.script else "axiom"
        lines.append(f"{rule.id} | {to_text(rule.lhs)} | {to_text(rule.rhs)} | {vars_field} | {origin}")
    return "\n".join(lines) + "\n"


def parse_rules(text: str) -> RuleSet:
    """Read a rule file into one ``RuleSet``. The set checks each rule
    before the next line is parsed, so the first bad line in file order is
    the one refused, and every error names it. A duplicate id or a failed
    replay keeps its type; any other error of this package is the file's
    format and becomes a ``FileFormatError``."""
    lineno = 0

    def rules() -> Iterator[Rule]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield _parse_rule_line(line)

    try:
        return RuleSet(rules())
    except Error as exc:
        kind = type(exc) if isinstance(exc, (DuplicateId, ValidationFailed)) else FileFormatError
        raise kind(f"rule file line {lineno}: {exc}") from None


def _parse_rule_line(line: str) -> Rule:
    fields = [f.strip() for f in line.split("|")]
    if len(fields) != 5:
        raise FileFormatError(f"expected 5 '|' fields, got {len(fields)}")
    rule_id, lhs_text, rhs_text, vars_field, origin = fields
    var_names = frozenset(v.strip() for v in vars_field.split(",") if v.strip())
    lhs = parse(lhs_text)
    rhs = parse(rhs_text)
    if origin == "axiom":
        script: Script = ()
    elif origin.startswith("script:"):
        script = _parse_script(origin)
    else:
        raise FileFormatError("last field must be 'axiom' or 'script: ...'")
    try:
        return Rule(rule_id, lhs, rhs, var_names, script)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def load_rules(path: str) -> RuleSet:
    return parse_rules(read_file(path))


def save_rules(rules: RuleSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_rules(rules))


def packaged_rules(name: str = "ode_base") -> RuleSet:
    """Load one of the rule sets shipped with the package."""
    data = resources.files("symderive").joinpath(f"rules/{name}.rules").read_text("utf-8")
    return parse_rules(data)
