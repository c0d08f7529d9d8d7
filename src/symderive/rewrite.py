"""Directed rewrite rules over formula trees.

A rule is a template pair: wherever the left template matches, the matched
subtree may be replaced by the right template instantiated with the match's
bindings. Rules are directed (no automatic reversal) and purely syntactic.

Rule files are line-oriented::

    # comment
    id | lhs | rhs | var,names | axiom
    id | lhs | rhs | var,names | script: other_rule@0.1; swap_sides@

The last field records how the rule was justified: ``axiom`` for primitive
rules, or a replay script of earlier rules in the same file. Scripts are
re-validated on load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Sequence

from . import pattern
from .errors import DuplicateId, FileFormatError, InvalidPath, RuleNotApplicable, UnknownRule, ValidationFailed
from .expr import SYM, Formula, Path, _rebuild, format_path, parse, parse_path, replace_at, to_text, walk
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

    ``origin`` is "axiom" or a script string as written in rule files; it is
    carried for round-tripping and does not influence application.
    ``matcher`` is the lhs compiled once, when the rule is made.
    """

    id: str
    lhs: Formula
    rhs: Formula
    vars: frozenset[str]
    origin: str = "axiom"
    matcher: pattern.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id or not set(self.id) <= _ID_OK:
            raise ValueError(f"invalid rule id {self.id!r}")
        object.__setattr__(self, "vars", frozenset(self.vars))
        if self.lhs == self.rhs:
            raise ValueError(f"rule {self.id}: left and right sides are identical")
        lhs_vars = template_vars(self.lhs, self.vars)
        rhs_vars = template_vars(self.rhs, self.vars)
        if not rhs_vars <= lhs_vars:
            loose = ", ".join(sorted(rhs_vars - lhs_vars))
            raise ValueError(f"rule {self.id}: right side introduces unbound variables: {loose}")
        object.__setattr__(self, "matcher", pattern.compile_template(self.lhs, self.vars))


def substitute(template: Formula, binding: dict[str, Formula]) -> Formula:
    """Instantiate a template: variable leaves are replaced by their bound
    subtrees, everything else is rebuilt as-is. A subtree with no bound
    variable is the template's own node, shared; a rebuilt node keeps its
    template node's kind, payload and child count, so it skips validation."""
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
    which search tries rules. Instances are immutable; with_rule returns a
    new set. ``root_index`` groups the rules' left sides by their root node,
    for ``pattern.match_mask``.
    """

    __slots__ = ("rules", "_index", "root_index")

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        index: dict[str, int] = {}
        for i, rule in enumerate(rules):
            if rule.id in index:
                raise DuplicateId(f"rule id {rule.id!r} appears twice")
            index[rule.id] = i
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
        if rule.id in self._index:
            raise DuplicateId(f"rule id {rule.id!r} already present")
        return RuleSet(self.rules + (rule,))

    def content_hash(self) -> str:
        """Stable hash of the serialized rule set (identifies the action space)."""
        return hashlib.sha256(serialize_rules(self).encode("utf-8")).hexdigest()


def register_derived_rule(
    rules: RuleSet,
    rule_id: str,
    before: Formula,
    after: Formula,
    var_names: Iterable[str],
    script: Sequence[tuple[str, Path]],
) -> RuleSet:
    """Add a new rule justified by a replay script.

    A script is a sequence of (existing rule id, site) steps; replaying it
    from ``before`` must produce exactly ``after``, otherwise
    ValidationFailed is raised and the set is left unchanged. An axiom is
    added with ``rules.with_rule(Rule(...))``.
    """
    current = before
    for step_no, (step_id, site) in enumerate(script):
        if step_id not in rules:
            raise UnknownRule(f"derived rule {rule_id}: script step {step_no} names unknown rule {step_id!r}")
        step_rule = rules.by_id(step_id)
        try:
            current = apply_rule_at(current, step_rule, tuple(site))
        except (RuleNotApplicable, InvalidPath) as exc:
            raise ValidationFailed(f"derived rule {rule_id}: script step {step_no} failed: {exc}") from None
    if current != after:
        raise ValidationFailed(
            f"derived rule {rule_id}: script replay produced {to_text(current)}, not {to_text(after)}"
        )
    origin = _format_script(tuple((rid, tuple(site)) for rid, site in script))
    new_rule = Rule(rule_id, before, after, frozenset(var_names), origin)
    return rules.with_rule(new_rule)


# ---------------------------------------------------------------------------
# rule files


def _format_script(script: Script) -> str:
    steps = ";".join(f"{rid}@{format_path(site)}" for rid, site in script)
    return f"script: {steps}"


def _parse_script(text: str, lineno: int) -> Script:
    body = text[len("script:"):].strip()
    if not body:
        raise FileFormatError(f"rule file line {lineno}: empty script")
    steps: list[tuple[str, Path]] = []
    for chunk in body.split(";"):
        chunk = chunk.strip()
        if "@" not in chunk:
            raise FileFormatError(f"rule file line {lineno}: script step {chunk!r} lacks '@site'")
        rid, _, site_text = chunk.partition("@")
        try:
            site = parse_path(site_text.strip())
        except FileFormatError as exc:
            raise FileFormatError(f"rule file line {lineno}: {exc}") from None
        steps.append((rid.strip(), site))
    return tuple(steps)


def serialize_rules(rules: RuleSet) -> str:
    lines = []
    for rule in rules:
        vars_field = ",".join(sorted(rule.vars))
        lines.append(f"{rule.id} | {to_text(rule.lhs)} | {to_text(rule.rhs)} | {vars_field} | {rule.origin}")
    return "\n".join(lines) + "\n"


def parse_rules(text: str) -> RuleSet:
    rules = RuleSet(())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise FileFormatError(f"rule file line {lineno}: expected 5 '|' fields, got {len(fields)}")
        rule_id, lhs_text, rhs_text, vars_field, origin = fields
        var_names = frozenset(v.strip() for v in vars_field.split(",") if v.strip())
        try:
            lhs = parse(lhs_text)
            rhs = parse(rhs_text)
        except Exception as exc:
            raise FileFormatError(f"rule file line {lineno}: {exc}") from None
        try:
            if origin == "axiom":
                rules = rules.with_rule(Rule(rule_id, lhs, rhs, var_names))
            elif origin.startswith("script:"):
                script = _parse_script(origin, lineno)
                rules = register_derived_rule(rules, rule_id, lhs, rhs, var_names, script=script)
            else:
                raise FileFormatError(f"rule file line {lineno}: last field must be 'axiom' or 'script: ...'")
        except (ValueError, UnknownRule) as exc:
            raise FileFormatError(f"rule file line {lineno}: {exc}") from None
        except (DuplicateId, ValidationFailed) as exc:
            raise type(exc)(f"rule file line {lineno}: {exc}") from None
    return rules


def load_rules(path: str) -> RuleSet:
    return parse_rules(read_file(path))


def save_rules(rules: RuleSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_rules(rules))


def packaged_rules(name: str = "ode_base") -> RuleSet:
    """Load one of the rule sets shipped with the package."""
    data = resources.files("symderive").joinpath(f"rules/{name}.rules").read_text("utf-8")
    return parse_rules(data)
