"""Goal-directed derivation: environment, rollouts, traces and search oracle.

A derivation episode starts from a formula and tries to reach a goal — an
exact target tree, or a pattern the final tree must match at the root — by
repeatedly choosing a rewrite rule. The actions are the rules that match
somewhere in the current tree; the chosen rule is applied at its first
matching site in pre-order, and a rule that matches nowhere is refused.
Episodes end on the goal, at a dead end (a repeated tree, one too wide to
encode, or one where no rule applies), or at the step cap; the environment
alone decides which.

Reward shape: reaching the goal pays ``GOAL_REWARD``, stepping into a
repeated or too-wide tree pays ``INVALID_ACTION_REWARD``, and every other
step pays ``STEP_REWARD`` so shorter derivations score higher. The learners
live in :mod:`symderive.rl`, the only module that needs numpy, which this
module imports only in rollouts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from . import pattern
from .encoding import FeatureVector, SymbolTable, encode
from .errors import (
    EncodingOverflow,
    EpisodeFinished,
    Error,
    FileFormatError,
    InvalidPath,
    RuleNotApplicable,
    SearchNotFound,
    ValidationFailed,
)
from .expr import Formula, Path, format_path, intern, parse, parse_canonical, parse_path, replace_at, to_text
from .rewrite import RuleSet, apply_rule_at, apply_rule_first, substitute
from .textfile import file_lines, read_file

if TYPE_CHECKING:
    from .rl import PolicyModel, QTable

GOAL_REWARD = 1.0
INVALID_ACTION_REWARD = -1.0  # the dead-end reward
STEP_REWARD = -0.01
DEFAULT_STEP_CAP = 50

OUTCOME_REACHED = "reached"
OUTCOME_DEAD_END = "dead_end"
OUTCOME_CAP = "cap_exceeded"


@dataclass(frozen=True, slots=True)
class GoalSpec:
    """What counts as done: an exact tree, or a root-anchored pattern.

    A goal is a pattern exactly when it has variables; it compiles its
    template once, into ``matcher``."""

    formula: Formula
    vars: frozenset[str] = frozenset()
    matcher: pattern.Pattern | None = field(init=False, repr=False, compare=False)

    @classmethod
    def exact(cls, formula: Formula) -> "GoalSpec":
        return cls(formula)

    @classmethod
    def pattern(cls, template: Formula, var_names) -> "GoalSpec":
        names = frozenset(var_names)
        if not names:
            raise ValueError("a pattern goal needs at least one variable; use an exact goal instead")
        return cls(template, names)

    def __post_init__(self) -> None:
        matcher = pattern.compile_template(self.formula, self.vars) if self.vars else None
        object.__setattr__(self, "matcher", matcher)

    def satisfied(self, f: Formula) -> bool:
        if self.matcher is None:
            return f == self.formula
        return self.matcher.match(f) is not None

    def text(self) -> str:
        if not self.vars:
            return f"exact:{to_text(self.formula)}"
        return f"pattern[{','.join(sorted(self.vars))}]:{to_text(self.formula)}"


def parse_goal(text: str) -> GoalSpec:
    if text.startswith("exact:"):
        return GoalSpec.exact(parse(text[len("exact:"):]))
    if text.startswith("pattern[") and "]:" in text:
        head, _, body = text.partition("]:")
        names = [n for n in head[len("pattern["):].split(",") if n]
        try:
            return GoalSpec.pattern(parse(body), names)
        except ValueError as exc:
            raise FileFormatError(f"bad goal spec {text!r}: {exc}") from None
    raise FileFormatError(f"not a goal spec: {text!r}")


class TraceSample(NamedTuple):
    """One supervised example from an expert trace: the encoded tree before
    a step and the index of the rule the expert applied."""

    state: FeatureVector
    action: int


class TraceStep(NamedTuple):
    before: Formula
    rule_id: str
    site: Path
    after: Formula


@dataclass(slots=True)
class DerivationTrace:
    goal: GoalSpec
    outcome: str
    steps: list[TraceStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def reached(self) -> bool:
        return self.outcome == OUTCOME_REACHED

    def replay(self, rules: RuleSet) -> None:
        """Check the trace the way its file is read: replay every step from
        step 0's tree and compare the recorded trees (see ``read_trace``).

        Raises ValidationFailed on the first discrepancy. A reached trace
        must also satisfy its goal at the end. A trace with no steps has
        nothing to replay.
        """
        if self.steps:
            read_trace(serialize_trace(self), rules, (self.steps[0].before, to_text(self.steps[0].before)))


def serialize_trace(trace: DerivationTrace) -> str:
    """The trace's file text. A step whose ``before`` is the previous
    step's ``after`` object, as in every generated or replayed trace,
    reuses that tree's text, so a k-step chain prints k + 1 trees."""
    lines = [f"{trace.goal.text()}\t{trace.outcome}"]
    previous: Formula | None = None
    previous_text = ""
    for step in trace.steps:
        before_text = previous_text if step.before is previous else to_text(step.before)
        previous, previous_text = step.after, to_text(step.after)
        lines.append(f"{before_text}\t{step.rule_id}\t{format_path(step.site)}\t{previous_text}")
    return "\n".join(lines) + "\n"


def read_trace(
    text: str,
    rules: RuleSet,
    start: tuple[Formula, str] | None = None,
    where: str = "trace",
    nodes: dict | None = None,
) -> DerivationTrace:
    """Rebuild a trace from its file text by replaying every step.

    The replay begins at ``start``, an instance's start tree with its
    canonical text, or at the tree parsed from step 0's ``before`` when no start is given;
    that text must then be the tree's own text, and a trace with no steps
    needs a start: alone it records none. Each step's recorded trees
    are checked against the replayed ones as text, so no other step formula
    is parsed; replayed trees share unchanged subtrees with their
    predecessors. The goal must be written as ``GoalSpec.text`` writes it,
    and a reached trace must end on its goal. Every error names ``where``.

    The start and every replayed tree are entered in the intern table
    ``nodes`` (see ``expr.intern``), a table of its own when none is given,
    and so is each step's site path: a caller that passes one table for
    many traces gets one object per distinct tree and per distinct site
    across all of them. A step's rule id is the rule set's own string.
    """
    if nodes is None:
        nodes = {}
    lines = file_lines(text, where)
    if not lines:
        raise FileFormatError(f"{where}: empty trace file")
    header = lines[0].split("\t")
    if len(header) != 2:
        raise FileFormatError(f"{where}: bad trace header: {lines[0]!r}")
    goal_text, outcome = header
    if outcome not in (OUTCOME_REACHED, OUTCOME_DEAD_END, OUTCOME_CAP):
        raise FileFormatError(f"{where}: unknown trace outcome {outcome!r}")
    current, current_text = start if start is not None else (None, None)
    if current is not None:
        current = intern(current, nodes)
    steps: list[TraceStep] = []
    for i, line in enumerate(lines[1:]):
        fields = line.split("\t")
        if len(fields) != 4:
            raise FileFormatError(f"{where}: bad trace step line: {line!r}")
        before_text, rule_id, site_text, after_text = fields
        try:
            site = parse_path(site_text)
            site = nodes.setdefault(site, site)
            if current is None:
                current, current_text = intern(parse_canonical(before_text), nodes), before_text
        except Error as exc:
            raise FileFormatError(f"{where}: step {i}: {exc}") from None
        if before_text != current_text:
            origin = "the instance start" if i == 0 else f"where step {i - 1} ended"
            raise ValidationFailed(f"{where}: step {i} does not start from {origin}")
        if rule_id not in rules:
            raise ValidationFailed(f"{where}: step {i} names unknown rule {rule_id!r}")
        rule = rules.by_id(rule_id)
        try:
            after = apply_rule_at(current, rule, site)
        except (RuleNotApplicable, InvalidPath) as exc:
            raise ValidationFailed(f"{where}: step {i} cannot be replayed: {exc}") from None
        replayed_text = to_text(after)
        if replayed_text != after_text:
            raise ValidationFailed(f"{where}: step {i} ({rule_id}) replays to {replayed_text}, recorded {after_text}")
        after = intern(after, nodes)
        steps.append(TraceStep(current, rule.id, site, after))
        current, current_text = after, replayed_text
    reached = outcome == OUTCOME_REACHED and current is not None
    if reached and goal_text == "exact:" + current_text:
        return DerivationTrace(GoalSpec.exact(current), outcome, steps)
    try:
        goal = parse_goal(goal_text)
    except Error as exc:
        raise FileFormatError(f"{where}: bad goal: {exc}") from None
    if goal.text() != goal_text:
        raise FileFormatError(f"{where}: goal {goal_text!r} is not written as {goal.text()}")
    if current is None:
        raise FileFormatError(f"{where}: trace records no start: it has no steps and none was given")
    if reached and not goal.satisfied(current):
        raise ValidationFailed(f"{where}: trace claims 'reached' but its final tree misses the goal")
    return DerivationTrace(goal, outcome, steps)


def save_trace(trace: DerivationTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace))


def load_trace(path: str, rules: RuleSet) -> DerivationTrace:
    """Read a trace file by replaying it under ``rules``."""
    return read_trace(read_file(path), rules, where=path)


class DerivationEnv:
    """Episode state for one derivation attempt, and how it ends.

    Chosen actions are rule indices; the rule is applied at its first
    pre-order match. The environment tracks visited trees: re-entering one
    ends the episode as a dead end (rewrite loops cannot make progress), and
    so does a tree where no rule applies. The current tree is encoded once,
    when it becomes current, and its action mask is walked at most once.
    """

    def __init__(
        self,
        start: Formula,
        goal: GoalSpec,
        rules: RuleSet,
        table: SymbolTable,
        step_cap: int = DEFAULT_STEP_CAP,
    ):
        if step_cap < 1:
            raise ValueError("step_cap must be positive")
        self.goal = goal
        self.rules = rules
        self.table = table
        self.step_cap = step_cap
        self.current = start
        self.steps: list[TraceStep] = []
        self._seen = {start}
        self._vector = encode(start, table)
        self._mask: list[bool] | None = None
        self.outcome: str | None = None
        if goal.satisfied(start):
            self.outcome = OUTCOME_REACHED
        else:
            self._mask = rules.root_index(start)
            if not any(self._mask):
                self.outcome = OUTCOME_DEAD_END
        self.done = self.outcome is not None

    def state_vector(self) -> FeatureVector:
        """The encoding of the current tree."""
        return self._vector

    def applicable_mask(self) -> list[bool]:
        """Which rules match somewhere in the current tree, found by the
        rule set's compiled mask walker at most once per tree. The walker
        tries each node only against the rules rooted at a node like it,
        and only nodes it has not seen before: a rewritten tree shares the
        rule bits of every subtree off its rewrite path. The list belongs
        to the rule set, one per distinct mask: do not modify it."""
        if self._mask is None:
            self._mask = self.rules.root_index(self.current)
        return self._mask

    def env_step(self, action: int) -> tuple[FeatureVector, float, bool]:
        """Apply one chosen rule. Returns (next state vector, reward, done).

        A rule that matches nowhere raises RuleNotApplicable and leaves the
        episode as it was. A step to a tree whose encoding does not fit
        ``table.l_max`` is kept in the trace but ends the episode as a dead
        end (unless the tree is the goal), and the vector returned is the
        last one that fit. A tree where no rule applies ends the episode as
        a dead end; the step into it pays ``STEP_REWARD``."""
        if self.done:
            raise EpisodeFinished("env_step called after the episode ended")
        if not 0 <= action < len(self.rules):
            raise ValueError(f"action {action} out of range for {len(self.rules)} rules")
        result = apply_rule_first(self.current, self.rules[action])
        if result is None:
            raise RuleNotApplicable(f"rule {self.rules[action].id} matches nowhere in {to_text(self.current)}")
        new, site = result
        self.steps.append(TraceStep(self.current, self.rules[action].id, site, new))
        self.current = new
        self._mask = None
        try:
            vector: FeatureVector | None = encode(new, self.table)
        except EncodingOverflow:
            vector = None
        if self.goal.satisfied(new):
            self.outcome = OUTCOME_REACHED
            reward = GOAL_REWARD
        elif vector is None or new in self._seen:
            self.outcome = OUTCOME_DEAD_END
            reward = INVALID_ACTION_REWARD
        elif len(self.steps) >= self.step_cap:
            self.outcome = OUTCOME_CAP
            reward = STEP_REWARD
        else:
            self._seen.add(new)
            reward = STEP_REWARD
            self._mask = self.rules.root_index(new)
            if not any(self._mask):
                self.outcome = OUTCOME_DEAD_END
        self.done = self.outcome is not None
        if vector is not None:
            self._vector = vector
        return self.state_vector(), reward, self.done

    def trace(self) -> DerivationTrace:
        outcome = self.outcome if self.outcome is not None else OUTCOME_CAP
        return DerivationTrace(self.goal, outcome, list(self.steps))


def rollout(
    env: DerivationEnv,
    learner: QTable | PolicyModel,
    mode: str = "greedy",
    epsilon: float = 0.1,
    rng: random.Random | None = None,
) -> DerivationTrace:
    """Drive an environment with a learner, choosing among the applicable
    rules, until the environment ends the episode."""
    from .rl import select_action

    if rng is None:
        rng = random.Random(0)
    state = env.state_vector()
    while not env.done:
        action = select_action(learner, state, env.applicable_mask(), mode, epsilon, rng)
        state, _, _ = env.env_step(action)
    return env.trace()


# Deep enough for the longest expert scripts of the corpus (9 steps).
DEFAULT_DEPTH_CAP = 10


def bfs_oracle(
    start: Formula,
    goal: GoalSpec,
    rules: RuleSet,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    first_site_only: bool = False,
) -> DerivationTrace:
    """Breadth-first search over rewrites; returns a shortest reached trace.

    Expansion order is deterministic: rules in set order, and for each rule
    every match site in pre-order (or only the first site when
    first_site_only is set, which mirrors what the environment can do).
    Each expanded tree first gets its action mask from the rule set's
    walker, which visits only the nodes its rewrite made new, and only the
    rules the mask marks are scanned for their sites; a rule the mask
    leaves out has no site, so the order and the routes are those of
    scanning every rule. Raises SearchNotFound when no derivation exists within
    depth_cap steps, and ValueError for a negative depth_cap.
    """
    if depth_cap < 0:
        raise ValueError(f"depth_cap must not be negative, got {depth_cap}")
    if goal.satisfied(start):
        return DerivationTrace(goal, OUTCOME_REACHED, [])
    # every tree seen, with the (tree before, rule id, site) step that made it
    parents: dict[Formula, tuple[Formula, str, Path] | None] = {start: None}
    queue: deque[tuple[Formula, int]] = deque([(start, 0)])
    while queue:
        current, depth = queue.popleft()
        if depth >= depth_cap:
            continue
        for rule, applicable in zip(rules, rules.root_index(current)):
            if not applicable:
                continue
            if first_site_only:
                # the mask marked the rule, so it has a first site
                matches = [pattern.find_first(current, rule.matcher)]
            else:
                matches = pattern.find_all(current, rule.matcher)
            for site, binding in matches:
                candidate = replace_at(current, site, substitute(rule.rhs, binding))
                if candidate in parents:
                    continue
                parents[candidate] = (current, rule.id, site)
                if goal.satisfied(candidate):
                    return DerivationTrace(goal, OUTCOME_REACHED, _unwind(parents, candidate))
                queue.append((candidate, depth + 1))
    raise SearchNotFound(f"no derivation within {depth_cap} steps from {to_text(start)}")


def _unwind(parents: dict[Formula, tuple[Formula, str, Path] | None], last: Formula) -> list[TraceStep]:
    steps: list[TraceStep] = []
    step = parents[last]
    while step is not None:
        before, rule_id, site = step
        steps.append(TraceStep(before, rule_id, site, last))
        last = before
        step = parents[last]
    steps.reverse()
    return steps
