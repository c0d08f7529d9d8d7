"""Training corpus: first-order linear ODE instances with expert traces.

Instances are drawn from a family of equations around ``dy/dx + P*y = Q``
with constant coefficients — presented in shuffled forms (term order swapped,
ratio-of-differentials node, already isolated, flipped sides, ...) — and each
carries the expert rule script that solves it by separation of variables,
either to the closed-form solution or to the separated-integrals milestone.

The eleven variants come from six builders, one per shape. A builder gets
the instance's variable pair, drawn in ``gen_instances``, and draws the
rest in a fixed order; the variants of one builder differ only in the
arguments that ``_VARIANTS`` binds:

- ``_v_plus``: plus_full and plus_swapped (the order of the two terms);
- ``_v_isolated``: isolated_full and deriv_ratio (dy/dx or ``DerivRatio``);
- ``_v_product``: isolated_product, deriv_ratio_product and multiply_route
  (the derivative node, and 3 or 2 source factors);
- ``_v_minus_form``: minus_form;
- ``_v_forced``: direct and flipped (the order of the two sides);
- ``_v_premultiplied``: premultiplied.

Generation is all or nothing: every drawn instance must be solved by its
script (``build_corpus`` raises ``UnsolvableInstance`` otherwise), so a
built corpus holds exactly ``count`` instances.

Every generated trace replays, the set of traces exercises every rule in the
base set, and no two traces disagree about the action taken from the same
encoded state (the encoding is blind to leaf names, so differently named
instances of one shape must be solved the same way — the generator enforces
this instead of assuming it).
"""

from __future__ import annotations

import gc
import os
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterator, get_type_hints

from .derivation import (
    OUTCOME_REACHED,
    DerivationTrace,
    GoalSpec,
    TraceSample,
    TraceStep,
    read_trace,
    save_trace,
)
from .encoding import DEFAULT_L_MAX, SymbolTable, default_table, encode, format_vector
from .errors import CorpusError, Error, FileFormatError, UnsolvableInstance
from .expr import Formula, intern, mk, num, parse_canonical, sym, to_text
from .rewrite import RuleSet, apply_rule_first, packaged_rules
from .textfile import file_lines, read_file, read_header, write_header

CONST_NAMES = ("a", "b", "k", "m", "p", "q")
VAR_PAIRS = (("y", "x"), ("N", "t"), ("u", "r"), ("g", "z"), ("h", "w"))

TRAIN = "train"
TEST = "test"


@dataclass(frozen=True)
class GenConfig:
    """The corpus settings: ``seed.txt`` and the ``gen`` options list these."""

    count: int = 500
    max_degree: int = 4
    coeff_low: int = 1
    coeff_high: int = 5
    l_max: int = DEFAULT_L_MAX
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be positive, got {self.count}")
        if not 2 <= self.max_degree:
            raise ValueError(f"max_degree must be at least 2, got {self.max_degree}")
        if self.coeff_low > self.coeff_high:
            raise ValueError(f"coeff_low must not exceed coeff_high, got {self.coeff_low} > {self.coeff_high}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in [0, 1), got {self.test_fraction}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be positive, got {self.l_max}")


# Each corpus setting with the type its text converts to, in GenConfig's order.
GEN_SETTINGS: dict[str, type] = get_type_hints(GenConfig)


@dataclass(frozen=True, slots=True)
class OdeInstance:
    index: int
    variant: str
    start: Formula
    goal: GoalSpec
    script: tuple[str, ...]


# ---------------------------------------------------------------------------
# shared tree shapes


def _dydx(y: Formula, x: Formula) -> Formula:
    return mk("Divide", mk("Der", y), mk("Der", x))


def _deriv_ratio(y: Formula, x: Formula) -> Formula:
    return mk("DerivRatio", y, x)


def _milestone(y: Formula, x: Formula, denom: Formula) -> GoalSpec:
    return GoalSpec.exact(mk("Equal", mk("Integral", mk("Divide", num(1), denom), y), x))


def _full_goal(y: Formula, x: Formula, k: Formula, lam: Formula) -> GoalSpec:
    """The closed form y = (k - e^(-lam*x)) / lam of dy/dx = k - lam*y.

    The integral rules add no constant of integration, so this is one
    particular solution: the one with k - lam*y(0) = 1. The general solution
    is y = k/lam + C*e^(-lam*x), and this one has C = -1/lam."""
    decay = mk("Exp", mk("Times", x, mk("Times", num(-1), lam)))
    return GoalSpec.exact(mk("Equal", y, mk("Divide", mk("Minus", k, decay), lam)))


def _draw_const(rng: random.Random, cfg: GenConfig) -> Formula:
    if rng.random() < 0.5:
        return num(rng.randint(cfg.coeff_low, cfg.coeff_high))
    return sym(rng.choice(CONST_NAMES))


def _draw_vars(rng: random.Random) -> tuple[Formula, Formula]:
    y_name, x_name = rng.choice(VAR_PAIRS)
    return sym(y_name), sym(x_name)


def _draw_forcing(rng: random.Random, cfg: GenConfig, x: Formula) -> Formula:
    """One member of the forcing family {a, a*x, a*x^n, e^x, sin x}."""
    shape = rng.choice(("const", "linear", "power", "exp", "sin"))
    if shape == "const":
        return _draw_const(rng, cfg)
    if shape == "linear":
        return mk("Times", _draw_const(rng, cfg), x)
    if shape == "power":
        degree = rng.randint(2, cfg.max_degree)
        return mk("Times", _draw_const(rng, cfg), mk("Power", x, num(degree)))
    if shape == "exp":
        return mk("Exp", x)
    return mk("Sin", x)


# Tail scripts shared by the separable variants: isolate dy/(Q - P*y) = dx,
# integrate both sides, and (for the *_full variants) evaluate the integrals
# and solve for y.
_TAIL_MILESTONE = ("clear_divisor", "divide_by_first", "integrate_separated", "integral_of_unit")
_TAIL_FULL = _TAIL_MILESTONE + (
    "integral_of_linear_reciprocal",
    "clear_divisor",
    "ln_to_exp",
    "isolate_linear_term",
)

Draw = tuple[Formula, GoalSpec]
Builder = Callable[[random.Random, GenConfig, Formula, Formula], Draw]
Deriv = Callable[[Formula, Formula], Formula]  # _dydx or _deriv_ratio


def _v_plus(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula, swapped: bool) -> Draw:
    """dy/dx + lam*y = k, with the two terms in either order."""
    k = _draw_const(rng, cfg)
    lam = _draw_const(rng, cfg)
    terms = (_dydx(y, x), mk("Times", lam, y))
    start = mk("Equal", mk("Plus", *(terms[::-1] if swapped else terms)), k)
    return start, _full_goal(y, x, k, lam)


def _v_isolated(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula, deriv: Deriv) -> Draw:
    """deriv(y, x) = k - lam*y, where deriv builds dy/dx or DerivRatio(y, x)."""
    k = _draw_const(rng, cfg)
    lam = _draw_const(rng, cfg)
    start = mk("Equal", deriv(y, x), mk("Minus", k, mk("Times", lam, y)))
    return start, _full_goal(y, x, k, lam)


def _v_product(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula, deriv: Deriv, n_factors: int) -> Draw:
    """deriv(y, x) = c1*(c2*...) - lam*y, a product of n_factors constants,
    solved to the separated-integrals milestone."""
    factors = [_draw_const(rng, cfg) for _ in range(n_factors)]
    lam = _draw_const(rng, cfg)
    source = factors[-1]
    for factor in reversed(factors[:-1]):
        source = mk("Times", factor, source)
    denom = mk("Minus", source, mk("Times", lam, y))
    return mk("Equal", deriv(y, x), denom), _milestone(y, x, denom)


def _v_minus_form(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula) -> Draw:
    """dy/dx - lam*y = k."""
    k = _draw_const(rng, cfg)
    lam = _draw_const(rng, cfg)
    start = mk("Equal", mk("Minus", _dydx(y, x), mk("Times", lam, y)), k)
    denom = mk("Plus", k, mk("Times", lam, y))
    return start, _milestone(y, x, denom)


def _v_forced(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula, flipped: bool) -> Draw:
    """dy/dx = forcing, with the two sides in either order."""
    forcing = _draw_forcing(rng, cfg, x)
    sides = (_dydx(y, x), forcing)
    start = mk("Equal", *(sides[::-1] if flipped else sides))
    return start, GoalSpec.exact(mk("Equal", y, mk("Integral", forcing, x)))


def _v_premultiplied(rng: random.Random, cfg: GenConfig, y: Formula, x: Formula) -> Draw:
    """dy = dx * k."""
    k = _draw_const(rng, cfg)
    start = mk("Equal", mk("Der", y), mk("Times", mk("Der", x), k))
    goal = GoalSpec.exact(mk("Equal", mk("Integral", mk("Divide", num(1), k), y), x))
    return start, goal


# name, builder, and the expert script that solves every instance it draws
_VARIANTS: tuple[tuple[str, Builder, tuple[str, ...]], ...] = (
    ("plus_full", partial(_v_plus, swapped=False), ("move_first_term",) + _TAIL_FULL),
    ("plus_swapped", partial(_v_plus, swapped=True), ("move_second_term",) + _TAIL_FULL),
    ("isolated_full", partial(_v_isolated, deriv=_dydx), _TAIL_FULL),
    ("isolated_product", partial(_v_product, deriv=_dydx, n_factors=3), _TAIL_MILESTONE),
    ("minus_form", _v_minus_form, ("move_neg_term",) + _TAIL_MILESTONE),
    ("direct", partial(_v_forced, flipped=False), ("clear_divisor", "integrate_product")),
    ("deriv_ratio", partial(_v_isolated, deriv=_deriv_ratio), ("expand_deriv_ratio",) + _TAIL_FULL),
    (
        "deriv_ratio_product",
        partial(_v_product, deriv=_deriv_ratio, n_factors=3),
        ("expand_deriv_ratio",) + _TAIL_MILESTONE,
    ),
    ("flipped", partial(_v_forced, flipped=True), ("swap_sides", "clear_divisor", "integrate_product")),
    (
        "multiply_route",
        partial(_v_product, deriv=_dydx, n_factors=2),
        ("multiply_by_diff", "cancel_diff", "divide_by_first", "integrate_separated", "integral_of_unit"),
    ),
    ("premultiplied", _v_premultiplied, ("divide_by_second", "integrate_separated", "integral_of_unit")),
)

VARIANT_NAMES = tuple(name for name, _, _ in _VARIANTS)

# A loaded trace's rule ids give back the variant its instance was built as.
_VARIANT_BY_SCRIPT = {script: name for name, _, script in _VARIANTS}


def gen_instances(config: GenConfig, seed: int) -> Iterator[OdeInstance]:
    """Deterministically draw ``config.count`` instances, cycling through the
    variant catalog so every presentation shape stays represented.

    Instances are drawn one at a time, as the caller asks for them, so a
    caller that is done with each before the next (``build_corpus``) never
    holds them all; ``list(...)`` gives them all at once."""
    rng = random.Random(seed)
    for i in range(config.count):
        name, builder, script = _VARIANTS[i % len(_VARIANTS)]
        start, goal = builder(rng, config, *_draw_vars(rng))
        yield OdeInstance(i, name, start, goal, script)


def solve_instance(instance: OdeInstance, rules: RuleSet, nodes: dict | None = None) -> DerivationTrace:
    """Run an instance's expert script; raises UnsolvableInstance if any step
    fails to apply or the script misses the instance's goal.

    The start, every tree after a step and every site are entered in the
    intern table ``nodes`` (see ``expr.intern``), a table of its own when
    none is given, and an exact goal becomes the trace's final tree. A
    step's rule id is the rule set's own string."""
    if nodes is None:
        nodes = {}
    current = intern(instance.start, nodes)
    steps: list[TraceStep] = []
    for rule_id in instance.script:
        rule = rules.by_id(rule_id)
        result = apply_rule_first(current, rule)
        if result is None:
            raise UnsolvableInstance(
                f"instance {instance.index} ({instance.variant}): {rule_id} "
                f"does not apply to {to_text(current)}"
            )
        after, site = result
        after = intern(after, nodes)
        steps.append(TraceStep(current, rule.id, nodes.setdefault(site, site), after))
        current = after
    goal = instance.goal
    if not goal.satisfied(current):
        raise UnsolvableInstance(
            f"instance {instance.index} ({instance.variant}): script ended at "
            f"{to_text(current)} without reaching its goal"
        )
    if not goal.vars:
        goal = GoalSpec.exact(current)
    return DerivationTrace(goal, OUTCOME_REACHED, steps)


@dataclass
class Corpus:
    instances: list[OdeInstance]
    traces: list[DerivationTrace]
    split: list[str]
    seed: int
    config: GenConfig
    rules_hash: str

    def indices(self, which: str | None = None) -> list[int]:
        if which is None:
            return list(range(len(self.instances)))
        return [i for i, s in enumerate(self.split) if s == which]

    def samples(self, rules: RuleSet, table: SymbolTable, which: str | None = None) -> list[TraceSample]:
        """Flatten traces into (encoded state, expert action index) pairs.

        The samples of one call share one vector object per distinct encoded
        state, since a corpus has far fewer distinct states than steps."""
        states: dict[tuple[int, ...], tuple[int, ...]] = {}
        out: list[TraceSample] = []
        for i in self.indices(which):
            for step in self.traces[i].steps:
                vec = encode(step.before, table)
                out.append(TraceSample(states.setdefault(vec, vec), rules.index_of(step.rule_id)))
        return out

    def n_samples(self) -> int:
        return sum(len(t.steps) for t in self.traces)


def _split_assignment(n: int, seed: int, test_fraction: float) -> list[str]:
    rng = random.Random(f"split:{seed}")
    order = list(range(n))
    rng.shuffle(order)
    n_test = int(round(n * test_fraction))
    test_set = set(order[:n_test])
    return [TEST if i in test_set else TRAIN for i in range(n)]


def check_consistency(traces: list[DerivationTrace], table: SymbolTable) -> None:
    """No two trace steps may take different actions from the same encoded
    state; the policy cannot represent such a corpus.

    Each distinct ``before`` tree is encoded once: a step that starts from
    a tree already checked (in a corpus that shares its nodes, the same
    object) needs only its rule id compared with that tree's."""
    seen: dict[tuple[int, ...], str] = {}
    checked: dict[Formula, str] = {}  # each checked tree -> its rule id
    for i, trace in enumerate(traces):
        for j, step in enumerate(trace.steps):
            prev = checked.get(step.before)
            if prev is None:
                prev = checked[step.before] = seen.setdefault(encode(step.before, table), step.rule_id)
            if prev != step.rule_id:
                raise CorpusError(
                    f"conflicting expert actions ({prev} vs {step.rule_id} at trace {i:05d} step {j}) for "
                    f"encoded state {format_vector(encode(step.before, table))} ({to_text(step.before)})"
                )


def check_coverage(traces: list[DerivationTrace], rules: RuleSet) -> None:
    used = {step.rule_id for trace in traces for step in trace.steps}
    missing = sorted(set(rules.ids()) - used)
    if missing:
        raise CorpusError(f"rules never exercised by the corpus: {', '.join(missing)}")


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, if it is running, until the block
    ends, however it ends (the way ``timeit`` does)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_corpus(config: GenConfig, seed: int, rules: RuleSet) -> Corpus:
    """Generate ``config.count`` instances, solve each with its script, split,
    and run the integrity checks. An instance its script does not solve
    raises ``UnsolvableInstance``, naming the instance, its variant and the
    failing rule; no instance is ever left out.

    The corpus holds one node per distinct subtree and one tuple per
    distinct site: every instance is solved against one intern table (see
    ``solve_instance``), dropped when the call returns. Each instance's
    start and goal are the first and the last tree of its trace. Instances
    are drawn one at a time, each solved before the next is drawn, so a
    drawn tree lives only until it is interned.

    The cyclic garbage collector is paused while it runs: the trees, tuples
    and trace steps it keeps form no cycles, and the duplicates it drops
    are freed by their reference counts, so each full collection would only
    walk again every object kept so far."""
    table = default_table(config.l_max)
    nodes: dict = {}
    instances: list[OdeInstance] = []
    traces: list[DerivationTrace] = []
    for drawn in gen_instances(config, seed):
        trace = solve_instance(drawn, rules, nodes)
        # every script has a step, so the first one starts from the start
        start = trace.steps[0].before
        instances.append(OdeInstance(drawn.index, drawn.variant, start, trace.goal, drawn.script))
        traces.append(trace)
    check_consistency(traces, table)
    check_coverage(traces, rules)
    split = _split_assignment(len(instances), seed, config.test_fraction)
    return Corpus(instances, traces, split, seed, config, rules.content_hash())


# ---------------------------------------------------------------------------
# on-disk layout: instances.txt, traces/NNNNN.trace, split.txt, seed.txt

_SEED_HEADER = {"seed": int, **GEN_SETTINGS, "rules_sha256": str}


def save_corpus(corpus: Corpus, out_dir: str) -> None:
    """Write a corpus to ``out_dir``. A trace file already there that this
    corpus would not overwrite is refused before anything is written, since
    ``load_corpus`` would refuse the directory it leaves."""
    traces_dir = os.path.join(out_dir, "traces")
    if os.path.isdir(traces_dir):
        names = {f"{i:05d}.trace" for i in range(len(corpus.traces))}
        stale = sorted(name for name in os.listdir(traces_dir) if name.endswith(".trace") and name not in names)
        if stale:
            raise CorpusError(
                f"{os.path.join(traces_dir, stale[0])} would be left from an earlier corpus "
                f"({len(stale)} such trace files); write to an empty directory"
            )
    os.makedirs(traces_dir, exist_ok=True)
    with open(os.path.join(out_dir, "instances.txt"), "w", encoding="utf-8") as fh:
        for instance in corpus.instances:
            fh.write(to_text(instance.start) + "\n")
    for i, trace in enumerate(corpus.traces):
        save_trace(trace, os.path.join(traces_dir, f"{i:05d}.trace"))
    with open(os.path.join(out_dir, "split.txt"), "w", encoding="utf-8") as fh:
        for i, which in enumerate(corpus.split):
            fh.write(f"{i:05d}\t{which}\n")
    with open(os.path.join(out_dir, "seed.txt"), "w", encoding="utf-8") as fh:
        values = {"seed": corpus.seed, **asdict(corpus.config), "rules_sha256": corpus.rules_hash}
        write_header(fh, _SEED_HEADER, values)


@_collector_paused()
def load_corpus(corpus_dir: str, rules: RuleSet | None = None) -> Corpus:
    """Read a corpus directory, rebuilding every trace by replay.

    ``rules`` defaults to the packaged ``ode_base`` set and must be the set
    the corpus was generated with (``seed.txt`` records its hash).
    ``instances.txt`` holds N instances, 1 <= N <= the ``count`` of
    ``seed.txt``. The trace files must be exactly ``traces/00000.trace`` to
    ``traces/<N-1>.trace``, and each trace must start at its
    instance's start, replay step by step to its recorded trees and reach
    its goal. As in ``build_corpus``, no two steps may take different
    actions from the same encoded state (``check_consistency``); coverage
    of the rule set is not checked. An instance gets back its variant from
    its trace's rule ids; a script of no variant (from another rule file)
    leaves it "".

    As in ``build_corpus``, the corpus holds one node per distinct subtree:
    each distinct line of ``instances.txt`` is parsed once, and every start
    and trace is entered in one intern table (see ``read_trace``), dropped
    when the call returns. The cyclic garbage collector is paused while it
    runs, since the trees it keeps form no cycles and the duplicates it
    drops are freed by their reference counts.
    """
    if rules is None:
        rules = packaged_rules()
    seed_path = os.path.join(corpus_dir, "seed.txt")
    if not os.path.isfile(seed_path):
        raise FileFormatError(f"{corpus_dir} is not a corpus directory (no seed.txt)")
    seed_lines = file_lines(read_file(seed_path), seed_path)
    meta = read_header(seed_lines, _SEED_HEADER, seed_path)
    if len(seed_lines) > len(_SEED_HEADER):
        lineno = len(_SEED_HEADER) + 1
        raise FileFormatError(f"{seed_path} line {lineno}: {seed_lines[lineno - 1]!r} comes after the header")
    seed = meta.pop("seed")
    rules_hash = meta.pop("rules_sha256")
    try:
        config = GenConfig(**meta)
    except ValueError as exc:
        raise FileFormatError(f"{seed_path}: {exc}") from None
    if rules_hash != rules.content_hash():
        raise CorpusError("corpus was generated with a different rule set; pass the matching --rule-file")

    instances_path = os.path.join(corpus_dir, "instances.txt")
    starts = file_lines(read_file(instances_path), instances_path)
    if not 1 <= len(starts) <= config.count:
        raise FileFormatError(
            f"{instances_path} holds {len(starts)} instances; "
            f"a corpus of count={config.count} holds 1 to {config.count}"
        )

    traces_dir = os.path.join(corpus_dir, "traces")
    names = [f"{i:05d}.trace" for i in range(len(starts))]
    found = {name for name in os.listdir(traces_dir) if name.endswith(".trace")}
    missing = sorted(set(names) - found)
    if missing:
        raise FileFormatError(
            f"{os.path.join(traces_dir, missing[0])} is missing ({len(missing)} trace files missing)"
        )
    extra = sorted(found - set(names))
    if extra:
        raise FileFormatError(
            f"{os.path.join(traces_dir, extra[0])} has no instance ({len(extra)} extra trace files)"
        )

    nodes: dict = {}
    parsed: dict[str, Formula] = {}  # each distinct start line, parsed and interned
    instances: list[OdeInstance] = []
    traces: list[DerivationTrace] = []
    for i, (start_text, name) in enumerate(zip(starts, names)):
        start = parsed.get(start_text)
        if start is None:
            try:
                start = parsed[start_text] = intern(parse_canonical(start_text), nodes)
            except Error as exc:
                raise FileFormatError(f"{instances_path} line {i + 1}: {exc}") from None
        path = os.path.join(traces_dir, name)
        trace = read_trace(read_file(path), rules, (start, start_text), where=path, nodes=nodes)
        if not trace.reached:
            raise CorpusError(f"{path}: trace ends {trace.outcome}, and a corpus holds only reached traces")
        script = tuple(step.rule_id for step in trace.steps)
        instances.append(OdeInstance(i, _VARIANT_BY_SCRIPT.get(script, ""), start, trace.goal, script))
        traces.append(trace)
    check_consistency(traces, default_table(config.l_max))

    # line i of split.txt is instance i: its index, a tab, train or test
    split: list[str] = []
    split_path = os.path.join(corpus_dir, "split.txt")
    for i, line in enumerate(file_lines(read_file(split_path), split_path)):
        where = f"{split_path} line {i + 1}"
        if i == len(instances):
            raise FileFormatError(f"{where}: {line!r} comes after the last instance, {i - 1:05d}")
        idx_text, _, which = line.partition("\t")
        if idx_text != f"{i:05d}" or which not in (TRAIN, TEST):
            raise FileFormatError(f"{where}: expected {i:05d}, a tab and {TRAIN} or {TEST}, got {line!r}")
        split.append(which)
    if len(split) < len(instances):
        raise FileFormatError(f"{split_path} does not cover every instance: no line for index {len(split)}")
    return Corpus(instances, traces, split, seed, config, rules_hash)
