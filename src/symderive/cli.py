"""Command-line front end.

One subcommand per pipeline stage: parse/encode/dist/match/apply for working
with single formulas, derive for running a derivation (learned or searched),
gen/train/eval for the corpus pipeline. A learner file (--policy or --qtable)
gives its own vector length; derive encodes with it, and eval refuses a
corpus of another length. Both load, check and score the two learner types
alike.

Each option's range is declared with it as an argparse ``type=``, so a value
outside it is a usage error before any input is read. The ``gen`` options are
GenConfig's fields.

Results go to stdout; diagnostics and the effective configuration echo go to
stderr. Exit codes: 0 success, 1 usage error, 2 domain error (bad formula
text, inapplicable rule, unreached goal, malformed file, a rewritten
formula nested past the interpreter's recursion limit), 3 internal error.
Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import random
import re
import shlex
import sys
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .dataset import GEN_SETTINGS, GenConfig, build_corpus, load_corpus, save_corpus
from .derivation import DEFAULT_DEPTH_CAP, DEFAULT_STEP_CAP, DerivationEnv, GoalSpec, bfs_oracle, rollout, save_trace
from .encoding import DEFAULT_L_MAX, default_table, distance, encode, format_vector
from .errors import Error, FileFormatError, RuleNotApplicable, TableMismatch, TrainingDiverged
from .expr import Path, format_path, parse, parse_path, to_text
from .pattern import compile_template, find_all, find_first
from .rewrite import RuleSet, apply_rule_at, apply_rule_first, load_rules, packaged_rules
from .textfile import read_file

if TYPE_CHECKING:
    from .rl import PolicyModel, QTable


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _echo(args: argparse.Namespace, **extra: object) -> None:
    """Echo every parsed option, then the settings derived from them, to
    stderr as ``name=value`` tokens that ``shlex.split`` reads back."""
    pairs = {k: v for k, v in vars(args).items() if k != "func"} | extra
    parts = " ".join(f"{k}={shlex.quote(str(v))}" for k, v in pairs.items())
    print(f"config: {parts}", file=sys.stderr)


def _read_formula_arg(value: str):
    """Accept either inline constructor text or a path to a file holding it."""
    if os.path.isfile(value):
        value = read_file(value).strip()
    return parse(value)


def _rules_for(args: argparse.Namespace) -> RuleSet:
    if getattr(args, "rule_file", None):
        return load_rules(args.rule_file)
    return packaged_rules()


def _load_learner(args: argparse.Namespace, rules: RuleSet) -> PolicyModel | QTable:
    """Load --policy or --qtable and check that its actions are the rule
    set's; a mismatch is a domain error. The learner's ``n_inputs`` is the
    vector length it reads."""
    from . import rl

    if args.policy is not None:
        learner, meta = rl.load_policy(args.policy)
        expected = meta["rules_sha256"]
        if expected != rules.content_hash():
            raise Error(
                "checkpoint was trained against a different rule set "
                f"(hash {expected[:12]}..., current {rules.content_hash()[:12]}...)"
            )
    else:
        learner = rl.load_qtable(args.qtable)
    if learner.n_actions != len(rules):
        raise Error(
            f"{args.policy or args.qtable} has {learner.n_actions} actions, the rule set has {len(rules)} rules"
        )
    return learner


def _expand_wildcards(text: str, taken: list[str]) -> tuple[str, list[str]]:
    """Replace each `?` outside quotes with a fresh pattern variable: the
    next `_w{n}` that is neither quoted in ``text`` nor one of ``taken``."""
    fresh = (f"_w{n}" for n in itertools.count())
    free = (name for name in fresh if name not in taken and f'"{name}"' not in text)
    out: list[str] = []
    names: list[str] = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
            out.append(ch)
        elif ch == "?" and not in_string:
            names.append(next(free))
            out.append(f'Sym("{names[-1]}")')
        else:
            out.append(ch)
    return "".join(out), names


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args: argparse.Namespace) -> int:
    _echo(args)
    print(to_text(_read_formula_arg(args.formula)))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    table = default_table(args.l_max)
    _echo(args)
    vec = encode(_read_formula_arg(args.formula), table)
    print(format_vector(vec))
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = default_table(args.l_max)
    _echo(args)
    va = encode(_read_formula_arg(args.a), table)
    vb = encode(_read_formula_arg(args.b), table)
    print(distance(va, vb))
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    _echo(args)
    f = _read_formula_arg(args.formula)
    try:
        compiled = compile_template(_read_formula_arg(args.template), (v for v in args.vars.split(",") if v))
    except ValueError as exc:
        raise UsageError(f"--vars: {exc}") from None
    if args.all:
        matches = find_all(f, compiled)
    else:
        hit = find_first(f, compiled)
        matches = [hit] if hit is not None else []
    for match in matches:
        bound = " ".join(f"{name}={to_text(match.binding[name])}" for name in sorted(match.binding))
        print(f"site={format_path(match.site) or 'root'} {bound}".rstrip())
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    rules = _rules_for(args)
    _echo(args)
    f = _read_formula_arg(args.formula)
    rule = rules.by_id(args.rule)
    if args.site is not None:
        result = apply_rule_at(f, rule, args.site)
    else:
        applied = apply_rule_first(f, rule)
        if applied is None:
            raise RuleNotApplicable(f"rule {rule.id} does not match anywhere in {to_text(f)}")
        result = applied[0]
    print(to_text(result))
    return 0


def _goal_from_args(args: argparse.Namespace) -> GoalSpec:
    if args.goal_exact is not None:
        return GoalSpec.exact(_read_formula_arg(args.goal_exact))
    names = [v for v in args.goal_vars.split(",") if v]
    text, fresh = _expand_wildcards(args.goal_pattern, names)
    names += fresh
    if not names:
        raise UsageError("--goal-pattern needs variables: add `?` wildcards or --goal-vars")
    try:
        return GoalSpec.pattern(parse(text), names)
    except ValueError as exc:
        raise UsageError(f"--goal-vars: {exc}") from None


def cmd_derive(args: argparse.Namespace) -> int:
    if args.mode == "sample" and args.policy is None:
        raise UsageError("--mode sample draws from action probabilities and needs --policy")
    if args.first_site and not args.oracle:
        raise UsageError("--first-site restricts the search of --oracle and needs it")
    rules = _rules_for(args)
    goal = _goal_from_args(args)
    start = _read_formula_arg(args.start)
    if args.oracle:
        _echo(args)
        trace = bfs_oracle(start, goal, rules, depth_cap=args.depth_cap, first_site_only=args.first_site)
    else:
        learner = _load_learner(args, rules)
        _echo(args, l_max=learner.n_inputs)
        env = DerivationEnv(start, goal, rules, default_table(learner.n_inputs), step_cap=args.step_cap)
        trace = rollout(env, learner, mode=args.mode, epsilon=args.epsilon, rng=random.Random(args.seed))
    print(to_text(start))
    for step in trace.steps:
        print(f"{step.rule_id} @ {format_path(step.site) or 'root'} -> {to_text(step.after)}")
    print(f"outcome: {trace.outcome} in {len(trace)} steps")
    if args.trace_out:
        if not trace.steps:
            raise Error("the derivation has no steps, and a trace file without steps records no start")
        save_trace(trace, args.trace_out)
    if not trace.reached:
        print("goal not reached", file=sys.stderr)
        return 2
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    rules = _rules_for(args)
    try:
        config = GenConfig(**{name: getattr(args, name) for name in GEN_SETTINGS})
    except ValueError as exc:
        # GenConfig names its fields; report them as the flags they came from
        names = re.compile(r"\b(" + "|".join(GEN_SETTINGS) + r")\b")
        raise UsageError(names.sub(lambda m: _flag(m[1]), str(exc))) from None
    _echo(args)
    corpus = build_corpus(config, args.seed, rules)
    save_corpus(corpus, args.out)
    for index, reason in corpus.dropped:
        print(f"dropped instance {index}: {reason}", file=sys.stderr)
    print(
        f"instances={len(corpus.instances)} dropped={len(corpus.dropped)} "
        f"samples={corpus.n_samples()} train={len(corpus.indices('train'))} "
        f"test={len(corpus.indices('test'))}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from . import rl

    rules = _rules_for(args)
    corpus = load_corpus(args.corpus, rules)
    table = default_table(corpus.config.l_max)
    _echo(args, l_max=table.l_max)

    if args.learner == "policy":
        samples = corpus.samples(rules, table, "train")
        model = rl.PolicyModel.create(
            table.l_max, len(rules), hidden=args.hidden, seed=args.seed, step_size=args.step_size
        )
        print(f"train_rows={len(samples)} unique_rows={len(set(samples))}")
        try:
            losses = rl.policy_train(model, samples, args.epochs)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"--step-size {args.step_size}: {exc}") from None
        for i, loss in enumerate(losses):
            print(f"epoch {i} loss {loss:.6f}")
        train_acc = rl.top1_accuracy(model, samples)
        print(f"train_top1 {train_acc:.4f}")
        test_samples = corpus.samples(rules, table, "test")
        if test_samples:
            print(f"test_top1 {rl.top1_accuracy(model, test_samples):.4f}")
        rl.save_policy(model, args.out, args.seed, rules.content_hash())
    else:
        train_idx = corpus.indices("train")
        if not train_idx:
            raise Error("corpus has no training instances")

        def env_factory(episode: int) -> DerivationEnv:
            idx = train_idx[episode % len(train_idx)]
            inst = corpus.instances[idx]
            return DerivationEnv(inst.start, corpus.traces[idx].goal, rules, table, step_cap=args.step_cap)

        # the expert traces, in env_factory's order, are the first episodes
        scripts = [[rules.index_of(step.rule_id) for step in corpus.traces[idx].steps] for idx in train_idx]
        qtable = rl.q_learn(
            env_factory, len(rules), args.episodes,
            gamma=args.gamma, alpha=args.alpha, epsilon=args.epsilon, seed=args.seed, scripts=scripts,
        )
        rl.save_qtable(qtable, args.out)
        print(f"episodes={args.episodes} states={len(qtable)}")

    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import rl

    rules = _rules_for(args)
    corpus = load_corpus(args.corpus, rules)
    table = default_table(corpus.config.l_max)
    which = None if args.split == "all" else args.split
    indices = corpus.indices(which)
    if not indices:
        raise Error(f"corpus has no {args.split} instances")
    _echo(args, l_max=table.l_max)
    learner = _load_learner(args, rules)
    if learner.n_inputs != table.l_max:
        raise TableMismatch(
            f"{args.policy or args.qtable} expects l_max={learner.n_inputs}, the corpus has l_max={table.l_max}"
        )

    samples = corpus.samples(rules, table, which)
    if samples:
        print(f"split={args.split} samples={len(samples)} top1={rl.top1_accuracy(learner, samples):.4f}")

    if args.rollouts:
        reached = 0
        total_steps = 0
        for idx in indices:
            inst = corpus.instances[idx]
            env = DerivationEnv(inst.start, corpus.traces[idx].goal, rules, table, step_cap=args.step_cap)
            trace = rollout(env, learner, mode="greedy")
            if trace.reached:
                reached += 1
                total_steps += len(trace)
        mean = (total_steps / reached) if reached else 0.0
        print(f"rollouts={len(indices)} reached={reached} mean_steps={mean:.2f}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _ranged(kind: Callable[[str], Any], accepts: Callable[[Any], bool], wording: str) -> Callable[[str], Any]:
    """An argparse ``type=`` that refuses a ``kind`` value outside a range."""

    def convert(text: str) -> Any:
        value = kind(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return convert


_positive_int = _ranged(int, lambda n: n >= 1, "positive")
_non_negative_int = _ranged(int, lambda n: n >= 0, "non-negative")
_positive_float = _ranged(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_unit_float = _ranged(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")
_open_unit_float = _ranged(float, lambda x: 0.0 < x <= 1.0, "in (0, 1]")


def _site(text: str) -> Path:
    try:
        return parse_path("" if text == "root" else text)
    except FileFormatError:
        raise argparse.ArgumentTypeError(f"must be a dotted child path, got {text!r}") from None


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_rule_file(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule-file", help="rule file to use (default: the packaged base set)")


def _add_l_max(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l-max", type=_positive_int, default=DEFAULT_L_MAX, help="encoding vector length")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_non_negative_int, default=0)


def _add_epsilon(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=_unit_float, default=0.1, help="exploration rate")


def _add_step_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step-cap", type=_positive_int, default=DEFAULT_STEP_CAP, help="steps per derivation")


def _add_learner_files(group: argparse._MutuallyExclusiveGroup) -> None:
    group.add_argument("--policy", help="policy checkpoint")
    group.add_argument("--qtable", help="Q-table dump")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="symderive", description="Tree-rewriting formula derivation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate formula text and print its canonical form")
    p.add_argument("--formula", required=True, help="constructor text or a path to a file of it")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("encode", help="print a formula's fixed-length integer encoding")
    p.add_argument("--formula", required=True)
    _add_l_max(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("dist", help="positional distance between two formulas' encodings")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_l_max(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("match", help="find where a template matches a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--vars", default="", help="comma-separated pattern variable names")
    p.add_argument("--all", action="store_true", help="list every match site, not just the first")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("apply", help="apply one rule to a formula")
    p.add_argument("--rule", required=True, help="rule id")
    p.add_argument("--formula", required=True)
    p.add_argument("--site", type=_site, help="dotted child path or `root` (default: first match in pre-order)")
    _add_rule_file(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("derive", help="derive a goal from a start formula")
    p.add_argument("--start", required=True)
    goal = p.add_mutually_exclusive_group(required=True)
    goal.add_argument("--goal-exact", help="exact goal tree")
    goal.add_argument("--goal-pattern", help="goal template; `?` marks a wildcard subtree")
    p.add_argument("--goal-vars", default="", help="extra pattern variable names for --goal-pattern")
    driver = p.add_mutually_exclusive_group(required=True)
    _add_learner_files(driver)
    driver.add_argument("--oracle", action="store_true", help="use breadth-first search instead of a learner")
    p.add_argument("--first-site", action="store_true", help="oracle: restrict to first-match sites")
    p.add_argument("--mode", choices=("greedy", "epsilon", "sample"), default="greedy")
    _add_epsilon(p)
    _add_seed(p)
    _add_step_cap(p)
    p.add_argument("--depth-cap", type=_non_negative_int, default=DEFAULT_DEPTH_CAP, help="oracle search depth limit")
    p.add_argument("--trace-out", help="also save the trace to this file")
    _add_rule_file(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("gen", help="generate a training corpus")
    p.add_argument("--out", required=True, help="corpus directory to write")
    _add_seed(p)
    defaults = GenConfig()
    for name, kind in GEN_SETTINGS.items():
        p.add_argument(_flag(name), type=kind, default=getattr(defaults, name))
    _add_rule_file(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a learner on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--learner", choices=("policy", "q"), default="policy")
    p.add_argument("--epochs", type=_positive_int, default=800)
    p.add_argument("--step-size", type=_positive_float, default=0.1)
    p.add_argument("--hidden", type=_positive_int, default=64)
    _add_seed(p)
    p.add_argument("--episodes", type=_non_negative_int, default=0, help="epsilon-greedy episodes after the traces")
    p.add_argument("--gamma", type=_unit_float, default=0.9)
    p.add_argument("--alpha", type=_open_unit_float, default=0.5)
    _add_epsilon(p)
    _add_step_cap(p)
    _add_rule_file(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a learner against a corpus")
    p.add_argument("--corpus", required=True)
    _add_learner_files(p.add_mutually_exclusive_group(required=True))
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--rollouts", action="store_true", help="also roll the learner out on each instance")
    _add_step_cap(p)
    _add_rule_file(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        result = args.func(args)
        return 0 if result is None else int(result)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # Rewrites can nest a tree deeper than parse accepts; checking the
        # depth at every rewrite would cost the search more than this.
        print("error: a formula nests too deeply for the interpreter's recursion limit", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
