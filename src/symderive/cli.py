"""Command-line front end.

One subcommand per pipeline stage: parse/encode/dist/match/apply for working
with single formulas, derive for running a derivation (learned or searched),
gen/train/eval for the corpus pipeline.

Results go to stdout; diagnostics and the effective configuration echo go to
stderr. Exit codes: 0 success, 1 usage error, 2 domain error (bad formula
text, inapplicable rule, unreached goal, malformed file), 3 internal error.
Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import TYPE_CHECKING, Sequence

from .dataset import GenConfig, build_corpus, load_corpus, save_corpus
from .derivation import DerivationEnv, GoalSpec, bfs_oracle, rollout, save_trace
from .encoding import FeatureVector, SymbolTable, default_table, distance, encode, format_vector
from .errors import Error, FileFormatError, RuleNotApplicable, TableMismatch
from .expr import format_path, parse, parse_path, to_text
from .pattern import compile_template, find_all, find_first
from .rewrite import RuleSet, apply_rule_at, apply_rule_first, load_rules, packaged_rules

if TYPE_CHECKING:
    from .rl import PolicyModel, QTable


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _echo(args: argparse.Namespace, **extra: object) -> None:
    pairs = dict(extra)
    parts = " ".join(f"{k}={v}" for k, v in pairs.items())
    print(f"config: command={args.command} {parts}", file=sys.stderr)


def _read_formula_arg(value: str):
    """Accept either inline constructor text or a path to a file holding it."""
    if os.path.isfile(value):
        with open(value, "r", encoding="utf-8") as fh:
            value = fh.read().strip()
    return parse(value)


def _rules_for(args: argparse.Namespace) -> RuleSet:
    if getattr(args, "rule_file", None):
        return load_rules(args.rule_file)
    return packaged_rules()


def _table_for(args: argparse.Namespace) -> SymbolTable:
    try:
        return default_table(args.l_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_step_cap(args: argparse.Namespace) -> None:
    if args.step_cap < 1:
        raise UsageError(f"--step-cap must be positive, got {args.step_cap}")


def _check_epsilon(args: argparse.Namespace) -> None:
    if not 0.0 <= args.epsilon <= 1.0:
        raise UsageError(f"--epsilon must be in [0, 1], got {args.epsilon}")


def _load_learner(args: argparse.Namespace, rules: RuleSet, table: SymbolTable) -> PolicyModel | QTable:
    """Load --policy or --qtable and check that it fits the rule set and
    the vector length; a mismatch is a domain error."""
    from . import rl

    if args.policy:
        model, meta = rl.load_policy(args.policy)
        expected = meta["rules_sha256"]
        if expected != rules.content_hash():
            raise Error(
                "checkpoint was trained against a different rule set "
                f"(hash {expected[:12]}..., current {rules.content_hash()[:12]}...)"
            )
        if model.n_inputs != table.l_max:
            raise TableMismatch(f"checkpoint expects l_max={model.n_inputs}, table has {table.l_max}")
        if model.n_actions != len(rules):
            raise Error(f"checkpoint has {model.n_actions} actions, the rule set has {len(rules)} rules")
        return model
    qtable = rl.load_qtable(args.qtable)
    if qtable.n_actions != len(rules):
        raise Error(f"Q-table has {qtable.n_actions} actions, the rule set has {len(rules)} rules")
    for state in qtable.entries:
        if len(state) != table.l_max:
            raise TableMismatch(f"Q-table holds a state of length {len(state)}, table has l_max={table.l_max}")
    return qtable


def _expand_wildcards(text: str) -> tuple[str, list[str]]:
    """Replace each `?` outside quotes with a fresh pattern variable."""
    out: list[str] = []
    names: list[str] = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
            out.append(ch)
        elif ch == "?" and not in_string:
            name = f"_w{len(names)}"
            names.append(name)
            out.append(f'Sym("{name}")')
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
    table = _table_for(args)
    _echo(args, l_max=table.l_max)
    vec = encode(_read_formula_arg(args.formula), table)
    print(format_vector(vec))
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    table = _table_for(args)
    _echo(args, l_max=table.l_max)
    va = encode(_read_formula_arg(args.a), table)
    vb = encode(_read_formula_arg(args.b), table)
    print(distance(va, vb))
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    _echo(args, vars=args.vars or "")
    f = _read_formula_arg(args.formula)
    compiled = compile_template(_read_formula_arg(args.template), (v for v in (args.vars or "").split(",") if v))
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
    _echo(args, rule=args.rule)
    f = _read_formula_arg(args.formula)
    rule = rules.by_id(args.rule)
    if args.site is not None:
        try:
            site = parse_path("" if args.site == "root" else args.site)
        except FileFormatError:
            raise UsageError(f"--site must be a dotted child path, got {args.site!r}") from None
        result = apply_rule_at(f, rule, site)
    else:
        applied = apply_rule_first(f, rule)
        if applied is None:
            raise RuleNotApplicable(f"rule {rule.id} does not match anywhere in {to_text(f)}")
        result = applied[0]
    print(to_text(result))
    return 0


def _goal_from_args(args: argparse.Namespace) -> GoalSpec:
    if bool(args.goal_exact) == bool(args.goal_pattern):
        raise UsageError("pass exactly one of --goal-exact / --goal-pattern")
    if args.goal_exact:
        return GoalSpec.exact(_read_formula_arg(args.goal_exact))
    text, fresh = _expand_wildcards(args.goal_pattern)
    names = [v for v in (args.goal_vars or "").split(",") if v] + fresh
    if not names:
        raise UsageError("--goal-pattern needs variables: add `?` wildcards or --goal-vars")
    return GoalSpec.pattern(parse(text), names)


def cmd_derive(args: argparse.Namespace) -> int:
    rules = _rules_for(args)
    table = _table_for(args)
    goal = _goal_from_args(args)
    start = _read_formula_arg(args.start)
    chosen = [bool(args.policy), bool(args.qtable), bool(args.oracle)]
    if sum(chosen) != 1:
        raise UsageError("pass exactly one of --policy / --qtable / --oracle")
    if args.mode == "sample" and not args.policy:
        raise UsageError("--mode sample draws from action probabilities and needs --policy")
    _check_step_cap(args)
    _check_epsilon(args)
    if args.depth_cap < 0:
        raise UsageError(f"--depth-cap must not be negative, got {args.depth_cap}")
    _echo(
        args,
        seed=args.seed,
        mode=args.mode,
        epsilon=args.epsilon,
        step_cap=args.step_cap,
        depth_cap=args.depth_cap,
        l_max=table.l_max,
    )
    if args.oracle:
        trace = bfs_oracle(start, goal, rules, depth_cap=args.depth_cap, first_site_only=args.first_site)
    else:
        learner = _load_learner(args, rules, table)
        env = DerivationEnv(start, goal, rules, table, step_cap=args.step_cap)
        trace = rollout(env, learner, mode=args.mode, epsilon=args.epsilon, rng=random.Random(args.seed))
    print(to_text(start))
    for step in trace.steps:
        print(f"{step.rule_id} @ {format_path(step.site) or 'root'} -> {to_text(step.after)}")
    print(f"outcome: {trace.outcome} in {len(trace)} steps")
    if args.trace_out:
        save_trace(trace, args.trace_out)
    if not trace.reached:
        print("goal not reached", file=sys.stderr)
        return 2
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    rules = _rules_for(args)
    try:
        config = GenConfig(
            count=args.count,
            max_degree=args.max_degree,
            coeff_low=args.coeff_low,
            coeff_high=args.coeff_high,
            l_max=args.l_max,
            test_fraction=args.test_fraction,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _echo(
        args,
        seed=args.seed,
        count=config.count,
        max_degree=config.max_degree,
        coeff_low=config.coeff_low,
        coeff_high=config.coeff_high,
        l_max=config.l_max,
        test_fraction=config.test_fraction,
    )
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

    _check_step_cap(args)
    if not 0.0 <= args.gamma <= 1.0:
        raise UsageError(f"--gamma must be in [0, 1], got {args.gamma}")
    if not 0.0 < args.alpha <= 1.0:
        raise UsageError(f"--alpha must be in (0, 1], got {args.alpha}")
    _check_epsilon(args)
    for option, value in (("--epochs", args.epochs), ("--episodes", args.episodes), ("--hidden", args.hidden)):
        if value < 1:
            raise UsageError(f"{option} must be at least 1, got {value}")
    if not args.step_size > 0.0:
        raise UsageError(f"--step-size must be positive, got {args.step_size}")
    rules = _rules_for(args)
    corpus = load_corpus(args.corpus, rules)
    table = default_table(corpus.config.l_max)
    _echo(
        args,
        learner=args.learner,
        seed=args.seed,
        epochs=args.epochs,
        step_size=args.step_size,
        hidden=args.hidden,
        episodes=args.episodes,
        gamma=args.gamma,
        alpha=args.alpha,
        epsilon=args.epsilon,
        l_max=table.l_max,
    )

    model: PolicyModel | None = None
    if args.learner in ("policy", "hybrid"):
        samples = corpus.samples(rules, table, "train")
        model = rl.PolicyModel.create(
            table.l_max, len(rules), hidden=args.hidden, seed=args.seed, step_size=args.step_size
        )
        print(f"train_rows={len(samples)} unique_rows={len(set(samples))}")
        losses = rl.policy_train(model, samples, args.epochs)
        for i, loss in enumerate(losses):
            print(f"epoch {i} loss {loss:.6f}")
        train_acc = rl.top1_accuracy(model, samples)
        print(f"train_top1 {train_acc:.4f}")
        test_samples = corpus.samples(rules, table, "test")
        if test_samples:
            print(f"test_top1 {rl.top1_accuracy(model, test_samples):.4f}")
        rl.save_policy(model, args.out, args.seed, rules.content_hash())

    if args.learner in ("q", "hybrid"):
        train_idx = corpus.indices("train")
        if not train_idx:
            raise Error("corpus has no training instances")

        def env_factory(episode: int) -> DerivationEnv:
            idx = train_idx[episode % len(train_idx)]
            inst = corpus.instances[idx]
            return DerivationEnv(inst.start, corpus.traces[idx].goal, rules, table, step_cap=args.step_cap)

        def policy_greedy(state: FeatureVector, mask: list[bool] | None) -> int:
            return rl.select_action(model, state, mask, "greedy")

        qtable = rl.q_learn(
            env_factory,
            len(rules),
            args.episodes,
            gamma=args.gamma,
            alpha=args.alpha,
            epsilon=args.epsilon,
            seed=args.seed,
            masked=True,
            greedy=policy_greedy if model is not None else None,
        )
        out = args.out if args.learner == "q" else (args.qtable_out or args.out + ".qtable")
        rl.save_qtable(qtable, out)
        print(f"episodes={args.episodes} states={len(qtable)}")

    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import rl

    _check_step_cap(args)
    rules = _rules_for(args)
    corpus = load_corpus(args.corpus, rules)
    table = default_table(corpus.config.l_max)
    which = None if args.split == "all" else args.split
    _echo(args, split=args.split, l_max=table.l_max)
    if bool(args.policy) == bool(args.qtable):
        raise UsageError("pass exactly one of --policy / --qtable")
    learner = _load_learner(args, rules, table)

    samples = corpus.samples(rules, table, which)
    if samples:
        if isinstance(learner, rl.PolicyModel):
            acc = rl.top1_accuracy(learner, samples)
        else:
            hits = sum(1 for s in samples if int(learner.values(s.state).argmax()) == s.action)
            acc = hits / len(samples)
        print(f"split={args.split} samples={len(samples)} top1={acc:.4f}")

    if args.rollouts:
        indices = corpus.indices(which)
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


def _add_rule_file(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rule-file", help="rule file to use (default: the packaged base set)")


def _add_l_max(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l-max", type=int, default=64, help="encoding vector length")


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
    p.add_argument("--site", help="dotted child path (default: first match in pre-order)")
    _add_rule_file(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("derive", help="derive a goal from a start formula")
    p.add_argument("--start", required=True)
    p.add_argument("--goal-exact", help="exact goal tree")
    p.add_argument("--goal-pattern", help="goal template; `?` marks a wildcard subtree")
    p.add_argument("--goal-vars", default="", help="extra pattern variable names for --goal-pattern")
    p.add_argument("--policy", help="policy checkpoint to drive the derivation")
    p.add_argument("--qtable", help="Q-table dump to drive the derivation")
    p.add_argument("--oracle", action="store_true", help="use breadth-first search instead of a learner")
    p.add_argument("--first-site", action="store_true", help="oracle: restrict to first-match sites")
    p.add_argument("--mode", choices=("greedy", "epsilon", "sample"), default="greedy")
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step-cap", type=int, default=50)
    p.add_argument("--depth-cap", type=int, default=10, help="oracle search depth limit")
    p.add_argument("--trace-out", help="also save the trace to this file")
    _add_rule_file(p)
    _add_l_max(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("gen", help="generate a training corpus")
    p.add_argument("--out", required=True, help="corpus directory to write")
    p.add_argument("--count", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--coeff-low", type=int, default=1)
    p.add_argument("--coeff-high", type=int, default=5)
    p.add_argument("--l-max", type=int, default=64)
    p.add_argument("--test-fraction", type=float, default=0.2)
    _add_rule_file(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a learner on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--learner", choices=("policy", "q", "hybrid"), default="policy")
    p.add_argument("--epochs", type=int, default=800)
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--episodes", type=int, default=2000, help="Q-learning episodes")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--step-cap", type=int, default=50)
    p.add_argument("--qtable-out", help="hybrid: where to write the refined Q-table")
    _add_rule_file(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a learner against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--policy")
    p.add_argument("--qtable")
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--rollouts", action="store_true", help="also roll the learner out on each instance")
    p.add_argument("--step-cap", type=int, default=50)
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
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
