import random

import numpy as np
import pytest

from symderive import derivation, expr, rl, textfile
from symderive.derivation import (
    OUTCOME_CAP,
    OUTCOME_DEAD_END,
    OUTCOME_REACHED,
    STEP_REWARD,
    DerivationEnv,
    DerivationTrace,
    GoalSpec,
    TraceStep,
    bfs_oracle,
    load_trace,
    parse_goal,
    read_trace,
    rollout,
    save_trace,
    serialize_trace,
)
from symderive.dataset import GenConfig, build_corpus
from symderive.encoding import default_table, encode
from symderive.errors import (
    EncodingOverflow,
    EpisodeFinished,
    FileFormatError,
    RuleNotApplicable,
    SearchNotFound,
    ValidationFailed,
)
from symderive.expr import SYM, func, mk, num, parse, replace_at, sym, walk
from symderive.pattern import compile_template, find_first, root_index
from symderive.rewrite import Rule, RuleSet, apply_rule_first, substitute
from symderive.textfile import read_header
from symderive.rl import QTable

from conftest import random_tree, template_cases
from oracles import naive_bfs, naive_find_all, naive_serialize_trace

# The worked example used throughout: isolate v in  m v^2 / 2 + E = Q.
MECH_START = 'Equal(Plus(Divide(Times(Sym("m"),Power(Sym("v"),Num(2))),Num(2)),Sym("E")),Sym("Q"))'
MECH_AFTER_MOVE = 'Equal(Divide(Times(Sym("m"),Power(Sym("v"),Num(2))),Num(2)),Minus(Sym("Q"),Sym("E")))'
MECH_AFTER_ISOLATE = 'Equal(Power(Sym("v"),Num(2)),Divide(Times(Num(2),Minus(Sym("Q"),Sym("E"))),Sym("m")))'
MECH_FINAL = 'Equal(Sym("v"),Sqrt(Divide(Times(Num(2),Minus(Sym("Q"),Sym("E"))),Sym("m"))))'

# Isolating the time variable for a driven first-order balance equation:
# dN/dt = g*S*p - l*N, up to the integral form on both sides.
DECAY_START = (
    'Equal(Divide(Der(Sym("N")),Der(Sym("t"))),'
    'Minus(Times(Sym("gamma"),Times(Sym("Sigma"),Sym("phi"))),Times(Sym("lambda"),Sym("N"))))'
)
DECAY_MILESTONE = (
    'Equal(Integral(Divide(Num(1),Minus(Times(Sym("gamma"),Times(Sym("Sigma"),Sym("phi"))),'
    'Times(Sym("lambda"),Sym("N")))),Sym("N")),Sym("t"))'
)
DECAY_ROUTE = [
    ("clear_divisor", ()),
    ("divide_by_first", ()),
    ("integrate_separated", ()),
    ("integral_of_unit", (1,)),
]



def unwrap_rules():
    """One rule, Sqrt(a) -> a: it takes Sqrt(x) to x, where no rule applies."""
    a = sym("a")
    return RuleSet([Rule("unwrap", mk("Sqrt", a), a, frozenset({"a"}))])


def counting_walker(rules):
    """A copy of rules whose mask walker records every tree it walks."""
    rules, walked = RuleSet(rules), []
    walk = rules.root_index

    def counting(f):
        walked.append(f)
        return walk(f)

    object.__setattr__(rules, "root_index", counting)
    return rules, walked


class TestGoalSpec:
    def test_exact(self):
        goal = GoalSpec.exact(parse(MECH_FINAL))
        assert goal.satisfied(parse(MECH_FINAL))
        assert not goal.satisfied(parse(MECH_START))

    def test_pattern_is_root_anchored(self):
        goal = GoalSpec.pattern(parse('Equal(Sym("v"),Sym("w"))'), {"w"})
        assert goal.satisfied(parse(MECH_FINAL))
        # same shape buried one level down must not count
        wrapped = mk("Ln", parse(MECH_FINAL))
        assert not goal.satisfied(wrapped)

    def test_pattern_needs_vars(self):
        with pytest.raises(ValueError):
            GoalSpec.pattern(sym("a"), set())

    def test_text_roundtrip(self):
        exact = GoalSpec.exact(parse(MECH_FINAL))
        assert parse_goal(exact.text()) == exact
        pat = GoalSpec.pattern(parse('Equal(Sym("v"),Sym("w"))'), {"w"})
        assert parse_goal(pat.text()) == pat

    def test_parse_goal_junk(self):
        with pytest.raises(FileFormatError):
            parse_goal('Sym("a")')


class TestEnvRewards:
    def _env(self, mech_rules, table, **kw):
        return DerivationEnv(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, table, **kw)

    def test_expert_episode(self, mech_rules, table):
        env = self._env(mech_rules, table)
        expected = [
            (0, parse(MECH_AFTER_MOVE), -0.01, False),
            (1, parse(MECH_AFTER_ISOLATE), -0.01, False),
            (2, parse(MECH_FINAL), 1.0, True),
        ]
        for action, tree, reward, done in expected:
            vec, r, d = env.env_step(action)
            assert env.current == tree
            assert r == reward and d == done
            assert vec == encode(tree, table)
        assert env.outcome == OUTCOME_REACHED
        trace = env.trace()
        assert trace.reached and len(trace) == 3
        assert [s.rule_id for s in trace.steps] == [
            "move_first_term",
            "isolate_product_factor",
            "root_both_sides",
        ]
        assert all(s.site == () for s in trace.steps)

    def test_invalid_action_keeps_state(self, mech_rules, table):
        env = self._env(mech_rules, table)
        state = (env.current, env.state_vector(), len(env.steps), env.trace().steps)
        with pytest.raises(RuleNotApplicable, match="root_both_sides"):
            env.env_step(2)  # root_both_sides matches nowhere yet
        assert (env.current, env.state_vector(), len(env.steps), env.trace().steps) == state
        assert env.current == parse(MECH_START) and env.trace().steps == []
        assert not env.done and env.outcome is None

    def test_cap_on_invalid_actions(self, mech_rules, table):
        # a refused pick counts no step, so it cannot bring on the cap either
        env = self._env(mech_rules, table, step_cap=2)
        env.env_step(0)
        state = (env.current, env.state_vector(), len(env.steps), env.trace().steps)
        for _ in range(3):
            with pytest.raises(RuleNotApplicable, match="root_both_sides"):
                env.env_step(2)
            assert (env.current, env.state_vector(), len(env.steps), env.trace().steps) == state
            assert not env.done and env.outcome is None
        _, reward, done = env.env_step(1)
        assert reward == -0.01 and done
        assert env.outcome == OUTCOME_CAP

    def test_encodes_each_tree_once(self, mech_rules, table, monkeypatch):
        encoded = []

        def counting_encode(f, tbl):
            encoded.append(f)
            return encode(f, tbl)

        monkeypatch.setattr(derivation, "encode", counting_encode)
        env = self._env(mech_rules, table)
        vectors = [env.state_vector()]
        for action in (0, 1, 2):
            if action != 2:  # root_both_sides applies only last; its refused picks encode nothing
                with pytest.raises(RuleNotApplicable):
                    env.env_step(2)
            vectors.append(env.env_step(action)[0])
        assert env.outcome == OUTCOME_REACHED
        trees = [parse(MECH_START), parse(MECH_AFTER_MOVE), parse(MECH_AFTER_ISOLATE), parse(MECH_FINAL)]
        assert encoded == trees
        assert vectors == [encode(f, table) for f in trees]
        assert env.state_vector() == encode(parse(MECH_FINAL), table)

    def test_loop_is_dead_end(self, base_rules, table):
        start = parse('Equal(Sym("a"),Sym("b"))')
        env = DerivationEnv(start, GoalSpec.exact(sym("unreachable")), base_rules, table)
        swap = base_rules.index_of("swap_sides")
        _, reward, done = env.env_step(swap)
        assert reward == -0.01 and not done
        _, reward, done = env.env_step(swap)  # back to the start tree
        assert reward == -1.0 and done
        assert env.outcome == OUTCOME_DEAD_END

    def test_cap_on_valid_step(self, mech_rules, table):
        env = self._env(mech_rules, table, step_cap=1)
        _, reward, done = env.env_step(0)
        assert reward == -0.01 and done
        assert env.outcome == OUTCOME_CAP
        assert len(env.trace()) == 1

    def test_step_after_done(self, mech_rules, table):
        env = self._env(mech_rules, table, step_cap=1)
        env.env_step(0)
        with pytest.raises(EpisodeFinished):
            env.env_step(0)

    def test_action_out_of_range(self, mech_rules, table):
        env = self._env(mech_rules, table)
        with pytest.raises(ValueError):
            env.env_step(3)

    def test_bad_step_cap(self, mech_rules, table):
        with pytest.raises(ValueError):
            self._env(mech_rules, table, step_cap=0)

    def _wrap_env(self, goal):
        # Sqrt(x) encodes to 2 entries and every wrap adds 2; the table holds 3
        a = sym("a")
        wrap = RuleSet([Rule("wrap", a, mk("Sqrt", a), frozenset({"a"}))])
        return DerivationEnv(mk("Sqrt", sym("x")), goal, wrap, default_table(3))

    def _unwrap_env(self, start, **kw):
        rules, walked = counting_walker(unwrap_rules())
        return DerivationEnv(start, GoalSpec.exact(sym("unreachable")), rules, default_table(), **kw), walked

    def test_step_into_a_tree_where_no_rule_applies_is_dead_end(self, table):
        env, walked = self._unwrap_env(mk("Sqrt", sym("x")))
        assert not env.done and env.applicable_mask() == [True]
        # the step pays the plain step reward, not the repeat/overflow one
        assert env.env_step(0) == (encode(sym("x"), table), STEP_REWARD, True)
        assert env.done and env.outcome == OUTCOME_DEAD_END
        assert env.trace().outcome == OUTCOME_DEAD_END
        assert env.trace().steps == [TraceStep(mk("Sqrt", sym("x")), "unwrap", (), sym("x"))]
        assert env.applicable_mask() == [False]
        assert walked == [mk("Sqrt", sym("x")), sym("x")]
        with pytest.raises(EpisodeFinished):
            env.env_step(0)

    def test_start_where_no_rule_applies_is_dead_end(self):
        env, walked = self._unwrap_env(sym("x"))
        assert env.done and env.outcome == OUTCOME_DEAD_END
        assert env.applicable_mask() == [False]
        assert walked == [sym("x")]
        trace = env.trace()
        assert trace.outcome == OUTCOME_DEAD_END and len(trace) == 0

    def test_cap_comes_before_a_tree_where_no_rule_applies(self):
        env, walked = self._unwrap_env(mk("Sqrt", sym("x")), step_cap=1)
        assert env.env_step(0)[1:] == (STEP_REWARD, True)
        assert env.outcome == OUTCOME_CAP
        # the capped tree's mask is walked only when asked for
        assert walked == [mk("Sqrt", sym("x"))]
        assert env.applicable_mask() == [False]
        assert walked == [mk("Sqrt", sym("x")), sym("x")]

    def test_goal_walks_no_mask(self, mech_rules, table):
        rules, walked = counting_walker(mech_rules)
        final = parse(MECH_FINAL)
        env = DerivationEnv(parse(MECH_AFTER_ISOLATE), GoalSpec.exact(final), rules, table)
        assert env.env_step(env.applicable_mask().index(True))[1:] == (1.0, True)
        assert walked == [parse(MECH_AFTER_ISOLATE)]
        assert DerivationEnv(final, GoalSpec.exact(final), rules, table).done
        assert walked == [parse(MECH_AFTER_ISOLATE)]

    def test_tree_too_wide_for_the_table_is_dead_end(self):
        env = self._wrap_env(GoalSpec.exact(sym("unreachable")))
        fitted = env.state_vector()
        vec, reward, done = env.env_step(0)
        assert (vec, reward, done) == (fitted, -1.0, True)
        assert env.outcome == OUTCOME_DEAD_END
        assert [step.after for step in env.trace().steps] == [mk("Sqrt", mk("Sqrt", sym("x")))]

    def test_goal_too_wide_for_the_table_is_reached(self):
        env = self._wrap_env(GoalSpec.exact(mk("Sqrt", mk("Sqrt", sym("x")))))
        fitted = env.state_vector()
        assert env.env_step(0) == (fitted, 1.0, True)
        assert env.outcome == OUTCOME_REACHED

    def test_start_too_wide_for_the_table_raises(self, mech_rules):
        with pytest.raises(EncodingOverflow):
            DerivationEnv(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, default_table(3))

    def test_start_satisfying_goal(self, mech_rules, table):
        final = parse(MECH_FINAL)
        env = DerivationEnv(final, GoalSpec.exact(final), mech_rules, table)
        assert env.done and env.outcome == OUTCOME_REACHED
        trace = env.trace()
        assert trace.reached and len(trace) == 0
        trace.replay(mech_rules)

    def test_mask_matches_rule_applicability(self, base_rules, table):
        for text in (MECH_START, DECAY_START, MECH_FINAL):
            f = parse(text)
            env = DerivationEnv(f, GoalSpec.exact(sym("unreachable")), base_rules, table)
            mask = env.applicable_mask()
            for i, rule in enumerate(base_rules):
                assert mask[i] == (apply_rule_first(f, rule) is not None)
                assert mask[i] == (find_first(f, rule.matcher) is not None)


def _scan_mask(f, rules):
    """The action mask by one naive scan per rule (the reference), which
    shares no code with the package's matchers, scanners or walkers."""
    return [bool(naive_find_all(f, rule.lhs, rule.vars)) for rule in rules]


def _env_mask(f, rules, table):
    return DerivationEnv(f, GoalSpec.exact(sym("unreachable")), rules, table).applicable_mask()


def _hand_rules():
    """Every kind of lhs root the index keys on, or does not key on."""
    a, b, x = sym("a"), sym("b"), sym("x")
    ab = frozenset({"a", "b"})
    return RuleSet(
        [
            Rule("var_root", a, mk("Sqrt", a), frozenset({"a"})),
            Rule("num_root", num(2), num(3), frozenset()),
            Rule("sym_root", x, sym("y"), ab),
            Rule("func_f", func("f", a), a, ab),
            Rule("func_g", func("g", a), a, ab),
            Rule("plus_two", mk("Plus", a, b), mk("Plus", b, a), ab),
            Rule("plus_three", mk("Plus", a, b, x), mk("Plus", x, a, b), ab),
            Rule("plus_same", mk("Plus", a, a), mk("Times", num(2), a), ab),
            Rule("minus_two", mk("Minus", a, num(2)), mk("Plus", a, num(-2)), ab),
        ]
    )


class TestIndexedMask:
    """The one-walk mask against one find_first scan per rule."""

    @pytest.fixture(scope="class")
    def wide_table(self):
        return default_table(l_max=512)

    HAND_CASES = [
        ('Sin(Sym("z"))', {"var_root"}),
        ('Num(2)', {"var_root", "num_root"}),
        ('Sin(Num(2))', {"var_root", "num_root"}),
        ('Sym("x")', {"var_root", "sym_root"}),
        ('FuncApply("f",Sym("x"))', {"var_root", "sym_root", "func_f"}),
        ('FuncApply("g",Num(1))', {"var_root", "func_g"}),
        ('FuncApply("h",Num(1))', {"var_root"}),
        ('FuncApply("f",Num(1),Num(3))', {"var_root"}),
        ('Plus(Sym("u"),Sym("v"))', {"var_root", "plus_two"}),
        ('Plus(Sym("u"),Sym("u"))', {"var_root", "plus_two", "plus_same"}),
        ('Plus(Sym("u"),Sym("v"),Sym("x"))', {"var_root", "plus_three", "sym_root"}),
        ('Plus(Sym("u"),Sym("v"),Sym("w"))', {"var_root"}),
        ('Times(Plus(Num(1),Num(1)),Minus(Sym("u"),Num(2)))', {"var_root", "plus_two", "plus_same", "minus_two", "num_root"}),
    ]

    @pytest.mark.parametrize("text,hits", HAND_CASES)
    def test_hand_built_rule_set(self, text, hits, wide_table):
        rules = _hand_rules()
        f = parse(text)
        mask = _env_mask(f, rules, wide_table)
        assert mask == _scan_mask(f, rules)
        assert {rule.id for rule, ok in zip(rules, mask) if ok} == hits

    def test_random_subjects(self, base_rules, mech_rules, wide_table):
        rng = random.Random(11)
        for _ in range(400):
            f = random_tree(rng, 4)
            for rules in (_hand_rules(), base_rules, mech_rules):
                assert _env_mask(f, rules, wide_table) == _scan_mask(f, rules), f

    def test_random_rule_sets(self, wide_table):
        rng = random.Random(12)
        for n in range(60):
            lhs_list = []
            for _ in range(rng.randint(1, 8)):
                lhs = random_tree(rng, 2)
                names = sorted({node.payload for _, node in walk(lhs) if node.kind == SYM})
                lhs_list.append((lhs, frozenset(rng.sample(names, k=rng.randint(0, len(names))))))
            rules = RuleSet(Rule(f"r{i}", lhs, sym("rhs_const"), names) for i, (lhs, names) in enumerate(lhs_list))
            for _ in range(10):
                f = random_tree(rng, 4)
                assert _env_mask(f, rules, wide_table) == _scan_mask(f, rules), (n, f)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_corpus_trees(self, seed, base_rules, mech_rules, table):
        corpus = build_corpus(GenConfig(count=200), seed, base_rules)
        trees = {inst.start for inst in corpus.instances}
        for trace in corpus.traces:
            for step in trace.steps:
                trees.update((step.before, step.after))
        hits = 0
        for f in trees:
            for rules in (base_rules, mech_rules):
                mask = _env_mask(f, rules, table)
                assert mask == _scan_mask(f, rules), f
                hits += sum(mask)
        assert hits > len(trees)

    def test_derived_rule_is_indexed(self, base_rules, table):
        before = parse('Equal(Plus(Sym("a"),Sym("b")),Sym("c"))')
        after = parse('Equal(Minus(Sym("c"),Sym("b")),Sym("a"))')
        script = [("move_first_term", ()), ("swap_sides", ())]
        rules = base_rules.with_rule(Rule("move_and_swap", before, after, frozenset("abc"), script))
        f = parse('Equal(Plus(Sym("m"),Sym("n")),Num(4))')
        mask = _env_mask(f, rules, table)
        assert len(mask) == len(base_rules) + 1
        assert mask[rules.index_of("move_and_swap")]
        assert mask == _scan_mask(f, rules)


class TestKeptRuleBits:
    """Each node keeps its walker's rule bits: masks of trees that share
    walked subtrees, and of trees walked by more than one rule set."""

    def test_rewrite_chains(self, base_rules, mech_rules):
        # each tree of a chain shares every subtree off its rewrite path
        # with the tree before it, walked already
        rng = random.Random(5)
        corpus = build_corpus(GenConfig(count=60), 3, base_rules)
        steps = 0
        for instance in corpus.instances:
            f = instance.start
            for _ in range(12):
                for rules in (base_rules, mech_rules):
                    assert rules.root_index(f) == _scan_mask(f, rules), f
                moves = [rule for rule in base_rules if find_first(f, rule.matcher) is not None]
                if not moves:
                    break
                f = apply_rule_first(f, rng.choice(moves))[0]
                steps += 1
        assert steps > 300, steps

    def test_two_rule_sets_alternate(self, base_rules):
        # a reordered copy of the same rules has its own walker and key:
        # neither takes the other's bits, and each mask is in its own order
        reordered = RuleSet(base_rules.rules[::-1])
        corpus = build_corpus(GenConfig(count=60), 0, base_rules)
        trees = [tree for trace in corpus.traces for step in trace.steps for tree in (step.before, step.after)]
        for _ in range(2):
            for f in trees:
                assert base_rules.root_index(f) == _scan_mask(f, base_rules), f
                assert reordered.root_index(f) == _scan_mask(f, reordered), f

    def test_right_side_keeps_builder(self, base_rules):
        for rule in base_rules:
            builder = rule.rhs._memo
            assert base_rules.root_index(rule.rhs) == _scan_mask(rule.rhs, base_rules)
            assert rule.rhs._memo is builder

    def test_equal_bits_share_one_mask(self, base_rules):
        a, b = parse(MECH_START), parse(MECH_START)
        assert a is not b
        assert base_rules.root_index(a) is base_rules.root_index(b)
        assert base_rules.root_index(a) is not base_rules.root_index(parse(DECAY_START))


# Left sides whose root can be a leaf: the kind-first mask must still try
# every leaf of a kind that roots a pattern.
LEAF_ROOTED_LHS = [
    (num(1), frozenset()),
    (sym("k"), frozenset({"a"})),
    (func("f"), frozenset()),
    (sym("a"), frozenset({"a"})),
]
LEAF_SUBJECTS = [
    'Sin(Num(1))',
    'Plus(Sym("u"),Sym("k"))',
    'Times(FuncApply("f"),Num(3))',
    'FuncApply("g",FuncApply("f"))',
    'Num(1)',
    'Sym("k")',
    'FuncApply("f")',
]


class TestKindFirstMask:
    """The mask walker over the hand-built left sides, leaf-rooted ones and
    seeded random ones, against one find_first per pattern and against the
    naive matcher."""

    RANDOM_CASES = template_cases(random.Random(12), 40)

    @pytest.fixture(scope="class")
    def subjects(self, base_rules):
        trees = [parse(text) for text, _ in TestIndexedMask.HAND_CASES] + [parse(text) for text in LEAF_SUBJECTS]
        rng = random.Random(11)
        trees += [random_tree(rng, 4) for _ in range(400)]
        trees += [target for target, _, _ in self.RANDOM_CASES]
        corpus = build_corpus(GenConfig(count=200), 0, base_rules)
        trees += [step.before for trace in corpus.traces for step in trace.steps]
        return trees

    def test_against_find_first_and_naive(self, subjects):
        patterns = [rule.matcher for rule in _hand_rules()]
        patterns += [compile_template(template, names) for _, template, names in self.RANDOM_CASES]
        patterns += [compile_template(template, names) for template, names in LEAF_ROOTED_LHS]
        index = root_index(patterns)
        hits = [0] * len(patterns)
        for f in subjects:
            mask = index(f)
            assert mask == [find_first(f, p) is not None for p in patterns], f
            assert mask == [bool(naive_find_all(f, p.template, p.vars)) for p in patterns], f
            hits = [h + m for h, m in zip(hits, mask)]
        assert min(hits[-len(LEAF_ROOTED_LHS):]) >= 5, hits
        random_hits = hits[-len(LEAF_ROOTED_LHS) - len(self.RANDOM_CASES):-len(LEAF_ROOTED_LHS)]
        assert sum(h > 0 for h in random_hits) >= 20, random_hits


class TestRollout:
    def test_qtable_guides_to_goal(self, base_rules, table):
        # a zeros table would greedily pick the lowest-index applicable rule
        # (swap_sides); these hand-set rows steer down the expert route.
        start = parse(DECAY_START)
        goal = GoalSpec.exact(parse(DECAY_MILESTONE))
        route_actions = [base_rules.index_of(rid) for rid, _ in DECAY_ROUTE]
        env = DerivationEnv(start, goal, base_rules, table)
        qt = QTable(len(base_rules))
        current = start
        for action in route_actions:
            row = np.zeros(len(base_rules))
            row[action] = 1.0
            qt.entries[encode(current, table)] = row
            current, _ = apply_rule_first(current, base_rules[action])
        trace = rollout(env, qt, mode="greedy")
        assert trace.reached
        assert [(s.rule_id, s.site) for s in trace.steps] == DECAY_ROUTE
        trace.replay(base_rules)

    def test_zeros_table_takes_lowest_applicable(self, base_rules, table):
        start = parse(DECAY_START)
        env = DerivationEnv(start, GoalSpec.exact(sym("unreachable")), base_rules, table, step_cap=1)
        trace = rollout(env, QTable(len(base_rules)))
        assert trace.steps[0].rule_id == "swap_sides"

    def test_no_applicable_rules_is_dead_end(self, mech_rules, table):
        env = DerivationEnv(sym("x"), GoalSpec.exact(sym("y")), mech_rules, table)
        trace = rollout(env, QTable(len(mech_rules)))
        assert trace.outcome == OUTCOME_DEAD_END and len(trace) == 0

    def test_stops_where_no_rule_applies(self, table):
        env = DerivationEnv(mk("Sqrt", sym("x")), GoalSpec.exact(sym("y")), unwrap_rules(), table)
        trace = rollout(env, QTable(1))
        assert trace.outcome == OUTCOME_DEAD_END
        assert [step.after for step in trace.steps] == [sym("x")]

    def test_walks_each_tree_acted_from_once(self, base_rules, table):
        rules, walked = counting_walker(base_rules)
        start = parse(DECAY_START)
        qt = QTable(len(rules))
        current = start
        for rule_id, _ in DECAY_ROUTE:
            action = rules.index_of(rule_id)
            qt.entries[encode(current, table)] = [float(i == action) for i in range(len(rules))]
            current, _ = apply_rule_first(current, rules[action])
        trace = rollout(DerivationEnv(start, GoalSpec.exact(parse(DECAY_MILESTONE)), rules, table), qt)
        assert trace.reached and len(trace) == len(DECAY_ROUTE)
        assert walked == [step.before for step in trace.steps]

    def test_encodes_each_state_once(self, base_rules, table):
        class CountingEnv(DerivationEnv):
            encodes = 0

            def state_vector(self):
                CountingEnv.encodes += 1
                return super().state_vector()

        env = CountingEnv(parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE)), base_rules, table, step_cap=6)
        CountingEnv.encodes = 0
        trace = rollout(env, QTable(len(base_rules)))
        assert len(trace) >= 2
        assert CountingEnv.encodes == len(trace) + 1

    def test_selects_through_rl_at_call_time(self, base_rules, table, monkeypatch):
        # a rebinding of rl.select_action (as a tracer makes) sees every choice
        calls = []
        original = rl.select_action

        def counting_select(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(rl, "select_action", counting_select)
        env = DerivationEnv(parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE)), base_rules, table, step_cap=6)
        trace = rollout(env, QTable(len(base_rules)))
        assert len(calls) == len(trace) >= 2

    def test_epsilon_rollout_terminates(self, base_rules, table):
        env = DerivationEnv(
            parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE)), base_rules, table, step_cap=12
        )
        trace = rollout(env, QTable(len(base_rules)), mode="epsilon", epsilon=1.0, rng=random.Random(3))
        assert trace.outcome in (OUTCOME_REACHED, OUTCOME_DEAD_END, OUTCOME_CAP)


class TestHeaderValues:
    """read_header takes back only what write_header writes: an int in its
    str form and a finite float."""

    SPEC = {"count": int, "gamma": float}

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["count= 1_0 ", "gamma=0.5"], "x line 1: count value ' 1_0 ' is not a valid int"),
            (["count=+3", "gamma=0.5"], "x line 1: count value '\\+3' is not a valid int"),
            (["count=03", "gamma=0.5"], "x line 1: count value '03' is not a valid int"),
            (["count=-0", "gamma=0.5"], "x line 1: count value '-0' is not a valid int"),
            (["count=3", "gamma=nan"], "x line 2: gamma value 'nan' is not a valid float"),
            (["count=3", "gamma=inf"], "x line 2: gamma value 'inf' is not a valid float"),
            (["count=3", "gamma=-Infinity"], "x line 2: gamma value '-Infinity' is not a valid float"),
        ],
    )
    def test_refused(self, lines, error):
        with pytest.raises(FileFormatError, match=error):
            read_header(lines, self.SPEC, "x")

    @pytest.mark.parametrize("count, gamma", [(0, 0.5), (-3, 1e-3), (10**20, 0.1), (7, -2.0)])
    def test_written_values_read_back(self, count, gamma, tmp_path):
        path = tmp_path / "header.txt"
        with open(path, "w", encoding="utf-8") as fh:
            textfile.write_header(fh, self.SPEC, {"count": count, "gamma": gamma})
        assert read_header(path.read_text().splitlines(), self.SPEC, str(path)) == {"count": count, "gamma": gamma}


class TestTraceFiles:
    def _mech_trace(self, mech_rules, table):
        env = DerivationEnv(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, table)
        for action in (0, 1, 2):
            env.env_step(action)
        return env.trace()

    def test_roundtrip(self, mech_rules, table, tmp_path):
        trace = self._mech_trace(mech_rules, table)
        path = str(tmp_path / "mech.trace")
        save_trace(trace, path)
        back = load_trace(path, mech_rules)
        assert back.goal == trace.goal
        assert back.outcome == trace.outcome
        assert back.steps == trace.steps
        back.replay(mech_rules)

    def test_load_refuses_missed_goal(self, mech_rules, table, tmp_path):
        trace = self._mech_trace(mech_rules, table)
        trace.goal = GoalSpec.exact(parse(MECH_START))
        path = str(tmp_path / "mech.trace")
        save_trace(trace, path)
        with pytest.raises(ValidationFailed, match="mech.trace: trace claims 'reached' but its final tree misses"):
            load_trace(path, mech_rules)

    def test_replay_detects_edited_tree(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        trace.steps[1] = trace.steps[1]._replace(after=parse(MECH_START))
        with pytest.raises(ValidationFailed, match="replays to"):
            trace.replay(mech_rules)

    def test_replay_detects_broken_chain(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        trace.steps[1] = trace.steps[1]._replace(before=parse(MECH_FINAL))
        with pytest.raises(ValidationFailed, match="does not start"):
            trace.replay(mech_rules)

    def test_replay_detects_wrong_rule_id(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        trace.steps[0] = trace.steps[0]._replace(rule_id="isolate_product_factor")
        with pytest.raises(ValidationFailed, match="cannot be replayed"):
            trace.replay(mech_rules)

    def test_replay_detects_unknown_rule_id(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        trace.steps[1] = trace.steps[1]._replace(rule_id="no_such_rule")
        with pytest.raises(ValidationFailed, match="step 1 names unknown rule 'no_such_rule'"):
            trace.replay(mech_rules)

    def test_replay_detects_site_outside_tree(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        trace.steps[2] = trace.steps[2]._replace(site=(7, 0))
        with pytest.raises(ValidationFailed, match="step 2 cannot be replayed"):
            trace.replay(mech_rules)

    def test_replay_checks_goal_claim(self, base_rules):
        step = TraceStep(
            parse('Equal(Sym("a"),Sym("b"))'), "swap_sides", (), parse('Equal(Sym("b"),Sym("a"))')
        )
        lying = DerivationTrace(GoalSpec.exact(sym("z")), OUTCOME_REACHED, [step])
        with pytest.raises(ValidationFailed, match="misses the goal"):
            lying.replay(base_rules)

    def test_serialize_shape(self, mech_rules, table):
        trace = self._mech_trace(mech_rules, table)
        lines = serialize_trace(trace).splitlines()
        assert lines[0].endswith("\treached")
        assert len(lines) == 1 + 3
        assert lines[1].split("\t")[1] == "move_first_term"

    @staticmethod
    def _count_printer(monkeypatch):
        printed = []

        def counting(f):
            printed.append(f)
            return expr.to_text(f)

        monkeypatch.setattr(derivation, "to_text", counting)
        return printed

    def test_serialize_prints_each_chained_tree_once(self, mech_rules, base_rules, table, monkeypatch):
        corpus = build_corpus(GenConfig(count=22), 0, base_rules)
        oracle = bfs_oracle(parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE)), base_rules)
        traces = [self._mech_trace(mech_rules, table), oracle] + corpus.traces
        traces.append(read_trace(serialize_trace(corpus.traces[0]), base_rules))
        printed = self._count_printer(monkeypatch)
        for trace in traces:
            assert all(step.before is prev.after for prev, step in zip(trace.steps, trace.steps[1:]))
            printed.clear()
            text = serialize_trace(trace)
            assert len(printed) == len(trace.steps) + 2
            assert text == naive_serialize_trace(trace)

    def test_serialize_prints_an_unchained_step_in_full(self, mech_rules, table, monkeypatch):
        trace = self._mech_trace(mech_rules, table)
        equal_copy = parse(expr.to_text(trace.steps[1].before))
        trace.steps[1] = trace.steps[1]._replace(before=equal_copy)
        printed = self._count_printer(monkeypatch)
        text = serialize_trace(trace)
        assert len(printed) == len(trace.steps) + 3
        assert text == naive_serialize_trace(trace)
        trace.steps[1] = trace.steps[1]._replace(before=parse(MECH_FINAL))
        assert serialize_trace(trace) == naive_serialize_trace(trace)

    def test_stepless_trace_needs_a_start(self, base_rules):
        text = 'exact:Sym("z")\treached\n'
        with pytest.raises(FileFormatError, match="trace: trace records no start"):
            read_trace(text, base_rules)
        trace = read_trace(text, base_rules, (sym("z"), 'Sym("z")'))
        assert trace.reached and len(trace) == 0

    def test_goal_variables_must_be_symbol_names(self, base_rules):
        with pytest.raises(FileFormatError, match="bad goal: .*pattern variable '1x' is not a symbol name"):
            read_trace('pattern[1x]:Sym("a")\tdead_end\n', base_rules)

    def test_parse_errors(self, base_rules):
        with pytest.raises(FileFormatError, match="empty"):
            read_trace("", base_rules)
        with pytest.raises(FileFormatError, match="header"):
            read_trace("just-one-field\n", base_rules)
        with pytest.raises(FileFormatError, match="outcome"):
            read_trace('exact:Sym("a")\tmaybe\n', base_rules)
        with pytest.raises(FileFormatError, match="step"):
            read_trace('exact:Sym("a")\treached\nSym("a")\trule\t\n', base_rules)
        with pytest.raises(FileFormatError, match="site"):
            read_trace('exact:Sym("a")\treached\nSym("b")\trule\tx.y\tSym("a")\n', base_rules)
        with pytest.raises(FileFormatError, match="goal spec"):
            read_trace('pattern[]:Sym("a")\treached\n', base_rules)
        with pytest.raises(FileFormatError, match="goal 'exact: Sym\\(\"a\"\\)' is not written as exact:Sym"):
            read_trace('exact: Sym("a")\tdead_end\n', base_rules)
        with pytest.raises(FileFormatError, match="goal 'pattern\\[b,a\\]:.*' is not written as pattern\\[a,b\\]:"):
            read_trace('pattern[b,a]:Equal(Sym("a"),Sym("b"))\tdead_end\n', base_rules)
        with pytest.raises(FileFormatError, match="step 0: tree 'Sym\\( \"b\"\\)' is not written as Sym"):
            read_trace('exact:Sym("a")\treached\nSym( "b")\trule\t\tSym("a")\n', base_rules)
        with pytest.raises(FileFormatError, match="trace line 2: blank line"):
            read_trace('exact:Sym("a")\tdead_end\n\n', base_rules)


class TestBfsOracle:
    def test_mechanics_shortest_route(self, mech_rules):
        goal = GoalSpec.exact(parse(MECH_FINAL))
        trace = bfs_oracle(parse(MECH_START), goal, mech_rules)
        assert trace.reached and len(trace) == 3
        assert [s.rule_id for s in trace.steps] == [
            "move_first_term",
            "isolate_product_factor",
            "root_both_sides",
        ]
        trace.replay(mech_rules)
        # three steps is optimal: capping the search below that finds nothing
        with pytest.raises(SearchNotFound):
            bfs_oracle(parse(MECH_START), goal, mech_rules, depth_cap=2)

    def test_decay_milestone_route(self, base_rules):
        goal = GoalSpec.exact(parse(DECAY_MILESTONE))
        trace = bfs_oracle(parse(DECAY_START), goal, base_rules)
        assert trace.reached
        assert [(s.rule_id, s.site) for s in trace.steps] == DECAY_ROUTE
        trace.replay(base_rules)
        with pytest.raises(SearchNotFound):
            bfs_oracle(parse(DECAY_START), goal, base_rules, depth_cap=3)

    def test_trivial_goal(self, base_rules):
        f = parse(MECH_START)
        trace = bfs_oracle(f, GoalSpec.exact(f), base_rules)
        assert trace.reached and len(trace) == 0

    def test_negative_depth_cap_refused(self, mech_rules):
        with pytest.raises(ValueError, match="depth_cap"):
            bfs_oracle(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, depth_cap=-1)

    def test_unreachable(self, mech_rules):
        with pytest.raises(SearchNotFound):
            bfs_oracle(parse(MECH_START), GoalSpec.exact(sym("nope")), mech_rules, depth_cap=4)

    def test_deterministic(self, base_rules):
        goal = GoalSpec.exact(parse(DECAY_MILESTONE))
        a = bfs_oracle(parse(DECAY_START), goal, base_rules)
        b = bfs_oracle(parse(DECAY_START), goal, base_rules)
        assert a.steps == b.steps

    def test_first_site_only_can_miss_deeper_sites(self, base_rules):
        swap = RuleSet([base_rules.by_id("swap_sides")])
        start = mk("Times", parse('Equal(Sym("a"),Sym("b"))'), parse('Equal(Sym("c"),Sym("d"))'))
        goal = GoalSpec.exact(
            mk("Times", parse('Equal(Sym("a"),Sym("b"))'), parse('Equal(Sym("d"),Sym("c"))'))
        )
        full = bfs_oracle(start, goal, swap)
        assert [(s.rule_id, s.site) for s in full.steps] == [("swap_sides", (1,))]
        with pytest.raises(SearchNotFound):
            bfs_oracle(start, goal, swap, first_site_only=True, depth_cap=6)

    def test_first_site_only_sites_are_first_matches(self, base_rules):
        goal = GoalSpec.exact(parse(DECAY_MILESTONE))
        trace = bfs_oracle(parse(DECAY_START), goal, base_rules, first_site_only=True)
        assert trace.reached
        for step in trace.steps:
            rule = base_rules.by_id(step.rule_id)
            hit = find_first(step.before, rule.matcher)
            assert hit is not None and hit.site == step.site


def _oracle_route(start, goal, rules, depth_cap, first_site_only):
    """bfs_oracle's route in naive_bfs's form, or None on SearchNotFound."""
    try:
        trace = bfs_oracle(start, goal, rules, depth_cap=depth_cap, first_site_only=first_site_only)
    except SearchNotFound:
        return None
    assert trace.reached
    return [(step.rule_id, step.site, step.after) for step in trace.steps]


def _random_walk(rng, start, rules, steps):
    """A tree reached from start by rewriting random sites with random rules."""
    tree = start
    for _ in range(steps):
        moves = [(rule, m) for rule in rules for m in naive_find_all(tree, rule.lhs, rule.vars)]
        if not moves:
            break
        rule, (site, binding) = moves[rng.randrange(len(moves))]
        tree = replace_at(tree, site, substitute(rule.rhs, binding))
    return tree


class TestOracleAgainstReference:
    """The mask-guided search against a BFS that scans every rule at every tree."""

    @pytest.mark.parametrize("first_site_only", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_corpus_instances(self, seed, first_site_only, base_rules, mech_rules):
        corpus = build_corpus(GenConfig(count=60), seed, base_rules)
        found = 0
        for inst in corpus.instances:
            for rules in (base_rules, mech_rules):
                want = naive_bfs(inst.start, inst.goal, rules, 10, first_site_only)
                assert _oracle_route(inst.start, inst.goal, rules, 10, first_site_only) == want, inst.index
                found += want is not None
        assert found >= len(corpus.instances)

    @pytest.mark.parametrize("first_site_only", [False, True])
    def test_hand_built_rule_set(self, first_site_only):
        rules = _hand_rules()
        rng = random.Random(31)
        outcomes = {"found": 0, "not_found": 0}
        for n in range(60):
            start = random_tree(rng, 3)
            if n % 4 == 0:
                goal = GoalSpec.exact(sym("unreachable"))
            elif n % 4 == 1:
                goal = GoalSpec.pattern(mk("Sqrt", mk("Sqrt", sym("a"))), {"a"})
            else:
                goal = GoalSpec.exact(_random_walk(rng, start, rules, rng.randint(1, 3)))
            want = naive_bfs(start, goal, rules, 3, first_site_only)
            assert _oracle_route(start, goal, rules, 3, first_site_only) == want, (start, goal)
            outcomes["found" if want is not None else "not_found"] += 1
        assert min(outcomes.values()) >= 5, outcomes
