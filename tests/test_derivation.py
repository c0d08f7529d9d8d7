import random

import numpy as np
import pytest

from symderive.derivation import (
    OUTCOME_CAP,
    OUTCOME_DEAD_END,
    OUTCOME_REACHED,
    DerivationEnv,
    DerivationTrace,
    GoalSpec,
    TraceStep,
    bfs_oracle,
    load_trace,
    parse_goal,
    parse_trace,
    rollout,
    save_trace,
    serialize_trace,
)
from symderive.encoding import encode
from symderive.errors import (
    EpisodeFinished,
    FileFormatError,
    SearchNotFound,
    ValidationFailed,
)
from symderive.expr import mk, num, parse, sym
from symderive.pattern import find_first
from symderive.rewrite import RuleSet, apply_rule_first
from symderive.rl import QTable

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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GoalSpec("fuzzy", sym("a"))

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
        before = env.current
        vec, reward, done = env.env_step(2)  # root_both_sides matches nowhere yet
        assert reward == -1.0 and not done
        assert env.current == before and vec == encode(before, table)
        assert env.trace().steps == []

    def test_loop_is_dead_end(self, base_rules, table):
        start = parse('Equal(Sym("a"),Sym("b"))')
        env = DerivationEnv(start, GoalSpec.exact(sym("unreachable")), base_rules, table)
        swap = base_rules.index_of("swap_sides")
        _, reward, done = env.env_step(swap)
        assert reward == -0.01 and not done
        _, reward, done = env.env_step(swap)  # back to the start tree
        assert reward == -1.0 and done
        assert env.outcome == OUTCOME_DEAD_END

    def test_cap_on_invalid_actions(self, mech_rules, table):
        env = self._env(mech_rules, table, step_cap=3)
        for want_done in (False, False, True):
            _, reward, done = env.env_step(2)
            assert reward == -1.0 and done == want_done
        assert env.outcome == OUTCOME_CAP

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

    def test_start_satisfying_goal(self, mech_rules, table):
        final = parse(MECH_FINAL)
        env = DerivationEnv(final, GoalSpec.exact(final), mech_rules, table)
        assert env.done and env.outcome == OUTCOME_REACHED
        trace = env.trace()
        assert trace.reached and len(trace) == 0 and trace.final is None
        trace.replay(mech_rules)

    def test_reset_restores_start(self, mech_rules, table):
        env = self._env(mech_rules, table)
        env.env_step(0)
        vec = env.reset()
        assert env.current == parse(MECH_START) and not env.done
        assert vec == encode(parse(MECH_START), table)

    def test_mask_matches_rule_applicability(self, base_rules, table):
        for text in (MECH_START, DECAY_START, MECH_FINAL):
            f = parse(text)
            env = DerivationEnv(f, GoalSpec.exact(sym("unreachable")), base_rules, table)
            mask = env.applicable_mask()
            for i, rule in enumerate(base_rules):
                assert mask[i] == (apply_rule_first(f, rule) is not None)
                assert mask[i] == (find_first(f, rule.lhs, rule.vars) is not None)


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

    def test_epsilon_rollout_terminates(self, base_rules, table):
        env = DerivationEnv(
            parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE)), base_rules, table, step_cap=12
        )
        trace = rollout(env, QTable(len(base_rules)), mode="epsilon", epsilon=1.0, rng=random.Random(3))
        assert trace.outcome in (OUTCOME_REACHED, OUTCOME_DEAD_END, OUTCOME_CAP)


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
        back = load_trace(path)
        assert back.goal == trace.goal
        assert back.outcome == trace.outcome
        assert back.steps == trace.steps
        back.replay(mech_rules)

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

    def test_parse_errors(self):
        with pytest.raises(FileFormatError, match="empty"):
            parse_trace("")
        with pytest.raises(FileFormatError, match="header"):
            parse_trace("just-one-field\n")
        with pytest.raises(FileFormatError, match="outcome"):
            parse_trace('exact:Sym("a")\tmaybe\n')
        with pytest.raises(FileFormatError, match="step"):
            parse_trace('exact:Sym("a")\treached\nSym("a")\trule\t\n')
        with pytest.raises(FileFormatError, match="site"):
            parse_trace('exact:Sym("a")\treached\nSym("b")\trule\tx.y\tSym("a")\n')
        with pytest.raises(FileFormatError, match="goal spec"):
            parse_trace('pattern[]:Sym("a")\treached\n')


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
            hit = find_first(step.before, rule.lhs, rule.vars)
            assert hit is not None and hit.site == step.site
