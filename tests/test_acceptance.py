"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

Each test appends an `ACCEPTANCE <name>: PASS/FAIL` line that the conftest
hook replays in the terminal summary, so a full run always ends with a
visible per-criterion scoreboard.
"""

import contextlib
import random
import time

import numpy as np
import pytest

from symderive.cli import main
from symderive.dataset import GenConfig, build_corpus, save_corpus
from symderive.derivation import DerivationEnv, GoalSpec, bfs_oracle
from symderive.encoding import default_table, distance, encode
from symderive.errors import EncodingOverflow, RuleNotApplicable, SearchNotFound
from symderive.expr import parse, replace_at, sym, to_text, walk
from symderive.pattern import compile_template, find_all
from symderive.rewrite import Rule, RuleSet, apply_rule_at, substitute
from symderive.rl import (
    PolicyModel,
    QTable,
    cross_entropy_and_grads,
    policy_train,
    q_learn,
    q_update,
    select_action,
    top1_accuracy,
)

from conftest import ACCEPTANCE_LINES, random_tree, template_cases
from oracles import naive_find_all
from test_derivation import (
    DECAY_MILESTONE,
    DECAY_START,
    MECH_AFTER_ISOLATE,
    MECH_AFTER_MOVE,
    MECH_FINAL,
    MECH_START,
)
from test_encoding import WORKED_A, WORKED_A_PREFIX, WORKED_B, WORKED_B_PREFIX, WORKED_DISTANCE
from test_rewrite import BALANCED_PAIRS


@contextlib.contextmanager
def criterion(name):
    info = {}
    try:
        yield info
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {name}: FAIL")
        raise
    note = f" ({info['note']})" if "note" in info else ""
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {name}: PASS{note}")
    print(f"ACCEPTANCE {name}: PASS{note}")


def test_worked_rearrangement_chain(mech_rules, table):
    """The equation m v^2 / 2 + E = Q is rearranged to v = sqrt(2 (Q - E) / m)
    by exactly three rule applications, and search confirms three is optimal.
    Must complete in under a second."""
    with criterion("worked_rearrangement_chain"):
        t0 = time.perf_counter()
        env = DerivationEnv(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, table)
        expected = [
            (0, MECH_AFTER_MOVE, -0.01, False),
            (1, MECH_AFTER_ISOLATE, -0.01, False),
            (2, MECH_FINAL, 1.0, True),
        ]
        for action, text, reward, done in expected:
            _, r, d = env.env_step(action)
            assert env.current == parse(text), f"step {action} produced {to_text(env.current)}"
            assert (r, d) == (reward, done)
        assert env.outcome == "reached"
        env.trace().replay(mech_rules)

        found = bfs_oracle(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules)
        assert len(found) == 3
        with pytest.raises(SearchNotFound):
            bfs_oracle(parse(MECH_START), GoalSpec.exact(parse(MECH_FINAL)), mech_rules, depth_cap=2)
        assert time.perf_counter() - t0 < 1.0


def test_end_to_end_learning_pipeline(tmp_path, capsys):
    """gen 500 instances -> train a policy from three seeds (each under five
    minutes) -> the trained policy, driven greedily, isolates the decay
    equation's time variable within 20 steps. The hard floor is one success
    out of three seeds; the achieved count is reported on the PASS line
    (all three are expected to succeed)."""
    with criterion("end_to_end_learning_pipeline") as info:
        corpus = str(tmp_path / "corpus")
        assert main(["gen", "--out", corpus, "--count", "500", "--seed", "42"]) == 0
        gen_line = capsys.readouterr().out.strip()
        assert gen_line.startswith("instances=500 dropped=0 "), gen_line

        successes = []
        for seed in (1, 2, 3):
            ckpt = str(tmp_path / f"policy-{seed}.ckpt")
            t0 = time.monotonic()
            assert main(["train", "--corpus", corpus, "--out", ckpt, "--seed", str(seed)]) == 0
            elapsed = time.monotonic() - t0
            capsys.readouterr()
            assert elapsed < 300.0, f"seed {seed} training took {elapsed:.1f}s"

            code = main(
                ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE,
                 "--policy", ckpt, "--step-cap", "20"]
            )
            out = capsys.readouterr().out.splitlines()
            if code == 0 and out[-1].startswith("outcome: reached"):
                steps = int(out[-1].split()[-2])
                assert steps <= 20
                successes.append(seed)
        assert len(successes) >= 1, "no seed derived the decay equation"
        info["note"] = f"{len(successes)}/3 seeds"


def test_matcher_oracle_equivalence():
    """The subtree matcher agrees with an independent worklist matcher on
    1000 random (target, template, variables) cases, in under 10 seconds."""
    with criterion("matcher_oracle_equivalence"):
        t0 = time.perf_counter()
        rng = random.Random(2025)
        for target, template, var_names in template_cases(rng, 1000):
            got = find_all(target, compile_template(template, var_names))
            want = naive_find_all(target, template, var_names)
            assert got == want, (to_text(target), to_text(template), sorted(var_names))
        assert time.perf_counter() - t0 < 10.0


def test_rewrite_roundtrip():
    """500 random applications of variable-balanced rules, each planted at a
    random site of a random host tree, invert exactly under the swapped rule."""
    with criterion("rewrite_roundtrip"):
        rng = random.Random(77)
        for case in range(500):
            lhs_text, rhs_text, names = BALANCED_PAIRS[case % len(BALANCED_PAIRS)]
            fwd = Rule("fwd", parse(lhs_text), parse(rhs_text), frozenset(names))
            rev = Rule("rev", parse(rhs_text), parse(lhs_text), frozenset(names))
            binding = {name: random_tree(rng, 2) for name in names}
            host = random_tree(rng, 3)
            sites = [path for path, _ in walk(host)]
            site = sites[rng.randrange(len(sites))]
            start = replace_at(host, site, substitute(fwd.lhs, binding))
            stepped = apply_rule_at(start, fwd, site)
            assert apply_rule_at(stepped, rev, site) == start, (case, to_text(start))


def test_encoding_and_distance(table):
    """The two worked oscillation right-hand sides encode to their frozen
    vectors and sit at positional distance 6; encoding ignores leaf names,
    refuses to overflow, and the distance behaves as a metric."""
    with criterion("encoding_and_distance"):
        va = encode(parse(WORKED_A), table)
        vb = encode(parse(WORKED_B), table)
        assert list(va[: len(WORKED_A_PREFIX)]) == WORKED_A_PREFIX
        assert list(vb[: len(WORKED_B_PREFIX)]) == WORKED_B_PREFIX
        assert set(va[len(WORKED_A_PREFIX):]) <= {0} and set(vb[len(WORKED_B_PREFIX):]) <= {0}
        assert distance(va, vb) == WORKED_DISTANCE

        renamed = WORKED_A.replace('"t"', '"Q"').replace('"x"', '"omega"').replace('"m"', '"z"')
        assert encode(parse(renamed), table) == va

        with pytest.raises(EncodingOverflow):
            encode(parse(WORKED_A), default_table(8))

        rng = random.Random(31)
        vectors = [encode(random_tree(rng, 4), table) for _ in range(80)]
        for _ in range(1000):
            a, b, c = (vectors[rng.randrange(len(vectors))] for _ in range(3))
            assert distance(a, a) == 0
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c)
            assert 0 <= distance(a, b) <= table.l_max


# --- criterion 6: the 4-state rearrangement MDP ----------------------------
#
# Two rules (move_first_term, swap_sides) on (a + b) + c = d. The actions
# are the applicable rules, and together with the dead-end rule they carve
# out this exact transition table, written here by hand and checked against
# the live environment before use.

MDP_STATES = {
    "s0": 'Equal(Plus(Plus(Sym("a"),Sym("b")),Sym("c")),Sym("d"))',
    "s1": 'Equal(Plus(Sym("a"),Sym("b")),Minus(Sym("d"),Sym("c")))',
    "s3": 'Equal(Sym("d"),Plus(Plus(Sym("a"),Sym("b")),Sym("c")))',
    "s4": 'Equal(Minus(Sym("d"),Sym("c")),Plus(Sym("a"),Sym("b")))',
    "goal": 'Equal(Sym("a"),Minus(Minus(Sym("d"),Sym("c")),Sym("b")))',
}

# state -> applicable action -> (next state, reward, episode over);
# move_first_term (action 0) matches nowhere in s3 and s4
MDP_MODEL = {
    "s0": {0: ("s1", -0.01, False), 1: ("s3", -0.01, False)},
    "s1": {0: ("goal", 1.0, True), 1: ("s4", -0.01, False)},
    "s3": {1: ("s0", -1.0, True)},
    "s4": {1: ("s1", -1.0, True)},
}

# action prefixes that drive a fresh episode into each model state
MDP_PREFIX = {"s0": (), "s1": (0,), "s3": (1,), "s4": (0, 1)}

# the entries of actions that never apply are never written, so they stay 0
MDP_Q_STAR = {
    "s0": (0.89, -0.91),
    "s1": (1.0, -0.91),
    "s3": (0.0, -1.0),
    "s4": (0.0, -1.0),
}


def _mdp_value_iteration():
    """Value iteration of the model, bootstrapping over the applicable
    actions of the next state."""
    q = {s: [0.0, 0.0] for s in MDP_MODEL}
    for _ in range(10_000):
        delta = 0.0
        for s, by_action in MDP_MODEL.items():
            for a, (nxt, reward, over) in by_action.items():
                target = reward + (0.0 if over else 0.9 * max(q[nxt][b] for b in MDP_MODEL[nxt]))
                delta = max(delta, abs(target - q[s][a]))
                q[s][a] = target
        if delta < 1e-12:
            return q
    raise AssertionError("value iteration did not settle")


def test_q_learning_fixed_point(base_rules):
    """Tabular Q-learning (10000 episodes, gamma 0.9, alpha 0.5) over the
    applicable rules of the two-rule rearrangement task lands on the
    value-iteration fixed point of its hand-written transition model to
    within 1e-6, with the same greedy policy over the applicable rules; at
    alpha 1 a single backup is the plain Bellman assignment."""
    with criterion("q_learning_fixed_point"):
        rules = RuleSet([base_rules.by_id("move_first_term"), base_rules.by_id("swap_sides")])
        table = default_table(16)
        trees = {name: parse(text) for name, text in MDP_STATES.items()}
        vecs = {name: encode(tree, table) for name, tree in trees.items()}
        assert len(set(vecs.values())) == len(vecs), "state encodings must be distinct"
        goal = GoalSpec.exact(trees["goal"])
        masks = {state: [a in by_action for a in range(2)] for state, by_action in MDP_MODEL.items()}

        # the hand model must be exactly what the environment does
        for state in MDP_MODEL:
            for action in range(2):
                env = DerivationEnv(trees["s0"], goal, rules, table)
                for step in MDP_PREFIX[state]:
                    env.env_step(step)
                assert env.state_vector() == vecs[state]
                assert env.applicable_mask() == masks[state], state
                if action in MDP_MODEL[state]:
                    next_name, reward, over = MDP_MODEL[state][action]
                    vec, r, d = env.env_step(action)
                    assert (vec, r, d) == (vecs[next_name], reward, over), (state, action)
                    continue
                # an inapplicable pick is refused and changes nothing
                before = (env.current, env.step_count, env.trace().steps, env.done)
                with pytest.raises(RuleNotApplicable):
                    env.env_step(action)
                assert (env.current, env.step_count, env.trace().steps, env.done) == before, state

        expected = _mdp_value_iteration()
        for state, frozen in MDP_Q_STAR.items():
            assert expected[state] == pytest.approx(frozen, abs=1e-9), state

        learned = q_learn(
            lambda episode: DerivationEnv(trees["s0"], goal, rules, table),
            n_actions=2,
            episodes=10_000,
            gamma=0.9,
            alpha=0.5,
            epsilon=0.2,
            seed=0,
        )
        assert set(learned.entries) == {vecs[s] for s in MDP_MODEL}
        for state, by_action in MDP_MODEL.items():
            got = learned.values(vecs[state])
            want = MDP_Q_STAR[state]
            assert np.allclose(got, want, atol=1e-6), (state, got, want)
            assert all(got[a] == 0.0 for a in range(2) if a not in by_action), (state, got)
            greedy = max(by_action, key=lambda a: (want[a], -a))
            assert select_action(learned, vecs[state], masks[state]) == greedy, state

        # alpha = 1: one backup is the bare Bellman assignment
        hand = QTable(n_actions=2, gamma=0.9, alpha=1.0)
        q_update(hand, vecs["s1"], 0, 7.0, vecs["goal"], terminal=True)
        assert hand.values(vecs["s1"])[0] == 7.0
        q_update(hand, vecs["s0"], 1, -0.01, vecs["s1"], next_mask=masks["s1"])
        assert hand.values(vecs["s0"])[1] == -0.01 + 0.9 * 7.0


def test_policy_gradients_and_generalization(base_rules, table):
    """The softmax policy's analytic gradients match finite differences to
    1e-4 relative error (1e-9 absolute floor for near-zero coordinates) at
    three seeded weight configurations; full-batch training on the
    500-instance corpus has non-increasing loss and at least 0.95 held-out
    action accuracy."""
    with criterion("policy_gradients_and_generalization"):
        corpus = build_corpus(GenConfig(), 42, base_rules)
        train = corpus.samples(base_rules, table, "train")
        test = corpus.samples(base_rules, table, "test")
        assert train and test

        states = np.asarray([s.state for s in train[:25]], dtype=float)
        actions = np.asarray([s.action for s in train[:25]])
        h = 1e-6
        for probe_seed in (0, 1, 2):
            probe = PolicyModel.create(
                table.l_max, len(base_rules), hidden=6, seed=probe_seed, init_scale=0.3
            )
            _, grads = cross_entropy_and_grads(probe, states, actions)
            for block, grad in zip((probe.w1, probe.b1, probe.w2, probe.b2), grads):
                flat, gflat = block.ravel(), grad.ravel()
                for i in range(flat.shape[0]):
                    keep = flat[i]
                    flat[i] = keep + h
                    up, _ = cross_entropy_and_grads(probe, states, actions)
                    flat[i] = keep - h
                    down, _ = cross_entropy_and_grads(probe, states, actions)
                    flat[i] = keep
                    numeric = (up - down) / (2 * h)
                    # 1e-9 absolute floor: central differences carry ~eps/h
                    # of rounding noise, which swamps the ratio near zero
                    scale = max(abs(numeric), abs(gflat[i]))
                    assert abs(numeric - gflat[i]) <= 1e-4 * scale + 1e-9, (probe_seed, i)

        model = PolicyModel.create(table.l_max, len(base_rules), hidden=64, seed=1, step_size=0.1)
        losses = policy_train(model, train, epochs=800)
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6
        held_out = top1_accuracy(model, test)
        assert held_out >= 0.95, f"held-out top-1 accuracy {held_out:.4f}"


def test_corpus_integrity(base_rules, table, tmp_path):
    """A 500-instance corpus regenerates byte-identically from its seed,
    drops nothing, replays every expert trace to its goal, uses all 16 rules,
    and never assigns two actions to one encoded state."""
    with criterion("corpus_integrity"):
        corpus = build_corpus(GenConfig(), 42, base_rules)
        assert len(corpus.instances) >= 500
        assert corpus.dropped == []

        for trace in corpus.traces:
            assert trace.reached
            trace.replay(base_rules)

        used = {step.rule_id for trace in corpus.traces for step in trace.steps}
        assert used == set(base_rules.ids())

        chosen: dict[tuple, str] = {}
        for trace in corpus.traces:
            for step in trace.steps:
                vec = encode(step.before, table)
                assert chosen.setdefault(vec, step.rule_id) == step.rule_id
        assert len(chosen) >= 2

        again = build_corpus(GenConfig(), 42, base_rules)
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        save_corpus(corpus, dir_a)
        save_corpus(again, dir_b)
        import filecmp
        import os

        names = ["instances.txt", "split.txt", "seed.txt"] + [
            os.path.join("traces", f) for f in sorted(os.listdir(os.path.join(dir_a, "traces")))
        ]
        match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
        assert mismatch == [] and errors == []
        assert len(match) == len(names)
