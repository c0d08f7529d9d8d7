import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from oracles import (
    naive_cross_entropy_and_grads,
    naive_save_policy,
    reference_policy_train,
    reference_top1,
    roulette_pick,
)
from symderive.dataset import GenConfig, build_corpus
from symderive.derivation import GOAL_REWARD, INVALID_ACTION_REWARD, STEP_REWARD, DerivationEnv, GoalSpec, TraceSample
from symderive.encoding import DEFAULT_L_MAX, encode
from symderive.errors import EmptyDataset, FileFormatError, NoApplicableAction, RuleNotApplicable, TrainingDiverged
from symderive.expr import mk, parse, sym
from symderive.rl import (
    PolicyModel,
    QTable,
    cross_entropy_and_grads,
    load_policy,
    load_qtable,
    policy_train,
    q_learn,
    q_update,
    save_policy,
    save_qtable,
    select_action,
    top1_accuracy,
)

from test_derivation import DECAY_MILESTONE, DECAY_ROUTE, DECAY_START, counting_walker, unwrap_rules


class TestQTable:
    def test_constants(self):
        assert GOAL_REWARD == 1.0
        assert INVALID_ACTION_REWARD == -1.0
        assert STEP_REWARD == -0.01

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            QTable(0)
        with pytest.raises(ValueError):
            QTable(2, gamma=1.5)
        with pytest.raises(ValueError):
            QTable(2, alpha=0.0)

    def test_n_inputs_is_the_state_length(self):
        qt = QTable(2)
        assert qt.n_inputs == DEFAULT_L_MAX
        qt.entries[(1, 0, 2)] = np.zeros(2)
        assert qt.n_inputs == 3

    def test_unseen_state_reads_zero_without_insertion(self):
        qt = QTable(3)
        assert list(qt.values((9, 9, 9))) == [0.0, 0.0, 0.0]
        assert len(qt) == 0

    def test_update_arithmetic(self):
        qt = QTable(2, gamma=0.9, alpha=0.5)
        s1, s2 = (1,), (2,)
        qt.entries[s2] = np.array([2.0, 3.0])
        q_update(qt, s1, 0, -0.01, s2)
        # 0.5 * 0 + 0.5 * (-0.01 + 0.9 * 3.0)
        assert qt.values(s1)[0] == pytest.approx(1.345, abs=1e-12)
        q_update(qt, s1, 0, -0.01, s2)
        assert qt.values(s1)[0] == pytest.approx(0.5 * 1.345 + 0.5 * 2.69, abs=1e-12)

    def test_update_alpha_one_is_bellman_assignment(self):
        qt = QTable(2, gamma=0.5, alpha=1.0)
        s1, s2 = (1,), (2,)
        qt.entries[s2] = np.array([1.0, 4.0])
        q_update(qt, s1, 1, 2.0, s2)
        assert qt.values(s1)[1] == 2.0 + 0.5 * 4.0

    def test_terminal_suppresses_bootstrap(self):
        qt = QTable(2, gamma=0.9, alpha=0.5)
        s1, s2 = (1,), (2,)
        qt.entries[s2] = np.array([5.0, 5.0])  # must be ignored
        q_update(qt, s1, 0, 1.0, s2, terminal=True)
        assert qt.values(s1)[0] == 0.5

    def test_bootstrap_ignores_inapplicable_actions(self):
        qt = QTable(2, gamma=0.9, alpha=0.5)
        s1, s2 = (1,), (2,)
        qt.entries[s2] = np.array([2.0, 3.0])  # action 1 does not apply at s2
        q_update(qt, s1, 0, -0.01, s2, next_mask=[True, False])
        assert qt.values(s1)[0] == 0.5 * (-0.01 + 0.9 * 2.0)

    def test_no_applicable_next_action_gives_the_bare_reward(self):
        qt = QTable(2, gamma=0.9, alpha=1.0)
        s1, s2 = (1,), (2,)
        qt.entries[s2] = np.array([2.0, 3.0])
        q_update(qt, s1, 1, -0.01, s2, next_mask=[False, False])
        assert qt.values(s1)[1] == -0.01

    def test_no_mask_bootstraps_from_every_action(self):
        """next_mask=None is the backup over every action, bit for bit: the
        max over the whole row, as an all-true mask also takes it."""
        rng = random.Random(7)
        unmasked, all_true = QTable(5, gamma=0.9, alpha=0.5), QTable(5, gamma=0.9, alpha=0.5)
        for case in range(500):
            s, s_next = (case % 7,), ((case + 1) % 7,)
            a, r = rng.randrange(5), rng.uniform(-1, 1)
            if s_next not in unmasked.entries:
                next_row = np.array([rng.uniform(-2, 2) for _ in range(5)])
                unmasked.entries[s_next], all_true.entries[s_next] = next_row, next_row.copy()
            # the reference: the max over the whole next row
            want = (1.0 - 0.5) * unmasked.values(s)[a] + 0.5 * (r + 0.9 * float(np.max(unmasked.values(s_next))))
            q_update(unmasked, s, a, r, s_next)
            q_update(all_true, s, a, r, s_next, next_mask=[True] * 5)
            assert unmasked.values(s)[a] == want
            assert np.array_equal(all_true.values(s), unmasked.values(s))

    def test_update_never_writes_next_state(self):
        qt = QTable(2)
        q_update(qt, (1,), 0, -0.01, (2,))
        assert (1,) in qt.entries and (2,) not in qt.entries

    def test_update_returns_table(self):
        qt = QTable(2)
        assert q_update(qt, (1,), 0, 0.0, (2,)) is qt


class TestSelectAction:
    def test_greedy_breaks_ties_low(self):
        qt = QTable(3)
        qt.entries[(0,)] = np.array([1.0, 1.0, 0.5])
        assert select_action(qt, (0,), [True] * 3) == 0

    def test_greedy_respects_mask(self):
        qt = QTable(3)
        qt.entries[(0,)] = np.array([9.0, 1.0, 2.0])
        assert select_action(qt, (0,), mask=[False, True, True]) == 2

    def test_greedy_matches_bruteforce(self):
        rng = random.Random(321)
        qt = QTable(6)
        for case in range(500):
            state = (case,)
            scores = [rng.uniform(-2, 2) for _ in range(6)]
            qt.entries[state] = np.array(scores)
            if rng.random() < 0.3:
                mask = [True] * 6
                allowed = range(6)
            else:
                mask = [rng.random() < 0.6 for _ in range(6)]
                if not any(mask):
                    mask[rng.randrange(6)] = True
                allowed = [i for i in range(6) if mask[i]]
            want = max(allowed, key=lambda i: (scores[i], -i))
            assert select_action(qt, state, mask=mask) == want

    def test_all_masked_raises(self):
        qt = QTable(2)
        with pytest.raises(NoApplicableAction):
            select_action(qt, (0,), mask=[False, False])

    def test_mask_length_checked(self):
        qt = QTable(2)
        with pytest.raises(ValueError, match="mask"):
            select_action(qt, (0,), mask=[True])

    def test_sample_needs_policy(self):
        with pytest.raises(ValueError, match="sample"):
            select_action(QTable(2), (0,), [True] * 2, mode="sample", rng=random.Random(0))

    def test_epsilon_needs_rng(self):
        with pytest.raises(ValueError, match="rng"):
            select_action(QTable(2), (0,), [True] * 2, mode="epsilon")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            select_action(QTable(2), (0,), [True] * 2, mode="boltzmann", rng=random.Random(0))

    def test_epsilon_one_is_uniform_over_allowed(self):
        qt = QTable(4)
        qt.entries[(0,)] = np.array([5.0, 0.0, 0.0, 0.0])
        rng = random.Random(8)
        mask = [False, True, True, False]
        picks = {select_action(qt, (0,), mask, "epsilon", 1.0, rng) for _ in range(200)}
        assert picks == {1, 2}

    def test_epsilon_zero_is_greedy(self):
        qt = QTable(3)
        qt.entries[(0,)] = np.array([0.0, 2.0, 1.0])
        rng = random.Random(8)
        assert all(select_action(qt, (0,), [True] * 3, "epsilon", 0.0, rng) == 1 for _ in range(50))

    def test_sample_covers_allowed_only(self):
        model = PolicyModel.create(2, 4, hidden=3, init_scale=0.0)
        rng = random.Random(15)
        mask = [True, False, True, True]
        counts = [0, 0, 0, 0]
        for _ in range(600):
            counts[select_action(model, (1, 0), mask, "sample", rng=rng)] += 1
        assert counts[1] == 0
        assert all(c > 100 for i, c in enumerate(counts) if mask[i])

    @pytest.mark.parametrize("logit_scale", [1.0, 30.0, 800.0])
    def test_sample_draw_matches_roulette(self, logit_scale):
        # at scale 800 most probabilities underflow to 0, and some masks keep
        # only zero weights, which takes the uniform branch
        rng = random.Random(int(logit_scale))
        for case in range(600):
            n_actions = rng.randrange(1, 7)
            model = PolicyModel.create(3, n_actions, hidden=4, seed=case)
            model.b2[:] = [rng.gauss(0.0, logit_scale) for _ in range(n_actions)]
            state = tuple(rng.randrange(3) for _ in range(3))
            mask = [rng.random() < 0.7 for _ in range(n_actions)]
            mask[rng.randrange(n_actions)] = True
            allowed = [i for i in range(n_actions) if mask[i]]
            weights = [float(p) for p in model.forward(state)[allowed]]
            seed = rng.getrandbits(32)
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = select_action(model, state, mask, "sample", rng=got_rng)
            if sum(weights) <= 0.0:
                want = allowed[want_rng.randrange(len(allowed))]
            else:
                want = roulette_pick(allowed, weights, want_rng)
            assert got == want
            assert got_rng.getstate() == want_rng.getstate()

    def test_sample_from_nan_weights_is_uniform(self):
        model = PolicyModel.create(2, 4, hidden=3)
        model.b2[2] = float("nan")
        mask = [True, False, True, True]
        got_rng, want_rng = random.Random(5), random.Random(5)
        for _ in range(50):
            got = select_action(model, (1, 0), mask, "sample", rng=got_rng)
            assert got == [0, 2, 3][want_rng.randrange(3)]


class TestPolicyModel:
    def test_zeros_is_uniform(self):
        model = PolicyModel.create(4, 5, hidden=6, init_scale=0.0)
        probs = model.forward((1, 2, 3, 4))
        assert np.allclose(probs, 0.2)

    def test_create_is_seed_deterministic(self):
        a = PolicyModel.create(4, 3, hidden=5, seed=11)
        b = PolicyModel.create(4, 3, hidden=5, seed=11)
        c = PolicyModel.create(4, 3, hidden=5, seed=12)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.b2, b.b2)
        assert not np.array_equal(a.w1, c.w1)

    def test_forward_is_distribution(self):
        model = PolicyModel.create(6, 4, hidden=8, seed=2)
        probs = model.forward((0, 1, 2, 0, 1, 3))
        assert probs.shape == (4,)
        assert np.all(probs > 0) and probs.sum() == pytest.approx(1.0)

    def test_forward_batch_agrees_with_single(self):
        model = PolicyModel.create(3, 3, hidden=4, seed=5)
        states = np.array([[0, 1, 2], [3, 0, 1]], dtype=float)
        batch = model.forward_batch(states)
        assert np.allclose(batch[0], model.forward((0, 1, 2)))
        assert np.allclose(batch[1], model.forward((3, 0, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PolicyModel(np.zeros(3), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            PolicyModel(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            PolicyModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(3))

    def test_forward_checks_state_length(self):
        model = PolicyModel.create(4, 2, hidden=3, init_scale=0.0)
        with pytest.raises(ValueError):
            model.forward((1, 2))

    def test_shapes_reported(self):
        model = PolicyModel.create(7, 5, hidden=3, init_scale=0.0)
        assert (model.n_inputs, model.hidden, model.n_actions) == (7, 3, 5)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        model = PolicyModel.create(3, 3, hidden=4, seed=7, init_scale=0.5)
        rng = np.random.default_rng(40)
        states = rng.integers(0, 4, size=(6, 3)).astype(float)
        actions = rng.integers(0, 3, size=6)
        _, grads = cross_entropy_and_grads(model, states, actions)
        h = 1e-6
        blocks = [model.w1, model.b1, model.w2, model.b2]
        for block, grad in zip(blocks, grads):
            flat = block.ravel()
            gflat = grad.ravel()
            for i in range(flat.shape[0]):
                keep = flat[i]
                flat[i] = keep + h
                up, _ = cross_entropy_and_grads(model, states, actions)
                flat[i] = keep - h
                down, _ = cross_entropy_and_grads(model, states, actions)
                flat[i] = keep
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / scale < 1e-4, (block.shape, i)

    def test_matches_per_row_mean_on_duplicated_batch(self):
        model = PolicyModel.create(4, 3, hidden=5, seed=9, init_scale=0.5)
        rng = np.random.default_rng(41)
        pool = rng.integers(0, 4, size=(5, 4)).astype(float)
        picks = rng.integers(0, 5, size=60)
        states = pool[picks]
        actions = (picks + rng.integers(0, 2, size=60)) % 3
        order = rng.permutation(60)
        states, actions = states[order], actions[order]
        loss, grads = cross_entropy_and_grads(model, states, actions)
        want_loss, want_grads = naive_cross_entropy_and_grads(model, states, actions)
        assert abs(loss - want_loss) < 1e-12
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_input_no_state_uses_gets_an_exactly_zero_gradient(self):
        # input 2 is 0 in every state, so training leaves it out; its
        # gradient is still reported, at the weight's full shape
        model = PolicyModel.create(4, 3, hidden=4, seed=8, init_scale=0.5)
        rng = np.random.default_rng(42)
        states = rng.integers(1, 4, size=(6, 4)).astype(float)
        states[:, 2] = 0.0
        actions = rng.integers(0, 3, size=6)
        _, grads = cross_entropy_and_grads(model, states, actions)
        assert grads[0].shape == model.w1.shape
        assert np.all(grads[0][2] == 0.0)
        h = 1e-6
        for block, grad in zip((model.w1, model.b1, model.w2, model.b2), grads):
            flat, gflat = block.ravel(), grad.ravel()
            for i in range(flat.shape[0]):
                keep = flat[i]
                flat[i] = keep + h
                up, _ = cross_entropy_and_grads(model, states, actions)
                flat[i] = keep - h
                down, _ = cross_entropy_and_grads(model, states, actions)
                flat[i] = keep
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(gflat[i]), 1e-8)
                assert abs(numeric - gflat[i]) / scale < 1e-4, (block.shape, i)


class TestPolicyTrain:
    def _memorization_set(self):
        states = [
            (1, 0, 0, 0, 0, 2),
            (0, 1, 0, 0, 2, 0),
            (0, 0, 1, 2, 0, 0),
            (2, 0, 0, 1, 0, 0),
            (0, 2, 0, 0, 1, 0),
        ]
        actions = [0, 1, 2, 3, 1]
        return [TraceSample(s, a) for s, a in zip(states, actions)]

    def test_losses_decrease_and_memorize(self):
        samples = self._memorization_set()
        model = PolicyModel.create(6, 4, hidden=16, seed=3, step_size=0.2)
        losses = policy_train(model, samples, epochs=600)
        assert len(losses) == 600
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-6
        assert losses[-1] < 0.05
        assert top1_accuracy(model, samples) == 1.0

    def test_first_loss_is_untrained_loss(self):
        samples = self._memorization_set()
        model_a = PolicyModel.create(6, 4, hidden=16, seed=3)
        model_b = PolicyModel.create(6, 4, hidden=16, seed=3)
        states = np.asarray([s.state for s in samples], dtype=float)
        actions = np.asarray([s.action for s in samples])
        untrained, _ = cross_entropy_and_grads(model_a, states, actions)
        losses = policy_train(model_b, samples, epochs=1)
        assert losses[0] == untrained

    def test_conflicting_labels_floor_at_ln2(self):
        state = (1, 0)
        samples = [TraceSample(state, 0), TraceSample(state, 1)]
        model = PolicyModel.create(2, 2, hidden=8, seed=1, step_size=0.5)
        losses = policy_train(model, samples, epochs=2000)
        assert losses[-1] >= math.log(2) - 1e-12
        assert losses[-1] - math.log(2) < 1e-3
        probs = model.forward(state)
        assert np.allclose(probs, 0.5, atol=0.02)

    def test_duplicated_samples_train_like_originals(self):
        samples = self._memorization_set() + [TraceSample((0, 0, 1, 2, 0, 0), 1)]
        tripled = samples * 3
        random.Random(4).shuffle(tripled)
        model_a = PolicyModel.create(6, 4, hidden=8, seed=3, step_size=0.2)
        model_b = PolicyModel.create(6, 4, hidden=8, seed=3, step_size=0.2)
        losses_a = policy_train(model_a, samples, epochs=200)
        losses_b = policy_train(model_b, tripled, epochs=200)
        assert np.max(np.abs(np.subtract(losses_a, losses_b))) < 1e-12
        for name in ("w1", "b1", "w2", "b2"):
            assert np.max(np.abs(getattr(model_a, name) - getattr(model_b, name))) < 1e-12, name

    def test_repeated_samples_weigh_by_count(self):
        state = (1, 0)
        samples = [TraceSample(state, 0)] * 3 + [TraceSample(state, 1)]
        model = PolicyModel.create(2, 2, hidden=8, seed=1, step_size=0.5)
        losses = policy_train(model, samples, epochs=2000)
        entropy = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert losses[-1] >= entropy - 1e-12
        assert losses[-1] - entropy < 1e-3
        assert np.allclose(model.forward(state), [0.75, 0.25], atol=0.02)

    def test_top1_matches_per_row_argmax(self):
        model = PolicyModel.create(3, 4, hidden=6, seed=2, init_scale=1.0)
        rng = random.Random(6)
        pool = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(6)]
        samples = [TraceSample(rng.choice(pool), rng.randrange(4)) for _ in range(80)]
        want = sum(int(np.argmax(model.forward(s.state))) == s.action for s in samples) / len(samples)
        assert top1_accuracy(model, samples) == want

    def test_top1_scores_a_qtable_as_lowest_index_argmax(self):
        # Rows of 0s and 1s tie often, and some pool states have no row.
        rng = random.Random(8)
        pool = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(10)]
        qt = QTable(4)
        for state in pool[:7]:
            qt.entries[state] = np.array([float(rng.randrange(2)) for _ in range(4)])
        samples = [TraceSample(rng.choice(pool), rng.randrange(4)) for _ in range(120)]
        hits = sum(1 for s in samples if int(np.argmax(qt.values(s.state))) == s.action)
        assert top1_accuracy(qt, samples) == hits / len(samples)
        highest = sum(1 for s in samples if 3 - int(np.argmax(qt.values(s.state)[::-1])) == s.action)
        assert hits != highest

    def test_empty_dataset(self):
        model = PolicyModel.create(2, 2, init_scale=0.0)
        with pytest.raises(EmptyDataset):
            policy_train(model, [], epochs=1)
        with pytest.raises(EmptyDataset):
            top1_accuracy(model, [])

    def test_action_out_of_range(self):
        model = PolicyModel.create(2, 2, init_scale=0.0)
        with pytest.raises(ValueError):
            policy_train(model, [TraceSample((0, 0), 2)], epochs=1)

    def test_zero_step_size_freezes_weights(self):
        samples = self._memorization_set()
        model = PolicyModel.create(6, 4, hidden=4, seed=3, step_size=0.0)
        before = model.w1.copy()
        losses = policy_train(model, samples, epochs=5)
        assert np.array_equal(model.w1, before)
        assert len(set(losses)) == 1

    def test_input_no_state_uses_changes_no_float(self):
        # B's states are A's with an input that is 0 in every state inserted
        # at position 3, in the middle so that the trained inputs are not a
        # prefix; B's W1 is A's with one more row there
        samples = self._memorization_set()
        widened = [TraceSample(s.state[:3] + (0,) + s.state[3:], s.action) for s in samples]
        model_a = PolicyModel.create(6, 4, hidden=8, seed=3, step_size=0.2)
        inserted = np.random.default_rng(5).uniform(-0.1, 0.1, 8)
        model_b = PolicyModel(
            np.insert(model_a.w1, 3, inserted, axis=0), model_a.b1.copy(), model_a.w2.copy(), model_a.b2.copy(), 0.2
        )
        losses_a = policy_train(model_a, samples, epochs=200)
        losses_b = policy_train(model_b, widened, epochs=200)
        assert losses_a == losses_b
        assert np.array_equal(np.delete(model_b.w1, 3, axis=0), model_a.w1)
        assert np.array_equal(model_b.w1[3], inserted)
        for name in ("b1", "w2", "b2"):
            assert np.array_equal(getattr(model_b, name), getattr(model_a, name)), name


@pytest.fixture(scope="module")
def workload_samples(base_rules, table):
    """Both splits of the seed-0 500-instance corpus, the input of the
    benchmark's policy workload."""
    corpus = build_corpus(GenConfig(count=500), 0, base_rules)
    return {split: corpus.samples(base_rules, table, split) for split in ("train", "test")}


class TestDistinctRowTraining:
    """The package trains and scores on the distinct rows with one fused
    step per epoch; the reference converts every row and runs the unfused
    network."""

    @pytest.mark.parametrize("variant", ["as_is", "shuffled", "tripled"])
    def test_matches_reference(self, workload_samples, base_rules, variant):
        samples = list(workload_samples["train"])
        if variant == "shuffled":
            random.Random(24).shuffle(samples)
        elif variant == "tripled":
            samples = samples * 3
        model = PolicyModel.create(64, len(base_rules), seed=0)
        want_model = PolicyModel.create(64, len(base_rules), seed=0)
        losses = policy_train(model, samples, epochs=100)
        want_losses = reference_policy_train(want_model, samples, epochs=100)
        assert len(losses) == 100
        assert np.max(np.abs(np.subtract(losses, want_losses))) < 1e-12
        for name in ("w1", "b1", "w2", "b2"):
            assert np.max(np.abs(getattr(model, name) - getattr(want_model, name))) < 1e-12, name
        # the distinct rows are sorted, so every sum runs in one order and
        # any order or multiple of the samples trains to the same bits
        as_is = PolicyModel.create(64, len(base_rules), seed=0)
        assert policy_train(as_is, workload_samples["train"], epochs=100) == losses
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(model, name), getattr(as_is, name)), name

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_top1_matches_reference(self, workload_samples, base_rules, split):
        model = PolicyModel.create(64, len(base_rules), seed=0)
        policy_train(model, workload_samples["train"], epochs=100)
        rng = random.Random(25)
        qt = QTable(len(base_rules))
        for state in sorted({s.state for s in workload_samples["train"]}):
            if rng.random() < 0.7:
                qt.entries[state] = np.array([float(rng.randrange(3)) for _ in range(len(base_rules))])
        samples = workload_samples[split]
        for learner in (model, qt):
            assert top1_accuracy(learner, samples) == reference_top1(learner, samples)

    def test_only_distinct_rows_reach_numpy(self):
        # 50,000 rows of 64 float64 codes are 25.6 MB; five distinct ones
        # are a few kilobytes
        rng = random.Random(26)
        distinct = [TraceSample(tuple(rng.randrange(40) for _ in range(64)), i % 4) for i in range(5)]
        samples = distinct * 10_000
        model = PolicyModel.create(64, 4, seed=0)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            policy_train(model, samples, epochs=1)
            train_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            top1_accuracy(model, samples)
            top1_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert train_peak < 2_000_000
        assert top1_peak < 2_000_000


class TestDivergence:
    def test_non_finite_loss_is_refused(self, workload_samples, base_rules):
        # a huge step overflows the weights, and a later loss is nan
        model = PolicyModel.create(64, len(base_rules), seed=0, step_size=1e308)
        before = [block.copy() for block in (model.w1, model.b1, model.w2, model.b2)]
        with pytest.raises(TrainingDiverged, match="loss is nan at epoch"):
            policy_train(model, workload_samples["train"], epochs=50)
        for block, kept in zip((model.w1, model.b1, model.w2, model.b2), before):
            assert np.array_equal(block, kept)

    def test_non_finite_weight_is_refused(self):
        # one epoch: its loss is taken before the step, so only the weights
        # that the infinite step leaves behind show the failure
        model = PolicyModel.create(6, 4, hidden=8, seed=3, step_size=math.inf)
        before = model.w1.copy()
        with pytest.raises(TrainingDiverged, match="non-finite policy weight"):
            policy_train(model, TestPolicyTrain()._memorization_set(), epochs=1)
        assert np.array_equal(model.w1, before)

    @pytest.mark.parametrize("block, index", [("w1", (2, 0)), ("b1", 1), ("w2", (0, 3)), ("b2", 0)])
    def test_non_finite_weight_is_refused_before_training(self, block, index):
        # input 2 is 0 in every state, so its w1 row is never trained: an
        # inf there would otherwise survive to a finite loss
        samples = [sample for sample in TestPolicyTrain()._memorization_set() if sample.state[2] == 0]
        model = PolicyModel.create(6, 4, hidden=8, seed=3)
        getattr(model, block)[index] = math.inf
        before = [w.copy() for w in (model.w1, model.b1, model.w2, model.b2)]
        with pytest.raises(ValueError, match="non-finite weight; nothing trained"):
            policy_train(model, samples, epochs=3)
        for w, kept in zip((model.w1, model.b1, model.w2, model.b2), before):
            assert np.array_equal(w, kept)


class ChainEnv:
    """Three states 0 -> 1 -> 2; action 0 advances, action 1 stays put.

    Reaching state 2 pays the goal reward and terminates. A step cap of 20
    truncates with outcome "cap_exceeded" (which must keep bootstrapping).
    ``mask`` is the applicable-action mask of every state; by default only
    action 0 applies.
    """

    def __init__(self, mask=(True, False)):
        self.mask = list(mask)
        self.s = 0
        self.steps = 0
        self.done = False
        self.outcome = None

    def state_vector(self):
        return (self.s,)

    def applicable_mask(self):
        return list(self.mask)

    def env_step(self, action):
        assert not self.done
        if action == 0:
            self.s += 1
            if self.s == 2:
                self.done = True
                self.outcome = "reached"
                return (self.s,), 1.0, True
        reward = -0.01
        self.steps += 1
        if self.steps >= 20:
            self.done = True
            self.outcome = "cap_exceeded"
        return (self.s,), reward, self.done


CHAIN_Q_STAR = {
    # From value iteration by hand: V(1) = 1.0, V(0) = -0.01 + 0.9 * V(1).
    (0,): [0.89, -0.01 + 0.9 * 0.89],
    (1,): [1.0, 0.89],
}


class TestQLearn:
    def test_chain_converges_to_value_iteration(self):
        # both actions apply in every state, so staying put is learned too
        qt = q_learn(
            lambda episode: ChainEnv((True, True)), 2, episodes=3000, gamma=0.9, alpha=0.5, epsilon=0.3, seed=0
        )
        assert set(qt.entries) == set(CHAIN_Q_STAR)
        for state, want in CHAIN_Q_STAR.items():
            got = qt.values(state)
            assert np.allclose(got, want, atol=1e-6), (state, got, want)

    def test_step_cap_truncation_bootstraps(self):
        # only staying put applies, so every episode ends at the step cap;
        # its last backup still bootstraps, over the applicable action only
        qt = q_learn(lambda episode: ChainEnv((False, True)), 2, episodes=200, gamma=0.9, alpha=0.5, seed=0)
        assert set(qt.entries) == {(0,)}
        assert qt.values((0,))[0] == 0.0
        assert qt.values((0,))[1] == pytest.approx(-0.01 / (1 - 0.9), abs=1e-9)

    def test_masked_episode_without_applicable_rule_ends(self, base_rules, table):
        start = mk("Sin", sym("x"))

        def env_factory(episode):
            return DerivationEnv(start, GoalSpec.exact(sym("y")), base_rules, table)

        assert not any(env_factory(0).applicable_mask())
        qt = q_learn(env_factory, len(base_rules), episodes=3, seed=0)
        assert len(qt) == 0

    def test_masked_exploration_never_touches_masked_action(self):
        qt = q_learn(lambda episode: ChainEnv(), 2, episodes=500, gamma=0.9, alpha=0.5, epsilon=0.5, seed=1)
        for state in qt.entries:
            assert qt.values(state)[1] == 0.0
        assert qt.values((1,))[0] == pytest.approx(1.0, abs=1e-9)
        assert qt.values((0,))[0] == pytest.approx(0.89, abs=1e-9)

    def test_scripted_episodes_are_a_chain_of_backups(self):
        # no rng is passed anywhere: a scripted episode draws nothing. In the
        # last episode only staying put applies, so its backup must skip the
        # larger value of advancing.
        masks = [(True, True), (True, True), (False, True)]
        qt = q_learn(lambda episode: ChainEnv(masks[episode]), 2, episodes=0, scripts=[[1, 0, 0], [0, 1, 0], [1]])

        both = [True, True]
        want = QTable(2)
        q_update(want, (0,), 1, -0.01, (0,), False, both)
        q_update(want, (0,), 0, -0.01, (1,), False, both)
        q_update(want, (1,), 0, 1.0, (2,), True, None)
        q_update(want, (0,), 0, -0.01, (1,), False, both)
        q_update(want, (1,), 1, -0.01, (1,), False, both)
        q_update(want, (1,), 0, 1.0, (2,), True, None)
        assert want.values((0,))[0] > want.values((0,))[1]
        q_update(want, (0,), 1, -0.01, (0,), False, [False, True])
        assert set(qt.entries) == set(want.entries) == {(0,), (1,)}
        for state, row in want.entries.items():
            assert np.array_equal(qt.values(state), row)

    def test_online_episodes_follow_the_scripts(self):
        """the online episodes are episodes len(scripts) onwards, and their
        rng stream is a fresh Random(seed), as without scripts."""
        scripts = [[0, 0], [1, 0, 0], [0]]
        met = []

        def env_factory(episode):
            met.append(episode)
            return ChainEnv((True, episode % 2 == 1))

        qt = q_learn(env_factory, 2, episodes=40, epsilon=0.5, seed=4, scripts=scripts)
        assert met == list(range(43))

        want = q_learn(env_factory, 2, episodes=0, scripts=scripts)
        rng = random.Random(4)
        for k in range(40):
            env = env_factory(len(scripts) + k)
            state, mask = env.state_vector(), env.applicable_mask()
            while not env.done:
                action = select_action(want, state, mask, "epsilon", 0.5, rng)
                next_state, reward, done = env.env_step(action)
                terminal = done and env.outcome != "cap_exceeded"
                mask = None if terminal else env.applicable_mask()
                q_update(want, state, action, reward, next_state, terminal, mask)
                state = next_state
        assert set(qt.entries) == set(want.entries)
        for state, row in want.entries.items():
            assert np.array_equal(qt.values(state), row)

    def test_short_script_ends_its_episode(self, base_rules, table):
        start, goal = parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE))
        envs = []

        def env_factory(episode):
            envs.append(DerivationEnv(start, goal, base_rules, table))
            return envs[-1]

        route = [base_rules.index_of(rule_id) for rule_id, _ in DECAY_ROUTE]
        qt = q_learn(env_factory, len(base_rules), episodes=0, scripts=[route[:2], []])
        assert [len(env.steps) for env in envs] == [2, 0]
        assert not envs[0].done
        assert len(qt) == 2

    def test_step_into_a_stuck_tree_backs_up_as_before(self, table):
        # the environment ends the episode at x, where no rule applies; the
        # terminal backup gives the bits that bootstrapping over x's
        # all-false mask gave when the learner stopped there itself
        start = mk("Sqrt", sym("x"))

        def env_factory(episode):
            return DerivationEnv(start, GoalSpec.exact(sym("y")), unwrap_rules(), table)

        qt = q_learn(env_factory, 1, episodes=3, seed=0, scripts=[[0]])
        want = QTable(1)
        for _ in range(4):
            q_update(want, encode(start, table), 0, STEP_REWARD, encode(sym("x"), table), False, [False])
        assert qt.entries == want.entries
        assert len(qt) == 1

    def test_walks_each_tree_once(self, base_rules, table):
        # the scripts act from every tree before the last they reach, and
        # bootstrap over every tree after the start but the goal
        rules, walked = counting_walker(base_rules)
        start, goal = parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE))
        envs = []

        def env_factory(episode):
            envs.append(DerivationEnv(start, goal, rules, table))
            return envs[-1]

        route = [rules.index_of(rule_id) for rule_id, _ in DECAY_ROUTE]
        q_learn(env_factory, len(rules), episodes=0, scripts=[route, route[:2]])
        assert envs[0].outcome == "reached" and len(envs[1].steps) == 2
        trees = [step.before for step in envs[0].steps]
        assert walked == trees + trees[:3]

    def test_refused_script_pick_raises(self, base_rules, table):
        start, goal = parse(DECAY_START), GoalSpec.exact(parse(DECAY_MILESTONE))
        late = base_rules.index_of(DECAY_ROUTE[-1][0])
        mask = DerivationEnv(start, goal, base_rules, table).applicable_mask()
        assert any(mask) and not mask[late]
        with pytest.raises(RuleNotApplicable):
            q_learn(lambda episode: DerivationEnv(start, goal, base_rules, table), len(base_rules), 0, scripts=[[late]])


class TestPersistence:
    def test_policy_roundtrip(self, tmp_path):
        model = PolicyModel.create(5, 3, hidden=7, seed=9, step_size=0.25)
        path = str(tmp_path / "policy.ckpt")
        save_policy(model, path, seed=9, rules_hash="a" * 64)
        back, meta = load_policy(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
        assert back.step_size == 0.25
        assert meta["seed"] == 9
        assert meta["rules_sha256"] == "a" * 64

    @pytest.mark.parametrize("fill", [0.0, -0.0, 5e-324, 1e300, -1e300, 0.1 + 0.2, None])
    def test_policy_writer_matches_one_value_at_a_time(self, tmp_path, fill):
        # None keeps the random weights that create draws
        model = PolicyModel.create(5, 3, hidden=7, seed=9, step_size=0.25)
        if fill is not None:
            for block in (model.w1, model.b1, model.w2, model.b2):
                block[...] = fill
        path, want = str(tmp_path / "policy.ckpt"), str(tmp_path / "want.ckpt")
        save_policy(model, path, seed=9, rules_hash="a" * 64)
        naive_save_policy(model, want, seed=9, rules_hash="a" * 64)
        with open(path, "rb") as got_fh, open(want, "rb") as want_fh:
            assert got_fh.read() == want_fh.read()
        back, _ = load_policy(path)
        for name in ("w1", "b1", "w2", "b2"):
            # as bytes, so that -0.0 must come back as -0.0
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name

    def test_policy_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(FileFormatError):
            load_policy(str(path))

    def test_policy_truncated(self, tmp_path):
        model = PolicyModel.create(2, 2, hidden=3, seed=0)
        path = tmp_path / "policy.ckpt"
        save_policy(model, str(path), seed=0, rules_hash="x")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FileFormatError, match="weights"):
            load_policy(str(path))

    def test_policy_non_numeric_weight(self, tmp_path):
        model = PolicyModel.create(2, 2, hidden=3, seed=0)
        path = tmp_path / "policy.ckpt"
        save_policy(model, str(path), seed=0, rules_hash="x")
        text = path.read_text().splitlines()
        text[-1] = "bread"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FileFormatError, match="non-numeric"):
            load_policy(str(path))

    def test_policy_repeated_header_key(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        path.write_text(path.read_text().replace("seed=0\n", "seed=0\nseed=1\n"))
        with pytest.raises(FileFormatError, match="policy.ckpt line 7: expected the rules_sha256 line, got 'seed=1'"):
            load_policy(str(path))

    def test_policy_without_rules_hash(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        path.write_text(path.read_text().replace("rules_sha256=x\n", ""))
        with pytest.raises(FileFormatError, match="policy.ckpt line 7: expected the rules_sha256 line, got 'weights'"):
            load_policy(str(path))

    def test_policy_unknown_header_key(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        path.write_text(path.read_text().replace("seed=0\n", "seed=0\nbogus=1\n"))
        with pytest.raises(FileFormatError, match="policy.ckpt line 7: expected the rules_sha256 line, got 'bogus=1'"):
            load_policy(str(path))

    @pytest.mark.parametrize("line, key", [(2, "n_inputs"), (6, "seed")])
    def test_policy_non_integer_header_value(self, tmp_path, line, key):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        lines = path.read_text().splitlines()
        lines[line - 1] = f"{key}=abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"policy.ckpt line {line}: {key} value 'abc' is not a valid int"):
            load_policy(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_policy_non_finite_step_size(self, tmp_path, value):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        lines = path.read_text().splitlines()
        assert lines[4] == "step_size=0.1"
        lines[4] = f"step_size={value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"policy.ckpt line 5: step_size value '{value}' is not a valid float"):
            load_policy(str(path))

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda lines: lines[:-1], "checkpoint has 16 weights, expected 17"),
            (lambda lines: lines[:-1] + ["bread"], "checkpoint contains a non-numeric weight"),
        ],
        ids=["short", "non_numeric"],
    )
    def test_policy_weight_errors_name_the_file(self, tmp_path, corrupt, error):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {error}")):
            load_policy(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_policy_non_finite_weight(self, tmp_path, value):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        lines = path.read_text().splitlines()
        lines[10] = value
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: checkpoint contains a non-numeric weight")):
            load_policy(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["b2", "step_size"])
    def test_save_policy_refuses_non_finite(self, tmp_path, field, value):
        model = PolicyModel.create(2, 2, hidden=3, seed=0)
        if field == "b2":
            model.b2[1] = value
        else:
            model.step_size = value
        path = tmp_path / "policy.ckpt"
        with pytest.raises(ValueError, match="non-finite"):
            save_policy(model, str(path), seed=0, rules_hash="x")
        assert not path.exists()

    def test_policy_zero_inputs(self, tmp_path):
        path = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(2, 2, hidden=3, seed=0), str(path), seed=0, rules_hash="x")
        path.write_text(path.read_text().replace("n_inputs=2\n", "n_inputs=0\n"))
        with pytest.raises(FileFormatError, match="must be positive"):
            load_policy(str(path))

    def test_qtable_roundtrip(self, tmp_path):
        qt = QTable(3, gamma=0.8, alpha=0.25)
        qt.entries[(1, 0)] = np.array([0.5, -1.0, 0.125])
        qt.entries[(0, 2)] = np.array([0.0, 1e-9, -2.5])
        path = str(tmp_path / "table.qt")
        save_qtable(qt, path)
        back = load_qtable(path)
        assert (back.n_actions, back.gamma, back.alpha) == (3, 0.8, 0.25)
        assert set(back.entries) == set(qt.entries)
        for state, row in qt.entries.items():
            assert np.array_equal(back.entries[state], row)

    def test_qtable_bad_magic(self, tmp_path):
        path = tmp_path / "junk.qt"
        path.write_text("nope\n")
        with pytest.raises(FileFormatError):
            load_qtable(str(path))

    def test_qtable_bad_row(self, tmp_path):
        qt = QTable(2)
        qt.entries[(1,)] = np.array([1.0, 2.0])
        path = tmp_path / "table.qt"
        save_qtable(qt, str(path))
        path.write_text(path.read_text().replace("1.0 2.0", "1.0"))
        with pytest.raises(FileFormatError, match="row"):
            load_qtable(str(path))

    def test_qtable_non_numeric_value(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : 0.5 0.25\n2 0 : 0.5 bread\n")
        with pytest.raises(FileFormatError, match="line 6"):
            load_qtable(str(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_qtable_non_finite_value(self, tmp_path, value):
        path = tmp_path / "table.qt"
        path.write_text(f"symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : 0.5 0.25\n2 0 : {value} 0.5\n")
        error = f"table.qt line 6: not a state and numeric values: '2 0 : {value} 0.5'"
        with pytest.raises(FileFormatError, match=error):
            load_qtable(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_save_qtable_refuses_non_finite(self, tmp_path, value):
        qt = QTable(2)
        qt.entries[(1,)] = np.array([1.0, 2.0])
        qt.entries[(2,)] = np.array([value, 2.0])
        path = tmp_path / "table.qt"
        with pytest.raises(ValueError, match="non-finite"):
            save_qtable(qt, str(path))
        assert not path.exists()

    def test_qtable_duplicate_state(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : 0.5 0.25\n1 0 : 1.0 2.0\n")
        with pytest.raises(FileFormatError, match="line 6: state '1 0' is not greater than the state before it"):
            load_qtable(str(path))

    def test_qtable_repeated_header_key(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\ngamma=0.5\nalpha=0.5\n1 0 : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="table.qt line 4: expected the alpha line, got 'gamma=0.5'"):
            load_qtable(str(path))

    def test_qtable_unknown_header_key(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nbogus=1\nalpha=0.5\n1 0 : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="table.qt line 4: expected the alpha line, got 'bogus=1'"):
            load_qtable(str(path))

    def test_qtable_missing_header_key(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\n1 0 : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="table.qt line 4: expected the alpha line, got '1 0 : 0.5 0.25'"):
            load_qtable(str(path))

    def test_qtable_header_cut_short(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\n")
        with pytest.raises(FileFormatError, match="table.qt: header has no alpha line"):
            load_qtable(str(path))

    @pytest.mark.parametrize(
        "header, error",
        [
            ("n_actions=+2\ngamma=0.9\nalpha=0.5", "line 2: n_actions value '\\+2' is not a valid int"),
            ("n_actions=02\ngamma=0.9\nalpha=0.5", "line 2: n_actions value '02' is not a valid int"),
            ("n_actions=2\ngamma=nan\nalpha=0.5", "line 3: gamma value 'nan' is not a valid float"),
            ("n_actions=2\ngamma=0.9\nalpha=inf", "line 4: alpha value 'inf' is not a valid float"),
        ],
    )
    def test_qtable_header_value_the_writer_never_writes(self, tmp_path, header, error):
        path = tmp_path / "table.qt"
        path.write_text(f"symderive-qtable v1\n{header}\n1 0 : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="table.qt " + error):
            load_qtable(str(path))

    def test_qtable_non_numeric_header_value(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=x\nalpha=0.5\n1 0 : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="table.qt line 3: gamma value 'x' is not a valid float"):
            load_qtable(str(path))

    @pytest.mark.parametrize(
        "row", ["1 2 3", "1 0 : 0.5 bread", "1 0 : 0.5", " : 0.5 0.25", "1 0 2 : 1.0 2.0", "1 0 : 1.0 2.0"]
    )
    def test_qtable_body_errors_name_the_file(self, tmp_path, row):
        path = tmp_path / "table.qt"
        path.write_text(f"symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : 0.5 0.25\n{row}\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{path} line 6: ")):
            load_qtable(str(path))

    def test_qtable_mixed_state_lengths(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : 0.5 0.25\n1 0 2 : 1.0 2.0\n")
        with pytest.raises(FileFormatError, match="line 6: state has length 3, the first state has length 2"):
            load_qtable(str(path))

    def test_qtable_states_in_written_order(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n2 0 : 0.5 0.25\n1 0 : 1.0 2.0\n")
        with pytest.raises(FileFormatError, match="line 6: state '1 0' is not greater than the state before it"):
            load_qtable(str(path))

    @pytest.mark.parametrize("text", ["0.50", "+0.5", " 0.5", "5"])
    def test_values_not_as_written(self, tmp_path, text):
        path = tmp_path / "table.qt"
        path.write_text(f"symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 0 : {text} 0.25\n")
        with pytest.raises(FileFormatError, match="line 5: not a state and numeric values"):
            load_qtable(str(path))
        model = tmp_path / "policy.ckpt"
        save_policy(PolicyModel.create(1, 1, hidden=1, init_scale=0.0), str(model), seed=0, rules_hash="x")
        model.write_text(model.read_text().replace("weights\n0.0\n", f"weights\n{text}\n"))
        with pytest.raises(FileFormatError, match="checkpoint contains a non-numeric weight"):
            load_policy(str(model))

    def test_qtable_empty_state(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n : 0.5 0.25\n")
        with pytest.raises(FileFormatError, match="line 5: empty state"):
            load_qtable(str(path))

    def test_qtable_bad_separator(self, tmp_path):
        path = tmp_path / "table.qt"
        path.write_text("symderive-qtable v1\nn_actions=2\ngamma=0.9\nalpha=0.5\n1 2 3\n")
        with pytest.raises(FileFormatError, match="line"):
            load_qtable(str(path))
