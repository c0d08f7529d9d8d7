"""Learners that pick the next rewrite rule.

Two learners share one action-selection interface: a tabular Q store updated
by one-step temporal differences, and a small softmax network trained on
expert traces. States are the fixed-length integer encodings from
:mod:`symderive.encoding`; actions are indices into a rule set. Both learners
give their shape as ``n_inputs`` (the vector length) and ``n_actions``, so a
loaded learner file is the one source of the length it reads, and
``top1_accuracy`` scores either.

This is the only module that imports numpy. The environment's reward
constants, ``DEFAULT_STEP_CAP`` and ``TraceSample`` belong to
:mod:`symderive.derivation` and are re-exported here.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol, Sequence

import numpy as np

from .derivation import (  # noqa: F401 - the rewards and the step cap are re-exported
    DEFAULT_STEP_CAP,
    GOAL_REWARD,
    INVALID_ACTION_REWARD,
    OUTCOME_CAP,
    STEP_REWARD,
    TraceSample,
)
from .encoding import DEFAULT_L_MAX, FeatureVector, format_vector, parse_vector
from .errors import EmptyDataset, FileFormatError, NoApplicableAction
from .textfile import file_lines, read_file, read_float, read_header, write_header


class QTable:
    """Tabular action values keyed by feature vector.

    Unseen states read as all zeros without being inserted, so terminal
    states (which are read but never acted from) are never written.
    """

    def __init__(self, n_actions: int, gamma: float = 0.9, alpha: float = 0.5):
        if n_actions < 1:
            raise ValueError("n_actions must be positive")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.n_actions = n_actions
        self.gamma = gamma
        self.alpha = alpha
        self.entries: dict[FeatureVector, np.ndarray] = {}

    def values(self, state: FeatureVector) -> np.ndarray:
        """Q-values for a state; zeros (not stored) when the state is unseen."""
        row = self.entries.get(state)
        if row is None:
            return np.zeros(self.n_actions)
        return row

    def _row(self, state: FeatureVector) -> np.ndarray:
        row = self.entries.get(state)
        if row is None:
            row = np.zeros(self.n_actions)
            self.entries[state] = row
        return row

    @property
    def n_inputs(self) -> int:
        """Length of the stored states (all one length in a loaded table);
        ``DEFAULT_L_MAX`` for a table with no states."""
        return len(next(iter(self.entries), ())) or DEFAULT_L_MAX

    def __len__(self) -> int:
        return len(self.entries)


def q_update(
    qtable: QTable, s: FeatureVector, a: int, r: float, s_next: FeatureVector, terminal: bool = False
) -> QTable:
    """One temporal-difference backup:
    Q(s,a) <- (1 - alpha) * Q(s,a) + alpha * (r + gamma * max_a' Q(s',a')).

    With alpha = 1 this is the plain one-step Bellman assignment. Pass
    terminal=True when the transition ended the episode for real (goal or
    dead end): the backup then uses the bare reward. Episodes cut off by the
    step cap are truncations, not terminals, and should keep bootstrapping.
    """
    row = qtable._row(s)
    bootstrap = 0.0 if terminal else qtable.gamma * float(np.max(qtable.values(s_next)))
    row[a] = (1.0 - qtable.alpha) * row[a] + qtable.alpha * (r + bootstrap)
    return qtable


class PolicyModel:
    """One-hidden-layer softmax network over encoded states.

    Built from scratch on numpy: x -> tanh(x W1 + b1) -> softmax(h W2 + b2).
    Weights are float64; ``create`` draws them uniformly from
    [-init_scale, init_scale] with a seeded generator; ``init_scale=0``
    starts flat (every action equally likely, handy as a known baseline).
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, step_size: float = 0.1):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weight matrices must be 2-d")
        if self.w1.shape[1] != self.b1.shape[0] or self.w2.shape[0] != self.w1.shape[1]:
            raise ValueError("layer shapes do not line up")
        if self.w2.shape[1] != self.b2.shape[0]:
            raise ValueError("layer shapes do not line up")
        self.step_size = float(step_size)

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_actions(self) -> int:
        return self.w2.shape[1]

    @classmethod
    def create(
        cls,
        n_inputs: int,
        n_actions: int,
        hidden: int = 64,
        seed: int = 0,
        step_size: float = 0.1,
        init_scale: float = 0.1,
    ) -> "PolicyModel":
        rng = np.random.default_rng(seed)
        w1 = rng.uniform(-init_scale, init_scale, (n_inputs, hidden))
        b1 = rng.uniform(-init_scale, init_scale, hidden)
        w2 = rng.uniform(-init_scale, init_scale, (hidden, n_actions))
        b2 = rng.uniform(-init_scale, init_scale, n_actions)
        return cls(w1, b1, w2, b2, step_size)

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        h = np.tanh(states @ self.w1 + self.b1)
        return _softmax_rows(h @ self.w2 + self.b2)

    def forward(self, state: Sequence[int]) -> np.ndarray:
        x = np.asarray(state, dtype=np.float64)
        if x.shape != (self.n_inputs,):
            raise ValueError(f"state has length {x.shape}, model expects {self.n_inputs}")
        return self.forward_batch(x[None, :])[0]


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one raw byte string, for ``np.unique``:
    these sort far faster than ``axis=0``, which compares a structured dtype
    column by column. Rows that differ only as -0.0/0.0 stay apart, which
    costs a duplicate row, never a wrong sum."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _unique_rows(states: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (state, action) rows of a batch and the weight count / n of
    each, so a weighted sum over them is the batch mean."""
    table = np.column_stack((states, actions))
    _, first, counts = np.unique(_row_keys(table), return_index=True, return_counts=True)
    rows = table[first]
    return rows[:, :-1], rows[:, -1].astype(np.int64), counts / states.shape[0]


def _weighted_cross_entropy_and_grads(
    model: PolicyModel, states: np.ndarray, actions: np.ndarray, weights: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Weighted cross-entropy sum over rows and its exact gradients."""
    rows = np.arange(states.shape[0])
    h = np.tanh(states @ model.w1 + model.b1)
    probs = _softmax_rows(h @ model.w2 + model.b2)
    loss = float(-(weights @ np.log(np.maximum(probs[rows, actions], 1e-300))))

    dz2 = probs
    dz2[rows, actions] -= 1.0
    dz2 *= weights[:, None]
    dw2 = h.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ model.w2.T) * (1.0 - h * h)
    dw1 = states.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def cross_entropy_and_grads(
    model: PolicyModel, states: np.ndarray, actions: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Mean cross-entropy of the expert actions and its exact gradients.

    Returned gradients are (dw1, db1, dw2, db2), each the derivative of the
    mean loss. Kept separate from the training loop so the analytic gradients
    can be checked against finite differences; it goes through the same
    unique-row reduction as ``policy_train``, so both give the same float.
    """
    return _weighted_cross_entropy_and_grads(model, *_unique_rows(states, actions))


def policy_train(model: PolicyModel, samples: Sequence[TraceSample], epochs: int) -> list[float]:
    """Full-batch gradient descent on expert (state, action) pairs, at the
    model's ``step_size``.

    Repeated pairs are collapsed once into unique rows weighted by their
    count, which is the same mean loss with the same gradients. Updates the
    model in place and returns the loss measured at the start of each epoch
    (so losses[0] is the untrained loss).
    """
    if not samples:
        raise EmptyDataset("policy_train received no samples")
    lr = model.step_size
    states = np.asarray([s.state for s in samples], dtype=np.float64)
    actions = np.asarray([s.action for s in samples], dtype=np.int64)
    if actions.min() < 0 or actions.max() >= model.n_actions:
        raise ValueError("sample action index out of range")
    batch = _unique_rows(states, actions)
    losses: list[float] = []
    for _ in range(epochs):
        loss, (dw1, db1, dw2, db2) = _weighted_cross_entropy_and_grads(model, *batch)
        losses.append(loss)
        model.w1 -= lr * dw1
        model.b1 -= lr * db1
        model.w2 -= lr * dw2
        model.b2 -= lr * db2
    return losses


def top1_accuracy(learner: QTable | PolicyModel, samples: Sequence[TraceSample]) -> float:
    """Fraction of samples whose expert action is the learner's argmax (ties
    to the lowest index) over a Q-table's values or a policy's probabilities,
    each distinct state scored once."""
    if not samples:
        raise EmptyDataset("no samples to score")
    states = np.asarray([s.state for s in samples], dtype=np.float64)
    actions = np.asarray([s.action for s in samples], dtype=np.int64)
    _, first, inverse = np.unique(_row_keys(states), return_index=True, return_inverse=True)
    if isinstance(learner, QTable):
        scores = np.asarray([learner.values(samples[i].state) for i in first])
    else:
        scores = learner.forward_batch(states[first])
    predicted = scores.argmax(axis=1)[inverse]
    return float((predicted == actions).mean())


# ---------------------------------------------------------------------------
# action selection


def select_action(
    learner: "QTable | PolicyModel",
    state: FeatureVector,
    mask: Sequence[bool],
    mode: str = "greedy",
    epsilon: float = 0.1,
    rng: random.Random | None = None,
) -> int:
    """Choose an action index under a mode: 'greedy' (ties to the lowest
    index), 'epsilon' (uniform over allowed actions with probability
    epsilon, else greedy), or 'sample' (draw from the policy's renormalized
    probabilities; policy models only).

    ``mask`` marks allowed actions; all-false raises NoApplicableAction.
    """
    if isinstance(learner, QTable):
        scores = learner.values(state)
        if mode == "sample":
            raise ValueError("mode 'sample' needs a policy model, not a Q-table")
    else:
        scores = learner.forward(state)
    if len(mask) != len(scores):
        raise ValueError(f"mask has length {len(mask)}, expected {len(scores)}")
    allowed = [i for i, ok in enumerate(mask) if ok]
    if not allowed:
        raise NoApplicableAction("every action is masked out")
    if mode == "epsilon":
        if rng is None:
            raise ValueError("mode 'epsilon' needs an rng")
        if rng.random() < epsilon:
            return allowed[rng.randrange(len(allowed))]
    elif mode == "sample":
        if rng is None:
            raise ValueError("mode 'sample' needs an rng")
        weights = [float(scores[i]) for i in allowed]
        # no mass on the allowed actions, or NaN weights from a checkpoint
        # holding nan: draw uniformly, where rng.choices would raise
        if not sum(weights) > 0.0:
            return allowed[rng.randrange(len(allowed))]
        return rng.choices(allowed, weights)[0]
    elif mode != "greedy":
        raise ValueError(f"unknown selection mode {mode!r}")
    # greedy: max keeps the first, so the lowest, index of the best allowed score
    return max(allowed, key=scores.__getitem__)


class _Env(Protocol):
    done: bool
    outcome: str | None

    def state_vector(self) -> FeatureVector: ...

    def applicable_mask(self) -> list[bool]: ...

    def env_step(self, action: int) -> tuple[FeatureVector, float, bool]: ...


def q_learn(
    env_factory: Callable[[int], _Env],
    n_actions: int,
    episodes: int,
    gamma: float = 0.9,
    alpha: float = 0.5,
    epsilon: float = 0.1,
    seed: int = 0,
    masked: bool = False,
    guide: PolicyModel | None = None,
) -> QTable:
    """Epsilon-greedy Q-learning over environments from env_factory(episode).

    With masked=False the agent explores the full action set, including
    inapplicable rules (their negative reward is how it learns to avoid
    them); masked=True restricts exploration to applicable rules, and ends
    the episode without a backup when no rule applies.

    ``guide``, a trained policy when given, drives the episode: each step its
    greedy choice under the same mask is taken with probability 1 - epsilon,
    and otherwise the table's own epsilon-greedy choice is.

    An episode that ends with outcome ``OUTCOME_CAP`` is treated as truncated
    (its last backup still bootstraps); any other ending is a real terminal.
    """
    rng = random.Random(seed)
    qtable = QTable(n_actions, gamma=gamma, alpha=alpha)
    for episode in range(episodes):
        env = env_factory(episode)
        state = env.state_vector()
        while not env.done:
            mask = env.applicable_mask() if masked else [True] * n_actions
            if not any(mask):
                break
            if guide is not None and rng.random() >= epsilon:
                action = select_action(guide, state, mask, "greedy")
            else:
                action = select_action(qtable, state, mask, "epsilon", epsilon, rng)
            next_state, reward, done = env.env_step(action)
            terminal = done and env.outcome != OUTCOME_CAP
            q_update(qtable, state, action, reward, next_state, terminal)
            state = next_state
    return qtable


# ---------------------------------------------------------------------------
# persistence


_POLICY_MAGIC = "symderive-policy v1"
_POLICY_HEADER = dict(n_inputs=int, hidden=int, n_actions=int, step_size=float, seed=int, rules_sha256=str)
_QTABLE_MAGIC = "symderive-qtable v1"
_QTABLE_HEADER = dict(n_actions=int, gamma=float, alpha=float)


def save_policy(model: PolicyModel, path: str, seed: int, rules_hash: str) -> None:
    """Write a checkpoint: shape header, the hash of the rule set whose action
    order the model was trained against, then every weight in a fixed order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_POLICY_MAGIC + "\n")
        shape = dict(n_inputs=model.n_inputs, hidden=model.hidden, n_actions=model.n_actions)
        write_header(fh, _POLICY_HEADER, dict(shape, step_size=model.step_size, seed=seed, rules_sha256=rules_hash))
        fh.write("weights\n")
        for block in (model.w1, model.b1, model.w2, model.b2):
            for value in block.ravel():
                fh.write(repr(float(value)) + "\n")


def load_policy(path: str) -> tuple[PolicyModel, dict[str, object]]:
    """Read a checkpoint; returns (model, typed header values)."""
    lines = file_lines(read_file(path), path)
    if not lines or lines[0] != _POLICY_MAGIC:
        raise FileFormatError(f"{path} is not a policy checkpoint")
    i = len(_POLICY_HEADER) + 1
    meta = read_header(lines[1:i], _POLICY_HEADER, path, first_line=2)
    if lines[i : i + 1] != ["weights"]:
        raise FileFormatError(f"{path} line {i + 1}: expected the weights line")
    n_inputs, hidden, n_actions = meta["n_inputs"], meta["hidden"], meta["n_actions"]
    if min(n_inputs, hidden, n_actions) < 1:
        raise FileFormatError(f"{path}: n_inputs, hidden and n_actions must be positive")
    flat = lines[i + 1 :]
    expected = n_inputs * hidden + hidden + hidden * n_actions + n_actions
    if len(flat) != expected:
        raise FileFormatError(f"{path}: checkpoint has {len(flat)} weights, expected {expected}")
    try:
        values = np.asarray([read_float(v) for v in flat], dtype=np.float64)
    except ValueError:
        raise FileFormatError(f"{path}: checkpoint contains a non-numeric weight") from None
    w1, b1, w2, b2 = np.split(values, np.cumsum([n_inputs * hidden, hidden, hidden * n_actions]))
    model = PolicyModel(w1.reshape(n_inputs, hidden), b1, w2.reshape(hidden, n_actions), b2, meta["step_size"])
    return model, meta


def save_qtable(qtable: QTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_QTABLE_MAGIC + "\n")
        write_header(fh, _QTABLE_HEADER, vars(qtable))
        for state in sorted(qtable.entries):
            row = qtable.entries[state]
            fh.write(format_vector(state) + " : " + " ".join(repr(float(v)) for v in row) + "\n")


def load_qtable(path: str) -> QTable:
    """Read a Q-table dump; its states must be strictly increasing, the
    order ``save_qtable`` writes them in."""
    lines = file_lines(read_file(path), path)
    if not lines or lines[0] != _QTABLE_MAGIC:
        raise FileFormatError(f"{path} is not a Q-table dump")
    body_start = len(_QTABLE_HEADER) + 1
    meta = read_header(lines[1:body_start], _QTABLE_HEADER, path, first_line=2)
    try:
        qtable = QTable(**meta)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad Q-table header: {exc}") from None
    last: FeatureVector = ()
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        left, sep, right = line.partition(" : ")
        if not sep:
            raise FileFormatError(f"{path} line {lineno}: expected 'state : values', got {line!r}")
        if not left:
            raise FileFormatError(f"{path} line {lineno}: empty state")
        try:
            state = parse_vector(left)
            row = np.asarray([read_float(v) for v in right.split(" ")], dtype=np.float64)
        except (FileFormatError, ValueError):
            raise FileFormatError(f"{path} line {lineno}: not a state and numeric values: {line!r}") from None
        if row.shape[0] != qtable.n_actions:
            raise FileFormatError(f"{path} line {lineno}: row has {row.shape[0]} values, expected {qtable.n_actions}")
        if qtable.entries and len(state) != qtable.n_inputs:
            raise FileFormatError(
                f"{path} line {lineno}: state has length {len(state)}, the first state has length {qtable.n_inputs}"
            )
        if state <= last:
            raise FileFormatError(f"{path} line {lineno}: state {left!r} is not greater than the state before it")
        qtable.entries[state] = row
        last = state
    return qtable
