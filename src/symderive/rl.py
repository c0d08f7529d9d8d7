"""Learners that pick the next rewrite rule.

Two learners share one action-selection interface, and both learn from
expert traces: a tabular Q store, updated by one-step temporal differences
along each trace and then along its own epsilon-greedy episodes, and a small
softmax network. States are the fixed-length integer encodings from
:mod:`symderive.encoding`; actions are indices into a rule set. Both learners
give their shape as ``n_inputs`` (the vector length) and ``n_actions``, so a
loaded learner file is the one source of the length it reads, and
``top1_accuracy`` scores either.

A Q-table row is a list of Python floats (``QTable`` says why); the
policy's weights are numpy arrays, since a policy epoch multiplies whole
matrices. This is the only module that imports numpy.

The environment's constants and ``TraceSample`` belong to
:mod:`symderive.derivation`.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import compress
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

# INVALID_ACTION_REWARD is not read here: the benchmark's layer probes
# (perfbench/layers.py) read it as rl.INVALID_ACTION_REWARD.
from .derivation import INVALID_ACTION_REWARD, OUTCOME_CAP, TraceSample  # noqa: F401
from .encoding import DEFAULT_L_MAX, FeatureVector, format_vector, parse_vector
from .errors import EmptyDataset, FileFormatError, NoApplicableAction, TrainingDiverged
from .textfile import file_lines, read_file, read_float, read_header, write_header


class QTable:
    """Tabular action values keyed by feature vector.

    Each stored row is a list of Python floats, one per action. A backup or
    a greedy choice reads and writes single values of a 16-wide row, and on
    rows that short numpy's cost per scalar call outweighs the arithmetic it
    vectorizes. Both forms do the same IEEE double arithmetic, so a table's
    values do not depend on which one holds them.

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
        self.entries: dict[FeatureVector, list[float]] = {}
        self._zeros = (0.0,) * n_actions

    def values(self, state: FeatureVector) -> Sequence[float]:
        """Q-values for a state: its stored row, or a shared tuple of zeros
        (not stored) when the state is unseen."""
        row = self.entries.get(state)
        if row is None:
            return self._zeros
        return row

    def _row(self, state: FeatureVector) -> list[float]:
        row = self.entries.get(state)
        if row is None:
            row = self.entries[state] = [0.0] * self.n_actions
        return row

    @property
    def n_inputs(self) -> int:
        """Length of the stored states (all one length in a loaded table);
        ``DEFAULT_L_MAX`` for a table with no states."""
        return len(next(iter(self.entries), ())) or DEFAULT_L_MAX

    def __len__(self) -> int:
        return len(self.entries)


def q_update(
    qtable: QTable, s: FeatureVector, a: int, r: float, s_next: FeatureVector, terminal: bool = False,
    next_mask: Sequence[bool] | None = None,
) -> QTable:
    """One temporal-difference backup:
    Q(s,a) <- (1 - alpha) * Q(s,a) + alpha * (r + gamma * max_a' Q(s',a')),
    with a' over the actions ``next_mask`` marks applicable at s' (every
    action when it is None); a state where none applies is worth 0.

    With alpha = 1 this is the plain one-step Bellman assignment. Pass
    terminal=True when the transition ended the episode for real (goal or
    dead end): the backup then uses the bare reward. Episodes cut off by the
    step cap are truncations, not terminals, and should keep bootstrapping.
    """
    row = qtable._row(s)
    if terminal:
        bootstrap = 0.0
    else:
        values = qtable.values(s_next)
        best = max(values) if next_mask is None else max(compress(values, next_mask), default=0.0)
        bootstrap = qtable.gamma * best
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


def _distinct_rows(
    pairs: Iterable[tuple[Sequence[float], int]], n_inputs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (state, action) pairs as float64 state rows, their
    actions, and the weight count / n of each, so a weighted sum over them
    is the mean over every pair.

    Pairs are counted in a dict, so only the distinct ones reach numpy; the
    rows are put in the order of their raw (state, action) bytes, which
    fixes the order of every later sum whatever the order of the pairs.
    """
    counts = Counter(pairs)
    table = np.array([(*state, action) for state, action in counts], dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != n_inputs + 1:
        raise ValueError(f"every state must have length {n_inputs}, the model's input length")
    # each row as one raw byte string, so that one sort orders the rows by their bytes
    order = np.argsort(table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel())
    table = table[order]
    weights = np.fromiter(counts.values(), np.float64, len(counts))[order] / counts.total()
    return table[:, :-1], table[:, -1].astype(np.int64), weights


class _FusedStep:
    """Full-batch gradient descent on weighted rows, over buffers allocated
    once.

    Only the inputs that are nonzero in some row are trained: an input that
    is 0 in every row adds exactly 0 to every sum and gets an exactly-zero
    gradient, so its ``W1`` row never moves, and leaving it out gives the
    same floats. ``used`` lists the trained inputs, and the first layer
    costs what the corpus uses, not what ``n_inputs`` allows.

    A ones column on the inputs and on the hidden layer folds each bias in
    as the last row of its weight matrix, so one product gives a layer's
    output and one gives its weight-and-bias gradient. Every sum runs in the
    order of the unfused network: a bias is added after the row's dot
    product, and a bias gradient adds the rows in order.
    """

    def __init__(self, model: PolicyModel, rows: np.ndarray, actions: np.ndarray, weights: np.ndarray):
        if actions.min() < 0 or actions.max() >= model.n_actions:
            raise ValueError("sample action index out of range")
        m, hidden, n_actions = rows.shape[0], model.hidden, model.n_actions
        self.step_size = model.step_size
        self.used = np.flatnonzero(rows.any(axis=0))
        self.x = np.ones((m, len(self.used) + 1))
        self.x[:, :-1] = rows[:, self.used]
        # every trained weight in one buffer, in checkpoint order, so that
        # one multiply and one subtract take the step
        self.params = np.concatenate((model.w1[self.used].ravel(), model.b1, model.w2.ravel(), model.b2))
        self.grads = np.empty_like(self.params)
        self.scratch = np.empty_like(self.params)
        split = (len(self.used) + 1) * hidden
        self.w1 = self.params[:split].reshape(len(self.used) + 1, hidden)
        self.w2 = self.params[split:].reshape(hidden + 1, n_actions)
        self.g1 = self.grads[:split].reshape(self.w1.shape)
        self.g2 = self.grads[split:].reshape(self.w2.shape)
        self.z1 = np.empty((m, hidden))
        self.act = np.empty((m, hidden))
        self.h = np.ones((m, hidden + 1))
        self.slope = np.empty((m, hidden))
        self.z2 = np.empty((m, n_actions))
        self.row_max = np.empty((m, 1))
        self.target = np.zeros((m, n_actions))
        self.target[np.arange(m), actions] = 1.0
        self.target_index = np.arange(m) * n_actions + actions
        self.picked = np.empty(m)
        self.share = weights
        self.row_share = weights[:, None]
        # transposed views, made once; w2_t views ``params``, which each
        # step updates in place
        self.x_t, self.h_t, self.w2_t = self.x.T, self.h.T, self.w2[:-1].T

    def run(self) -> float:
        """Fill ``grads`` with the gradients of the weighted cross-entropy,
        take one step along them, and return the loss before the step."""
        x, act, h, z2, row_max, picked = self.x, self.act, self.h, self.z2, self.row_max, self.picked
        np.dot(x, self.w1, out=self.z1)
        # tanh into a contiguous buffer, whose square is cheaper to take than
        # that of the strided view beside the ones column
        np.tanh(self.z1, out=act)
        h[:, :-1] = act
        np.dot(h, self.w2, out=z2)
        # softmax over each row, in place
        np.maximum.reduce(z2, axis=1, keepdims=True, out=row_max)
        np.subtract(z2, row_max, out=z2)
        np.exp(z2, out=z2)
        np.add.reduce(z2, axis=1, keepdims=True, out=row_max)
        np.divide(z2, row_max, out=z2)
        z2.take(self.target_index, out=picked)
        np.maximum(picked, 1e-300, out=picked)
        np.log(picked, out=picked)
        loss = float(-(self.share @ picked))

        dz2 = np.subtract(z2, self.target, out=z2)
        dz2 *= self.row_share
        np.dot(self.h_t, dz2, out=self.g2)
        dz1 = np.dot(dz2, self.w2_t, out=self.z1)
        np.multiply(act, act, out=self.slope)
        np.subtract(1.0, self.slope, out=self.slope)
        dz1 *= self.slope
        np.dot(self.x_t, dz1, out=self.g1)

        np.multiply(self.step_size, self.grads, out=self.scratch)
        self.params -= self.scratch
        return loss


def cross_entropy_and_grads(
    model: PolicyModel, states: np.ndarray, actions: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Mean cross-entropy of the expert actions and its exact gradients.

    Returned gradients are (dw1, db1, dw2, db2), each the derivative of the
    mean loss and each of its weight's shape. Kept separate from the
    training loop so the analytic gradients can be checked against finite
    differences; it runs one step of ``policy_train`` on the distinct rows
    (on copies of the weights, which the model never sees), so both give
    the same float. The rows of ``dw1`` for inputs that are 0 in every
    state are exactly 0, the gradient that step leaves out.
    """
    pairs = zip(map(tuple, np.asarray(states).tolist()), np.asarray(actions).tolist())
    step = _FusedStep(model, *_distinct_rows(pairs, model.n_inputs))
    loss = step.run()
    dw1 = np.zeros_like(model.w1)
    dw1[step.used] = step.g1[:-1]
    return loss, (dw1, step.g1[-1], step.g2[:-1], step.g2[-1])


def policy_train(model: PolicyModel, samples: Sequence[TraceSample], epochs: int) -> list[float]:
    """Full-batch gradient descent on expert (state, action) pairs, at the
    model's ``step_size``.

    Only the distinct pairs are converted and trained on, each weighted by
    its count, which is the same mean loss over all samples with the same
    gradients. Only the inputs that some state uses are trained; the other
    rows of ``w1`` keep their values, since their gradient is exactly 0.
    Updates the model in place and returns the loss measured at the start
    of each epoch (so losses[0] is the untrained loss).

    A model that holds a non-finite weight is refused with ValueError before
    any step, as ``save_policy`` refuses to write one. A loss that turns
    non-finite, or a trained weight that is non-finite at the end, raises
    ``TrainingDiverged``. Either way the model is left as it was.
    """
    if not samples:
        raise EmptyDataset("policy_train received no samples")
    if not all(np.isfinite(block).all() for block in (model.w1, model.b1, model.w2, model.b2)):
        raise ValueError("policy holds a non-finite weight; nothing trained")
    step = _FusedStep(model, *_distinct_rows(samples, model.n_inputs))
    losses: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            loss = step.run()
            if not math.isfinite(loss):
                raise TrainingDiverged(f"the policy loss is {loss} at epoch {epoch}; the step size is too large")
            losses.append(loss)
    if not np.isfinite(step.params).all():
        raise TrainingDiverged("training left a non-finite policy weight; the step size is too large")
    model.w1[step.used], model.b1[...] = step.w1[:-1], step.w1[-1]
    model.w2[...], model.b2[...] = step.w2[:-1], step.w2[-1]
    return losses


def top1_accuracy(learner: QTable | PolicyModel, samples: Sequence[TraceSample]) -> float:
    """Fraction of samples whose expert action is the learner's argmax (ties
    to the lowest index) over a Q-table's values or a policy's probabilities.

    Samples are counted in a dict first, so each distinct state is scored
    once, and only a policy's distinct states reach numpy."""
    if not samples:
        raise EmptyDataset("no samples to score")
    counts = Counter(samples)
    states = list(dict.fromkeys(state for state, _ in counts))
    if isinstance(learner, QTable):
        best = [_argmax(learner.values(state)) for state in states]
    else:
        best = learner.forward_batch(np.asarray(states, dtype=np.float64)).argmax(axis=1).tolist()
    predicted = dict(zip(states, best))
    hits = sum(count for (state, action), count in counts.items() if predicted[state] == action)
    return hits / len(samples)


def _argmax(values: Sequence[float]) -> int:
    """The lowest index of the largest value."""
    return max(range(len(values)), key=values.__getitem__)


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
    allowed = list(compress(range(len(mask)), mask))
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
        # no mass on the allowed actions, or NaN weights (only a model built
        # by hand: policy_train refuses to finish one and no checkpoint
        # holds nan): draw uniformly, where rng.choices would raise
        if not sum(weights) > 0.0:
            return allowed[rng.randrange(len(allowed))]
        return rng.choices(allowed, weights)[0]
    elif mode != "greedy":
        raise ValueError(f"unknown selection mode {mode!r}")
    # greedy: max keeps the first, so the lowest, index of the best allowed score
    return max(allowed, key=scores.__getitem__)


class _Env(Protocol):
    """An episode that ``q_learn`` drives; it ends where no action applies."""

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
    scripts: Sequence[Sequence[int]] = (),
) -> QTable:
    """Q-learning over environments from env_factory(episode).

    The first len(scripts) episodes are scripted: episode e takes the actions
    of scripts[e] (an expert trace's rule indices) in order, draws nothing
    from the rng, and ends when the environment does or the script runs out.
    The ``episodes`` epsilon-greedy episodes follow. Every step is backed up
    alike.

    Only applicable actions are chosen and bootstrapped from: the
    environment's mask of each state serves the choice there and the backup
    of the step that led there.

    An episode that ends with outcome ``OUTCOME_CAP`` is treated as truncated
    (its last backup still bootstraps); any other ending is a real terminal.
    """
    rng = random.Random(seed)
    qtable = QTable(n_actions, gamma=gamma, alpha=alpha)
    for episode in range(len(scripts) + episodes):
        script = iter(scripts[episode]) if episode < len(scripts) else None
        env = env_factory(episode)
        state = env.state_vector()
        while not env.done:
            if script is None:
                action = select_action(qtable, state, env.applicable_mask(), "epsilon", epsilon, rng)
            elif (action := next(script, None)) is None:
                break
            next_state, reward, done = env.env_step(action)
            terminal = done and env.outcome != OUTCOME_CAP
            q_update(qtable, state, action, reward, next_state, terminal, None if terminal else env.applicable_mask())
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
    order the model was trained against, then every weight in a fixed order.
    A non-finite weight or step size is refused before anything is written."""
    blocks = (model.w1, model.b1, model.w2, model.b2)
    if not (np.isfinite(model.step_size) and all(np.isfinite(block).all() for block in blocks)):
        raise ValueError(f"policy holds a non-finite weight or step size; {path} not written")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_POLICY_MAGIC + "\n")
        shape = dict(n_inputs=model.n_inputs, hidden=model.hidden, n_actions=model.n_actions)
        write_header(fh, _POLICY_HEADER, dict(shape, step_size=model.step_size, seed=seed, rules_sha256=rules_hash))
        fh.write("weights\n")
        # one string per matrix row, not per value or per block: the bytes
        # are repr(float(v)) per line, and only one row's text is held at
        # once (a 64 x 64 block's text and strings take ~440 KB)
        for block in blocks:
            for row in np.atleast_2d(block):
                fh.write("".join([f"{v!r}\n" for v in row.tolist()]))


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
    """Write a Q-table dump, its states in increasing order. A non-finite
    value is refused before anything is written."""
    if not all(math.isfinite(v) for row in qtable.entries.values() for v in row):
        raise ValueError(f"Q-table holds a non-finite value; {path} not written")
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
            row = [read_float(v) for v in right.split(" ")]
        except (FileFormatError, ValueError):
            raise FileFormatError(f"{path} line {lineno}: not a state and numeric values: {line!r}") from None
        if len(row) != qtable.n_actions:
            raise FileFormatError(f"{path} line {lineno}: row has {len(row)} values, expected {qtable.n_actions}")
        if qtable.entries and len(state) != qtable.n_inputs:
            raise FileFormatError(
                f"{path} line {lineno}: state has length {len(state)}, the first state has length {qtable.n_inputs}"
            )
        if state <= last:
            raise FileFormatError(f"{path} line {lineno}: state {left!r} is not greater than the state before it")
        qtable.entries[state] = row
        last = state
    return qtable
