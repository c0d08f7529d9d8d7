"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` and then runs
identical passes over them; ``run.py`` repeats passes for the measured time.
One pass is what a user waits for in one pipeline stage:

  policy  policy training on a 500-instance corpus (numpy-bound; no matching)
  qlearn  tabular Q-learning, 2000 episodes, then greedy rollouts of all 500
          instances (matching-bound: ~244k first-match scans per pass)
  oracle  breadth-first search from every start of a 220-instance corpus
          (every-site matching, substitution and hashing; no encoding)
  corpus  generate, write and read back a 2000-instance corpus (parsing and
          printing of formulas)

Calls into the package go through module attributes (``rl.policy_train``),
so the tracer's rebinding reaches them. Every stage and operation is timed
through the run's SpeedProbe, which reports wall time without the probe's
own calibration time, and the same time at the reference machine speed.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field

from symderive import dataset, derivation, rl
from symderive.dataset import Corpus, GenConfig
from symderive.encoding import SymbolTable
from symderive.errors import Error
from symderive.expr import to_text
from symderive.rewrite import RuleSet
from speed import SpeedProbe
from tracer import percentile

# The CLI's defaults (`gen`, `train`, `eval`), except DEPTH_CAP: `derive
# --oracle` stops at 8 steps, and the longest expert scripts take 9.
MODEL_SEED = 0
EPOCHS = 800
HIDDEN = 64
STEP_SIZE = 0.1
EPISODES = 2000
GAMMA = 0.9
ALPHA = 0.5
EPSILON = 0.1
STEP_CAP = 50
DEPTH_CAP = 10


@dataclass
class PassResult:
    """What one pass measured and produced."""

    wall: dict[str, float] = field(default_factory=dict)  # seconds per stage
    norm: dict[str, float] = field(default_factory=dict)  # the same at the reference speed
    latencies_ms: list[float] = field(default_factory=list)  # wall time per operation
    attempted: int = 0
    failed: int = 0
    # Compared across passes, and with the reference at the default seed.
    outputs: dict[str, object] = field(default_factory=dict)
    # Objects the correctness checks look at after the measurement.
    artifacts: dict[str, object] = field(default_factory=dict)

    def stage(self, name: str, elapsed: tuple[float, float]) -> None:
        self.wall[name], self.norm[name] = elapsed

    @property
    def seconds(self) -> float:
        return sum(self.wall.values())

    @property
    def norm_seconds(self) -> float:
        return sum(self.norm.values())


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_key(f) -> tuple:
    return (f.kind, f.payload, tuple(_tree_key(c) for c in f.children))


def corpus_digest(corpus: Corpus) -> str:
    """Digest of a corpus's instances, traces and split, in file order."""
    h = hashlib.sha256()
    for instance, trace, which in zip(corpus.instances, corpus.traces, corpus.split):
        h.update(to_text(instance.start).encode())
        h.update(derivation.serialize_trace(trace).encode())
        h.update(which.encode())
    return h.hexdigest()


def corpus_file_digests(corpus_dir: str) -> dict[str, str]:
    traces_dir = os.path.join(corpus_dir, "traces")
    h = hashlib.sha256()
    for name in sorted(os.listdir(traces_dir)):
        h.update(f"{name} {_file_sha256(os.path.join(traces_dir, name))}\n".encode())
    return {
        "instances.txt": _file_sha256(os.path.join(corpus_dir, "instances.txt")),
        "traces/*": h.hexdigest(),
        "split.txt": _file_sha256(os.path.join(corpus_dir, "split.txt")),
    }


def policy_checkpoint_digest(path: str) -> str:
    """SHA-256 of a policy checkpoint with each weight rounded to 1e-8.

    The header is hashed as written. Rounding keeps the digest blind to
    last-bit differences of summation order (BLAS threading, or training on
    deduplicated rows), which change weights by ~1e-15; any real change to
    training moves weights far more than 1e-8.
    """
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as fh:
        in_weights = False
        for line in fh:
            if in_weights:
                line = f"{round(float(line), 8) + 0.0:.8f}\n"
            elif line == "weights\n":
                in_weights = True
            h.update(line.encode())
    return h.hexdigest()


class Workload:
    name = ""
    corpus_count = 0
    calibration = "python"  # the SpeedProbe loop that slows down like this workload

    def setup(self, seed: int, rules: RuleSet) -> object:
        """Make this workload's inputs from the seed."""
        return dataset.build_corpus(GenConfig(count=self.corpus_count), seed, rules)

    def input_digest(self, inputs: object) -> str:
        return corpus_digest(inputs)  # type: ignore[arg-type]

    def run(self, inputs: object, rules: RuleSet, table: SymbolTable, work_dir: str, probe: SpeedProbe) -> PassResult:
        raise NotImplementedError

    def check(self, inputs: object, rules: RuleSet, result: PassResult) -> list[str]:
        """Problems with one pass's outputs that a digest cannot show."""
        return []

    def named_metrics(self, passes: list[PassResult]) -> list[tuple[str, float, str, str]]:
        """(name, value, unit, note) for this workload's own metrics."""
        raise NotImplementedError


def _median_stage(passes: list[PassResult], stage: str) -> tuple[str, float, str, str]:
    """Median wall time of a stage, noting the median at the reference speed."""
    timed = [p for p in passes if stage in p.wall]
    norm = statistics.median(p.norm[stage] for p in timed)
    wall = statistics.median(p.wall[stage] for p in timed)
    return (stage, wall, "s", f"median of {len(timed)} passes; {norm:.4f} s at reference speed")


class PolicyWorkload(Workload):
    name = "policy"
    corpus_count = 500
    calibration = "numpy"

    def run(self, inputs, rules, table, work_dir, probe):
        corpus: Corpus = inputs
        path = os.path.join(work_dir, "policy.ckpt")
        result = PassResult(attempted=1)
        mark = probe.mark()
        try:
            train = corpus.samples(rules, table, "train")
            test = corpus.samples(rules, table, "test")
            model = rl.PolicyModel.create(table.l_max, len(rules), hidden=HIDDEN, seed=MODEL_SEED, step_size=STEP_SIZE)
            rl.policy_train(model, train, EPOCHS)
            train_top1 = rl.top1_accuracy(model, train)
            test_top1 = rl.top1_accuracy(model, test)
            rl.save_policy(model, path, MODEL_SEED, rules.content_hash())
        except Error:
            result.failed = 1
            return result
        finally:
            result.stage("train_policy_s", probe.elapsed(mark))
        result.outputs = {
            "policy_checkpoint": policy_checkpoint_digest(path),
            "train_top1": train_top1,
            "test_top1": test_top1,
        }
        return result

    def named_metrics(self, passes):
        return [
            _median_stage(passes, "train_policy_s"),
            ("test_top1", float(passes[0].outputs.get("test_top1", 0.0)), "frac", "exact"),
        ]


class QLearnWorkload(Workload):
    name = "qlearn"
    corpus_count = 500

    def run(self, inputs, rules, table, work_dir, probe):
        corpus: Corpus = inputs
        path = os.path.join(work_dir, "q.qtable")
        result = PassResult(attempted=1)
        mark = probe.mark()
        try:
            qtable = self._train(corpus, rules, table)
            rl.save_qtable(qtable, path)
        except Error:
            result.failed = 1
            return result
        finally:
            result.stage("train_q_s", probe.elapsed(mark))
        reached = 0
        stage = probe.mark()
        for idx in range(len(corpus.instances)):
            result.attempted += 1
            mark = probe.mark()
            try:
                inst = corpus.instances[idx]
                env = derivation.DerivationEnv(inst.start, corpus.traces[idx].goal, rules, table, step_cap=STEP_CAP)
                trace = derivation.rollout(env, qtable, mode="greedy")
            except Error:
                result.failed += 1
                continue
            result.latencies_ms.append(probe.elapsed(mark)[0] * 1e3)
            reached += trace.reached
        result.stage("rollouts_s", probe.elapsed(stage))
        result.outputs = {
            "qtable": _file_sha256(path),
            "qtable_states": len(qtable),
            "rollout_reached_frac": reached / len(corpus.instances),
        }
        return result

    @staticmethod
    def _train(corpus: Corpus, rules: RuleSet, table: SymbolTable) -> rl.QTable:
        """The loop of `symderive train --learner q`, on an in-memory corpus."""
        train_idx = corpus.indices("train")
        rng = random.Random(MODEL_SEED)
        qtable = rl.QTable(len(rules), gamma=GAMMA, alpha=ALPHA)
        for episode in range(EPISODES):
            idx = train_idx[episode % len(train_idx)]
            inst = corpus.instances[idx]
            env = derivation.DerivationEnv(inst.start, corpus.traces[idx].goal, rules, table, step_cap=STEP_CAP)
            state = env.state_vector()
            while not env.done:
                mask = env.applicable_mask()
                if not any(mask):
                    break
                action = rl.select_action(qtable, state, mask, "epsilon", EPSILON, rng)
                next_state, reward, done = env.env_step(action)
                terminal = done and env.outcome != derivation.OUTCOME_CAP
                rl.q_update(qtable, state, action, reward, next_state, terminal)
                state = next_state
        return qtable

    def named_metrics(self, passes):
        latencies = [ms for p in passes for ms in p.latencies_ms]
        n = f"n={len(latencies)} rollouts"
        return [
            _median_stage(passes, "train_q_s"),
            ("rollout_ms_p50", percentile(latencies, 50), "ms", n),
            ("rollout_ms_p95", percentile(latencies, 95), "ms", n),
            ("rollout_reached_frac", float(passes[0].outputs.get("rollout_reached_frac", 0.0)), "frac", "exact"),
        ]


class OracleWorkload(Workload):
    name = "oracle"
    corpus_count = 220

    def run(self, inputs, rules, table, work_dir, probe):
        corpus: Corpus = inputs
        result = PassResult(attempted=len(corpus.instances))
        routes: list[derivation.DerivationTrace | None] = []
        stage = probe.mark()
        for inst in corpus.instances:
            mark = probe.mark()
            try:
                route = derivation.bfs_oracle(inst.start, inst.goal, rules, depth_cap=DEPTH_CAP)
            except Error:
                result.failed += 1
                routes.append(None)
                continue
            result.latencies_ms.append(probe.elapsed(mark)[0] * 1e3)
            routes.append(route)
        result.stage("oracle_s", probe.elapsed(stage))
        # Hashed without package functions, which may be traced.
        steps = [[(s.rule_id, s.site, _tree_key(s.after)) for s in r.steps] if r else None for r in routes]
        result.outputs = {"routes": hashlib.sha256(repr(steps).encode()).hexdigest()}
        result.artifacts = {"routes": routes}
        return result

    def check(self, inputs, rules, result):
        corpus: Corpus = inputs
        problems = []
        for inst, route in zip(corpus.instances, result.artifacts["routes"]):
            if route is None:
                continue
            where = f"oracle route of instance {inst.index} ({inst.variant})"
            try:
                route.replay(rules)
            except Error as exc:
                problems.append(f"{where} does not replay: {exc}")
                continue
            if not route.reached or (route.steps and route.steps[0].before != inst.start):
                problems.append(f"{where} does not lead from the start to the goal")
            if len(route) > len(inst.script):
                problems.append(f"{where} has {len(route)} steps, the expert script {len(inst.script)}")
        return problems

    def named_metrics(self, passes):
        latencies = [ms for p in passes for ms in p.latencies_ms]
        n = f"n={len(latencies)} searches"
        return [
            ("oracle_ms_p50", percentile(latencies, 50), "ms", n),
            ("oracle_ms_p95", percentile(latencies, 95), "ms", n),
            ("oracle_per_s", len(latencies) / sum(p.seconds for p in passes), "1/s", n),
        ]


class CorpusWorkload(Workload):
    name = "corpus"
    corpus_count = 2000

    def setup(self, seed, rules):
        return (GenConfig(count=self.corpus_count), seed)

    def input_digest(self, inputs):
        config, seed = inputs
        return f"{config}:{seed}"

    def run(self, inputs, rules, table, work_dir, probe):
        config, seed = inputs
        out_dir = os.path.join(work_dir, "corpus")
        shutil.rmtree(out_dir, ignore_errors=True)
        result = PassResult(attempted=2)
        mark = probe.mark()
        try:
            built = dataset.build_corpus(config, seed, rules)
            dataset.save_corpus(built, out_dir)
        except Error:
            result.failed = 2
            return result
        finally:
            result.stage("corpus_gen_s", probe.elapsed(mark))
        mark = probe.mark()
        try:
            loaded = dataset.load_corpus(out_dir)
        except Error:
            result.failed = 1
            return result
        finally:
            result.stage("corpus_load_s", probe.elapsed(mark))
        result.outputs = corpus_file_digests(out_dir)
        result.artifacts = {"built": built, "loaded": loaded}
        shutil.rmtree(out_dir)
        return result

    def check(self, inputs, rules, result):
        built, loaded = result.artifacts["built"], result.artifacts["loaded"]
        if corpus_digest(built) != corpus_digest(loaded):
            return ["the corpus read back differs from the corpus written"]
        return []

    def named_metrics(self, passes):
        return [_median_stage(passes, "corpus_gen_s"), _median_stage(passes, "corpus_load_s")]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (PolicyWorkload(), QLearnWorkload(), OracleWorkload(), CorpusWorkload())}
