"""The package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules. Every wrapped function reports, per pass,
``<layer>.<fn>.calls``, ``.s`` (busy time, children included) and
``.self_s``; a few add exact counts that later changes can cite.
"""

from __future__ import annotations

from symderive import dataset, derivation, encoding, expr, pattern, rewrite, rl
from tracer import Tracer

PACKAGE = "symderive"

# (metric prefix, owner, attribute, workloads whose passes must call it)
LAYERS: tuple[tuple[str, object, str, tuple[str, ...]], ...] = (
    ("expr.parse", expr, "parse", ("corpus",)),
    ("expr.to_text", expr, "to_text", ("corpus",)),
    ("expr.replace_at", expr, "replace_at", ("oracle",)),
    ("pattern.find_first", pattern, "find_first", ("qlearn",)),
    ("pattern.find_all", pattern, "find_all", ("oracle",)),
    ("rewrite.apply_rule_first", rewrite, "apply_rule_first", ("qlearn", "corpus")),
    ("rewrite.substitute", rewrite, "substitute", ("oracle",)),
    ("encoding.encode", encoding, "encode", ("policy", "qlearn")),
    ("derivation.applicable_mask", derivation.DerivationEnv, "applicable_mask", ("qlearn",)),
    ("derivation.env_step", derivation.DerivationEnv, "env_step", ("qlearn",)),
    ("derivation.rollout", derivation, "rollout", ("qlearn",)),
    ("derivation.bfs_oracle", derivation, "bfs_oracle", ("oracle",)),
    # The corpus loader does not replay traces yet, so no pass calls this;
    # it is wrapped so that the loader's replay shows once it does.
    ("derivation.replay", derivation.DerivationTrace, "replay", ()),
    ("rl.policy_train", rl, "policy_train", ("policy",)),
    ("rl.top1_accuracy", rl, "top1_accuracy", ("policy",)),
    ("rl.save_policy", rl, "save_policy", ("policy",)),
    ("rl.select_action", rl, "select_action", ("qlearn",)),
    ("rl.q_update", rl, "q_update", ("qlearn",)),
    ("dataset.build_corpus", dataset, "build_corpus", ("corpus",)),
    ("dataset.save_corpus", dataset, "save_corpus", ("corpus",)),
    ("dataset.check_consistency", dataset, "check_consistency", ("corpus",)),
    ("dataset.load_corpus", dataset, "load_corpus", ("corpus",)),
    ("dataset.samples", dataset.Corpus, "samples", ("policy",)),
)


class Counters:
    """Exact counts taken from wrapped calls' arguments and results."""

    def __init__(self) -> None:
        self.find_first_hits = 0
        self.find_all_sites = 0
        self.policy_rows = 0
        self.policy_unique_rows = 0
        self.policy_epochs = 0
        self.invalid_steps = 0
        self.vectors: set[tuple[int, ...]] = set()

    def probes(self) -> dict[str, object]:
        def find_first(args, result):
            self.find_first_hits += result is not None

        def find_all(args, result):
            self.find_all_sites += len(result)

        def policy_train(args, losses):
            samples = args[1]
            self.policy_rows += len(samples)
            self.policy_unique_rows += len(set(samples))
            self.policy_epochs += len(losses)

        def env_step(args, result):
            # An inapplicable rule pays the invalid reward without ending in a
            # dead end; a dead end pays it after a real rewrite.
            self.invalid_steps += result[1] == rl.INVALID_ACTION_REWARD and args[0].outcome != derivation.OUTCOME_DEAD_END

        def encode(args, vector):
            self.vectors.add(vector)

        return {
            "pattern.find_first": find_first,
            "pattern.find_all": find_all,
            "rl.policy_train": policy_train,
            "derivation.env_step": env_step,
            "encoding.encode": encode,
        }


def install(tracer: Tracer, counters: Counters) -> None:
    probes = counters.probes()
    for prefix, owner, attr, _ in LAYERS:
        tracer.install(prefix, owner, attr, PACKAGE, probes.get(prefix))


def metric_units() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []
    for prefix, _, _, _ in LAYERS:
        out += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.s", "s", "lower"), (f"{prefix}.self_s", "s", "lower")]
    out += [
        ("rl.policy_train.epoch_ms", "ms", "lower"),
        ("rl.policy_train.rows", "count", "lower"),
        ("rl.policy_train.unique_rows", "count", "lower"),
        ("derivation.env_step.invalid_frac", "frac", "lower"),
        ("derivation.bfs_oracle.expansions", "count", "lower"),
        ("pattern.find_first.hit_frac", "frac", "higher"),
        ("pattern.find_all.sites_per_call", "sites/call", "higher"),
        ("encoding.encode.unique_vectors", "count", "lower"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, passes: int, n_rules: int) -> dict[str, float]:
    """Per-pass values of every per-layer metric except import and overhead."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    for prefix, _, _, _ in LAYERS:
        t = totals[prefix]
        values[f"{prefix}.calls"] = _ratio(t.calls, passes)
        values[f"{prefix}.s"] = t.busy_s / passes
        values[f"{prefix}.self_s"] = t.self_s / passes
    train = totals["rl.policy_train"]
    values["rl.policy_train.epoch_ms"] = _ratio(train.busy_s * 1e3, counters.policy_epochs)
    values["rl.policy_train.rows"] = _ratio(counters.policy_rows, train.calls)
    values["rl.policy_train.unique_rows"] = _ratio(counters.policy_unique_rows, train.calls)
    values["derivation.env_step.invalid_frac"] = _ratio(counters.invalid_steps, totals["derivation.env_step"].calls)
    values["derivation.bfs_oracle.expansions"] = _ratio(totals["pattern.find_all"].calls, n_rules * passes)
    values["pattern.find_first.hit_frac"] = _ratio(counters.find_first_hits, totals["pattern.find_first"].calls)
    values["pattern.find_all.sites_per_call"] = _ratio(counters.find_all_sites, totals["pattern.find_all"].calls)
    values["encoding.encode.unique_vectors"] = len(counters.vectors)
    return values


def missing_calls(values: dict[str, float], workload: str) -> list[str]:
    """Layers mapped to this workload whose wrapped function was never called."""
    return [
        f"{prefix} recorded no calls on workload {workload}"
        for prefix, _, _, workloads in LAYERS
        if workload in workloads and not values[f"{prefix}.calls"]
    ]
