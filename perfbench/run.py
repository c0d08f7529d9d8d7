"""Pipeline benchmark for symderive.

Runs one workload (see workloads.py) in a closed loop from a single caller:
set up its inputs from the seed, then repeat identical passes for
``--seconds``. Prints the workload's own metrics by name and unit (wall
clock), then, as the last line, one JSON object:

  --trace 0  end-to-end metrics: setup_s and pass_norm_s, both rescaled to
             the reference machine speed of speed.py, and peak_rss_mb
  --trace 1  per-layer metrics: for the first half of the time passes run
             plain, for the second half every function in layers.py is
             wrapped; the difference is trace.overhead_frac

A run fails (exit 1, "correct": false) when outputs differ between two
set-ups of one seed or between passes, when an oracle route does not replay
or is longer than the expert script, when the corpus read back differs from
the one written, when (at the default seed) a digest or exact score drifts
from reference.json, or when a traced layer mapped to the workload records
no calls. Without the package sources next to it, it exits 2.

Usage, from the repository root:

  python3 perfbench/run.py --workload qlearn --seed 0 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all
  python3 perfbench/run.py --workload policy --write-reference
  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: the box has two cores and is shared, and the policy
# batches are too small for a second thread to pay. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOAD_NAMES = ("policy", "qlearn", "oracle", "corpus")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Outputs that must match reference.json at the default seed.
REFERENCE_KEYS = {
    "policy": ("policy_checkpoint", "test_top1"),
    "qlearn": ("qtable", "rollout_reached_frac"),
    "oracle": (),
    "corpus": ("instances.txt", "traces/*", "split.txt"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference", action="store_true",
        help="record this workload's default-seed outputs in reference.json instead of checking them",
    )
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; 'none' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "symderive")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".rules")):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, pkg).encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts() -> dict[str, object]:
    import numpy as np
    from symderive import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "kernels_backend": kernels.BACKEND,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_imports(repeats: int) -> list[float]:
    """Wall seconds of `python -c "import symderive.cli"`, each in a fresh
    interpreter, as a CLI user pays it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import symderive.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Runs identical passes of one workload and checks the first one."""

    def __init__(self, workload, inputs, rules, table, work_dir: str, probe, problems: list[str]):
        self.workload, self.inputs, self.rules, self.table = workload, inputs, rules, table
        self.work_dir, self.probe, self.problems = work_dir, probe, problems
        self.checked = False

    def passes(self, seconds: float) -> list:
        """Passes while the next one, if it takes as long as the last, ends
        within `seconds` (at least one)."""
        done = []
        spent = 0.0
        while not done or spent + done[-1].seconds <= seconds:
            result = self.workload.run(self.inputs, self.rules, self.table, self.work_dir, self.probe)
            if result.outputs and not self.checked:
                self.problems += self.workload.check(self.inputs, self.rules, result)
                self.checked = True
            result.artifacts = {}  # so that passes do not add up in peak memory
            done.append(result)
            spent += result.seconds
        return done


def compare_outputs(passes: list) -> list[str]:
    first = passes[0].outputs
    return [
        f"pass {i} produced {key}={p.outputs.get(key)!r}, the first {key}={value!r}"
        for i, p in enumerate(passes[1:], 1)
        for key, value in first.items()
        if p.outputs.get(key) != value
    ] + (["pass 0 produced no outputs"] if not first else [])


def check_reference(name: str, outputs: dict, write: bool) -> list[str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    if write:
        reference[name] = {key: outputs[key] for key in REFERENCE_KEYS[name]}
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return []
    expected = reference.get(name, {})
    return [
        f"{key}={outputs.get(key)!r} drifted from the reference {expected.get(key)!r} at seed {DEFAULT_SEED}"
        for key in REFERENCE_KEYS[name]
        if outputs.get(key) != expected.get(key)
    ]


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "symderive")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    import symderive.cli  # noqa: F401

    import layers
    from speed import SpeedProbe
    from symderive.encoding import default_table
    from symderive.rewrite import packaged_rules
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    problems: list[str] = []

    # Set-up is Python work; the calibration loop runs before and after it
    # to rescale it.
    setup_probe = SpeedProbe("python")
    for _ in range(SETUP_REPEATS):
        setup_probe.sample()
    import_s = statistics.median(time_imports(SETUP_REPEATS))
    setup_times, digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        rules = packaged_rules()
        table = default_table()
        inputs = workload.setup(args.seed, rules)
        setup_times.append(time.perf_counter() - start)
        digests.append(workload.input_digest(inputs))
    for _ in range(SETUP_REPEATS):
        setup_probe.sample()
    if len(set(digests)) != 1:
        problems.append(f"{SETUP_REPEATS} generations from seed {args.seed} are not identical")
    setup_wall_s = import_s + statistics.median(setup_times)
    setup_s = setup_wall_s * statistics.fmean(setup_probe.reference / t for t in setup_probe.samples)

    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    probe = SpeedProbe(workload.calibration)
    runner = Runner(workload, inputs, rules, table, work_dir, probe, problems)
    probe.start()
    try:
        if args.trace:
            plain = runner.passes(args.seconds / 2)
            tracer, counters = Tracer(), layers.Counters()
            layers.install(tracer, counters)
            try:
                # The spans of the first traced pass are the ones written out.
                traced = runner.passes(0.0)
                first_pass_spans = len(tracer.span_start)
                traced += runner.passes(args.seconds / 2 - traced[0].seconds)
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes = runner.passes(args.seconds)
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    problems += compare_outputs(passes)
    if args.seed == DEFAULT_SEED and passes[0].outputs:
        problems += check_reference(workload.name, passes[0].outputs, args.write_reference)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    facts = machine_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    if args.trace:
        values = layers.layer_metrics(tracer, counters, len(traced), len(rules))
        problems += layers.missing_calls(values, workload.name)
        values["cli.import_s"] = import_s
        values["trace.overhead_frac"] = (
            statistics.median(p.norm_seconds for p in traced) / statistics.median(p.norm_seconds for p in plain) - 1.0
        )
        units = {name: unit for name, unit, _ in layers.metric_units()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        spans_path = os.path.join(WORK, f"spans-{workload.name}.tsv")
        tracer.write_spans(spans_path, first_pass_spans)
        print(f"spans of the first of {len(traced)} traced passes written to {os.path.relpath(spans_path, ROOT)}")
    else:
        pass_norm_s = statistics.median(p.norm_seconds for p in passes)
        pass_wall_s = statistics.median(p.seconds for p in passes)
        named = [
            ("setup_s", setup_s, "s", f"at reference speed; wall {setup_wall_s:.4f} s = median of {SETUP_REPEATS} "
             f"imports in a fresh interpreter, {import_s:.4f} s, + median of {SETUP_REPEATS} set-ups"),
            ("pass_norm_s", pass_norm_s, "s", f"at reference speed; wall {pass_wall_s:.4f} s, median of {len(passes)} passes"),
            ("failed_frac", failed / attempted, "frac", f"{failed} failed of {attempted} attempted"),
            ("peak_rss_mb", peak_rss_mb(), "MB", ""),
        ] + workload.named_metrics(passes)
        for name, value, unit, note in named:
            print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_norm_s": {"value": pass_norm_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(WORK, f"result-{workload.name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "facts": facts, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    combined: dict[str, object] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_reference and (args.workload == "all" or args.seed != DEFAULT_SEED):
        print(f"error: --write-reference takes one workload at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
