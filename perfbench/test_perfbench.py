"""Tests of the benchmark's own helpers: percentiles, self time, rebinding.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, percentile, summarize  # noqa: E402
from workloads import policy_checkpoint_digest  # noqa: E402


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 51) == 3


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_summarize_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 7]; c holds b [5.5, 6.5].
    names = ["a", "b", "c"]
    span_name = [0, 1, 2, 1]
    span_parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 5.5]
    end = [10.0, 4.0, 7.0, 6.5]
    totals = summarize(names, span_name, span_parent, start, end)
    assert totals["a"] == (1, 10.0, 5.0)
    assert totals["b"] == (2, 4.0, 4.0)
    assert totals["c"] == (1, 2.0, 1.0)


def test_tracer_nests_spans_and_counts_outermost_recursive_call():
    tracer = Tracer(clock=FakeClock())

    def countdown(n):
        return n if n == 0 else traced_countdown(n - 1)

    traced_countdown = tracer.wrap("countdown", countdown)
    seen = []
    outer = tracer.wrap("outer", lambda: traced_countdown(3), probe=lambda args, result: seen.append(result))

    assert outer() == 0
    assert seen == [0]
    totals = tracer.totals()
    # Clock readings: outer starts 1, countdown 2..3, outer ends 4.
    assert totals["countdown"] == (1, 1.0, 1.0)
    assert totals["outer"] == (1, 3.0, 2.0)
    assert list(tracer.span_parent) == [-1, 0]


def test_install_rebinds_every_module_binding_and_uninstall_restores():
    def work():
        return 42

    home = types.ModuleType("fakepkg.home")
    home.work = work
    caller = types.ModuleType("fakepkg.caller")
    caller.alias = work  # as `from .home import work as alias` would bind it
    outside = types.ModuleType("otherpkg")
    outside.work = work
    mods = {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.home": home, "fakepkg.caller": caller, "otherpkg": outside}
    sys.modules.update(mods)
    try:
        tracer = Tracer(clock=FakeClock())
        assert tracer.install("home.work", home, "work", "fakepkg") == 2
        assert home.work is not work and caller.alias is home.work
        assert outside.work is work
        assert caller.alias() == 42
        assert tracer.totals()["home.work"].calls == 1
        tracer.uninstall()
        assert home.work is work and caller.alias is work
    finally:
        for name in mods:
            del sys.modules[name]


def test_install_patches_methods_on_the_class():
    class Env:
        def step(self):
            return "stepped"

    tracer = Tracer(clock=FakeClock())
    tracer.install("env.step", Env, "step", "fakepkg")
    assert Env().step() == "stepped"
    assert tracer.totals()["env.step"].calls == 1
    tracer.uninstall()
    assert "__wrapped__" not in vars(Env.step)


def test_speed_probe_removes_calibration_time_and_rescales():
    clock = FakeClock()
    probe = SpeedProbe("python", clock=clock)
    probe.loop = lambda: None  # each sample reads the clock twice: takes 1 s
    probe.reference = 0.5
    mark = probe.mark()  # clock 1
    probe.sample()  # clock 2..3, took 1 s
    probe.sample()  # clock 4..5, took 1 s
    # Elapsed reads clock 6: 5 s since mark, 2 of them calibrating.
    assert probe.elapsed(mark) == (3.0, 1.5)
    # A stretch with no sample of its own uses the latest one.
    mark = probe.mark()  # clock 7
    assert probe.elapsed(mark) == (1.0, 0.5)  # clock 8


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.metric_units()


def test_policy_digest_ignores_last_bits_but_not_real_changes(tmp_path):
    header = "symderive-policy v1\nn_inputs=1\nweights\n"
    base = tmp_path / "base.ckpt"
    base.write_text(header + "0.123456789012\n-1e-17\n")
    last_bits = tmp_path / "bits.ckpt"
    last_bits.write_text(header + "0.123456789013\n3e-17\n")
    moved = tmp_path / "moved.ckpt"
    moved.write_text(header + "0.123466789012\n-1e-17\n")
    assert policy_checkpoint_digest(str(base)) == policy_checkpoint_digest(str(last_bits))
    assert policy_checkpoint_digest(str(base)) != policy_checkpoint_digest(str(moved))
