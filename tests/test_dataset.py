import dataclasses
import filecmp
import gc
import inspect
import os
import re
import shutil
import sys
import tracemalloc

import pytest

from symderive import dataset
from symderive.dataset import (
    TEST,
    TRAIN,
    VARIANT_NAMES,
    Corpus,
    GenConfig,
    OdeInstance,
    build_corpus,
    check_consistency,
    check_coverage,
    gen_instances,
    load_corpus,
    save_corpus,
    solve_instance,
)
from symderive.derivation import OUTCOME_REACHED, DerivationTrace, GoalSpec, TraceStep, serialize_trace
from symderive.encoding import default_table, encode, format_vector
from symderive.errors import CorpusError, EncodingOverflow, Error, FileFormatError, UnsolvableInstance, ValidationFailed
from symderive.expr import parse, sym, to_text, walk
from symderive.rewrite import Rule

from test_derivation import DECAY_START


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig()
        assert cfg.count == 500 and cfg.l_max == 64 and cfg.test_fraction == 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(count=0)
        with pytest.raises(ValueError):
            GenConfig(max_degree=1)
        with pytest.raises(ValueError):
            GenConfig(coeff_low=5, coeff_high=2)
        with pytest.raises(ValueError):
            GenConfig(test_fraction=1.0)
        with pytest.raises(ValueError):
            GenConfig(test_fraction=-0.1)

    def test_zero_l_max_rejected(self):
        with pytest.raises(ValueError, match="l_max"):
            GenConfig(l_max=0)


class TestGenInstances:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(count=40)
        a = list(gen_instances(cfg, 9))
        b = list(gen_instances(cfg, 9))
        assert [to_text(i.start) for i in a] == [to_text(i.start) for i in b]
        assert [i.goal.text() for i in a] == [i.goal.text() for i in b]
        assert [i.script for i in a] == [i.script for i in b]

    def test_seed_changes_draws(self):
        cfg = GenConfig(count=40)
        a = gen_instances(cfg, 9)
        c = gen_instances(cfg, 10)
        assert [to_text(i.start) for i in a] != [to_text(i.start) for i in c]

    def test_round_robin_variants(self):
        instances = list(gen_instances(GenConfig(count=25), 3))
        assert len(instances) == 25
        for i, instance in enumerate(instances):
            assert instance.variant == VARIANT_NAMES[i % len(VARIANT_NAMES)]
            assert instance.index == i

    def test_eleven_variants(self):
        assert len(VARIANT_NAMES) == 11

    def test_each_variant_has_its_own_script(self):
        scripts = {instance.variant: instance.script for instance in gen_instances(GenConfig(count=11), 0)}
        assert sorted(scripts) == sorted(VARIANT_NAMES)
        assert len(set(scripts.values())) == len(VARIANT_NAMES)


class TestSolveInstance:
    def test_all_scripts_reach_their_goals(self, base_rules):
        for instance in gen_instances(GenConfig(count=55), 21):
            trace = solve_instance(instance, base_rules)
            assert trace.reached
            assert len(trace) == len(instance.script)
            trace.replay(base_rules)

    def test_inapplicable_script_step(self, base_rules):
        bad = OdeInstance(
            0, "direct", parse('Equal(Sym("a"),Sym("b"))'), GoalSpec.exact(sym("z")), ("clear_divisor",)
        )
        with pytest.raises(UnsolvableInstance, match="does not apply"):
            solve_instance(bad, base_rules)

    def test_script_missing_goal(self, base_rules):
        bad = OdeInstance(
            0, "direct", parse('Equal(Sym("a"),Sym("b"))'), GoalSpec.exact(sym("z")), ("swap_sides",)
        )
        with pytest.raises(UnsolvableInstance, match="without reaching"):
            solve_instance(bad, base_rules)


def _fake_trace(before_text, rule_id, after_text):
    step = TraceStep(parse(before_text), rule_id, (), parse(after_text))
    return DerivationTrace(GoalSpec.exact(parse(after_text)), OUTCOME_REACHED, [step])


class TestIntegrityChecks:
    def test_conflicting_actions_rejected(self, table):
        # same tree shape (encoding ignores leaf names), different actions
        a = _fake_trace('Equal(Sym("a"),Sym("b"))', "swap_sides", 'Equal(Sym("b"),Sym("a"))')
        b = _fake_trace('Equal(Sym("p"),Sym("q"))', "move_first_term", 'Equal(Sym("q"),Sym("p"))')
        with pytest.raises(CorpusError, match="conflicting expert actions"):
            check_consistency([a, b], table)

    def test_agreeing_actions_accepted(self, table):
        a = _fake_trace('Equal(Sym("a"),Sym("b"))', "swap_sides", 'Equal(Sym("b"),Sym("a"))')
        b = _fake_trace('Equal(Sym("p"),Sym("q"))', "swap_sides", 'Equal(Sym("q"),Sym("p"))')
        check_consistency([a, b], table)

    def test_shared_tree_with_another_rule_rejected(self, table):
        # one before object in two traces, as in a corpus that shares its nodes
        before = parse('Equal(Sym("a"),Sym("b"))')
        after = parse('Equal(Sym("b"),Sym("a"))')
        a, b = (
            DerivationTrace(GoalSpec.exact(after), OUTCOME_REACHED, [TraceStep(before, rule_id, (), after)])
            for rule_id in ("swap_sides", "move_first_term")
        )
        with pytest.raises(CorpusError) as err:
            check_consistency([a, a, b], table)
        assert str(err.value) == (
            "conflicting expert actions (swap_sides vs move_first_term at trace 00002 step 0) for "
            f"encoded state {format_vector(encode(before, table))} ({to_text(before)})"
        )

    def test_each_distinct_tree_is_encoded_once(self, base_rules, table, monkeypatch):
        corpus = build_corpus(GenConfig(count=55), 7, base_rules)
        encoded = []
        monkeypatch.setattr(dataset, "encode", lambda f, t: encoded.append(f) or encode(f, t))
        check_consistency(corpus.traces, table)
        befores = [step.before for trace in corpus.traces for step in trace.steps]
        assert len(encoded) == len(set(befores)) < len(befores)

    def test_coverage_rejects_unused_rules(self, base_rules):
        a = _fake_trace('Equal(Sym("a"),Sym("b"))', "swap_sides", 'Equal(Sym("b"),Sym("a"))')
        with pytest.raises(CorpusError, match="never exercised"):
            check_coverage([a], base_rules)


class TestBuildCorpus:
    def test_small_corpus_is_clean(self, base_rules):
        cfg = GenConfig(count=33)
        corpus = build_corpus(cfg, 7, base_rules)
        assert len(corpus.instances) == 33
        assert corpus.rules_hash == base_rules.content_hash()
        used = {s.rule_id for t in corpus.traces for s in t.steps}
        assert used == set(base_rules.ids())
        for trace in corpus.traces:
            assert trace.reached
            trace.replay(base_rules)

    def test_split_sizes_and_determinism(self, base_rules):
        cfg = GenConfig(count=50, test_fraction=0.2)
        a = build_corpus(cfg, 7, base_rules)
        b = build_corpus(cfg, 7, base_rules)
        assert a.split == b.split
        assert a.split.count(TEST) == 10
        assert a.split.count(TRAIN) == 40
        assert set(a.indices(TRAIN)) | set(a.indices(TEST)) == set(range(50))
        assert not set(a.indices(TRAIN)) & set(a.indices(TEST))

    def test_samples_flatten_traces(self, base_rules, table):
        corpus = build_corpus(GenConfig(count=22), 7, base_rules)
        all_samples = corpus.samples(base_rules, table)
        assert len(all_samples) == corpus.n_samples()
        assert len(corpus.samples(base_rules, table, TRAIN)) + len(
            corpus.samples(base_rules, table, TEST)
        ) == len(all_samples)
        for state, action in all_samples:
            assert len(state) == table.l_max
            assert 0 <= action < len(base_rules)

    def test_samples_share_one_vector_per_state(self, base_rules, table):
        corpus = build_corpus(GenConfig(count=220), 7, base_rules)
        for which in (None, TRAIN):
            states = [sample.state for sample in corpus.samples(base_rules, table, which)]
            assert len({id(state) for state in states}) == len(set(states)) < len(states) / 10

    def test_build_holds_one_drawn_instance_at_a_time(self, base_rules):
        build_corpus(GenConfig(count=11), 0, base_rules)  # first-call caches
        tracemalloc.start()
        try:
            corpus = build_corpus(GenConfig(count=500), 0, base_rules)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus.instances) == 500
        # holding every drawn instance until the last is solved: peak - kept > 0.8 * kept
        assert peak - kept < kept / 2

    def test_each_distinct_pair_is_solved_once(self, base_rules, monkeypatch):
        # seed 0 at 2000 instances draws 1,569 distinct (start, script)
        # pairs; only their steps are run, and each trace still has its own
        # list of steps
        config = GenConfig(count=2000)
        pairs = {(drawn.start, drawn.script) for drawn in gen_instances(config, 0)}
        assert len(pairs) == 1569
        calls = []
        apply_first = dataset.apply_rule_first

        def counting(f, rule):
            calls.append(rule.id)
            return apply_first(f, rule)

        monkeypatch.setattr(dataset, "apply_rule_first", counting)
        corpus = build_corpus(config, 0, base_rules)
        assert len(calls) == sum(len(script) for _, script in pairs)
        assert len({id(trace.steps) for trace in corpus.traces}) == 2000

    def test_decay_equation_shape_is_generated(self, base_rules, table):
        corpus = build_corpus(GenConfig(count=33), 7, base_rules)
        target = encode(parse(DECAY_START), table)
        shapes = {
            encode(i.start, table)
            for i in corpus.instances
            if i.variant == "isolated_product"
        }
        assert target in shapes


def corpus_census(corpus):
    """(node objects, distinct trees, site objects, distinct sites) over the
    starts, the goals and every step's trees and site."""
    nodes, sites = {}, {}
    roots = [i.start for i in corpus.instances] + [i.goal.formula for i in corpus.instances]
    for trace in corpus.traces:
        roots.append(trace.goal.formula)
        for step in trace.steps:
            roots += [step.before, step.after]
            sites[id(step.site)] = step.site
    for root in roots:
        for _, node in walk(root):
            nodes[id(node)] = node
    return len(nodes), len(set(nodes.values())), len(sites), len(set(sites.values()))


class TestRecordLayout:
    def test_records_have_no_dict(self, base_rules):
        # slots keep the three records a corpus holds per instance small
        corpus = build_corpus(GenConfig(count=11), 0, base_rules)
        instance, trace = corpus.instances[0], corpus.traces[0]
        for record in (instance, instance.goal, trace):
            assert not hasattr(record, "__dict__")


class TestSharedNodes:
    """A built or loaded corpus holds one object per distinct subtree and
    per distinct site, and its rule ids are the rule set's own strings."""

    def test_built_and_loaded(self, base_rules, tmp_path):
        built = build_corpus(GenConfig(count=220), 7, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(built, out)
        loaded = load_corpus(out, base_rules)
        for corpus in (built, loaded):
            n_nodes, n_trees, n_sites, n_distinct_sites = corpus_census(corpus)
            assert n_nodes == n_trees and n_sites == n_distinct_sites
            for inst, trace in zip(corpus.instances, corpus.traces):
                assert inst.start is trace.steps[0].before
                assert inst.goal.formula is trace.goal.formula is trace.steps[-1].after
                for step in trace.steps:
                    assert step.rule_id is base_rules.by_id(step.rule_id).id
        assert corpus_census(loaded) == corpus_census(built)
        assert n_trees > 1000


class TestCorpusFiles:
    def test_roundtrip(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=22), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        back = load_corpus(out)
        assert [to_text(i.start) for i in back.instances] == [to_text(i.start) for i in corpus.instances]
        assert [i.script for i in back.instances] == [i.script for i in corpus.instances]
        assert [t.goal for t in back.traces] == [t.goal for t in corpus.traces]
        assert back.split == corpus.split
        assert back.seed == corpus.seed
        assert back.config == corpus.config
        assert back.rules_hash == corpus.rules_hash
        for trace in back.traces:
            trace.replay(base_rules)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_roundtrip_restores_variants(self, base_rules, tmp_path, seed):
        corpus = build_corpus(GenConfig(count=44), seed, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        back = load_corpus(out, base_rules)
        assert [i.variant for i in back.instances] == [i.variant for i in corpus.instances]
        assert set(i.variant for i in back.instances) == set(VARIANT_NAMES)

    def test_script_of_no_variant_loads_without_one(self, base_rules, tmp_path):
        # a rule file with a copy of swap_sides, which the flipped instance
        # takes instead: its script is no variant's, and no encoded state
        # of the corpus gets two actions
        swap = base_rules.by_id("swap_sides")
        rules = base_rules.with_rule(Rule("swap_sides_copy", swap.lhs, swap.rhs, swap.vars))
        corpus = build_corpus(GenConfig(count=11), 0, base_rules)
        corpus.rules_hash = rules.content_hash()
        flipped = corpus.instances[8]
        assert flipped.variant == "flipped"
        other = dataclasses.replace(flipped, script=("swap_sides_copy",) + flipped.script[1:])
        corpus.traces[8] = solve_instance(other, rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        back = load_corpus(out, rules)
        assert back.instances[8].variant == ""
        assert back.instances[8].script == other.script
        others = back.instances[:8] + back.instances[9:]
        assert [i.variant for i in others] == list(VARIANT_NAMES[:8] + VARIANT_NAMES[9:])

    def test_double_save_is_byte_identical(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=22), 5, base_rules)
        first = str(tmp_path / "one")
        second = str(tmp_path / "two")
        save_corpus(corpus, first)
        save_corpus(load_corpus(first), second)
        names = ["instances.txt", "split.txt", "seed.txt"] + [
            os.path.join("traces", f) for f in sorted(os.listdir(os.path.join(first, "traces")))
        ]
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert mismatch == [] and errors == []
        assert len(match) == len(names)

    def test_missing_seed_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="seed.txt"):
            load_corpus(str(tmp_path))

    def test_bad_split_line(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        split_path = os.path.join(out, "split.txt")
        with open(split_path, "a", encoding="utf-8") as fh:
            fh.write("00003\tvalidation\n")
        with pytest.raises(FileFormatError, match="split"):
            load_corpus(out)

    def test_non_integer_split_index(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        split_path = os.path.join(out, "split.txt")
        with open(split_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(split_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("00003\t", "0000x\t", 1))
        with pytest.raises(FileFormatError, match="split.txt.*0000x"):
            load_corpus(out)

    def test_incomplete_split(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        split_path = os.path.join(out, "split.txt")
        with open(split_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(split_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(FileFormatError, match="split.txt does not cover every instance: no line for index 10"):
            load_corpus(out)

    def test_more_instances_than_count(self, base_rules, tmp_path):
        out = str(tmp_path / "corpus")
        save_corpus(build_corpus(GenConfig(count=11), 5, base_rules), out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("count=11\n", "count=5\n"))
        error = "instances.txt holds 11 instances; a corpus of count=5 holds 1 to 5"
        with pytest.raises(FileFormatError, match=error):
            load_corpus(out)

    def test_no_instances(self, base_rules, tmp_path):
        out = str(tmp_path / "corpus")
        save_corpus(build_corpus(GenConfig(count=11), 5, base_rules), out)
        for name in ("instances.txt", "split.txt"):
            open(os.path.join(out, name), "w").close()
        shutil.rmtree(os.path.join(out, "traces"))
        os.mkdir(os.path.join(out, "traces"))
        with pytest.raises(FileFormatError, match="instances.txt holds 0 instances; a corpus of count=11 holds 1 to 11"):
            load_corpus(out)

    def test_repeated_seed_key(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        with open(os.path.join(out, "seed.txt"), "a", encoding="utf-8") as fh:
            fh.write("seed=6\n")
        with pytest.raises(FileFormatError, match="seed.txt line 9: 'seed=6' comes after the header"):
            load_corpus(out)

    def test_unknown_seed_key(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        with open(os.path.join(out, "seed.txt"), "a", encoding="utf-8") as fh:
            fh.write("bogus=1\n")
        with pytest.raises(FileFormatError, match="seed.txt line 9: 'bogus=1' comes after the header"):
            load_corpus(out)

    def test_missing_seed_key(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("l_max=64\n", ""))
        with pytest.raises(FileFormatError, match="seed.txt line 6: expected the l_max line, got 'test_fraction=0.2'"):
            load_corpus(out)

    def test_non_integer_seed_value(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("count=11\n", "count=x\n"))
        with pytest.raises(FileFormatError, match="seed.txt line 2: count value 'x' is not a valid int"):
            load_corpus(out)

    def test_seed_values_the_config_refuses(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("count=11\n", "count=0\n"))
        with pytest.raises(FileFormatError, match="seed.txt: count must be positive, got 0$"):
            load_corpus(out)

    def test_seed_l_max_too_short_for_a_trace(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("l_max=64\n", "l_max=10\n"))
        error = f"{seed_path}: l_max=10 is too short for trace 00000 step 0: encoding needs "
        with pytest.raises(EncodingOverflow, match=re.escape(error)):
            load_corpus(out)

    @pytest.mark.parametrize(
        "line, error",
        [
            ("count=+11", "count value '\\+11' is not a valid int"),
            ("count=011", "count value '011' is not a valid int"),
            ("count= 11", "count value ' 11' is not a valid int"),
            ("test_fraction=nan", "test_fraction value 'nan' is not a valid float"),
        ],
    )
    def test_seed_value_the_writer_never_writes(self, base_rules, tmp_path, line, error):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        key = line.partition("=")[0]
        lineno = next(i for i, text in enumerate(lines, start=1) if text.startswith(key + "="))
        lines[lineno - 1] = line
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"seed.txt line {lineno}: {error}"):
            load_corpus(out)

    def test_instance_error_names_file_and_line(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        instances_path = os.path.join(out, "instances.txt")
        with open(instances_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[4] = "Bogus(" + lines[4]
        with open(instances_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(f"{instances_path} line 5: unknown node tag 'Bogus'")):
            load_corpus(out)

    def test_instance_not_in_canonical_text(self, base_rules, tmp_path):
        # the start text and its trace's step 0 agree, but neither is canonical
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        start_text = to_text(corpus.instances[2].start)
        spaced = start_text.replace(",", ", ", 1)
        for name in ("instances.txt", os.path.join("traces", "00002.trace")):
            path = os.path.join(out, name)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(start_text, spaced, 1))
        with pytest.raises(FileFormatError, match=re.escape(f"instances.txt line 3: tree {spaced!r} is not written as")):
            load_corpus(out)

    def test_blank_lines_are_refused(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        for name in ("instances.txt", "split.txt"):
            path = os.path.join(out, name)
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            lines = text.splitlines()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines[:3]) + "\n\n" + "\n".join(lines[3:]) + "\n")
            with pytest.raises(FileFormatError, match=re.escape(f"{path} line 4: blank line")):
                load_corpus(out)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        assert load_corpus(out).split == corpus.split

    @pytest.mark.parametrize(
        "edit, error",
        [
            (
                lambda lines: lines[:3] + ["00003\tvalidation"] + lines[3:],
                " line 4: expected 00003, a tab and train or test, got '00003\\tvalidation'",
            ),
            (
                lambda lines: lines[:5] + ["0000x\ttrain"] + lines[5:],
                " line 6: expected 00005, a tab and train or test, got '0000x\\ttrain'",
            ),
            (lambda lines: lines + ["00011\ttest"], " line 12: '00011\\ttest' comes after the last instance, 00010"),
            (
                lambda lines: lines[:3] + ["+" + lines[3][1:]] + lines[4:],
                " line 4: expected 00003, a tab and train or test, got '+0003\\ttest'",
            ),
            (lambda lines: lines + ["00003\ttrain"], " line 12: '00003\\ttrain' comes after the last instance, 00010"),
            (
                lambda lines: lines[:4] + lines[5:],
                " line 5: expected 00004, a tab and train or test, got '00005\\ttrain'",
            ),
        ],
        ids=["bad_line", "bad_index", "out_of_range", "signed_index", "repeated", "uncovered"],
    )
    def test_split_errors_name_file_and_line(self, base_rules, tmp_path, edit, error):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        split_path = os.path.join(out, "split.txt")
        with open(split_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(split_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(edit(lines)) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(split_path + error)):
            load_corpus(out)

    def test_seed_file_text(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        with open(os.path.join(out, "seed.txt"), "r", encoding="utf-8") as fh:
            assert fh.read() == (
                "seed=5\ncount=11\nmax_degree=4\ncoeff_low=1\ncoeff_high=5\nl_max=64\ntest_fraction=0.2\n"
                f"rules_sha256={base_rules.content_hash()}\n"
            )

    def test_repeated_split_index(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        with open(os.path.join(out, "split.txt"), "a", encoding="utf-8") as fh:
            fh.write("00003\ttrain\n")
        error = "split.txt line 12: '00003\\ttrain' comes after the last instance, 00010"
        with pytest.raises(FileFormatError, match=re.escape(error)):
            load_corpus(out)


def edit_trace_step(trace_path, step_no, field_no, value):
    """Overwrite one tab-separated field of one step line of a trace file."""
    with open(trace_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[1 + step_no].split("\t")
    fields[field_no] = value
    lines[1 + step_no] = "\t".join(fields)
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cut_to_dead_end(trace_path):
    """Keep only the first step of a trace file and mark it dead_end."""
    with open(trace_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    goal_text, _ = lines[0].split("\t")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(f"{goal_text}\tdead_end\n{lines[1]}\n")


def detour_first_plus_full(corpus_dir, rules):
    """Put two swap_sides steps in front of the trace of the corpus's first
    plus_full instance. The trace is reached and replays, but its start takes
    swap_sides and, two steps on, move_first_term. Returns its index."""
    corpus = load_corpus(corpus_dir, rules)
    i = next(i for i, instance in enumerate(corpus.instances) if instance.variant == "plus_full")
    instance = corpus.instances[i]
    detour = dataclasses.replace(instance, script=("swap_sides", "swap_sides") + instance.script)
    with open(os.path.join(corpus_dir, "traces", f"{i:05d}.trace"), "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(solve_instance(detour, rules)))
    return i


class TestCorpusReplay:
    @pytest.fixture
    def saved(self, base_rules, tmp_path):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        out = str(tmp_path / "corpus")
        save_corpus(corpus, out)
        return corpus, out

    @staticmethod
    def _trace_path(out, i):
        return os.path.join(out, "traces", f"{i:05d}.trace")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_roundtrip_is_exact(self, base_rules, tmp_path, seed):
        corpus = build_corpus(GenConfig(count=44), seed, base_rules)
        first = str(tmp_path / "one")
        save_corpus(corpus, first)
        back = load_corpus(first, base_rules)
        assert [i.start for i in back.instances] == [i.start for i in corpus.instances]
        assert [t.steps for t in back.traces] == [t.steps for t in corpus.traces]
        assert [t.goal for t in back.traces] == [t.goal for t in corpus.traces]
        assert [t.outcome for t in back.traces] == [t.outcome for t in corpus.traces]
        for i, trace in enumerate(back.traces):
            with open(self._trace_path(first, i), "r", encoding="utf-8") as fh:
                assert serialize_trace(trace) == fh.read()
        second = str(tmp_path / "two")
        save_corpus(back, second)
        names = ["instances.txt", "split.txt", "seed.txt"] + [
            os.path.join("traces", f) for f in sorted(os.listdir(os.path.join(first, "traces")))
        ]
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_replayed_steps_share_trees(self, saved, base_rules):
        _, out = saved
        for trace in load_corpus(out, base_rules).traces:
            for prev, step in zip(trace.steps, trace.steps[1:]):
                assert step.before is prev.after

    def test_different_rule_set_rejected(self, saved, mech_rules):
        _, out = saved
        with pytest.raises(CorpusError, match="different rule set"):
            load_corpus(out, mech_rules)

    def test_edited_rule_id(self, saved, base_rules):
        corpus, out = saved
        recorded = corpus.traces[3].steps[0].rule_id
        other = next(rid for rid in base_rules.ids() if rid != recorded)
        edit_trace_step(self._trace_path(out, 3), 0, 1, other)
        with pytest.raises(ValidationFailed, match="00003.trace: step 0"):
            load_corpus(out)

    def test_unknown_rule_id(self, saved):
        _, out = saved
        edit_trace_step(self._trace_path(out, 3), 1, 1, "no_such_rule")
        with pytest.raises(ValidationFailed, match="00003.trace: step 1 names unknown rule"):
            load_corpus(out)

    def test_edited_after_tree(self, saved):
        corpus, out = saved
        edit_trace_step(self._trace_path(out, 2), 0, 3, to_text(corpus.instances[2].start))
        with pytest.raises(ValidationFailed, match="00002.trace: step 0 .*replays to"):
            load_corpus(out)

    def test_trace_copied_over_another(self, saved):
        _, out = saved
        shutil.copyfile(self._trace_path(out, 1), self._trace_path(out, 2))
        with pytest.raises(ValidationFailed, match="00002.trace: step 0 does not start from the instance start"):
            load_corpus(out)

    def test_goal_not_reached(self, saved):
        _, out = saved
        path = self._trace_path(out, 4)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[0] = 'exact:Sym("z")\treached'
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValidationFailed, match="00004.trace: .*misses the goal"):
            load_corpus(out)

    def test_trace_that_is_not_reached(self, saved):
        _, out = saved
        cut_to_dead_end(self._trace_path(out, 4))
        with pytest.raises(CorpusError, match="00004.trace: trace ends dead_end"):
            load_corpus(out)

    def test_replayable_detour_with_conflicting_actions(self, saved, base_rules):
        _, out = saved
        i = detour_first_plus_full(out, base_rules)
        want = f"conflicting expert actions \\(swap_sides vs move_first_term at trace {i:05d} step 2\\)"
        with pytest.raises(CorpusError, match=want):
            load_corpus(out)

    def test_part_of_a_corpus_loads_without_covering_the_rules(self, saved, base_rules):
        corpus, out = saved
        for name in ("instances.txt", "split.txt"):
            path = os.path.join(out, name)
            with open(path, "r", encoding="utf-8") as fh:
                first = fh.readline()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(first)
        for i in range(1, len(corpus.instances)):
            os.remove(self._trace_path(out, i))
        back = load_corpus(out, base_rules)
        assert [t.steps for t in back.traces] == [corpus.traces[0].steps]
        with pytest.raises(CorpusError, match="never exercised"):
            check_coverage(back.traces, base_rules)

    def test_extra_trace_file(self, saved):
        _, out = saved
        shutil.copyfile(self._trace_path(out, 0), self._trace_path(out, 11))
        with pytest.raises(FileFormatError, match="00011.trace has no instance"):
            load_corpus(out)

    def test_missing_trace_file(self, saved):
        _, out = saved
        os.remove(self._trace_path(out, 5))
        with pytest.raises(FileFormatError, match="00005.trace is missing"):
            load_corpus(out)

    def test_malformed_trace_file_is_named(self, saved):
        _, out = saved
        with open(self._trace_path(out, 6), "a", encoding="utf-8") as fh:
            fh.write("not\ta step line\n")
        with pytest.raises(FileFormatError, match="00006.trace: bad trace step line"):
            load_corpus(out)


class TestCollectorPause:
    """build_corpus and load_corpus pause the cyclic garbage collector while
    they run and leave it as the caller had it."""

    @pytest.fixture
    def collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @staticmethod
    def _tampered_corpus(base_rules, out):
        corpus = build_corpus(GenConfig(count=11), 5, base_rules)
        save_corpus(corpus, out)
        path = os.path.join(out, "traces", "00002.trace")
        edit_trace_step(path, 0, 3, to_text(corpus.instances[2].start))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored(self, collector, base_rules, mech_rules, tmp_path, enabled):
        good, bad = str(tmp_path / "good"), str(tmp_path / "bad")
        self._tampered_corpus(base_rules, bad)
        (gc.enable if enabled else gc.disable)()
        save_corpus(build_corpus(GenConfig(count=22), 0, base_rules), good)
        assert gc.isenabled() is enabled
        load_corpus(good, base_rules)
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationFailed):
            load_corpus(bad, base_rules)
        assert gc.isenabled() is enabled
        with pytest.raises(Error):
            build_corpus(GenConfig(count=22), 0, mech_rules)
        assert gc.isenabled() is enabled

    def test_no_collection_starts_inside(self, collector, base_rules, tmp_path):
        out = str(tmp_path / "corpus")
        watched = {inspect.unwrap(build_corpus).__code__, inspect.unwrap(load_corpus).__code__}
        # for each collection that starts: the watched functions on the stack
        starts = []

        def probe(phase, info):
            if phase == "start":
                frames = []
                frame = sys._getframe(1)
                while frame is not None:
                    if frame.f_code in watched:
                        frames.append(frame.f_code.co_name)
                    frame = frame.f_back
                starts.append(frames)

        gc.enable()
        gc.callbacks.append(probe)
        try:
            corpus = build_corpus(GenConfig(count=200), 0, base_rules)
            save_corpus(corpus, out)
            loaded = load_corpus(out, base_rules)
            gc.collect()
        finally:
            gc.callbacks.remove(probe)
        assert len(loaded.instances) == 200
        assert starts and all(frames == [] for frames in starts)
