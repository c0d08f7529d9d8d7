import argparse
import filecmp
import hashlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

from symderive.cli import build_parser, main
from symderive.dataset import GenConfig, gen_instances, load_corpus
from symderive.derivation import DerivationEnv, GoalSpec, load_trace, rollout
from symderive.encoding import DEFAULT_CODES, default_table, encode
from symderive.errors import ValidationFailed
from symderive.expr import parse, to_text
from symderive.rewrite import save_rules
from symderive.rl import PolicyModel, QTable, load_policy, load_qtable, save_policy, save_qtable
from symderive.rewrite import apply_rule_first, packaged_rules

from oracles import rounded_checkpoint_digest
from test_dataset import cut_to_dead_end, detour_first_plus_full, edit_trace_step
from test_derivation import (
    DECAY_MILESTONE,
    DECAY_ROUTE,
    DECAY_START,
    MECH_FINAL,
    MECH_START,
)
from test_encoding import WORKED_A, WORKED_B, WORKED_DISTANCE


# `train --corpus <corpus_dir> --epochs 50 --hidden 16 --seed 2`: the loss
# printed at each epoch
PINNED_POLICY_LOSSES = [
    "2.712348", "2.616216", "2.530582", "2.449698", "2.371494", "2.295404", "2.221504", "2.149868",
    "2.080504", "2.013462", "1.948828", "1.886690", "1.827101", "1.770066", "1.715567", "1.663582",
    "1.614081", "1.567022", "1.522347", "1.479974", "1.439805", "1.401728", "1.365624", "1.331376",
    "1.298866", "1.267988", "1.238643", "1.210747", "1.184225", "1.159010", "1.135032", "1.112218",
    "1.090498", "1.069801", "1.050059", "1.031209", "1.013190", "0.995946", "0.979424", "0.963575",
    "0.948352", "0.933712", "0.919613", "0.906017", "0.892889", "0.880199", "0.867920", "0.856030",
    "0.844512", "0.833352",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "corpus")
    code = main(["gen", "--out", out, "--count", "44", "--seed", "5"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def narrow_corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli") / "narrow")
    assert main(["gen", "--out", out, "--count", "44", "--seed", "5", "--l-max", "32"]) == 0
    return out


@pytest.fixture(scope="module")
def policy_path(tmp_path_factory, corpus_dir):
    out = str(tmp_path_factory.mktemp("cli") / "policy.ckpt")
    code = main(
        ["train", "--corpus", corpus_dir, "--out", out, "--epochs", "1500", "--hidden", "32", "--seed", "1"]
    )
    assert code == 0
    return out


class TestParse:
    def test_prints_canonical_text(self, capsys):
        assert main(["parse", "--formula", ' Plus( Sym("a") , Num(2) ) ']) == 0
        out = capsys.readouterr()
        assert out.out.strip() == 'Plus(Sym("a"),Num(2))'
        assert out.err.startswith("config: command=parse")

    def test_reads_formula_from_file(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(MECH_START + "\n")
        assert main(["parse", "--formula", str(path)]) == 0
        assert capsys.readouterr().out.strip() == MECH_START

    def test_bad_text_is_domain_error(self, capsys):
        assert main(["parse", "--formula", "Plus(Sym("]) == 2
        assert "error" in capsys.readouterr().err

    def test_deep_nesting_is_domain_error(self, capsys):
        chain = "Sqrt(" * 1200 + 'Sym("x")' + ")" * 1200
        assert main(["parse", "--formula", chain]) == 2
        assert "nested deeper than" in capsys.readouterr().err

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["parse"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1


class TestEncodeDist:
    def test_encode_output(self, capsys, table):
        assert main(["encode", "--formula", WORKED_A]) == 0
        values = [int(v) for v in capsys.readouterr().out.split()]
        assert tuple(values) == encode(parse(WORKED_A), table)

    def test_encode_l_max(self, capsys):
        assert main(["encode", "--formula", 'Plus(Sym("a"),Sym("b"))', "--l-max", "8"]) == 0
        assert len(capsys.readouterr().out.split()) == 8

    def test_encode_overflow_is_domain_error(self, capsys):
        assert main(["encode", "--formula", WORKED_A, "--l-max", "4"]) == 2

    def test_dist_worked_pair(self, capsys):
        assert main(["dist", "--a", WORKED_A, "--b", WORKED_B]) == 0
        assert capsys.readouterr().out.strip() == str(WORKED_DISTANCE)

    @pytest.mark.parametrize("command", [["encode", "--formula", WORKED_A], ["dist", "--a", WORKED_A, "--b", WORKED_B]])
    def test_zero_l_max_is_usage_error(self, capsys, command):
        assert main(command + ["--l-max", "0"]) == 1
        assert "--l-max: must be positive, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["encode", "--formula", WORKED_A],
            ["dist", "--a", WORKED_A, "--b", WORKED_B],
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, "--oracle"],
        ],
    )
    def test_table_option_is_usage_error(self, capsys, tmp_path, command):
        # The codes are fixed: naming a code file must fail, not run with
        # the built-in codes.
        path = tmp_path / "codes.table"
        swapped = dict(DEFAULT_CODES, Plus=DEFAULT_CODES["Divide"], Divide=DEFAULT_CODES["Plus"])
        path.write_text("".join(f"{tag}={code}\n" for tag, code in swapped.items()) + "L_max=64\n")
        assert main(command + ["--table", str(path)]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--table" in captured.err
        assert captured.out == ""


class TestMatch:
    TARGET = (
        'Equal(Times(Exp(Sym("x")),Sin(Sym("x"))),Times(FuncApply("m",Sym("x")),Sym("t")))'
    )

    def test_all_matches_listed(self, capsys):
        code = main(
            ["match", "--formula", self.TARGET, "--template", 'Times(Sym("a"),Sym("b"))', "--vars", "a,b", "--all"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            'site=0 a=Exp(Sym("x")) b=Sin(Sym("x"))',
            'site=1 a=FuncApply("m",Sym("x")) b=Sym("t")',
        ]

    def test_first_match_only(self, capsys):
        code = main(
            ["match", "--formula", self.TARGET, "--template", 'Times(Sym("a"),Sym("b"))', "--vars", "a,b"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("site=0 ")

    def test_no_match_prints_nothing(self, capsys):
        assert main(["match", "--formula", 'Sym("x")', "--template", 'Plus(Sym("a"),Sym("b"))', "--vars", "a,b"]) == 0
        assert capsys.readouterr().out == ""

    def test_vars_must_be_symbol_names(self, capsys):
        code = main(["match", "--formula", 'Sym("x")', "--template", 'Sym("a")', "--vars", "a,q]:z"])
        assert code == 1
        assert "usage error: --vars: pattern variable 'q]:z' is not a symbol name" in capsys.readouterr().err

    def test_literal_template_match_at_root(self, capsys):
        assert main(["match", "--formula", 'Sym("x")', "--template", 'Sym("x")']) == 0
        assert capsys.readouterr().out.strip() == "site=root"


class TestApply:
    def test_first_site(self, capsys):
        assert main(["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))']) == 0
        assert capsys.readouterr().out.strip() == 'Equal(Sym("b"),Sym("a"))'

    def test_explicit_site(self, capsys):
        formula = 'Ln(Equal(Sym("a"),Sym("b")))'
        assert main(["apply", "--rule", "swap_sides", "--formula", formula, "--site", "0"]) == 0
        assert capsys.readouterr().out.strip() == 'Ln(Equal(Sym("b"),Sym("a")))'

    def test_root_site_keyword(self, capsys):
        assert main(
            ["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))', "--site", "root"]
        ) == 0
        assert capsys.readouterr().out.strip() == 'Equal(Sym("b"),Sym("a"))'

    def test_inapplicable_is_domain_error(self, capsys):
        assert main(["apply", "--rule", "clear_divisor", "--formula", 'Sym("x")']) == 2
        assert "does not match" in capsys.readouterr().err

    def test_unknown_rule_is_domain_error(self, capsys):
        assert main(["apply", "--rule", "no_such", "--formula", 'Sym("x")']) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: no rule with id 'no_such'"

    def test_bad_site_is_usage_error(self, capsys):
        code = main(["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))', "--site", "x.y"])
        assert code == 1

    @pytest.mark.parametrize("site", ["01", "+1", "-1", " 1", "0.01"])
    def test_site_not_as_written_is_usage_error(self, capsys, site):
        formula = 'Ln(Equal(Sym("a"),Sym("b")))'
        assert main(["apply", "--rule", "swap_sides", "--formula", formula, "--site", site]) == 1
        assert f"argument --site: must be a dotted child path, got {site!r}" in capsys.readouterr().err

    def test_rule_file_script_site_outside_tree(self, capsys, tmp_path):
        path = tmp_path / "deep.rules"
        path.write_text(
            'swap_sides | Equal(Sym("a"),Sym("b")) | Equal(Sym("b"),Sym("a")) | a,b | axiom\n'
            'deep | Equal(Sym("a"),Sym("b")) | Equal(Sym("b"),Sym("a")) | a,b | script: swap_sides@5.5\n'
        )
        code = main(
            ["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))', "--rule-file", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "deep" in err and "step 0" in err

    def test_rule_file_variables_must_be_symbol_names(self, capsys, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text('swap | Equal(Sym("a"),Sym("b")) | Equal(Sym("b"),Sym("a")) | a,b,1x | axiom\n')
        code = main(["apply", "--rule", "swap", "--formula", 'Equal(Sym("a"),Sym("b"))', "--rule-file", str(path)])
        assert code == 2
        assert "rule file line 1: pattern variable '1x' is not a symbol name" in capsys.readouterr().err

    def test_custom_rule_file(self, capsys, tmp_path):
        path = tmp_path / "mech.rules"
        save_rules(packaged_rules("mechanics"), str(path))
        code = main(
            ["apply", "--rule", "root_both_sides", "--formula", 'Equal(Power(Sym("v"),Num(2)),Sym("b"))',
             "--rule-file", str(path)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == 'Equal(Sym("v"),Sqrt(Sym("b")))'


class TestDeriveOracle:
    def test_mechanics_chain(self, capsys, tmp_path):
        trace_out = str(tmp_path / "mech.trace")
        code = main(
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, "--oracle",
             "--rule-file", _mech_rule_file(tmp_path), "--trace-out", trace_out]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == MECH_START
        assert lines[-1] == "outcome: reached in 3 steps"
        assert lines[1].startswith("move_first_term @ root -> ")
        saved = load_trace(trace_out, packaged_rules("mechanics"))
        assert saved.reached and len(saved) == 3

    @pytest.mark.parametrize(
        "step_no, field_no, value, error",
        [
            (0, 1, "isolate_product_factor", "step 0 cannot be replayed"),
            (1, 3, MECH_START, r"step 1 \(isolate_product_factor\) replays to"),
            (1, 0, MECH_FINAL, "step 1 does not start from where step 0 ended"),
        ],
        ids=["wrong_rule", "edited_after", "broken_chain"],
    )
    def test_edited_trace_out_is_refused(self, capsys, tmp_path, step_no, field_no, value, error):
        trace_out = str(tmp_path / "mech.trace")
        code = main(
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, "--oracle",
             "--rule-file", _mech_rule_file(tmp_path), "--trace-out", trace_out]
        )
        assert code == 0
        edit_trace_step(trace_out, step_no, field_no, value)
        with pytest.raises(ValidationFailed, match=re.escape(trace_out) + ": " + error):
            load_trace(trace_out, packaged_rules("mechanics"))

    def test_goal_vars_must_be_symbol_names(self, capsys, tmp_path):
        trace_out = str(tmp_path / "t.trace")
        code = main(
            ["derive", "--start", 'Plus(Sym("x"),Sym("y"))', "--goal-pattern", 'Plus(Sym("a"),Sym("y"))',
             "--goal-vars", "a,q]:z", "--oracle", "--trace-out", trace_out]
        )
        assert code == 1
        assert "usage error: --goal-vars: pattern variable 'q]:z' is not a symbol name" in capsys.readouterr().err
        assert not os.path.exists(trace_out)

    def test_stepless_trace_out_is_refused(self, capsys, tmp_path):
        # the start already meets the goal: a trace file would record no start
        trace_out = str(tmp_path / "t.trace")
        code = main(
            ["derive", "--start", 'Plus(Sym("x"),Sym("y"))', "--goal-pattern", 'Plus(Sym("a"),Sym("y"))',
             "--goal-vars", "a", "--oracle", "--trace-out", trace_out]
        )
        assert code == 2
        assert "records no start" in capsys.readouterr().err
        assert not os.path.exists(trace_out)

    def test_goal_pattern_wildcard(self, capsys, tmp_path):
        # its trace file loads back, like the exact goal's in test_mechanics_chain
        trace_out = str(tmp_path / "mech.trace")
        code = main(
            ["derive", "--start", MECH_START, "--goal-pattern", 'Equal(Sym("v"),?)', "--oracle",
             "--rule-file", _mech_rule_file(tmp_path), "--trace-out", trace_out]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "outcome: reached in 3 steps"
        saved = load_trace(trace_out, packaged_rules("mechanics"))
        assert saved.goal.text() == 'pattern[_w0]:Equal(Sym("v"),Sym("_w0"))'

    def test_goal_pattern_wildcard_skips_written_symbols(self, capsys):
        # the start's _w0 is a symbol, not the wildcard's variable
        code = main(
            ["derive", "--start", 'Equal(Sym("y"),Sym("_w0"))', "--goal-pattern", 'Equal(Sym("_w0"),?)', "--oracle"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ['swap_sides @ root -> Equal(Sym("_w0"),Sym("y"))', "outcome: reached in 1 steps"]

    def test_goal_vars_trace_loads_back(self, capsys, tmp_path):
        trace_out = str(tmp_path / "mech.trace")
        code = main(
            ["derive", "--start", MECH_START, "--goal-pattern", 'Equal(Sym("v"),Sqrt(Sym("r")))', "--goal-vars", "r",
             "--oracle", "--rule-file", _mech_rule_file(tmp_path), "--trace-out", trace_out]
        )
        assert code == 0
        saved = load_trace(trace_out, packaged_rules("mechanics"))
        assert saved.reached and len(saved) == 3 and saved.goal.vars == {"r"}

    def test_default_depth_cap_covers_nine_step_scripts(self, capsys):
        instance = next(gen_instances(GenConfig(count=1), 0))
        assert instance.variant == "plus_full" and len(instance.script) == 9
        code = main(
            ["derive", "--start", to_text(instance.start), "--goal-exact", to_text(instance.goal.formula),
             "--oracle"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "outcome: reached in 9 steps"

    def test_goal_pattern_needs_vars(self, capsys):
        code = main(["derive", "--start", MECH_START, "--goal-pattern", 'Equal(Sym("v"),Sym("w"))', "--oracle"])
        assert code == 1

    def test_unreachable_goal_exits_2(self, capsys):
        code = main(
            ["derive", "--start", 'Equal(Sym("a"),Sym("b"))', "--goal-exact", 'Sym("z")', "--oracle",
             "--depth-cap", "3"]
        )
        assert code == 2

    @pytest.mark.parametrize("option, value", [("--depth-cap", "-1"), ("--epsilon", "2"), ("--epsilon", "-1")])
    def test_out_of_range_option_is_usage_error(self, capsys, tmp_path, option, value):
        trace_out = str(tmp_path / "t.trace")
        code = main(
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, "--oracle", "--trace-out", trace_out,
             option, value]
        )
        assert code == 1
        assert option in capsys.readouterr().err
        assert not os.path.exists(trace_out)

    def test_exactly_one_driver(self, capsys, policy_path):
        base = ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL]
        assert main(base) == 1
        assert main(base + ["--oracle", "--policy", policy_path]) == 1

    def test_exactly_one_goal(self, capsys):
        assert main(["derive", "--start", MECH_START, "--oracle"]) == 1
        assert (
            main(
                ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL,
                 "--goal-pattern", "?", "--oracle"]
            )
            == 1
        )

    @pytest.mark.parametrize("driver", ["--policy", "--qtable"])
    def test_first_site_needs_oracle(self, capsys, tmp_path, driver):
        # the learner file does not exist: the option is refused before it is read
        code = main(
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, driver, str(tmp_path / "none"),
             "--first-site"]
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: --first-site restricts the search of --oracle and needs it\n"

    def test_sample_mode_needs_policy(self, capsys, tmp_path):
        qt_path = str(tmp_path / "t.qtable")
        save_qtable(QTable(16), qt_path)
        code = main(
            ["derive", "--start", MECH_START, "--goal-exact", MECH_FINAL, "--qtable", qt_path,
             "--mode", "sample"]
        )
        assert code == 1


def _mech_rule_file(tmp_path) -> str:
    path = tmp_path / "mech.rules"
    if not path.exists():
        save_rules(packaged_rules("mechanics"), str(path))
    return str(path)


class TestDeriveLearners:
    def test_qtable_drives_decay_route(self, capsys, tmp_path, base_rules, table):
        qt = QTable(len(base_rules))
        current = parse(DECAY_START)
        for rule_id, _ in DECAY_ROUTE:
            action = base_rules.index_of(rule_id)
            row = np.zeros(len(base_rules))
            row[action] = 1.0
            qt.entries[encode(current, table)] = row
            current, _ = apply_rule_first(current, base_rules[action])
        qt_path = str(tmp_path / "decay.qtable")
        save_qtable(qt, qt_path)
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--qtable", qt_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "outcome: reached in 4 steps"
        assert [line.split(" @ ")[0] for line in lines[1:-1]] == [rid for rid, _ in DECAY_ROUTE]

    def test_policy_drives_decay_route(self, capsys, policy_path):
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", policy_path])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "outcome: reached in 4 steps"

    def test_trained_qtable_drives_decay_route(self, capsys, tmp_path, corpus_dir):
        # the paper's worked example, by a Q-table learned from the expert traces
        qt_path = str(tmp_path / "q.qtable")
        assert main(["train", "--corpus", corpus_dir, "--out", qt_path, "--learner", "q"]) == 0
        assert capsys.readouterr().out == "episodes=0 states=42\n"
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--qtable", qt_path])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "outcome: reached in 4 steps"
        assert [line.split(" @ ")[0] for line in lines[1:-1]] == [rid for rid, _ in DECAY_ROUTE]

    def test_checkpoint_rule_hash_checked(self, capsys, tmp_path, policy_path):
        code = main(
            ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", policy_path,
             "--rule-file", _mech_rule_file(tmp_path)]
        )
        assert code == 2
        assert "different rule set" in capsys.readouterr().err

    def test_checkpoint_without_rule_hash_refused(self, capsys, tmp_path, policy_path):
        ckpt = tmp_path / "unhashed.ckpt"
        with open(policy_path, "r", encoding="utf-8") as fh:
            ckpt.write_text(re.sub(r"rules_sha256=\w+\n", "", fh.read()))
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", str(ckpt)])
        assert code == 2
        assert "line 7: expected the rules_sha256 line, got 'weights'" in capsys.readouterr().err

    def test_checkpoint_l_max_checked(self, capsys, tmp_path, corpus_dir, base_rules):
        ckpt = str(tmp_path / "narrow.ckpt")
        save_policy(PolicyModel.create(32, len(base_rules), hidden=4), ckpt, 0, base_rules.content_hash())
        assert main(["eval", "--corpus", corpus_dir, "--policy", ckpt]) == 2
        assert f"{ckpt} expects l_max=32, the corpus has l_max=64" in capsys.readouterr().err

    def test_l_max_option_is_gone(self, capsys, policy_path):
        code = main(
            ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", policy_path,
             "--l-max", "64"]
        )
        assert code == 1
        assert "unrecognized arguments: --l-max 64" in capsys.readouterr().err

    @pytest.mark.parametrize("learner", ["policy", "q"])
    def test_learner_gives_the_vector_length(self, capsys, tmp_path, narrow_corpus, base_rules, learner):
        # Q-learning runs few, short episodes: longer exploration on this
        # corpus reaches trees that do not encode in 32 entries.
        out = str(tmp_path / "narrow.learner")
        code = main(
            ["train", "--corpus", narrow_corpus, "--out", out, "--learner", learner, "--epochs", "1500",
             "--hidden", "32", "--episodes", "100", "--step-cap", "12", "--seed", "1"]
        )
        assert code == 0
        loaded = load_policy(out)[0] if learner == "policy" else load_qtable(out)
        corpus = load_corpus(narrow_corpus, base_rules)
        idx = corpus.indices("train")[0]
        start, goal = corpus.instances[idx].start, GoalSpec.exact(corpus.traces[idx].steps[-1].after)
        want = rollout(DerivationEnv(start, goal, base_rules, default_table(32), step_cap=20), loaded)
        capsys.readouterr()
        flag = "--policy" if learner == "policy" else "--qtable"
        code = main(["derive", "--start", to_text(start), "--goal-exact", to_text(goal.formula), flag, out,
                     "--step-cap", "20"])
        captured = capsys.readouterr()
        assert "l_max=32" in captured.err
        lines = captured.out.splitlines()
        assert [line.split(" @ ")[0] for line in lines[1:-1]] == [step.rule_id for step in want.steps]
        assert lines[-1] == f"outcome: {want.outcome} in {len(want)} steps"
        assert code == (0 if want.reached else 2)
        assert want.reached or learner == "q"

    def test_checkpoint_action_count_checked(self, capsys, tmp_path, base_rules):
        ckpt = str(tmp_path / "three.ckpt")
        save_policy(PolicyModel.create(64, 3, hidden=4), ckpt, 0, base_rules.content_hash())
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", ckpt])
        assert code == 2
        assert "3 actions" in capsys.readouterr().err

    def test_qtable_action_count_checked(self, capsys, tmp_path):
        qt_path = str(tmp_path / "three.qtable")
        save_qtable(QTable(3), qt_path)
        code = main(["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--qtable", qt_path])
        assert code == 2
        assert "3 actions" in capsys.readouterr().err

    def test_zero_step_cap_is_usage_error(self, capsys, policy_path):
        code = main(
            ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", policy_path,
             "--step-cap", "0"]
        )
        assert code == 1
        assert "--step-cap" in capsys.readouterr().err

    def test_qtable_vector_length_checked(self, capsys, tmp_path, corpus_dir, base_rules):
        qt = QTable(len(base_rules))
        qt.entries[(0,) * 32] = np.zeros(len(base_rules))
        qt_path = str(tmp_path / "narrow.qtable")
        save_qtable(qt, qt_path)
        assert main(["eval", "--corpus", corpus_dir, "--qtable", qt_path]) == 2
        assert f"{qt_path} expects l_max=32, the corpus has l_max=64" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "derive"])
    def test_mixed_length_qtable_refused(self, capsys, tmp_path, corpus_dir, base_rules, command):
        qt = QTable(len(base_rules))
        qt.entries[(0,) * 64] = np.zeros(len(base_rules))
        qt.entries[(1,) + (0,) * 63] = np.zeros(len(base_rules))
        qt_path = tmp_path / "mixed.qtable"
        save_qtable(qt, str(qt_path))
        qt_path.write_text(qt_path.read_text().replace("1" + " 0" * 63 + " :", "1" + " 0" * 31 + " :"))
        args = {
            "eval": ["eval", "--corpus", corpus_dir, "--qtable", str(qt_path)],
            "derive": ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--qtable", str(qt_path)],
        }[command]
        assert main(args) == 2
        assert "line 6: state has length 32, the first state has length 64" in capsys.readouterr().err


class TestGen:
    def test_summary_line(self, corpus_dir, capsys, base_rules):
        # regenerate to a fresh dir so this test owns its output
        out = corpus_dir + "-summary"
        assert main(["gen", "--out", out, "--count", "44", "--seed", "5"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("instances=44 samples=")
        assert "train=35 test=9" in line

    def test_unsolvable_instance_fails_the_whole_corpus(self, tmp_path, capsys):
        # integrate_product narrowed to a coefficient of 2: the `direct`
        # instance 5 has coefficient 1, so its script cannot run. gen must
        # fail on it and write nothing, not save the instances that solve.
        text = resources.files("symderive").joinpath("rules/ode_base.rules").read_text("utf-8")
        wide = 'integrate_product | Equal(Der(Sym("a")),Times(Sym("b"),Der(Sym("c")))) | Equal(Sym("a"),Integral(Sym("b"),Sym("c"))) | a,b,c |'
        narrow = 'integrate_product | Equal(Der(Sym("a")),Times(Num(2),Der(Sym("c")))) | Equal(Sym("a"),Integral(Num(2),Sym("c"))) | a,c |'
        assert wide in text
        path = tmp_path / "narrowed.rules"
        path.write_text(text.replace(wide, narrow))
        out = tmp_path / "c"
        assert main(["gen", "--out", str(out), "--count", "300", "--seed", "3", "--rule-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error: instance 5 (direct): integrate_product does not apply to " in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert main(["gen", "--out", a, "--count", "33", "--seed", "6"]) == 0
        assert main(["gen", "--out", b, "--count", "33", "--seed", "6"]) == 0
        names = ["instances.txt", "split.txt", "seed.txt"] + [
            os.path.join("traces", f) for f in sorted(os.listdir(os.path.join(a, "traces")))
        ]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x"), "--count", "0"]) == 1
        assert "count" in capsys.readouterr().err

    def test_zero_l_max_is_usage_error(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x"), "--count", "4", "--l-max", "0"]) == 1
        assert "--l-max must be positive, got 0" in capsys.readouterr().err

    def test_encoding_overflow_names_trace_and_seed_file(self, tmp_path, capsys):
        narrow = tmp_path / "narrow"
        assert main(["gen", "--out", str(narrow), "--count", "44", "--seed", "0", "--l-max", "10"]) == 2
        error = "trace 00000 step 0: encoding needs 16 entries but the table is fixed at 10"
        assert f"error: {error}\n" in capsys.readouterr().err
        assert not narrow.exists()
        out = str(tmp_path / "c")
        assert main(["gen", "--out", out, "--count", "44", "--seed", "0"]) == 0
        seed_path = os.path.join(out, "seed.txt")
        with open(seed_path, encoding="utf-8") as fh:
            text = fh.read()
        with open(seed_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("l_max=64\n", "l_max=10\n"))
        capsys.readouterr()
        assert main(["train", "--corpus", out, "--out", str(tmp_path / "p.ckpt")]) == 2
        assert f"error: {seed_path}: l_max=10 is too short for {error}\n" in capsys.readouterr().err

    def test_cross_field_error_names_the_flags(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--coeff-low", "9"]) == 1
        assert "--coeff-low must not exceed --coeff-high, got 9 > 5" in capsys.readouterr().err
        assert not out.exists()

    def test_smaller_corpus_over_a_larger_one_is_refused(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert main(["gen", "--out", out, "--count", "30", "--seed", "1"]) == 0
        before = load_corpus(out)
        assert len(before.instances) == 30
        capsys.readouterr()
        assert main(["gen", "--out", out, "--count", "20", "--seed", "1"]) == 2
        stale = os.path.join(out, "traces", "00020.trace")
        assert f"error: {stale} would be left from an earlier corpus (10 such trace files)" in capsys.readouterr().err
        after = load_corpus(out)
        assert after.instances == before.instances and after.split == before.split

    def test_larger_corpus_over_a_smaller_one_loads(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["gen", "--out", out, "--count", "20", "--seed", "1"]) == 0
        assert main(["gen", "--out", out, "--count", "30", "--seed", "1"]) == 0
        assert len(load_corpus(out).instances) == 30


class TestTrainEval:
    def test_policy_training_output(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "p.ckpt")
        code = main(
            ["train", "--corpus", corpus_dir, "--out", out, "--epochs", "50", "--hidden", "16", "--seed", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        rows, unique = re.fullmatch(r"train_rows=(\d+) unique_rows=(\d+)", lines[0]).groups()
        assert 0 < int(unique) < int(rows)
        epoch_lines = [l for l in lines if l.startswith("epoch ")]
        assert len(epoch_lines) == 50
        assert epoch_lines[0].startswith("epoch 0 loss ")
        assert any(l.startswith("train_top1 ") for l in lines)
        assert any(l.startswith("test_top1 ") for l in lines)
        model, meta = load_policy(out)
        assert model.hidden == 16
        assert meta["seed"] == 2

    def test_policy_training_output_is_pinned(self, corpus_dir, tmp_path, capsys):
        # every printed line, and the checkpoint with each weight rounded to
        # 1e-8, which is blind to last bits that the BLAS thread count moves
        out = str(tmp_path / "p.ckpt")
        code = main(
            ["train", "--corpus", corpus_dir, "--out", out, "--epochs", "50", "--hidden", "16", "--seed", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "train_rows=210 unique_rows=42",
            *(f"epoch {i} loss {loss}" for i, loss in enumerate(PINNED_POLICY_LOSSES)),
            "train_top1 0.7619",
            "test_top1 0.7368",
        ]
        assert rounded_checkpoint_digest(out) == "7ea6c27ead0eb5d0a511bc474ec1c0fee6aafd7be077c521a656f54583b6ccce"

    def test_policy_memorizes_small_corpus(self, policy_path, corpus_dir, capsys):
        code = main(["eval", "--corpus", corpus_dir, "--policy", policy_path, "--split", "train"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("split=train ")
        assert line.endswith("top1=1.0000")

    def test_eval_test_split_and_rollouts(self, policy_path, corpus_dir, capsys):
        code = main(["eval", "--corpus", corpus_dir, "--policy", policy_path, "--rollouts"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("split=test samples=")
        assert lines[1].startswith("rollouts=9 reached=")

    def test_q_training_writes_table(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "t.qtable")
        code = main(
            ["train", "--corpus", corpus_dir, "--out", out, "--learner", "q", "--episodes", "40",
             "--step-cap", "12", "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("episodes=40 states=")
        assert os.path.exists(out)

    def test_q_training_bytes_are_pinned(self, corpus_dir, tmp_path, capsys):
        # the scripted episodes over the expert traces, then online ones, with
        # the masked bootstrap of every step: the table's bytes and what
        # eval prints from it are fixed
        out = str(tmp_path / "t.qtable")
        assert main(["train", "--corpus", corpus_dir, "--out", out, "--learner", "q", "--episodes", "300"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "episodes=300 states=159"
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == "1d0e66247d0c2417c162c85d81169cc04dd986b3608a0752e7d5536b0802647b"
        assert main(["eval", "--corpus", corpus_dir, "--qtable", out, "--rollouts"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["split=test samples=38 top1=0.9474", "rollouts=9 reached=9 mean_steps=4.11"]

    def test_hybrid_learner_is_gone(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "h.ckpt")
        code = main(["train", "--corpus", corpus_dir, "--out", out, "--learner", "hybrid"])
        assert code == 1
        assert "argument --learner: invalid choice: 'hybrid'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_qtable_out_option_is_gone(self, corpus_dir, tmp_path, capsys):
        out, elsewhere = str(tmp_path / "t.qtable"), str(tmp_path / "elsewhere.qt")
        code = main(["train", "--corpus", corpus_dir, "--out", out, "--learner", "q", "--qtable-out", elsewhere])
        assert code == 1
        assert f"unrecognized arguments: --qtable-out {elsewhere}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_episodes_may_be_zero(self, corpus_dir, tmp_path, capsys):
        # a negative count stays refused: test_out_of_range_train_option_is_usage_error
        out = str(tmp_path / "t.qtable")
        assert main(["train", "--corpus", corpus_dir, "--out", out, "--learner", "q", "--episodes", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("episodes=0 states=")
        assert len(load_qtable(out)) > 0

    @pytest.mark.parametrize("rollouts", [[], ["--rollouts"]], ids=["top1", "rollouts"])
    def test_eval_on_an_empty_split(self, tmp_path, capsys, rollouts):
        out = str(tmp_path / "all-train")
        assert main(["gen", "--out", out, "--count", "20", "--seed", "5", "--test-fraction", "0"]) == 0
        table = str(tmp_path / "t.qtable")
        assert main(["train", "--corpus", out, "--out", table, "--learner", "q", "--episodes", "5"]) == 0
        capsys.readouterr()
        assert main(["eval", "--corpus", out, "--qtable", table] + rollouts) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: corpus has no test instances\n"

    @pytest.mark.parametrize("learner", ["policy", "q"])
    def test_training_without_training_instances(self, corpus_dir, tmp_path, capsys, learner):
        corpus = str(tmp_path / "all-test")
        shutil.copytree(corpus_dir, corpus)
        split_path = os.path.join(corpus, "split.txt")
        with open(split_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(split_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("\ttrain\n", "\ttest\n"))
        out = tmp_path / "t.out"
        assert main(["train", "--corpus", corpus, "--out", str(out), "--learner", learner]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: corpus has no training instances\n"
        assert not out.exists()

    def test_q_training_on_a_narrow_corpus(self, narrow_corpus, tmp_path, capsys):
        # exploration builds trees wider than any expert step; such a step
        # ends its episode, not the command
        out = str(tmp_path / "narrow.qtable")
        assert main(["train", "--corpus", narrow_corpus, "--out", out, "--learner", "q", "--episodes", "400"]) == 0
        assert load_qtable(out).n_inputs == 32

    @pytest.mark.parametrize("option, value", [("--gamma", "2"), ("--alpha", "0"), ("--step-cap", "0")])
    def test_out_of_range_q_option_is_usage_error(self, corpus_dir, tmp_path, capsys, option, value):
        out = str(tmp_path / "t.qtable")
        code = main(["train", "--corpus", corpus_dir, "--out", out, "--learner", "q", "--episodes", "2", option, value])
        assert code == 1
        assert option in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "learner, option, value",
        [
            ("q", "--epsilon", "2"),
            ("q", "--epsilon", "-1"),
            ("policy", "--epochs", "-3"),
            ("policy", "--hidden", "0"),
            ("q", "--episodes", "-4"),
            ("policy", "--step-size", "-1"),
            ("policy", "--step-size", "inf"),
        ],
    )
    def test_out_of_range_train_option_is_usage_error(self, corpus_dir, tmp_path, capsys, learner, option, value):
        out = str(tmp_path / "learner.out")
        code = main(
            ["train", "--corpus", corpus_dir, "--out", out, "--learner", learner, "--epochs", "2", "--episodes", "2",
             option, value]
        )
        assert code == 1
        assert option in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_diverging_step_size_is_domain_error(self, corpus_dir, tmp_path, capsys):
        # numpy's overflow warnings would end the command as internal errors
        out = str(tmp_path / "p.ckpt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--corpus", corpus_dir, "--out", out, "--step-size", "1e308", "--epochs", "50"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith("error: --step-size 1e+308: the policy loss is nan")
        assert "epoch " not in captured.out
        assert not os.path.exists(out)

    def test_eval_zero_step_cap_is_usage_error(self, corpus_dir, policy_path, capsys):
        assert main(["eval", "--corpus", corpus_dir, "--policy", policy_path, "--rollouts", "--step-cap", "0"]) == 1
        assert "--step-cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda row: row.replace(" 0.0", " bread", 1), "line 5: not a state and numeric values"),
            (lambda row: row + "\n" + row, "line 6: state"),
        ],
    )
    def test_eval_rejects_bad_qtable_lines(self, corpus_dir, tmp_path, capsys, base_rules, corrupt, message):
        qt = QTable(len(base_rules))
        qt.entries[(0,) * 64] = np.zeros(len(base_rules))
        qt_path = tmp_path / "bad.qtable"
        save_qtable(qt, str(qt_path))
        lines = qt_path.read_text().splitlines()
        qt_path.write_text("\n".join(lines[:-1] + [corrupt(lines[-1])]) + "\n")
        assert main(["eval", "--corpus", corpus_dir, "--qtable", str(qt_path)]) == 2
        assert message in capsys.readouterr().err

    def test_rule_hash_mismatch_is_domain_error(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "p.ckpt")
        code = main(
            ["train", "--corpus", corpus_dir, "--out", out, "--rule-file", _mech_rule_file(tmp_path)]
        )
        assert code == 2
        assert "different rule set" in capsys.readouterr().err

    def test_eval_needs_exactly_one_learner(self, corpus_dir, policy_path, tmp_path, capsys):
        assert main(["eval", "--corpus", corpus_dir]) == 1
        qt_path = str(tmp_path / "t.qtable")
        save_qtable(QTable(16), qt_path)
        assert main(["eval", "--corpus", corpus_dir, "--policy", policy_path, "--qtable", qt_path]) == 1

    def test_eval_checks_policy_l_max(self, policy_path, narrow_corpus, capsys):
        assert main(["eval", "--corpus", narrow_corpus, "--policy", policy_path]) == 2
        assert f"{policy_path} expects l_max=64, the corpus has l_max=32" in capsys.readouterr().err

    def test_eval_qtable_top1_is_lowest_index_argmax(self, corpus_dir, tmp_path, capsys, base_rules, table):
        # Rows cycle through a one-hot expert action, a tie with action 0, a
        # tie with the next action, and no row at all (all zeros), so the
        # score depends on ties going to the lowest index.
        samples = load_corpus(corpus_dir, base_rules).samples(base_rules, table, "train")
        expert = {s.state: s.action for s in samples}
        n = len(base_rules)
        qt = QTable(n)
        for k, state in enumerate(sorted(expert)):
            action = expert[state]
            if k % 4 == 3:
                continue
            row = np.zeros(n)
            row[action] = 1.0
            if k % 4 == 1:
                row[0] = 1.0
            elif k % 4 == 2:
                row[(action + 1) % n] = 1.0
            qt.entries[state] = row
        qt_path = str(tmp_path / "ties.qtable")
        save_qtable(qt, qt_path)

        def top1(pick) -> float:
            hits = 0
            for s in samples:
                values = list(qt.entries[s.state]) if s.state in qt.entries else [0.0] * n
                hits += pick(values) == s.action
            return hits / len(samples)

        lowest = top1(lambda v: v.index(max(v)))
        highest = top1(lambda v: len(v) - 1 - v[::-1].index(max(v)))
        assert 0 < lowest < 1 and f"{lowest:.4f}" != f"{highest:.4f}"
        assert main(["eval", "--corpus", corpus_dir, "--qtable", qt_path, "--split", "train"]) == 0
        assert capsys.readouterr().out.strip() == f"split=train samples={len(samples)} top1={lowest:.4f}"

    def test_eval_checks_qtable(self, corpus_dir, tmp_path, capsys):
        qt_path = str(tmp_path / "three.qtable")
        save_qtable(QTable(3), qt_path)
        assert main(["eval", "--corpus", corpus_dir, "--qtable", qt_path]) == 2
        assert "3 actions" in capsys.readouterr().err

    def test_missing_corpus_is_domain_error(self, tmp_path, policy_path, capsys):
        assert main(["eval", "--corpus", str(tmp_path / "nowhere"), "--policy", policy_path]) == 2

    def test_non_integer_split_index_is_domain_error(self, corpus_dir, policy_path, tmp_path, capsys):
        bad = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, bad)
        split_path = os.path.join(bad, "split.txt")
        with open(split_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(split_path, "w", encoding="utf-8") as fh:
            fh.write(text.replace("00003\t", "three\t", 1))
        assert main(["eval", "--corpus", bad, "--policy", policy_path]) == 2
        assert "split.txt" in capsys.readouterr().err

    def test_tampered_trace_is_domain_error(self, corpus_dir, policy_path, tmp_path, capsys):
        bad = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, bad)
        edit_trace_step(os.path.join(bad, "traces", "00003.trace"), 0, 1, "swap_sides")
        assert main(["eval", "--corpus", bad, "--policy", policy_path]) == 2
        assert "00003.trace" in capsys.readouterr().err

    @pytest.mark.parametrize("tamper", ["dead_end", "detour"])
    def test_train_refuses_a_corpus_gen_would_refuse(self, corpus_dir, tmp_path, capsys, base_rules, tamper):
        bad = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, bad)
        if tamper == "dead_end":
            cut_to_dead_end(os.path.join(bad, "traces", "00004.trace"))
            error = "00004.trace: trace ends dead_end"
        else:
            error = f"at trace {detour_first_plus_full(bad, base_rules):05d} step 2"
        out = str(tmp_path / "t.qtable")
        assert main(["train", "--corpus", bad, "--out", out, "--learner", "q"]) == 2
        assert error in capsys.readouterr().err
        assert not os.path.exists(out)


def _parsed_options(command: str) -> set[str]:
    """Every option destination the parser declares for a subcommand."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subcommands.choices[command]._actions if a.dest != "help"}


class TestConfigEcho:
    @pytest.mark.parametrize(
        "argv, derived, shown",
        [
            (["parse", "--formula", 'Sym("a")'], set(), ['formula=Sym("a")']),
            (["parse", "--formula", ' Plus( Sym("a") , Num(2) ) '], set(), ['formula= Plus( Sym("a") , Num(2) ) ']),
            (["encode", "--formula", 'Sym("a")', "--l-max", "8"], set(), ["l_max=8"]),
            (["dist", "--a", 'Sym("a")', "--b", 'Sym("b")'], set(), ["l_max=64"]),
            (["match", "--formula", 'Sym("a")', "--template", 'Sym("a")', "--all"], set(), ["all=True", "vars="]),
            (["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))'], set(), ["rule=swap_sides"]),
            (
                ["derive", "--start", 'Equal(Sym("a"),Sym("b"))', "--goal-exact", 'Equal(Sym("b"),Sym("a"))',
                 "--oracle", "--first-site"],
                set(),
                ["oracle=True", "first_site=True", "policy=None"],
            ),
            (
                ["derive", "--start", 'Equal(Sym("a"),Sym("b"))', "--goal-exact", 'Equal(Sym("b"),Sym("a"))',
                 "--policy", "{policy}", "--step-cap", "4"],
                {"l_max"},
                ["step_cap=4", "oracle=False", "l_max=64"],
            ),
            (["gen", "--out", "{tmp}/corpus", "--count", "11", "--seed", "2"], set(), ["count=11", "seed=2"]),
            (
                ["train", "--corpus", "{corpus}", "--out", "{tmp}/q.qt", "--learner", "q", "--episodes", "3",
                 "--step-cap", "7"],
                {"l_max"},
                ["learner=q", "step_cap=7", "episodes=3"],
            ),
            (
                ["eval", "--corpus", "{corpus}", "--policy", "{policy}", "--rollouts", "--step-cap", "3"],
                {"l_max"},
                ["rollouts=True", "step_cap=3", "split=test"],
            ),
        ],
        ids=["parse", "parse_spaced", "encode", "dist", "match", "apply", "derive_oracle", "derive_policy", "gen", "train_q", "eval"],
    )
    def test_echo_names_every_parsed_option(self, capsys, tmp_path, corpus_dir, policy_path, argv, derived, shown):
        argv = [a.format(tmp=tmp_path, corpus=corpus_dir, policy=policy_path) for a in argv]
        assert main(argv) == 0
        line = next(l for l in capsys.readouterr().err.splitlines() if l.startswith("config: "))
        tokens = [token.partition("=") for token in shlex.split(line[len("config: "):])]
        assert all(sep for _, sep, _ in tokens)
        names = [name for name, _, _ in tokens]
        values = {name: value for name, _, value in tokens}
        assert names[0] == "command" and values["command"] == argv[0]
        assert sorted(names[1:]) == sorted(_parsed_options(argv[0]) | derived)
        for pair in shown:
            name, _, value = pair.partition("=")
            assert values[name] == value


class TestExitCodes:
    def test_internal_error_maps_to_3(self, capsys, monkeypatch):
        import symderive.cli as cli_module

        def boom(f):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_module, "to_text", boom)
        assert main(["parse", "--formula", 'Sym("x")']) == 3
        assert "internal error" in capsys.readouterr().err

    def test_plain_key_error_maps_to_3(self, capsys, monkeypatch):
        import symderive.cli as cli_module

        def boom(f):
            raise KeyError("synthetic")

        monkeypatch.setattr(cli_module, "to_text", boom)
        assert main(["parse", "--formula", 'Sym("x")']) == 3
        assert "internal error: KeyError" in capsys.readouterr().err

    def test_rewrite_past_recursion_limit_exits_2(self, capsys, tmp_path):
        # each step wraps the tree in one more Sqrt, deeper than the
        # recursive site scan can follow
        path = tmp_path / "grow.rules"
        path.write_text('grow | Sym("x") | Sqrt(Sym("x")) |  | axiom\n')
        code = main(
            ["derive", "--start", 'Sym("x")', "--goal-exact", 'Sym("y")', "--oracle", "--first-site",
             "--depth-cap", "1500", "--rule-file", str(path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: a formula nests too deeply" in err and "internal error" not in err

    @pytest.mark.parametrize("target", ["rule_file", "split", "policy", "formula", "qtable"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, corpus_dir, policy_path, target):
        derive = ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE]
        if target == "rule_file":
            path = str(tmp_path / "base.rules")
            save_rules(packaged_rules(), path)
            argv = ["apply", "--rule", "swap_sides", "--formula", 'Equal(Sym("a"),Sym("b"))', "--rule-file", path]
        elif target == "split":
            corpus = str(tmp_path / "corpus")
            shutil.copytree(corpus_dir, corpus)
            path = os.path.join(corpus, "split.txt")
            argv = ["eval", "--corpus", corpus, "--policy", policy_path]
        elif target == "policy":
            path = shutil.copy(policy_path, str(tmp_path / "policy.ckpt"))
            argv = derive + ["--policy", path]
        elif target == "formula":
            path = str(tmp_path / "formula.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('Sym("x")\n')
            argv = ["parse", "--formula", path]
        else:
            path = str(tmp_path / "table.qt")
            save_qtable(QTable(len(packaged_rules())), path)
            argv = derive + ["--qtable", path]
        with open(path, "ab") as fh:
            fh.write(b"\xff\n")
        assert main(argv) == 2
        assert f"error: {path} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["gen", "--out", "{tmp}/corpus"],
            ["train", "--corpus", "{tmp}/none", "--out", "{tmp}/p.ckpt"],
            ["train", "--corpus", "{tmp}/none", "--out", "{tmp}/t.qtable", "--learner", "q"],
            ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--policy", "{tmp}/none",
             "--trace-out", "{tmp}/t.trace"],
        ],
        ids=["gen", "train_policy", "train_q", "derive"],
    )
    def test_negative_seed_is_usage_error(self, capsys, tmp_path, command):
        # refused before any file is read: the corpus and the policy do not exist
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
        assert main(argv + ["--seed", "-1"]) == 1
        assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command",
        [[], ["parse"], ["encode"], ["dist"], ["match"], ["apply"], ["derive"], ["gen"], ["train"], ["eval"]],
        ids=lambda command: command[0] if command else "symderive",
    )
    def test_help_exits_0(self, capsys, command):
        # renders every option's type, default and group
        assert main(command + ["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: symderive")


class TestModuleRun:
    """`python -m symderive.cli` in a child process, importing from this
    process's import path."""

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return self._python("-m", "symderive.cli", *args)

    def test_parse_prints_canonical_text(self):
        out = self._run("parse", "--formula", ' Plus( Sym("a") , Num(2) ) ')
        assert out.returncode == 0
        assert out.stdout == 'Plus(Sym("a"),Num(2))\n'

    def test_bad_text_exits_2(self):
        out = self._run("parse", "--formula", "Plus(Sym(")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error:" in out.stderr

    def test_commands_without_a_learner_leave_numpy_unloaded(self, tmp_path):
        # only the learners need numpy; start-up and these commands must not pay for it
        commands = [
            ["parse", "--formula", 'Plus(Sym("a"),Num(2))'],
            ["gen", "--out", str(tmp_path / "corpus"), "--count", "22"],
            ["derive", "--start", DECAY_START, "--goal-exact", DECAY_MILESTONE, "--oracle"],
        ]
        script = (
            "import sys\n"
            "from symderive.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        out = self._python("-c", script)
        assert out.returncode == 0, out.stderr


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("symderive")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = subprocess.run(
            [exe, "parse", "--formula", 'Plus(Sym("a"),Num(2))'],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == 'Plus(Sym("a"),Num(2))'


def readme_examples():
    """Each ``$ symderive ...`` command of the README's shell blocks with the
    output shown under it, in order. A block is read up to its first output
    abbreviated with ``...``: what follows may depend on that command."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        # every other piece between fences is a block; keep the shell ones
        pieces = re.split(r"^```", fh.read(), flags=re.M)[1::2]
    examples = []
    for block in (piece[1:] for piece in pieces if piece.startswith("\n")):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, output = re.match(r"\$ ((?:[^\n]*\\\n)*[^\n]*)\n(.*)", chunk, flags=re.S).groups()
            output = output.rstrip("\n") + "\n"
            if "..." in output:
                break
            examples.append((shlex.split(command.replace("\\\n", " ")), output))
    return examples


class TestReadmeExamples:
    def test_outputs_match_the_readme(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # gen writes to a relative --out
        examples = readme_examples()
        assert [argv[:2] for argv, _ in examples] == [
            ["symderive", name] for name in ("parse", "match", "apply", "encode", "dist", "gen")
        ]
        for argv, output in examples:
            assert main(argv[1:]) == 0, argv
            assert capsys.readouterr().out == output, argv
