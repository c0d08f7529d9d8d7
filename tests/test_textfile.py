import os
import shutil

import numpy as np
import pytest

from symderive.dataset import Corpus, GenConfig, build_corpus, load_corpus, save_corpus
from symderive.derivation import DerivationEnv, GoalSpec, load_trace, save_trace
from symderive.encoding import default_table
from symderive.errors import CorpusError, FileFormatError, ValidationFailed
from symderive.expr import parse
from symderive.rl import PolicyModel, QTable, load_policy, load_qtable, save_policy, save_qtable
from symderive.textfile import file_lines, read_file, read_float, read_int


class TestLines:
    def test_lines(self):
        assert file_lines("", "f") == []
        assert file_lines("a\nb c\n", "f") == ["a", "b c"]

    @pytest.mark.parametrize(
        "text, error",
        [
            ("a\nb", "f line 2: no newline at the end of the file"),
            ("a\r\nb\r\n", "f line 1: carriage return"),
            ("a\nb\rc\n", "f line 2: carriage return"),
            ("a\n\nb\n", "f line 2: blank line"),
            ("\n", "f line 1: blank line"),
        ],
    )
    def test_refused(self, text, error):
        with pytest.raises(FileFormatError, match=error):
            file_lines(text, "f")

    def test_read_file_keeps_line_ends(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a\r\n")
        assert read_file(str(path)) == "a\r\n"

    def test_read_file_refuses_non_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a\n\xff\n")
        with pytest.raises(FileFormatError, match=f"{path} is not UTF-8 text: invalid start byte at byte 2"):
            read_file(str(path))


class TestNumbers:
    @pytest.mark.parametrize("n", [0, 7, -7, 10**20])
    def test_int_as_written(self, n):
        assert read_int(str(n)) == n

    @pytest.mark.parametrize("text", ["+3", "03", "-0", " 3", "3 ", "1_0", "", "3.0", "٣"])
    def test_int_refused(self, text):
        with pytest.raises(ValueError):
            read_int(text)

    @pytest.mark.parametrize("x", [0.0, -0.0, 0.1, -2.5, 1e-05, 1e22])
    def test_float_as_written(self, x):
        assert read_float(repr(x)) == x

    # nan and inf are what repr writes for them, but no file holds them
    @pytest.mark.parametrize(
        "text",
        ["0.50", "+0.5", ".5", "5", "1E-05", "1e-5", " 0.5", "NaN", "-nan", "Infinity", "", "nan", "inf", "-inf"],
    )
    def test_float_refused(self, text):
        with pytest.raises(ValueError):
            read_float(text)


def test_header_written_by_declared_type(tmp_path):
    path = str(tmp_path / "table.qt")
    save_qtable(QTable(2, gamma=1, alpha=1), path)
    written = read_file(path)
    assert written == "symderive-qtable v1\nn_actions=2\ngamma=1.0\nalpha=1.0\n"
    save_qtable(load_qtable(path), path)
    assert read_file(path) == written


# ---------------------------------------------------------------------------
# Every one-character edit of a written file is refused or written back.

INSERTS = (" ", "\n", "\r", "0", "+")
ALL_LINES = None
FIRST_THREE_AND_LAST = (0, 1, 2, -1)


def one_char_edits(text, lines):
    """Each text made from ``text`` by inserting one of INSERTS or deleting one
    character, at every position of the given lines (all lines for None),
    their newlines and the start of the next line included."""
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    n_lines = len(starts) - 1
    chosen = range(n_lines) if lines is None else sorted({ln % n_lines for ln in lines})
    positions = sorted({pos for ln in chosen for pos in range(starts[ln], starts[ln + 1] + 1)})
    for pos in positions:
        for ch in INSERTS:
            yield text[:pos] + ch + text[pos:]
        if pos < len(text):
            yield text[:pos] + text[pos + 1 :]


def _policy(out, rules):
    save_policy(PolicyModel.create(2, 2, hidden=2, seed=3, step_size=0.25), os.path.join(out, "policy.ckpt"), 7, "ab12")


def _reload_policy(src, out, rules):
    model, meta = load_policy(os.path.join(src, "policy.ckpt"))
    save_policy(model, os.path.join(out, "policy.ckpt"), meta["seed"], meta["rules_sha256"])


def _qtable(out, rules):
    qtable = QTable(2, gamma=0.9, alpha=0.5)
    qtable.entries = {
        (1, 0, 12): np.array([0.5, -0.25]),
        (3, 0, 0): np.array([-3e-300, 1e-05]),
        (10, 2, 0): np.array([-0.0, 2.0]),
    }
    save_qtable(qtable, os.path.join(out, "table.qt"))


def _reload_qtable(src, out, rules):
    save_qtable(load_qtable(os.path.join(src, "table.qt")), os.path.join(out, "table.qt"))


def _trace(out, rules):
    # a pattern goal, and sites at the root and below it
    start = parse('Equal(Sym("c"),DerivRatio(Sym("y"),Sym("x")))')
    goal = GoalSpec.pattern(parse('Equal(Sym("y"),Integral(Sym("r"),Sym("v")))'), ["r", "v"])
    env = DerivationEnv(start, goal, rules, default_table())
    for rule_id in ("expand_deriv_ratio", "swap_sides", "clear_divisor", "integrate_product"):
        env.env_step(rules.index_of(rule_id))
    trace = env.trace()
    assert trace.reached and [s.site for s in trace.steps] == [(1,), (), (), ()]
    save_trace(trace, os.path.join(out, "derive.trace"))


def _reload_trace(src, out, rules):
    save_trace(load_trace(os.path.join(src, "derive.trace"), rules), os.path.join(out, "derive.trace"))


def _corpus(out, rules):
    # three short traces of one generated corpus; the first ends on a step
    # below the root, so its last line holds a site path
    full = build_corpus(GenConfig(count=11), 5, rules)
    keep = (10, 5, 9)
    corpus = Corpus(
        [full.instances[i] for i in keep],
        [full.traces[i] for i in keep],
        [full.split[i] for i in keep],
        full.seed,
        full.config,
        full.rules_hash,
    )
    assert corpus.traces[0].steps[-1].site == (1,)
    save_corpus(corpus, out)


def _reload_corpus(src, out, rules):
    save_corpus(load_corpus(src, rules), out)


FORMATS = {
    "policy": (_policy, _reload_policy, [("policy.ckpt", ALL_LINES)]),
    "qtable": (_qtable, _reload_qtable, [("table.qt", ALL_LINES)]),
    "trace": (_trace, _reload_trace, [("derive.trace", ALL_LINES)]),
    "seed": (_corpus, _reload_corpus, [("seed.txt", FIRST_THREE_AND_LAST)]),
    "split": (_corpus, _reload_corpus, [("split.txt", FIRST_THREE_AND_LAST)]),
    "instances": (
        _corpus,
        _reload_corpus,
        [("instances.txt", FIRST_THREE_AND_LAST), (os.path.join("traces", "00000.trace"), FIRST_THREE_AND_LAST)],
    ),
}


def _files(root):
    """Every file under root, by its path relative to root, with its bytes."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def adjacent_swaps(text):
    """Each text made from ``text`` by swapping two adjacent, different lines."""
    lines = text.split("\n")[:-1]
    for i in range(len(lines) - 1):
        if lines[i] != lines[i + 1]:
            yield "\n".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]) + "\n"


def _each_edit_refused_or_written_back(fmt, rules, tmp_path, edits):
    """Write the files of ``fmt``, then for each text ``edits(text, lines)``
    makes of a target file: the reload is refused, or it writes back the
    edited bytes."""
    write, reload, targets = FORMATS[fmt]
    src, out = str(tmp_path / "src"), str(tmp_path / "out")
    os.makedirs(src)
    os.makedirs(out)
    write(src, rules)
    reload(src, out, rules)
    assert _files(out) == _files(src)
    for name, lines in targets:
        path = os.path.join(src, name)
        with open(path, "rb") as fh:
            original = fh.read()
        for edited in edits(original.decode("utf-8"), lines):
            with open(path, "wb") as fh:
                fh.write(edited.encode("utf-8"))
            try:
                reload(src, out, rules)
            except (FileFormatError, ValidationFailed, CorpusError):
                continue
            assert _files(out) == _files(src), repr(edited)
            shutil.rmtree(out)
            os.makedirs(out)
        with open(path, "wb") as fh:
            fh.write(original)


@pytest.mark.parametrize("fmt", FORMATS)
def test_one_char_edit_is_refused_or_written_back(fmt, base_rules, tmp_path):
    _each_edit_refused_or_written_back(fmt, base_rules, tmp_path, one_char_edits)


@pytest.mark.parametrize("fmt", FORMATS)
def test_line_swap_is_refused_or_written_back(fmt, base_rules, tmp_path):
    # every line of each target file, not only the lines the one-character test picks
    _each_edit_refused_or_written_back(fmt, base_rules, tmp_path, lambda text, lines: adjacent_swaps(text))
