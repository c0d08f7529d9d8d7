import random
import sys

import pytest

from symderive import expr
from symderive.errors import ArityError, FileFormatError, InvalidPath, ParseError, UnknownKind
from symderive.expr import (
    DER,
    FUNC,
    KIND_BY_TAG,
    MAX_DEPTH,
    N_KINDS,
    NUM,
    PLUS,
    SYM,
    Formula,
    _rebuild,
    format_path,
    func,
    intern,
    kind_set,
    mk,
    num,
    parse,
    parse_canonical,
    parse_path,
    replace_at,
    subtree_at,
    sym,
    to_text,
    walk,
)
from symderive.dataset import GenConfig, build_corpus
from symderive.rewrite import substitute

from conftest import random_tree
from oracles import naive_to_text


class TestConstruction:
    def test_leaves(self):
        assert sym("x").payload == "x"
        assert num(2).payload == "2"
        assert num("2.50").payload == "2.50"

    def test_operator_node(self):
        f = mk("Plus", sym("a"), sym("b"))
        assert len(f.children) == 2 and f.payload is None

    def test_func_apply_payload_and_children(self):
        f = func("m", sym("x"))
        assert f.payload == "m" and len(f.children) == 1
        assert func("f").children == ()

    def test_arity_too_few(self):
        with pytest.raises(ArityError):
            mk("Plus", sym("a"))

    def test_arity_too_many(self):
        with pytest.raises(ArityError):
            mk("Der", sym("a"), sym("b"))

    def test_variadic_allows_three(self):
        f = mk("Times", sym("a"), sym("b"), sym("c"))
        assert len(f.children) == 3

    def test_unknown_tag(self):
        with pytest.raises(UnknownKind):
            mk("Frobnicate", sym("a"))

    def test_bad_symbol_name(self):
        with pytest.raises(ValueError):
            sym("9lives")

    def test_bad_numeral(self):
        with pytest.raises(ValueError):
            num("1e5")
        with pytest.raises(ValueError):
            num("2.")

    def test_immutable(self):
        f = sym("x")
        with pytest.raises(AttributeError):
            f.payload = "y"

    def test_mk_rejects_leaf_tags(self):
        with pytest.raises(ValueError):
            mk("Sym")


# Input that the constructors and the parser refuse, with the error each
# raises. Rewrites rebuild nodes without validating; input never does.
INVALID_PARSE = [
    ('Plus(Sym("a"))', ArityError),
    ('Der(Sym("a"),Sym("b"))', ArityError),
    ('Equal(Sym("a"),Sym("b"),Sym("c"))', ArityError),
    ('Sin()', ParseError),
    ('Frobnicate(Sym("a"))', UnknownKind),
    ("Sym(x)", ParseError),
    ('Sym("9lives")', ParseError),
    ("Num(1e5)", ParseError),
    ("Num(2.)", ParseError),
    ('Num("2")', ParseError),
    ("FuncApply(f)", ParseError),
    ('FuncApply("f",)', ParseError),
    ('Plus(Sym("a"),Sym("b")', ParseError),
    ('Plus(Sym("a"),Sym("b")))', ParseError),
    ("", ParseError),
]
INVALID_BUILD = [
    (lambda: mk("Plus", sym("a")), ArityError),
    (lambda: mk("Sin"), ArityError),
    (lambda: mk("Sin", sym("a"), sym("b")), ArityError),
    (lambda: mk("Frobnicate", sym("a")), UnknownKind),
    (lambda: mk("Sym"), ValueError),
    (lambda: mk("Num"), ValueError),
    (lambda: mk("FuncApply"), ValueError),
    (lambda: sym("9lives"), ValueError),
    (lambda: sym(""), ValueError),
    (lambda: sym("a b"), ValueError),
    (lambda: sym('a"'), ValueError),
    (lambda: num("1e5"), ValueError),
    (lambda: num("2."), ValueError),
    (lambda: num(".5"), ValueError),
    (lambda: num("+1"), ValueError),
    (lambda: num(""), ValueError),
    (lambda: func("9f"), ValueError),
    (lambda: func(""), ValueError),
    (lambda: func("f g", sym("a")), ValueError),
    (lambda: Formula(N_KINDS, None, ()), UnknownKind),
    (lambda: Formula(-1, None, ()), UnknownKind),
    (lambda: Formula(SYM, None, ()), ValueError),
    (lambda: Formula(SYM, "x", (sym("y"),)), ArityError),
    (lambda: Formula(NUM, "x", ()), ValueError),
    (lambda: Formula(PLUS, "x", (sym("a"), sym("b"))), ValueError),
    (lambda: Formula(PLUS, None, (sym("a"),)), ArityError),
]


class TestValidationOnInput:
    @pytest.mark.parametrize("text, error", INVALID_PARSE)
    def test_parse_refuses(self, text, error):
        with pytest.raises(error):
            parse(text)

    @pytest.mark.parametrize("build, error", INVALID_BUILD)
    def test_constructors_refuse(self, build, error):
        with pytest.raises(error):
            build()


class TestEquality:
    def test_structural(self):
        a = mk("Plus", sym("x"), num(1))
        b = mk("Plus", sym("x"), num(1))
        assert a == b and hash(a) == hash(b)

    def test_payload_matters(self):
        assert sym("x") != sym("y")
        assert num("1") != num("1.0")

    def test_child_order_matters(self):
        assert mk("Plus", sym("x"), sym("y")) != mk("Plus", sym("y"), sym("x"))

    def test_other_types_are_unequal(self):
        assert num("3").__eq__(3) is NotImplemented
        assert num("3") != 3 and not num("3") == "Num(3)"


class TestIntern:
    """intern returns the table's node equal to a tree, entering what the
    table lacks, and leaves equality and hashing as they were."""

    def test_random_trees(self, monkeypatch):
        rng = random.Random(35)
        nodes = {}
        rebuilds = []

        def counting(*args):
            rebuilds.append(args)
            return _rebuild(*args)

        monkeypatch.setattr(expr, "_rebuild", counting)
        swaps = 0
        for _ in range(300):
            f = random_tree(rng, 5)
            rebuilds.clear()
            shared = intern(f, nodes)
            swaps += len(rebuilds)
            assert shared == f and hash(shared) == hash(f)
            assert to_text(shared) == to_text(f)
            # every node of the result is the table's own, one per distinct subtree
            below = [node for _, node in walk(shared)]
            assert all(nodes[node] is node for node in below)
            assert len({id(node) for node in below}) == len(set(below))
            # a shared tree, or any subtree of one, comes back after one probe
            rebuilds.clear()
            assert intern(shared, nodes) is shared
            assert all(intern(node, nodes) is node for node in below)
            assert not rebuilds
            # an equal tree built apart comes back as the same object
            assert intern(parse(to_text(f)), nodes) is shared
            assert not rebuilds
        # fresh trees do meet their twins, so the counting above is live
        assert swaps > 100, swaps

    def test_rebuilds_only_for_swapped_children(self):
        nodes = {}
        x = intern(sym("x"), nodes)
        fresh = mk("Plus", sym("x"), num(1))
        shared = intern(fresh, nodes)
        assert shared is not fresh and shared.children[0] is x
        # a node whose children are all the table's own is entered as it is
        own = mk("Times", x, shared)
        assert intern(own, nodes) is own
        assert intern(mk("Times", sym("x"), mk("Plus", sym("x"), num(1))), nodes) is own

    def test_tables_are_apart(self):
        f = parse('Equal(Der(Sym("y")),Times(Num(2),Sym("x")))')
        a, b = intern(f, {}), intern(parse(to_text(f)), {})
        assert a is not b and a == b and hash(a) == hash(b)


class TestPrinting:
    def test_known_forms(self):
        f = mk("Equal", mk("Der", func("f", sym("x"))), mk("Times", mk("Sin", sym("x")), mk("Der", sym("x"))))
        assert to_text(f) == 'Equal(Der(FuncApply("f",Sym("x"))),Times(Sin(Sym("x")),Der(Sym("x"))))'

    def test_zero_arg_func(self):
        assert to_text(func("f")) == 'FuncApply("f")'

    def test_repr_is_text(self):
        assert repr(sym("q")) == 'Sym("q")'


class TestPrinterAgainstReference:
    @staticmethod
    def _subjects():
        rng = random.Random(21)
        subjects = [random_tree(rng, rng.randint(0, 6)) for _ in range(400)]
        subjects += [
            func("f"),
            func("g", sym("x"), num(-3), mk("Plus", sym("y"), num("0.25"), func("h"))),
            mk("Plus", sym("x"), num(2), mk("Times", sym("y"), sym("z"), num(1))),
        ]
        # nested to MAX_DEPTH - 1 and to MAX_DEPTH levels, over random bottoms
        for depth in (MAX_DEPTH - 1, MAX_DEPTH):
            f = random_tree(rng, 3)
            while max(len(path) for path, _ in walk(f)) + 1 < depth:
                f = mk("Sqrt", f)
            subjects.append(f)
        return subjects

    def test_subjects_cover_every_shape(self):
        nodes = [node for f in self._subjects() for _, node in walk(f)]
        assert {node.kind for node in nodes} == set(range(N_KINDS))
        arities = {(node.kind, len(node.children)) for node in nodes}
        assert {(FUNC, 0), (FUNC, 3), (PLUS, 3)} <= arities
        assert max(max(len(path) for path, _ in walk(f)) + 1 for f in self._subjects()) == MAX_DEPTH

    def test_random_subjects(self):
        for f in self._subjects():
            assert to_text(f) == naive_to_text(f)

    def test_every_seed_0_corpus_tree(self, base_rules):
        corpus = build_corpus(GenConfig(count=200), 0, base_rules)
        trees = [instance.start for instance in corpus.instances]
        trees += [instance.goal.formula for instance in corpus.instances]
        trees += [tree for trace in corpus.traces for step in trace.steps for tree in (step.before, step.after)]
        assert len(trees) > 2000
        for f in trees:
            assert to_text(f) == naive_to_text(f)


class TestParsing:
    def test_beam_deflection_roundtrip(self):
        # delta = integral of (M_i * M_j) / (E * I) dx, built by hand
        by_hand = mk(
            "Equal",
            sym("delta"),
            mk(
                "Integral",
                mk("Divide", mk("Times", sym("M_i"), sym("M_j")), mk("Times", sym("E"), sym("I"))),
                sym("x"),
            ),
        )
        assert parse(to_text(by_hand)) == by_hand

    def test_whitespace_insensitive(self):
        a = parse('Plus( Sym("a") ,\n\tNum( 2 ) )')
        assert a == mk("Plus", sym("a"), num(2))

    def test_differential_alias(self):
        f = parse('Differential(Sym("x"))')
        assert f.kind == DER
        assert to_text(f) == 'Der(Sym("x"))'

    def test_num_literal_preserved(self):
        assert to_text(parse("Num(2.50)")) == "Num(2.50)"
        assert to_text(parse("Num(-3)")) == "Num(-3)"

    def test_parse_arity_error(self):
        with pytest.raises(ArityError):
            parse('Plus(Sym("a"))')

    def test_parse_unknown_kind(self):
        with pytest.raises(UnknownKind):
            parse('Wobble(Sym("a"))')

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse('Plus(Sym("a"),')
        assert err.value.position == len('Plus(Sym("a"),')

    def test_parse_error_bad_token(self):
        with pytest.raises(ParseError):
            parse('Plus(Sym("a") % Sym("b"))')

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse('Sym("a") Sym("b")')

    def test_string_where_number_expected(self):
        with pytest.raises(ParseError):
            parse('Num("2")')

    def test_nesting_limit(self):
        deepest = "Sqrt(" * (MAX_DEPTH - 1) + 'Sym("x")' + ")" * (MAX_DEPTH - 1)
        assert to_text(parse(deepest)) == deepest
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse("Sqrt(" + deepest + ")")
        with pytest.raises(ParseError, match="nested deeper"):
            parse("Plus(Num(1)," * 5000 + "Num(1)" + ")" * 5000)

    def test_roundtrip_random(self):
        rng = random.Random(1234)
        for _ in range(200):
            f = random_tree(rng, 5)
            assert parse(to_text(f)) == f


class TestParseCanonical:
    def test_canonical_text_is_accepted(self):
        rng = random.Random(4321)
        for _ in range(200):
            f = random_tree(rng, 5)
            assert parse_canonical(to_text(f)) == f

    @pytest.mark.parametrize("text", [' Plus( Sym("a") , Num(2) ) ', 'Differential(Sym("x"))'])
    def test_other_spellings_are_refused(self, text):
        canonical = to_text(parse(text))
        with pytest.raises(FileFormatError) as err:
            parse_canonical(text)
        assert str(err.value) == f"tree {text!r} is not written as {canonical}"

    @pytest.mark.parametrize(
        "text, error",
        [('Plus(Sym("a"))', ArityError), ('Wobble(Sym("a"))', UnknownKind), ('Plus(Sym("a"),', ParseError)],
    )
    def test_parse_errors_keep_their_types(self, text, error):
        with pytest.raises(error):
            parse_canonical(text)


class TestPaths:
    def setup_method(self):
        self.f = mk("Equal", mk("Plus", sym("a"), sym("b")), mk("Times", sym("c"), num(2)))

    def test_subtree_at(self):
        assert subtree_at(self.f, ()) is self.f
        assert subtree_at(self.f, (0, 1)) == sym("b")
        assert subtree_at(self.f, (1, 1)) == num(2)

    def test_subtree_at_invalid(self):
        with pytest.raises(InvalidPath):
            subtree_at(self.f, (2,))
        with pytest.raises(InvalidPath):
            subtree_at(self.f, (0, 0, 0))

    def test_replace_at_root(self):
        assert replace_at(self.f, (), sym("z")) == sym("z")

    def test_replace_preserves_siblings(self):
        g = replace_at(self.f, (0, 1), sym("q"))
        assert subtree_at(g, (0, 1)) == sym("q")
        assert subtree_at(g, (0, 0)) == sym("a")
        assert subtree_at(g, (1,)) == subtree_at(self.f, (1,))
        # original untouched
        assert subtree_at(self.f, (0, 1)) == sym("b")

    def test_replace_at_invalid(self):
        with pytest.raises(InvalidPath):
            replace_at(self.f, (0, 5), sym("q"))

    def test_walk_preorder(self):
        paths = [path for path, _ in walk(self.f)]
        assert paths == [(), (0,), (0, 0), (0, 1), (1,), (1, 0), (1, 1)]

    def test_path_text_roundtrip(self):
        assert format_path(()) == ""
        assert format_path((1, 0, 12)) == "1.0.12"
        for path, _ in walk(self.f):
            assert parse_path(format_path(path)) == path

    def test_parse_path_rejects_junk(self):
        for text in ("x.y", "1.", ".1", "1..2", "root", "01", "+1", "-1", " 1", "1. 2", "1_0", "0.-0"):
            with pytest.raises(FileFormatError, match="bad site path"):
                parse_path(text)


def walked_kinds(f):
    """The kind set of f recomputed from scratch, one bit per node walked."""
    kinds = 0
    for _, node in walk(f):
        kinds |= 1 << node.kind
    return kinds


def assert_kind_sets(f):
    """kind_set is right at f and at every node below it."""
    assert kind_set(f) == walked_kinds(f), to_text(f)
    for _, node in walk(f):
        assert kind_set(node) == walked_kinds(node), to_text(node)


class TestKindSet:
    """kind_set against the set recomputed with walk, on every way a tree is
    built, and the cache stays out of a node's identity."""

    def test_parsed_trees(self):
        rng = random.Random(31)
        for _ in range(200):
            assert_kind_sets(parse(to_text(random_tree(rng, 5))))

    def test_replace_at_spines(self):
        # the spine is new; its siblings are the old tree's nodes, cached first
        rng = random.Random(32)
        for _ in range(200):
            f = random_tree(rng, 4)
            kind_set(f)
            site = rng.choice([path for path, _ in walk(f)])
            g = replace_at(f, site, random_tree(rng, 3))
            assert_kind_sets(g)
            assert_kind_sets(f)

    def test_substitute_results(self, base_rules):
        # a result shares the right side's unbound subtrees and the bound
        # subtrees; both may be cached before the result is built
        rng = random.Random(33)
        for rule in base_rules:
            kind_set(rule.rhs)
            for n in range(20):
                binding = {var: random_tree(rng, 3) for var in sorted(rule.vars)}
                if n % 2:
                    for bound in binding.values():
                        kind_set(bound)
                assert_kind_sets(substitute(rule.rhs, binding))
            assert_kind_sets(rule.rhs)

    def test_tree_nested_max_depth(self):
        tags = ("Sqrt", "Der", "Sum", "Ln", "Exp", "Sin", "Cos")
        text = 'Num(1)'
        for level in range(MAX_DEPTH - 1):
            text = f"{tags[level % len(tags)]}({text})"
        f = parse(text)
        assert len(list(walk(f))) == MAX_DEPTH
        assert kind_set(f) == walked_kinds(f) == sum(1 << KIND_BY_TAG[tag] for tag in tags) | (1 << NUM)
        assert_kind_sets(f)

    def test_every_kind(self):
        f = parse(
            'Equal(Plus(Minus(Sym("a"),Num(1)),Times(Divide(Sym("a"),Sym("b")),Power(Sym("a"),Num(2)))),'
            'Integral(Sqrt(Der(Sym("x"))),DerivRatio(Sum(Ln(Sym("y"))),Exp(Sin(Cos(FuncApply("f",Sym("z"))))))))'
        )
        assert kind_set(f) == walked_kinds(f) == (1 << N_KINDS) - 1
        assert kind_set(sym("x")) == 1 << SYM

    def test_constructors_store_zero(self):
        leaf = sym("x")
        assert leaf._kinds == 0
        assert _rebuild(PLUS, None, (leaf, num(1)))._kinds == 0
        assert mk("Plus", leaf, num(1))._kinds == 0

    def test_cache_is_not_identity(self):
        text = 'Equal(Der(Sym("y")),Times(Num(2),Sym("x")))'
        cached, fresh = parse(text), parse(text)
        kind_set(cached)
        assert cached._kinds and not fresh._kinds
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == text
        assert {cached: 1}[fresh] == 1
        with pytest.raises(AttributeError):
            fresh._kinds = 1


class TestNodeLayout:
    def test_node_fits_80_bytes(self):
        # six slots keep a node in the 80-byte allocation class
        assert sys.getsizeof(sym("x")) <= 80

    def test_builder_is_not_identity(self, base_rules):
        # a rule's right side carries its builder; a parsed copy has none
        for rule in base_rules:
            copy = parse(to_text(rule.rhs))
            assert rule.rhs._memo is not None and copy._memo is None
            assert copy == rule.rhs and hash(copy) == hash(rule.rhs)
            assert repr(copy) == repr(rule.rhs)
            with pytest.raises(AttributeError):
                copy._memo = rule.rhs._memo
