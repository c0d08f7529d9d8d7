import random

import pytest

from symderive.errors import ArityError, FileFormatError, InvalidPath, ParseError, UnknownKind
from symderive.expr import (
    DER,
    MAX_DEPTH,
    N_KINDS,
    NUM,
    PLUS,
    SYM,
    Formula,
    format_path,
    func,
    mk,
    num,
    parse,
    parse_path,
    replace_at,
    subtree_at,
    sym,
    to_text,
    walk,
)

from conftest import random_tree


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


class TestPrinting:
    def test_known_forms(self):
        f = mk("Equal", mk("Der", func("f", sym("x"))), mk("Times", mk("Sin", sym("x")), mk("Der", sym("x"))))
        assert to_text(f) == 'Equal(Der(FuncApply("f",Sym("x"))),Times(Sin(Sym("x")),Der(Sym("x"))))'

    def test_zero_arg_func(self):
        assert to_text(func("f")) == 'FuncApply("f")'

    def test_repr_is_text(self):
        assert repr(sym("q")) == 'Sym("q")'


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
        for text in ("x.y", "1.", ".1", "1..2", "root"):
            with pytest.raises(FileFormatError, match="bad site path"):
                parse_path(text)
