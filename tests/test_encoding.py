import random

import pytest

from symderive.encoding import (
    DEFAULT_CODES,
    DEFAULT_L_MAX,
    SymbolTable,
    default_table,
    distance,
    encode,
    format_vector,
    parse_table,
    parse_vector,
    serialize_table,
)
from symderive.errors import EncodingOverflow, FileFormatError, TableMismatch
from symderive.expr import func, mk, num, parse, sym

from conftest import random_tree
from oracles import naive_encode, positional_mismatches


class TestDefaultCodes:
    def test_frozen_assignments(self):
        assert DEFAULT_CODES == {
            "Sym": 0,
            "Num": 0,
            "Plus": 1,
            "Minus": 2,
            "Times": 3,
            "Equal": 4,
            "Integral": 5,
            "Sum": 6,
            "Divide": 8,
            "Sqrt": 9,
            "Der": 10,
            "Ln": 11,
            "Exp": 12,
            "DerivRatio": 13,
            "Sin": 14,
            "Cos": 15,
            "Power": 16,
            "FuncApply": 17,
        }

    def test_code_seven_is_reserved(self):
        assert 7 not in DEFAULT_CODES.values()

    def test_default_table(self):
        table = default_table()
        assert table.l_max == DEFAULT_L_MAX == 64
        assert table.code_for("Divide") == 8


class TestTableValidation:
    def test_missing_tag(self):
        codes = dict(DEFAULT_CODES)
        del codes["Cos"]
        with pytest.raises(FileFormatError, match="missing"):
            SymbolTable(codes)

    def test_unknown_tag(self):
        codes = dict(DEFAULT_CODES, Gamma=20)
        with pytest.raises(FileFormatError, match="unknown tag"):
            SymbolTable(codes)

    def test_nonzero_leaf_code(self):
        codes = dict(DEFAULT_CODES, Num=3)
        with pytest.raises(FileFormatError, match="code 0"):
            SymbolTable(codes)

    def test_duplicate_nonzero_code(self):
        codes = dict(DEFAULT_CODES, Cos=1)  # collides with Plus
        with pytest.raises(FileFormatError, match="assigned to both"):
            SymbolTable(codes)

    def test_negative_code(self):
        codes = dict(DEFAULT_CODES, Cos=-2)
        with pytest.raises(FileFormatError, match="negative"):
            SymbolTable(codes)

    def test_bad_l_max(self):
        with pytest.raises(ValueError):
            SymbolTable(DEFAULT_CODES, 0)

    def test_immutable(self, table):
        with pytest.raises(AttributeError):
            table.l_max = 3

    def test_equality(self):
        assert default_table(16) == default_table(16)
        assert default_table(16) != default_table(32)
        assert hash(default_table(16)) == hash(default_table(16))


class TestTableFiles:
    def test_roundtrip(self, table, tmp_path):
        path = tmp_path / "codes.table"
        table.save(str(path))
        assert SymbolTable.load(str(path)) == table

    def test_parse_accepts_comments(self):
        text = "# codes\n" + serialize_table(default_table(8))
        assert parse_table(text) == default_table(8)

    def test_parse_missing_l_max(self):
        text = "\n".join(f"{tag}={code}" for tag, code in DEFAULT_CODES.items())
        with pytest.raises(FileFormatError, match="L_max"):
            parse_table(text)

    def test_parse_bad_value(self):
        with pytest.raises(FileFormatError, match="not an integer"):
            parse_table("Plus=one\nL_max=8\n")

    def test_parse_bad_line(self):
        with pytest.raises(FileFormatError, match="tag=code"):
            parse_table("Plus 1\nL_max=8\n")

    def test_parse_duplicate_tag(self):
        text = serialize_table(default_table(8)) + "Plus=1\n"
        with pytest.raises(FileFormatError, match="duplicate"):
            parse_table(text)


# Two forced-oscillation right-hand sides, encoded by hand against
# DEFAULT_CODES. The first tree has 13 internal-sweep entries, the second 16;
# padded to a shared length they disagree in exactly 6 positions.
WORKED_A = 'Plus(Times(Sym("t"),Exp(Sym("x"))),Times(Sym("m"),Cos(Sym("x"))))'
WORKED_A_PREFIX = [1, 3, 3, 3, 0, 12, 12, 0, 3, 0, 15, 15, 0]
WORKED_B = 'Minus(Times(Sym("t"),Exp(Times(Num(-1),Sym("x")))),Times(Sym("a"),Sin(Sym("x"))))'
WORKED_B_PREFIX = [2, 3, 3, 3, 0, 12, 12, 3, 3, 0, 0, 3, 0, 14, 14, 0]
WORKED_DISTANCE = 6


class TestEncode:
    def test_worked_vector_a(self, table):
        v = encode(parse(WORKED_A), table)
        assert list(v[: len(WORKED_A_PREFIX)]) == WORKED_A_PREFIX
        assert set(v[len(WORKED_A_PREFIX):]) <= {0}
        assert len(v) == table.l_max

    def test_worked_vector_b(self, table):
        v = encode(parse(WORKED_B), table)
        assert list(v[: len(WORKED_B_PREFIX)]) == WORKED_B_PREFIX
        assert set(v[len(WORKED_B_PREFIX):]) <= {0}

    def test_worked_distance(self, table):
        a = encode(parse(WORKED_A), table)
        b = encode(parse(WORKED_B), table)
        assert distance(a, b) == WORKED_DISTANCE
        # cross-check against a direct positional count
        assert positional_mismatches(a, b) == WORKED_DISTANCE

    def test_leaf_blind(self, table):
        a = parse('Plus(Sym("x"),Times(Sym("y"),Num(3)))')
        b = parse('Plus(Num(-7),Times(Sym("q"),Sym("z")))')
        assert encode(a, table) == encode(b, table)

    def test_trailing_leaf_children_absorbed(self, table):
        # leaf children contribute zeros, so extra trailing leaves vanish
        # into the padding: f(x) and f(x,y) land on the same vector
        assert encode(func("f", sym("x")), table) == encode(func("f", sym("x"), sym("y")), table)

    def test_internal_children_shift_positions(self, table):
        # ...but arity is visible as soon as anything follows it
        a = encode(func("f", mk("Sin", sym("x"))), table)
        b = encode(func("f", mk("Sin", sym("x")), mk("Sin", sym("y"))), table)
        assert a != b

    def test_childless_root_is_all_zero(self, table):
        assert set(encode(sym("x"), table)) == {0}
        assert set(encode(num(5), table)) == {0}
        assert set(encode(func("f"), table)) == {0}

    def test_overflow(self):
        small = default_table(4)
        ok = mk("Plus", sym("a"), sym("b"))  # needs 3 entries
        assert len(encode(ok, small)) == 4
        too_big = mk("Plus", sym("a"), mk("Sin", sym("b")))  # needs 5
        with pytest.raises(EncodingOverflow, match="5"):
            encode(too_big, small)

    def test_matches_naive_oracle(self, table):
        rng = random.Random(505)
        for _ in range(300):
            f = random_tree(rng, 4)
            try:
                want = naive_encode(f, DEFAULT_CODES, table.l_max)
            except OverflowError:
                with pytest.raises(EncodingOverflow):
                    encode(f, table)
                continue
            assert encode(f, table) == want


class TestDistance:
    def test_mismatched_lengths(self):
        with pytest.raises(TableMismatch):
            distance((0, 1), (0, 1, 2))

    def test_metric_properties(self, table):
        rng = random.Random(606)
        vectors = [encode(random_tree(rng, 4), table) for _ in range(60)]
        for _ in range(200):
            a, b, c = (vectors[rng.randrange(len(vectors))] for _ in range(3))
            assert distance(a, a) == 0
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c)
            if a != b:
                assert distance(a, b) > 0

    def test_bounded_by_length(self, table):
        rng = random.Random(707)
        for _ in range(50):
            a = encode(random_tree(rng, 4), table)
            b = encode(random_tree(rng, 4), table)
            assert 0 <= distance(a, b) <= table.l_max


class TestVectorText:
    def test_roundtrip(self, table):
        v = encode(parse(WORKED_A), table)
        assert parse_vector(format_vector(v)) == v

    def test_parse_rejects_junk(self):
        with pytest.raises(FileFormatError):
            parse_vector("1 2 x")
