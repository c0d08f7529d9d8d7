import random

import pytest

from symderive import kernels
from symderive.expr import func, mk, num, parse, replace_at, subtree_at, sym, to_text, walk
from symderive.pattern import find_all, find_first, match_at
from symderive.rewrite import substitute

from conftest import random_tree
from oracles import naive_find_all, naive_match


def both_sides_product():
    # e^x * sin(x) = m(x) * t
    return mk(
        "Equal",
        mk("Times", mk("Exp", sym("x")), mk("Sin", sym("x"))),
        mk("Times", func("m", sym("x")), sym("t")),
    )


class TestMatchAt:
    def test_product_template_binds_subtrees(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        binding = match_at(target, (0,), template, {"a", "b"})
        assert binding == {"a": mk("Exp", sym("x")), "b": mk("Sin", sym("x"))}
        binding = match_at(target, (1,), template, {"a", "b"})
        assert binding == {"a": func("m", sym("x")), "b": sym("t")}

    def test_no_match_wrong_kind(self):
        target = both_sides_product()
        template = mk("Plus", sym("a"), sym("b"))
        assert match_at(target, (0,), template, {"a", "b"}) is None

    def test_literal_sym_must_be_exact(self):
        template = mk("Times", sym("a"), sym("t"))  # t is literal here
        target = both_sides_product()
        assert match_at(target, (1,), template, {"a"}) == {"a": func("m", sym("x"))}
        assert match_at(target, (0,), template, {"a"}) is None

    def test_literal_num_must_be_exact(self):
        template = mk("Power", sym("a"), num(2))
        assert match_at(mk("Power", sym("v"), num(2)), (), template, {"a"}) == {"a": sym("v")}
        assert match_at(mk("Power", sym("v"), num(3)), (), template, {"a"}) is None
        # "2" and "2.0" are distinct literals
        assert match_at(mk("Power", sym("v"), num("2.0")), (), template, {"a"}) is None

    def test_nonlinear_var_requires_equal_subtrees(self):
        template = mk("Plus", sym("a"), sym("a"))
        same = mk("Plus", mk("Sin", sym("x")), mk("Sin", sym("x")))
        diff = mk("Plus", mk("Sin", sym("x")), mk("Cos", sym("x")))
        assert match_at(same, (), template, {"a"}) == {"a": mk("Sin", sym("x"))}
        assert match_at(diff, (), template, {"a"}) is None

    def test_arity_mismatch_fails(self):
        template = mk("Times", sym("a"), sym("b"))
        target = mk("Times", sym("x"), sym("y"), sym("z"))
        assert match_at(target, (), template, {"a", "b"}) is None

    def test_funcapply_name_is_literal(self):
        template = func("m", sym("a"))
        assert match_at(func("m", num(1)), (), template, {"a"}) == {"a": num(1)}
        assert match_at(func("n", num(1)), (), template, {"a"}) is None

    def test_bad_site(self):
        from symderive.errors import InvalidPath

        with pytest.raises(InvalidPath):
            match_at(sym("x"), (0,), sym("a"), {"a"})


class TestFind:
    def test_bare_var_matches_root_first(self):
        target = both_sides_product()
        m = find_first(target, sym("a"), {"a"})
        assert m.site == () and m.binding == {"a": target}

    def test_find_first_is_preorder(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        m = find_first(target, template, {"a", "b"})
        assert m.site == (0,)

    def test_find_first_none(self):
        assert find_first(sym("x"), mk("Plus", sym("a"), sym("b")), {"a", "b"}) is None

    def test_find_all_ordering_and_sites(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        sites = [m.site for m in find_all(target, template, {"a", "b"})]
        assert sites == [(0,), (1,)]

    def test_find_all_nested(self):
        target = mk("Times", mk("Times", sym("a"), sym("b")), sym("c"))
        template = mk("Times", sym("p"), sym("q"))
        sites = [m.site for m in find_all(target, template, {"p", "q"})]
        assert sites == [(), (0,)]

    def test_find_all_bindings_usable(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        for m in find_all(target, template, {"a", "b"}):
            assert subtree_at(target, m.site) == mk("Times", m.binding["a"], m.binding["b"])


class TestAgainstOracle:
    def test_random_templates_against_naive(self):
        rng = random.Random(77)
        for _ in range(300):
            target = random_tree(rng, 4)
            template = random_tree(rng, 3)
            names = sorted({n.payload for _, n in walk(template) if n.kind == 0})
            var_names = frozenset(rng.sample(names, k=rng.randint(0, len(names))) if names else [])
            got = [(m.site, m.binding) for m in find_all(target, template, var_names)]
            want = naive_find_all(target, template, var_names)
            assert got == want, (to_text(target), to_text(template), sorted(var_names))

    def test_planted_subtree_always_matches(self):
        # a subtree used verbatim as its own template (no vars) must match at its site
        rng = random.Random(2024)
        for _ in range(200):
            target = random_tree(rng, 4)
            spots = [path for path, _ in walk(target)]
            site = spots[rng.randrange(len(spots))]
            piece = subtree_at(target, site)
            assert match_at(target, site, piece, frozenset()) == {}
            assert naive_match(piece, piece, frozenset()) == {}

    def test_abstracted_child_matches_with_binding(self):
        rng = random.Random(9)
        for _ in range(200):
            target = random_tree(rng, 4)
            internal = [path for path, node in walk(target) if node.children]
            if not internal:
                continue
            site = internal[rng.randrange(len(internal))]
            piece = subtree_at(target, site)
            slot = rng.randrange(len(piece.children))
            from symderive.expr import replace_at

            template = replace_at(piece, (slot,), sym("hole"))
            binding = match_at(target, site, template, frozenset({"hole"}))
            assert binding is not None and binding["hole"] == piece.children[slot]
            assert naive_match(piece, template, frozenset({"hole"})) == binding


ROOT_KEY_TEMPLATES = {
    "bare_var": (sym("a"), {"a"}),
    "literal_sym": (sym("x"), {"a"}),
    "num": (num(2), set()),
    "func_f": (func("f", sym("a")), {"a"}),
    "func_g": (func("g", sym("a"), sym("b")), {"a", "b"}),
    "plus_two": (mk("Plus", sym("a"), sym("b")), {"a", "b"}),
    "plus_three": (mk("Plus", sym("a"), num(1), sym("b")), {"a", "b"}),
    "repeated_var": (mk("Times", sym("a"), sym("a")), {"a"}),
}


class TestRootKey:
    """The scan skips nodes whose (kind, payload, child count) differs from a
    non-variable template root; the naive matcher tries every node."""

    @pytest.mark.parametrize("name", sorted(ROOT_KEY_TEMPLATES))
    def test_against_naive(self, name):
        template, names = ROOT_KEY_TEMPLATES[name]
        var_names = frozenset(names)
        rng = random.Random(sorted(ROOT_KEY_TEMPLATES).index(name))
        hits = 0
        for n in range(300):
            target = random_tree(rng, 4)
            if n % 2:
                # plant an instance of the template, each variable bound to a random subtree
                instance = substitute(template, {var: random_tree(rng, 2) for var in sorted(var_names)})
                spots = [path for path, _ in walk(target)]
                target = replace_at(target, spots[rng.randrange(len(spots))], instance)
            want = naive_find_all(target, template, var_names)
            assert kernels.find_all(target, template, var_names) == want, to_text(target)
            assert kernels.find_first(target, template, var_names) == (want[0] if want else None)
            hits += bool(want)
        assert hits >= 150
