import random

import pytest

from symderive.dataset import GenConfig, build_corpus
from symderive.expr import FUNC, KIND_BY_TAG, Formula, arity_bounds, func, mk, num, parse, replace_at, subtree_at, sym, to_text, walk
from symderive.pattern import compile_template, find_all, find_first, match_at
from symderive.rewrite import packaged_rules, substitute

from conftest import FUNC_NAMES, LEAF_NAMES, OPERATOR_TAGS, random_tree
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
        binding = match_at(target, (0,), compile_template(template, {"a", "b"}))
        assert binding == {"a": mk("Exp", sym("x")), "b": mk("Sin", sym("x"))}
        binding = match_at(target, (1,), compile_template(template, {"a", "b"}))
        assert binding == {"a": func("m", sym("x")), "b": sym("t")}

    def test_no_match_wrong_kind(self):
        target = both_sides_product()
        template = mk("Plus", sym("a"), sym("b"))
        assert match_at(target, (0,), compile_template(template, {"a", "b"})) is None

    def test_literal_sym_must_be_exact(self):
        template = mk("Times", sym("a"), sym("t"))  # t is literal here
        target = both_sides_product()
        assert match_at(target, (1,), compile_template(template, {"a"})) == {"a": func("m", sym("x"))}
        assert match_at(target, (0,), compile_template(template, {"a"})) is None

    def test_literal_num_must_be_exact(self):
        template = mk("Power", sym("a"), num(2))
        assert match_at(mk("Power", sym("v"), num(2)), (), compile_template(template, {"a"})) == {"a": sym("v")}
        assert match_at(mk("Power", sym("v"), num(3)), (), compile_template(template, {"a"})) is None
        # "2" and "2.0" are distinct literals
        assert match_at(mk("Power", sym("v"), num("2.0")), (), compile_template(template, {"a"})) is None

    def test_nonlinear_var_requires_equal_subtrees(self):
        template = mk("Plus", sym("a"), sym("a"))
        same = mk("Plus", mk("Sin", sym("x")), mk("Sin", sym("x")))
        diff = mk("Plus", mk("Sin", sym("x")), mk("Cos", sym("x")))
        assert match_at(same, (), compile_template(template, {"a"})) == {"a": mk("Sin", sym("x"))}
        assert match_at(diff, (), compile_template(template, {"a"})) is None

    def test_arity_mismatch_fails(self):
        template = mk("Times", sym("a"), sym("b"))
        target = mk("Times", sym("x"), sym("y"), sym("z"))
        assert match_at(target, (), compile_template(template, {"a", "b"})) is None

    def test_funcapply_name_is_literal(self):
        template = func("m", sym("a"))
        assert match_at(func("m", num(1)), (), compile_template(template, {"a"})) == {"a": num(1)}
        assert match_at(func("n", num(1)), (), compile_template(template, {"a"})) is None

    def test_bad_site(self):
        from symderive.errors import InvalidPath

        with pytest.raises(InvalidPath):
            match_at(sym("x"), (0,), compile_template(sym("a"), {"a"}))


class TestFind:
    def test_bare_var_matches_root_first(self):
        target = both_sides_product()
        m = find_first(target, compile_template(sym("a"), {"a"}))
        assert m.site == () and m.binding == {"a": target}

    def test_find_first_is_preorder(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        m = find_first(target, compile_template(template, {"a", "b"}))
        assert m.site == (0,)

    def test_find_first_none(self):
        assert find_first(sym("x"), compile_template(mk("Plus", sym("a"), sym("b")), {"a", "b"})) is None

    def test_find_all_ordering_and_sites(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        sites = [m.site for m in find_all(target, compile_template(template, {"a", "b"}))]
        assert sites == [(0,), (1,)]

    def test_find_all_nested(self):
        target = mk("Times", mk("Times", sym("a"), sym("b")), sym("c"))
        template = mk("Times", sym("p"), sym("q"))
        sites = [m.site for m in find_all(target, compile_template(template, {"p", "q"}))]
        assert sites == [(), (0,)]

    def test_find_all_bindings_usable(self):
        target = both_sides_product()
        template = mk("Times", sym("a"), sym("b"))
        for m in find_all(target, compile_template(template, {"a", "b"})):
            assert subtree_at(target, m.site) == mk("Times", m.binding["a"], m.binding["b"])


TEMPLATE_VARS = ("a", "b")


def feature_template(rng, depth):
    """A random template built from what the matcher generator treats
    apart: few variable names (so they repeat), Sym and Num literal leaves,
    FuncApply payloads and variadic Plus/Times child counts. At the top it
    is a bare variable about one time in eight."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.5:
            return sym(rng.choice(TEMPLATE_VARS))
        if leaf < 0.75:
            return sym(rng.choice(LEAF_NAMES))
        return num(rng.choice(("0", "1", "2", "2.0", "-1")))
    if roll < 0.4:
        return func(rng.choice(FUNC_NAMES), *(feature_template(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if roll < 0.75:
        return mk(rng.choice(("Plus", "Times")), *(feature_template(rng, depth - 1) for _ in range(rng.randint(2, 4))))
    tag = rng.choice([t for t in OPERATOR_TAGS if t not in ("Plus", "Times")])
    n, _ = arity_bounds(KIND_BY_TAG[tag])
    return mk(tag, *(feature_template(rng, depth - 1) for _ in range(n)))


def redraw_func_names(rng, tree):
    """tree with the name of every FuncApply node drawn again."""
    kids = tuple(redraw_func_names(rng, child) for child in tree.children)
    if tree.kind == FUNC:
        return func(rng.choice(FUNC_NAMES), *kids)
    return Formula(tree.kind, tree.payload, kids)


def assert_agrees_with_naive(target, template, var_names):
    """Compiled and naive matcher agree at every node of target, and
    find_all/find_first return the naive sites in the same order. Returns
    the number of matching sites."""
    compiled = compile_template(template, var_names)
    for _, node in walk(target):
        assert compiled.match(node) == naive_match(node, template, var_names), (to_text(node), to_text(template))
    want = naive_find_all(target, template, var_names)
    assert find_all(target, compiled) == want, (to_text(target), to_text(template))
    assert find_first(target, compiled) == (want[0] if want else None)
    return len(want)


class TestAgainstOracle:
    def test_random_templates_against_naive(self):
        rng = random.Random(77)
        for _ in range(300):
            target = random_tree(rng, 4)
            template = random_tree(rng, 3)
            names = sorted({n.payload for _, n in walk(template) if n.kind == 0})
            var_names = frozenset(rng.sample(names, k=rng.randint(0, len(names))) if names else [])
            got = [(m.site, m.binding) for m in find_all(target, compile_template(template, var_names))]
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
            assert match_at(target, site, compile_template(piece, frozenset())) == {}
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
            binding = match_at(target, site, compile_template(template, frozenset({"hole"})))
            assert binding is not None and binding["hole"] == piece.children[slot]
            assert naive_match(piece, template, frozenset({"hole"})) == binding

    def test_feature_templates_against_naive(self):
        rng = random.Random(4242)
        var_names = frozenset(TEMPLATE_VARS)
        hits = repeated = bare = 0
        for n in range(800):
            template = feature_template(rng, 3)
            target = random_tree(rng, 4)
            if n % 4:
                # plant an instance: with each variable bound once, with each
                # occurrence bound apart (so that repeats mostly differ), or
                # with every FuncApply name drawn again
                if n % 4 == 2:
                    spots = [path for path, node in walk(template) if node.kind == 0 and node.payload in var_names]
                    instance = template
                    for path in spots:
                        instance = replace_at(instance, path, random_tree(rng, 1))
                else:
                    instance = substitute(template, {v: random_tree(rng, 2) for v in TEMPLATE_VARS})
                    if n % 4 == 3:
                        instance = redraw_func_names(rng, instance)
                sites = [path for path, _ in walk(target)]
                target = replace_at(target, sites[rng.randrange(len(sites))], instance)
            hits += assert_agrees_with_naive(target, template, var_names) > 0
            names = [node.payload for _, node in walk(template) if node.kind == 0 and node.payload in var_names]
            repeated += len(names) > len(set(names))
            bare += template.kind == 0 and template.payload in var_names
        assert hits >= 300 and repeated >= 100 and bare >= 30, (hits, repeated, bare)


class TestCompiledRules:
    """Every packaged rule's compiled matcher against naive_match, and a
    compiled template's source against its variable names."""

    @pytest.fixture(scope="class")
    def corpus_trees(self, base_rules):
        """Every start, goal and step tree of a seed-0, 220-instance corpus."""
        corpus = build_corpus(GenConfig(count=220), 0, base_rules)
        trees = {inst.start for inst in corpus.instances} | {inst.goal.formula for inst in corpus.instances}
        return trees | {step.after for trace in corpus.traces for step in trace.steps}

    @pytest.mark.parametrize("rule_set", ["ode_base", "mechanics"])
    def test_packaged_rules_on_corpus(self, rule_set, corpus_trees):
        trees = corpus_trees
        nodes = {node for tree in trees for _, node in walk(tree)}
        hits = 0
        for rule in packaged_rules(rule_set):
            for node in nodes:
                binding = rule.matcher.match(node)
                assert binding == naive_match(node, rule.lhs, rule.vars), (rule.id, to_text(node))
                hits += binding is not None
            for tree in trees:
                assert find_all(tree, rule.matcher) == naive_find_all(tree, rule.lhs, rule.vars), (rule.id, to_text(tree))
        assert hits > 0

    def test_foreign_variable_names_stay_out_of_source(self):
        # names that are not symbol names are refused before any source is built
        foreign = {'a") or ("', "__import__('os').getcwd()", "b\n    return {}", "1 + 1", "", "q]:z"}
        var_names = {"a"}
        template = mk("Plus", sym("a"), func("f", sym("a"), num(2)), sym("x"))
        for name in foreign:
            with pytest.raises(ValueError, match="is not a symbol name"):
                compile_template(template, var_names | {name})
        rng = random.Random(5)
        for n in range(100):
            target = random_tree(rng, 3)
            if n % 2:
                target = mk("Times", target, substitute(template, {"a": random_tree(rng, 2)}))
            assert_agrees_with_naive(target, template, var_names)


ROOT_KEY_TEMPLATES = {
    "bare_var": (sym("a"), {"a"}),
    "literal_sym": (sym("x"), {"a"}),
    "num": (num(2), set()),
    "func_f": (func("f", sym("a")), {"a"}),
    "func_g": (func("g", sym("a"), sym("b")), {"a", "b"}),
    "plus_two": (mk("Plus", sym("a"), sym("b")), {"a", "b"}),
    "plus_three": (mk("Plus", sym("a"), num(1), sym("b")), {"a", "b"}),
    "repeated_var": (mk("Times", sym("a"), sym("a")), {"a"}),
    "num_decimal": (num("0.50"), set()),
    "bare_var_b": (sym("b"), {"a", "b"}),
}

# Templates planted only deep in a tree, under nodes whose other children are
# Sym leaves and whose kinds differ from the template root's: the scan must
# find its way down through subtrees that hold the root's kind and nowhere
# else. Operator, FuncApply, Num- and Sym-rooted literals, and a bare
# variable, which every subtree can hold.
DEEP_TEMPLATES = {
    "equal": (mk("Equal", sym("a"), sym("b")), {"a", "b"}),
    "integral": (mk("Integral", sym("a"), sym("t")), {"a"}),
    "func_f": (func("f", sym("a")), {"a"}),
    "num_literal": (num(7), set()),
    "sym_literal": (sym("k"), set()),
    "bare_var": (sym("a"), {"a"}),
}


def bury(rng, template, var_names, levels):
    """An instance of template under `levels` random operator nodes of other
    kinds, whose other children are Sym leaves; at each level, one time in
    five, a second instance takes a sibling's place."""
    root_kind = template.kind
    tags = [tag for tag in OPERATOR_TAGS if KIND_BY_TAG[tag] != root_kind]

    def instance():
        return substitute(template, {var: sym(rng.choice(LEAF_NAMES)) for var in sorted(var_names)})

    node = instance()
    for _ in range(levels):
        tag = rng.choice(tags)
        lo, hi = arity_bounds(KIND_BY_TAG[tag])
        kids = [sym(rng.choice(LEAF_NAMES)) for _ in range(lo if lo == hi else rng.randint(lo, 3))]
        slot = rng.randrange(len(kids))
        kids[slot] = node
        if len(kids) > 1 and rng.random() < 0.2:
            kids[(slot + 1) % len(kids)] = instance()
        node = mk(tag, *kids)
    return node


class TestRootKey:
    """The scan calls the matcher only at nodes of a non-variable template
    root's kind, and skips subtrees whose kind set lacks that kind; the
    naive matcher tries every node."""

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
            assert find_all(target, compile_template(template, var_names)) == want, to_text(target)
            assert find_first(target, compile_template(template, var_names)) == (want[0] if want else None)
            hits += bool(want)
        assert hits >= 150

    @pytest.mark.parametrize("name", sorted(DEEP_TEMPLATES))
    def test_sites_only_deep(self, name):
        template, names = DEEP_TEMPLATES[name]
        var_names = frozenset(names)
        compiled = compile_template(template, var_names)
        rng = random.Random(100 + sorted(DEEP_TEMPLATES).index(name))
        for _ in range(200):
            target = bury(rng, template, var_names, rng.randint(1, 8))
            want = naive_find_all(target, template, var_names)
            assert want, to_text(target)
            assert find_all(target, compiled) == want, to_text(target)
            assert find_first(target, compiled) == want[0], to_text(target)


# Templates whose root matches leaves, so the scan must visit them: a Num
# literal, a Sym that is not a variable, a FuncApply with no arguments, and
# a bare variable. Sin(a) is the contrast: a root with children.
LEAF_ROOTED_TEMPLATES = {
    "num_one": (num(1), set()),
    "literal_sym_k": (sym("k"), {"a"}),
    "func_f_no_args": (func("f"), set()),
    "bare_var": (sym("a"), {"a"}),
    "bare_var_of_two": (sym("b"), {"a", "b"}),
    "num_decimal": (num("2.50"), set()),
    "sin_of_var": (mk("Sin", sym("a")), {"a"}),
}


class TestLeafSites:
    """The scan descends into leaves only for a template that can match one;
    sites and their order stay the naive matcher's."""

    @pytest.mark.parametrize("name", sorted(LEAF_ROOTED_TEMPLATES))
    def test_against_naive(self, name):
        template, names = LEAF_ROOTED_TEMPLATES[name]
        var_names = frozenset(names)
        compiled = compile_template(template, var_names)
        rng = random.Random(sorted(LEAF_ROOTED_TEMPLATES).index(name))
        below_root = 0
        for n in range(300):
            target = random_tree(rng, 4)
            if n % 2:
                # plant instances in place of up to three leaves under the root
                instance = substitute(template, {"a": random_tree(rng, 1)})
                leaves = [path for path, node in walk(target) if path and not node.children]
                for path in rng.sample(leaves, k=min(3, len(leaves))):
                    target = replace_at(target, path, instance)
            want = naive_find_all(target, template, var_names)
            assert find_all(target, compiled) == want, to_text(target)
            assert find_first(target, compiled) == (want[0] if want else None), to_text(target)
            below_root += any(site for site, _ in want)
        assert below_root >= 75
