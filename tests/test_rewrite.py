import random

import pytest

from symderive import derivation, expr, rewrite
from symderive.dataset import GenConfig, build_corpus
from symderive.errors import (
    DuplicateId,
    FileFormatError,
    RuleNotApplicable,
    UnknownRule,
    ValidationFailed,
)
from symderive.expr import Formula, func, mk, num, parse, replace_at, sym, to_text, walk
from symderive.pattern import find_all
from symderive.rewrite import (
    Rule,
    RuleSet,
    apply_rule_at,
    apply_rule_first,
    load_rules,
    packaged_rules,
    parse_rules,
    save_rules,
    serialize_rules,
    substitute,
    template_vars,
)

from conftest import random_tree
from test_pattern import TEMPLATE_VARS, feature_template


class TestRuleConstruction:
    def test_basic(self):
        r = Rule("swap", parse('Equal(Sym("a"),Sym("b"))'), parse('Equal(Sym("b"),Sym("a"))'), frozenset("ab"))
        assert r.script == ()

    def test_script_is_a_tuple_of_pairs(self):
        r = Rule("swap2", parse('Ln(Sym("a"))'), parse('Cos(Sym("a"))'), "a", [["swap_sides", [0]], ("x", ())])
        assert r.script == (("swap_sides", (0,)), ("x", ()))

    def test_identical_sides_rejected(self):
        t = parse('Plus(Sym("a"),Sym("b"))')
        with pytest.raises(ValueError, match="identical"):
            Rule("noop", t, t, frozenset("ab"))

    def test_unbound_rhs_var_rejected(self):
        with pytest.raises(ValueError, match="unbound"):
            Rule("leak", sym("a"), mk("Plus", sym("a"), sym("b")), frozenset("ab"))

    def test_rhs_may_drop_vars(self):
        # forgetting a variable is fine; inventing one is not
        Rule("drop", mk("Times", sym("a"), sym("b")), sym("a"), frozenset("ab"))

    def test_bad_id(self):
        with pytest.raises(ValueError):
            Rule("has space", sym("a"), sym("b"), frozenset("ab"))
        with pytest.raises(ValueError):
            Rule("", sym("a"), sym("b"), frozenset("ab"))

    def test_template_vars_only_counts_occurring(self):
        t = mk("Plus", sym("a"), sym("x"))
        assert template_vars(t, {"a", "b"}) == frozenset({"a"})


class TestSubstitute:
    def test_replaces_vars_leaves_rest(self):
        t = mk("Equal", sym("a"), mk("Times", sym("b"), sym("k")))
        out = substitute(t, {"a": num(1), "b": mk("Sin", sym("x"))})
        assert out == mk("Equal", num(1), mk("Times", mk("Sin", sym("x")), sym("k")))

    def test_unbound_var_left_alone(self):
        assert substitute(sym("a"), {}) == sym("a")

    def test_shares_untouched_subtrees(self):
        t = mk("Plus", mk("Cos", sym("z")), sym("a"))
        out = substitute(t, {"a": num(3)})
        assert out.children[0] is t.children[0]


class TestApply:
    def test_divide_by_second_worked_example(self, base_rules):
        rule = base_rules.by_id("divide_by_second")
        start = parse('Equal(Der(Sym("y")),Times(Sym("k"),Der(Sym("x"))))')
        out = apply_rule_at(start, rule, ())
        assert out == parse('Equal(Divide(Der(Sym("y")),Der(Sym("x"))),Sym("k"))')

    def test_funcapply_operands(self, base_rules):
        # m(x) + s(y) = T(x,y)  --move_first_term-->  m(x) = T(x,y) - s(y)
        rule = base_rules.by_id("move_first_term")
        start = mk(
            "Equal",
            mk("Plus", func("m", sym("x")), func("s", sym("y"))),
            func("T", sym("x"), sym("y")),
        )
        out = apply_rule_at(start, rule, ())
        assert out == mk(
            "Equal",
            func("m", sym("x")),
            mk("Minus", func("T", sym("x"), sym("y")), func("s", sym("y"))),
        )

    def test_not_applicable_raises(self, base_rules):
        rule = base_rules.by_id("move_first_term")
        with pytest.raises(RuleNotApplicable):
            apply_rule_at(parse('Equal(Sym("a"),Sym("b"))'), rule, ())

    def test_apply_is_local(self, base_rules):
        rule = base_rules.by_id("swap_sides")
        inner = parse('Equal(Sym("p"),Sym("q"))')
        host = mk("Times", mk("Ln", inner), mk("Cos", sym("w")))
        out = apply_rule_at(host, rule, (0, 0))
        assert out.children[1] is host.children[1]
        assert out.children[0].children[0] == parse('Equal(Sym("q"),Sym("p"))')

    def test_apply_first_picks_preorder_site(self, base_rules):
        rule = base_rules.by_id("swap_sides")
        inner = parse('Equal(Sym("p"),Sym("q"))')
        host = mk("Times", mk("Ln", inner), mk("Cos", sym("w")))
        got = apply_rule_first(host, rule)
        assert got is not None
        out, site = got
        assert site == (0, 0)
        assert out == replace_at(host, (0, 0), parse('Equal(Sym("q"),Sym("p"))'))

    def test_apply_first_none_when_no_match(self, base_rules):
        rule = base_rules.by_id("clear_divisor")
        assert apply_rule_first(sym("x"), rule) is None


BALANCED_PAIRS = [
    # (lhs, rhs, vars) with the same variables on both sides: swapping the
    # templates yields the exact inverse rule.
    ('Times(Sym("a"),Sym("b"))', 'Times(Sym("b"),Sym("a"))', "ab"),
    ('Plus(Sym("a"),Plus(Sym("b"),Sym("c")))', 'Plus(Plus(Sym("a"),Sym("b")),Sym("c"))', "abc"),
    ('Equal(Sym("a"),Sym("b"))', 'Equal(Sym("b"),Sym("a"))', "ab"),
    ('Divide(Sym("a"),Sym("b"))', 'Times(Sym("a"),Power(Sym("b"),Num(-1)))', "ab"),
    ('Minus(Sym("a"),Sym("b"))', 'Plus(Sym("a"),Times(Num(-1),Sym("b")))', "ab"),
]


class TestRoundTrip:
    def test_inverse_restores_original(self):
        rng = random.Random(4242)
        for case in range(100):
            lhs_text, rhs_text, names = BALANCED_PAIRS[case % len(BALANCED_PAIRS)]
            fwd = Rule("fwd", parse(lhs_text), parse(rhs_text), frozenset(names))
            rev = Rule("rev", parse(rhs_text), parse(lhs_text), frozenset(names))
            binding = {name: random_tree(rng, 2) for name in names}
            planted = substitute(fwd.lhs, binding)
            host = random_tree(rng, 3)
            sites = [path for path, _ in walk(host)]
            site = sites[rng.randrange(len(sites))]
            start = replace_at(host, site, planted)
            stepped = apply_rule_at(start, fwd, site)
            assert stepped != start or fwd.lhs == fwd.rhs
            assert apply_rule_at(stepped, rev, site) == start


class TestRuleSet:
    def test_order_and_lookup(self, base_rules):
        assert base_rules.index_of("move_first_term") == 0
        assert base_rules[0] is base_rules.by_id("move_first_term")
        assert "swap_sides" in base_rules
        assert "no_such_rule" not in base_rules

    def test_missing_id_raises(self, base_rules):
        with pytest.raises(KeyError, match="no_such_rule"):
            base_rules.by_id("no_such_rule")
        with pytest.raises(KeyError):
            base_rules.index_of("no_such_rule")

    def test_duplicate_id_rejected(self):
        r = Rule("r1", sym("a"), num(0), frozenset("a"))
        with pytest.raises(DuplicateId):
            RuleSet([r, r])

    def test_with_rule_returns_new_set(self, base_rules):
        extra = Rule("extra", mk("Exp", mk("Ln", sym("a"))), sym("a"), frozenset("a"))
        bigger = base_rules.with_rule(extra)
        assert len(bigger) == len(base_rules) + 1
        assert "extra" in bigger and "extra" not in base_rules
        with pytest.raises(DuplicateId):
            bigger.with_rule(extra)

    def test_immutable(self, base_rules):
        with pytest.raises(AttributeError):
            base_rules.rules = ()

    def test_content_hash_tracks_content(self, base_rules):
        extra = Rule("extra", mk("Exp", mk("Ln", sym("a"))), sym("a"), frozenset("a"))
        assert base_rules.content_hash() != base_rules.with_rule(extra).content_hash()
        assert base_rules.content_hash() == parse_rules(serialize_rules(base_rules)).content_hash()


MOVE_THEN_SWAP = (
    parse('Equal(Plus(Sym("a"),Sym("b")),Sym("c"))'),
    parse('Equal(Minus(Sym("c"),Sym("b")),Sym("a"))'),
    frozenset("abc"),
    (("move_first_term", ()), ("swap_sides", ())),
)


class TestRegisterDerived:
    def test_script_validates_and_registers(self, base_rules):
        grown = base_rules.with_rule(Rule("move_then_swap", *MOVE_THEN_SWAP))
        rule = grown.by_id("move_then_swap")
        assert rule.script == (("move_first_term", ()), ("swap_sides", ()))
        # and the registered rule really rewrites
        start = parse('Equal(Plus(Sym("u"),Num(2)),Sym("w"))')
        assert apply_rule_at(start, rule, ()) == parse('Equal(Minus(Sym("w"),Num(2)),Sym("u"))')

    def test_script_with_nested_site(self, base_rules):
        before = parse('Ln(Equal(Sym("a"),Sym("b")))')
        after = parse('Ln(Equal(Sym("b"),Sym("a")))')
        grown = base_rules.with_rule(Rule("swap_under_ln", before, after, {"a", "b"}, [("swap_sides", (0,))]))
        assert grown.by_id("swap_under_ln").script == (("swap_sides", (0,)),)

    def test_wrong_after_fails(self, base_rules):
        before = parse('Equal(Plus(Sym("a"),Sym("b")),Sym("c"))')
        wrong = parse('Equal(Sym("b"),Minus(Sym("c"),Sym("a")))')
        with pytest.raises(ValidationFailed, match="replay produced"):
            base_rules.with_rule(Rule("bogus", before, wrong, {"a", "b", "c"}, [("move_first_term", ())]))

    def test_inapplicable_step_fails(self, base_rules):
        before = parse('Equal(Sym("a"),Sym("b"))')
        after = parse('Equal(Sym("b"),Sym("a"))')
        with pytest.raises(ValidationFailed, match="step 0"):
            base_rules.with_rule(Rule("bogus", before, after, {"a", "b"}, [("move_first_term", ())]))

    def test_site_outside_tree_fails(self, base_rules):
        before = parse('Equal(Sym("a"),Sym("b"))')
        after = parse('Equal(Sym("b"),Sym("a"))')
        with pytest.raises(ValidationFailed, match="derived rule deep: script step 0 failed: no child 5"):
            base_rules.with_rule(Rule("deep", before, after, {"a", "b"}, [("swap_sides", (5, 5))]))

    def test_unknown_script_rule(self, base_rules):
        with pytest.raises(KeyError):
            base_rules.with_rule(Rule("bogus", sym("a"), num(0), {"a"}, [("missing_rule", ())]))

    def test_axiom_skips_validation(self, base_rules):
        grown = base_rules.with_rule(Rule("unit_power", parse('Power(Sym("a"),Num(1))'), sym("a"), frozenset("a")))
        assert grown.by_id("unit_power").script == ()


SWAP = Rule("swap", parse('Equal(Sym("a"),Sym("b"))'), parse('Equal(Sym("b"),Sym("a"))'), frozenset("ab"))


class TestRuleSetChecksScripts:
    """Every set replays its derived rules' scripts when it is built, so a
    set that builds also saves and loads back."""

    def test_failing_step(self):
        deep = Rule("deep", SWAP.lhs, SWAP.rhs, SWAP.vars, [("swap", (7,))])
        with pytest.raises(ValidationFailed) as err:
            RuleSet([SWAP, deep])
        assert str(err.value) == "derived rule deep: script step 0 failed: no child 7 at ()"

    def test_wrong_result(self):
        back = Rule("back", SWAP.lhs, parse('Equal(Sym("a"),Sym("a"))'), SWAP.vars, [("swap", ())])
        with pytest.raises(ValidationFailed) as err:
            RuleSet([SWAP, back])
        assert str(err.value) == (
            'derived rule back: script replay produced Equal(Sym("b"),Sym("a")), not Equal(Sym("a"),Sym("a"))'
        )

    @pytest.mark.parametrize("step_id", ["later", "nope", "twice"])
    def test_later_or_unknown_rule(self, step_id):
        later = Rule("later", SWAP.rhs, SWAP.lhs, SWAP.vars)
        twice = Rule("twice", SWAP.lhs, SWAP.rhs, SWAP.vars, [(step_id, ())])
        with pytest.raises(UnknownRule) as err:
            RuleSet([SWAP, twice, later])
        assert str(err.value) == f"derived rule twice: script step 0 names unknown rule {step_id!r}"

    def test_grown_set_saves_and_loads_back(self, base_rules, tmp_path):
        # a derived rule may replay an earlier derived rule
        grown = base_rules.with_rule(Rule("move_then_swap", *MOVE_THEN_SWAP))
        lhs = parse('Ln(Equal(Plus(Sym("a"),Sym("b")),Sym("c")))')
        rhs = parse('Ln(Equal(Sym("a"),Minus(Sym("c"),Sym("b"))))')
        grown = grown.with_rule(Rule("under_ln", lhs, rhs, "abc", [("move_then_swap", (0,)), ("swap_sides", (0,))]))
        path = tmp_path / "grown.rules"
        save_rules(grown, str(path))
        back = load_rules(str(path))
        assert back.content_hash() == grown.content_hash()
        assert [rule.script for rule in back] == [rule.script for rule in grown]
        assert path.read_text().splitlines()[-1].endswith("| a,b,c | script: move_then_swap@0;swap_sides@0")


class TestRuleFiles:
    def test_roundtrip_with_derived_rule(self, base_rules, tmp_path):
        grown = base_rules.with_rule(Rule("move_then_swap", *MOVE_THEN_SWAP))
        path = tmp_path / "grown.rules"
        save_rules(grown, str(path))
        back = load_rules(str(path))
        assert back.ids() == grown.ids()
        assert back.content_hash() == grown.content_hash()
        assert back.by_id("move_then_swap").script == MOVE_THEN_SWAP[3]

    def test_comments_and_blanks_ignored(self):
        text = "\n".join(
            [
                "# heading",
                "",
                'r1 | Equal(Sym("a"),Sym("b")) | Equal(Sym("b"),Sym("a")) | a,b | axiom',
                "   # indented comment",
            ]
        )
        rules = parse_rules(text)
        assert rules.ids() == ("r1",)

    def test_wrong_field_count(self):
        with pytest.raises(FileFormatError, match="line 1"):
            parse_rules('r1 | Sym("a") | Num(0) | a')

    def test_bad_origin_field(self):
        with pytest.raises(FileFormatError):
            parse_rules('r1 | Sym("a") | Num(0) | a | guesswork')

    def test_bad_formula_text(self):
        with pytest.raises(FileFormatError, match="line 2"):
            parse_rules('# ok\nr1 | Wobble(Sym("a")) | Num(0) | a | axiom')

    def test_bad_script_site(self):
        with pytest.raises(FileFormatError, match="bad site"):
            parse_rules('r1 | Sym("a") | Num(0) | a | script: swap_sides@x.y')

    def test_duplicate_id_propagates(self):
        line = 'r1 | Sym("a") | Num(0) | a | axiom'
        with pytest.raises(DuplicateId):
            parse_rules(line + "\n" + line)

    def test_duplicate_id_names_line(self):
        line = 'r1 | Sym("a") | Num(0) | a | axiom'
        with pytest.raises(DuplicateId) as err:
            parse_rules(line + "\n# again\n" + line)
        assert str(err.value) == "rule file line 3: rule id 'r1' appears twice"

    def test_unknown_script_rule_names_line(self):
        text = '# header\nr1 | Sym("a") | Num(0) | a | script: nope@'
        with pytest.raises(FileFormatError) as err:
            parse_rules(text)
        assert str(err.value) == "rule file line 2: derived rule r1: script step 0 names unknown rule 'nope'"

    def test_failed_script_validation_propagates(self):
        text = "\n".join(
            [
                'swap | Equal(Sym("a"),Sym("b")) | Equal(Sym("b"),Sym("a")) | a,b | axiom',
                'bad | Equal(Sym("a"),Sym("b")) | Equal(Sym("a"),Sym("a")) | a,b | script: swap@',
            ]
        )
        with pytest.raises(ValidationFailed):
            parse_rules(text)


class TestRuleFileLoad:
    @staticmethod
    def _derived_file(base_rules, n):
        lines = [serialize_rules(base_rules)]
        for i in range(n):
            rule = base_rules[i % len(base_rules)]
            vars_field = ",".join(sorted(rule.vars))
            lines.append(f"d{i:03d} | {to_text(rule.lhs)} | {to_text(rule.rhs)} | {vars_field} | script: {rule.id}@\n")
        return "".join(lines)

    def test_each_script_replays_once(self, base_rules, monkeypatch):
        text = self._derived_file(base_rules, 200)
        replays = []
        real = rewrite.apply_rule_at

        def counting(f, rule, site):
            replays.append(rule.id)
            return real(f, rule, site)

        monkeypatch.setattr(rewrite, "apply_rule_at", counting)
        rules = parse_rules(text)
        assert len(rules) == 216
        assert replays == [base_rules[i % 16].id for i in range(200)]

    def test_failing_derived_rule_names_its_line(self, base_rules):
        lines = self._derived_file(base_rules, 20).splitlines()
        lines[30] = lines[30].replace("script: ", "script: swap_sides@;")
        with pytest.raises(ValidationFailed, match="^rule file line 31: derived rule d014: script step 1 failed"):
            parse_rules("\n".join(lines))

    def test_first_bad_line_is_reported(self):
        line = 'r1 | Sym("a") | Num(0) | a | axiom'
        with pytest.raises(DuplicateId, match="^rule file line 2: "):
            parse_rules(f"{line}\n{line}\nr2 | Wobble(Sym(\"a\")) | Num(0) | a | axiom\n")
        with pytest.raises(FileFormatError, match="^rule file line 2: expected 5"):
            parse_rules(f"{line}\nr2 | Sym(\"a\")\n{line}\n")


class TestPackagedRules:
    def test_base_set_shape(self, base_rules):
        assert len(base_rules) == 16
        assert base_rules.ids() == (
            "move_first_term",
            "move_second_term",
            "move_neg_term",
            "swap_sides",
            "clear_divisor",
            "divide_by_first",
            "divide_by_second",
            "expand_deriv_ratio",
            "multiply_by_diff",
            "cancel_diff",
            "integrate_product",
            "integrate_separated",
            "integral_of_unit",
            "integral_of_linear_reciprocal",
            "ln_to_exp",
            "isolate_linear_term",
        )
        assert all(rule.script == () for rule in base_rules)

    def test_mechanics_set_shape(self, mech_rules):
        assert mech_rules.ids() == ("move_first_term", "isolate_product_factor", "root_both_sides")

    def test_loading_is_reproducible(self, base_rules):
        again = packaged_rules("ode_base")
        assert again.content_hash() == base_rules.content_hash()
        assert [to_text(r.lhs) for r in again] == [to_text(r.lhs) for r in base_rules]

    def test_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            packaged_rules("no_such_set")


def _revalidated(tree):
    """tree rebuilt node by node through the validating constructor."""
    return Formula(tree.kind, tree.payload, tuple(_revalidated(child) for child in tree.children))


class TestTrustedRebuild:
    """substitute and replace_at build nodes without validating them; every
    node they build must be one the validating constructor accepts, equal
    and with the same hash, and must survive the text round trip."""

    @pytest.fixture(scope="class")
    def rebuilt(self, base_rules):
        """Every node the unvalidated constructor builds, and every tree
        substitute, replace_at, apply_rule_at and bfs_oracle return, on a
        seed-0 220-instance corpus and on random templates."""
        nodes, trees = set(), set()

        def recording(fn, into):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                into.add(result)
                return result
            return wrapper

        patch = pytest.MonkeyPatch()
        for owner, name in [(expr, "_rebuild"), (rewrite, "_rebuild")]:
            patch.setattr(owner, name, recording(getattr(owner, name), nodes))
        for owner, name in [(rewrite, "substitute"), (derivation, "substitute"),
                            (expr, "replace_at"), (rewrite, "replace_at"), (derivation, "replace_at")]:
            patch.setattr(owner, name, recording(getattr(owner, name), trees))
        try:
            corpus = build_corpus(GenConfig(count=220), 0, base_rules)
            for inst in corpus.instances:
                route = derivation.bfs_oracle(inst.start, inst.goal, base_rules)
                trees.update(step.after for step in route.steps)
            befores = {step.before for trace in corpus.traces for step in trace.steps}
            for tree in befores:
                for rule in base_rules:
                    for site, _ in find_all(tree, rule.matcher):
                        trees.add(apply_rule_at(tree, rule, site))
            # the random templates of test_pattern.TestAgainstOracle
            rng = random.Random(4242)
            for n in range(800):
                template = feature_template(rng, 3)
                target = random_tree(rng, 4)
                instance = substitute(template, {v: random_tree(rng, 2) for v in TEMPLATE_VARS})
                sites = [path for path, _ in walk(target)]
                replace_at(target, sites[rng.randrange(len(sites))], instance)
        finally:
            patch.undo()
        return nodes, trees

    def test_rebuilt_nodes_validate(self, rebuilt):
        nodes, trees = rebuilt
        assert len(nodes) > 10_000 and len(trees) > 10_000, (len(nodes), len(trees))
        for tree in nodes | trees:
            again = _revalidated(tree)
            assert again == tree and hash(again) == hash(tree), to_text(tree)
        # the rebuilt nodes are subtrees of these trees
        for tree in trees:
            assert parse(to_text(tree)) == tree

    def test_only_rewrites_skip_validation(self):
        # every other function of the package builds nodes through Formula(...)
        import importlib
        import inspect
        import pkgutil

        import symderive

        callers = set()
        for info in pkgutil.iter_modules(symderive.__path__):
            module = importlib.import_module(f"symderive.{info.name}")
            for owner in [module] + [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]:
                for name, fn in vars(owner).items():
                    if inspect.isfunction(fn) and "_rebuild" in fn.__code__.co_names:
                        callers.add(f"{fn.__module__}.{fn.__qualname__}")
        assert callers == {"symderive.expr.replace_at", "symderive.rewrite.substitute"}
