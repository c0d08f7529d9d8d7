import random

import pytest

from symderive.encoding import default_table
from symderive.expr import KIND_BY_TAG, SYM, arity_bounds, func, mk, num, replace_at, subtree_at, sym, walk
from symderive.rewrite import packaged_rules

LEAF_NAMES = ("x", "y", "z", "t", "u", "v", "w", "n")
FUNC_NAMES = ("f", "g", "h")
OPERATOR_TAGS = (
    "Equal", "Plus", "Minus", "Times", "Divide", "Power", "Sqrt", "Integral",
    "Der", "DerivRatio", "Sum", "Ln", "Exp", "Sin", "Cos",
)


def random_leaf(rng):
    roll = rng.random()
    if roll < 0.7:
        return sym(rng.choice(LEAF_NAMES))
    if roll < 0.9:
        return num(rng.randint(-9, 9))
    return num(f"{rng.randint(0, 99)}.{rng.randint(0, 99):02d}")


def random_tree(rng, depth):
    """A random well-formed formula of at most the given depth."""
    if depth <= 0 or rng.random() < 0.3:
        return random_leaf(rng)
    if rng.random() < 0.08:
        k = rng.randint(0, 3)
        return func(rng.choice(FUNC_NAMES), *(random_tree(rng, depth - 1) for _ in range(k)))
    tag = rng.choice(OPERATOR_TAGS)
    lo, hi = arity_bounds(KIND_BY_TAG[tag])
    n = lo if lo == hi else rng.randint(lo, 3)
    return mk(tag, *(random_tree(rng, depth - 1) for _ in range(n)))


def template_cases(rng, n):
    """(target, template, var_names) triples biased toward real matches."""
    cases = []
    for _ in range(n):
        target = random_tree(rng, 4)
        if rng.random() < 0.5:
            # derive the template from an actual subtree so matches happen
            sites = [p for p, _ in walk(target)]
            piece = subtree_at(target, sites[rng.randrange(len(sites))])
            template = piece
            if piece.children and rng.random() < 0.8:
                slot = rng.randrange(len(piece.children))
                template = replace_at(piece, (slot,), sym("hole"))
            var_names = frozenset({"hole"})
        else:
            template = random_tree(rng, 3)
            names = sorted({n.payload for _, n in walk(template) if n.kind == SYM})
            var_names = frozenset(rng.sample(names, k=rng.randint(0, len(names))) if names else [])
        cases.append((target, template, var_names))
    return cases


@pytest.fixture(scope="session")
def base_rules():
    return packaged_rules()


@pytest.fixture(scope="session")
def mech_rules():
    return packaged_rules("mechanics")


@pytest.fixture(scope="session")
def table():
    return default_table()


# Acceptance tests append their pass/fail lines here; they are replayed in
# the terminal summary so they stay visible even with output capture on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
