"""Slow, independent re-implementations used as test oracles.

Nothing here shares code with the package's matcher or encoder: the matcher
is written in a deliberately different style (one generic loop over an
explicit node-pair worklist, where the package generates straight-line code
per template) so agreement between the two is meaningful.
"""

import numpy as np

from symderive.expr import SYM, replace_at, walk
from symderive.rewrite import substitute


def naive_match(node, template, var_names):
    """Binding dict or None, computed over an explicit worklist."""
    binding = {}
    pending = [(node, template)]
    while pending:
        subject, tpl = pending.pop()
        if tpl.kind == SYM and tpl.payload in var_names:
            if tpl.payload in binding:
                if binding[tpl.payload] != subject:
                    return None
            else:
                binding[tpl.payload] = subject
            continue
        if subject.kind != tpl.kind:
            return None
        if subject.payload != tpl.payload:
            return None
        if len(subject.children) != len(tpl.children):
            return None
        pending.extend(zip(subject.children, tpl.children))
    return binding


def naive_find_all(f, template, var_names):
    """Every (site, binding) in pre-order, via the generic tree walk."""
    out = []
    for path, node in walk(f):
        binding = naive_match(node, template, var_names)
        if binding is not None:
            out.append((path, binding))
    return out


def naive_bfs(start, goal, rules, depth_cap, first_site_only=False):
    """Shortest route as [(rule id, site, tree after)], or None if there is
    none within depth_cap steps.

    Level by level, every rule tried at every expanded tree with the naive
    find_all (only its first site when first_site_only is set); the first
    new tree that satisfies the goal ends the search. The rewrite itself is
    the package's substitute and replace_at.
    """
    if goal.satisfied(start):
        return []
    parent = {start: None}
    frontier = [start]
    for _ in range(depth_cap):
        level = []
        for tree in frontier:
            for rule in rules:
                sites = naive_find_all(tree, rule.lhs, rule.vars)
                for site, binding in sites[:1] if first_site_only else sites:
                    new = replace_at(tree, site, substitute(rule.rhs, binding))
                    if new in parent:
                        continue
                    parent[new] = (tree, rule.id, site)
                    if goal.satisfied(new):
                        route = []
                        while parent[new] is not None:
                            before, rule_id, at = parent[new]
                            route.append((rule_id, at, new))
                            new = before
                        return route[::-1]
                    level.append(new)
        frontier = level
    return None


def naive_encode(f, codes_by_tag, l_max):
    """Reference encoding: explicit recursion over tag names, then padding."""
    from symderive.expr import KIND_TAGS

    def code(node):
        return codes_by_tag[KIND_TAGS[node.kind]]

    out = []

    def visit(node):
        out.append(code(node))
        for child in node.children:
            out.append(code(child))
        for child in node.children:
            if child.children:
                visit(child)

    if f.children:
        visit(f)
    if len(out) > l_max:
        raise OverflowError(f"{len(out)} > {l_max}")
    return tuple(out) + (0,) * (l_max - len(out))


def positional_mismatches(a, b):
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def naive_cross_entropy_and_grads(model, states, actions):
    """Per-row mean cross-entropy and its gradients over every row of the
    batch, duplicates included; reads only the model's four weight arrays."""
    n = states.shape[0]
    h = np.tanh(states @ model.w1 + model.b1)
    logits = h @ model.w2 + model.b2
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    targets = np.zeros_like(probs)
    targets[np.arange(n), actions] = 1.0
    loss = float(-(targets * np.log(probs)).sum() / n)

    dz2 = (probs - targets) / n
    dz1 = (dz2 @ model.w2.T) * (1.0 - h * h)
    return loss, (states.T @ dz1, dz1.sum(axis=0), h.T @ dz2, dz2.sum(axis=0))


def roulette_pick(allowed, weights, rng):
    """A weighted draw written out: one ``rng.random()`` scaled by the total
    weight, then the first allowed action whose running sum passes it."""
    pick = rng.random() * sum(weights)
    acc = 0.0
    for i, w in zip(allowed, weights):
        acc += w
        if pick < acc:
            return i
    return allowed[-1]
