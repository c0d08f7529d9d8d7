"""Slow, independent re-implementations used as test oracles.

Nothing here shares code with the package's matcher or encoder: the matcher
is written in a deliberately different style (one generic loop over an
explicit node-pair worklist, where the package generates straight-line code
per template) so agreement between the two is meaningful. The policy
reference converts every sample and runs the unfused network, one numpy
call per term, where the package converts only the distinct samples and
runs one fused step per epoch on the inputs they use. The checkpoint
writer writes one value at a time, where the package writes one string per
block.
"""

import hashlib

import numpy as np

from symderive.expr import FUNC, KIND_TAGS, NUM, SYM, replace_at, walk
from symderive.rewrite import substitute


def naive_to_text(f):
    """Reference printer: every token appended to one shared list, then
    joined once."""
    out = []

    def write(node):
        if node.kind == SYM:
            out.append(f'Sym("{node.payload}")')
        elif node.kind == NUM:
            out.append(f"Num({node.payload})")
        elif node.kind == FUNC:
            out.append(f'FuncApply("{node.payload}"')
            for child in node.children:
                out.append(",")
                write(child)
            out.append(")")
        else:
            out.append(KIND_TAGS[node.kind])
            out.append("(")
            for i, child in enumerate(node.children):
                if i:
                    out.append(",")
                write(child)
            out.append(")")

    write(f)
    return "".join(out)


def naive_serialize_trace(trace):
    """Reference trace text: the header, then every step with both of its
    trees printed."""
    lines = [f"{trace.goal.text()}\t{trace.outcome}"]
    for step in trace.steps:
        site = ".".join(map(str, step.site))
        lines.append(f"{naive_to_text(step.before)}\t{step.rule_id}\t{site}\t{naive_to_text(step.after)}")
    return "\n".join(lines) + "\n"


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


def _reference_unique_rows(states, actions):
    """Distinct (state, action) rows of a float64 batch in the order of their
    raw bytes, and the weight count / n of each."""
    table = np.ascontiguousarray(np.column_stack((states, actions)))
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    rows = table[first]
    return rows[:, :-1], rows[:, -1].astype(np.int64), counts / states.shape[0]


def _reference_weighted_cross_entropy_and_grads(model, states, actions, weights):
    """Weighted cross-entropy sum over rows and its exact gradients, with
    separate bias terms."""
    rows = np.arange(states.shape[0])
    h = np.tanh(states @ model.w1 + model.b1)
    z = h @ model.w2 + model.b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-(weights @ np.log(np.maximum(probs[rows, actions], 1e-300))))

    dz2 = probs
    dz2[rows, actions] -= 1.0
    dz2 *= weights[:, None]
    dw2 = h.T @ dz2
    db2 = dz2.sum(axis=0)
    dz1 = (dz2 @ model.w2.T) * (1.0 - h * h)
    dw1 = states.T @ dz1
    db1 = dz1.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def reference_policy_train(model, samples, epochs):
    """Every sample converted to float64, the distinct rows found with
    ``np.unique``, then one unfused gradient step per epoch on the model's
    own arrays; returns the loss at the start of each epoch."""
    states = np.asarray([s.state for s in samples], dtype=np.float64)
    actions = np.asarray([s.action for s in samples], dtype=np.int64)
    batch = _reference_unique_rows(states, actions)
    lr = model.step_size
    losses = []
    for _ in range(epochs):
        loss, (dw1, db1, dw2, db2) = _reference_weighted_cross_entropy_and_grads(model, *batch)
        losses.append(loss)
        model.w1 -= lr * dw1
        model.b1 -= lr * db1
        model.w2 -= lr * dw2
        model.b2 -= lr * db2
    return losses


def naive_save_policy(model, path, seed, rules_hash):
    """Reference checkpoint writer: the header spelled out line by line,
    then ``repr(float(v))`` and a newline for one weight at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("symderive-policy v1\n")
        fh.write(f"n_inputs={model.w1.shape[0]}\nhidden={model.w1.shape[1]}\nn_actions={model.w2.shape[1]}\n")
        fh.write(f"step_size={float(model.step_size)!r}\nseed={seed}\nrules_sha256={rules_hash}\n")
        fh.write("weights\n")
        for block in (model.w1, model.b1, model.w2, model.b2):
            for value in block.ravel():
                fh.write(repr(float(value)) + "\n")


def rounded_checkpoint_digest(path):
    """SHA-256 of a policy checkpoint with each weight rounded to 1e-8, the
    rule of the benchmark's checkpoint digest: blind to the last bits that
    the BLAS thread count can move, not to a real change in training."""
    h = hashlib.sha256()
    with open(path, encoding="utf-8") as fh:
        in_weights = False
        for line in fh:
            if in_weights:
                line = f"{round(float(line), 8) + 0.0:.8f}\n"
            elif line == "weights\n":
                in_weights = True
            h.update(line.encode())
    return h.hexdigest()


def reference_top1(learner, samples):
    """Top-1 accuracy scored one sample at a time, ties to the lowest index."""
    scores = learner.values if hasattr(learner, "values") else learner.forward
    return sum(int(np.argmax(scores(s.state))) == s.action for s in samples) / len(samples)


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
