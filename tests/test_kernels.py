import os
import random
import subprocess
import sys

import pytest

from symderive import kernels
from symderive.encoding import default_table
from symderive.expr import mk, sym, walk

from conftest import random_tree

try:
    COMPILED = kernels.get_backend("compiled")
except ImportError:
    COMPILED = None

PYTHON = kernels.get_backend("python")

needs_compiled = pytest.mark.skipif(COMPILED is None, reason="compiled extension not built")


def template_cases(rng, n):
    """(target, template, var_names) triples biased toward real matches."""
    cases = []
    for _ in range(n):
        target = random_tree(rng, 4)
        if rng.random() < 0.5:
            # derive the template from an actual subtree so matches happen
            sites = [p for p, _ in walk(target)]
            piece_site = sites[rng.randrange(len(sites))]
            from symderive.expr import replace_at, subtree_at

            piece = subtree_at(target, piece_site)
            template = piece
            if piece.children and rng.random() < 0.8:
                slot = rng.randrange(len(piece.children))
                template = replace_at(piece, (slot,), sym("hole"))
            var_names = frozenset({"hole"})
        else:
            template = random_tree(rng, 3)
            names = sorted({n.payload for _, n in walk(template) if n.kind == 0})
            var_names = frozenset(rng.sample(names, k=rng.randint(0, len(names))) if names else [])
        cases.append((target, template, var_names))
    return cases


@needs_compiled
class TestBackendParity:
    def test_match_root(self):
        rng = random.Random(11)
        for target, template, var_names in template_cases(rng, 300):
            assert COMPILED.match_root(target, template, var_names) == PYTHON.match_root(
                target, template, var_names
            )

    def test_find_first(self):
        rng = random.Random(22)
        for target, template, var_names in template_cases(rng, 300):
            assert COMPILED.find_first(target, template, var_names) == PYTHON.find_first(
                target, template, var_names
            )

    def test_find_all(self):
        rng = random.Random(33)
        for target, template, var_names in template_cases(rng, 300):
            assert COMPILED.find_all(target, template, var_names) == PYTHON.find_all(
                target, template, var_names
            )

    def test_encode_prefix(self):
        rng = random.Random(44)
        codes = default_table()._by_kind
        for _ in range(300):
            f = random_tree(rng, 4)
            assert list(COMPILED.encode_prefix(f, codes)) == list(PYTHON.encode_prefix(f, codes))

    def test_hamming(self):
        rng = random.Random(55)
        for _ in range(300):
            n = rng.randrange(0, 40)
            a = tuple(rng.randrange(0, 5) for _ in range(n))
            b = tuple(rng.randrange(0, 5) for _ in range(n))
            assert COMPILED.hamming(a, b) == PYTHON.hamming(a, b)

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            COMPILED.hamming((1, 2), (1, 2, 3))
        with pytest.raises(ValueError):
            PYTHON.hamming((1, 2), (1, 2, 3))


class TestBackendSelection:
    def test_current_backend_is_consistent(self):
        assert kernels.BACKEND in ("python", "compiled")
        assert kernels.find_all is kernels.get_backend(kernels.BACKEND).find_all

    def test_get_backend_unknown(self):
        with pytest.raises(ValueError):
            kernels.get_backend("fortran")

    def test_use_backend_switches_and_restores(self):
        before = kernels.BACKEND
        try:
            kernels.use_backend("python")
            assert kernels.BACKEND == "python"
            assert kernels.encode_prefix is PYTHON.encode_prefix
            f = mk("Plus", sym("a"), sym("b"))
            assert kernels.find_first(f, sym("v"), frozenset({"v"})) == ((), {"v": f})
        finally:
            kernels.use_backend(before)
        assert kernels.BACKEND == before

    @needs_compiled
    def test_use_backend_compiled(self):
        before = kernels.BACKEND
        try:
            kernels.use_backend("compiled")
            assert kernels.hamming is COMPILED.hamming
        finally:
            kernels.use_backend(before)

    def test_env_var_forces_python(self):
        code = "import symderive.kernels as k; print(k.BACKEND)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path), "SYMDERIVE_KERNELS": "python"},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_env_var_rejects_junk(self):
        code = "import symderive.kernels"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(sys.path), "SYMDERIVE_KERNELS": "abacus"},
        )
        assert out.returncode != 0
        assert "abacus" in out.stderr
