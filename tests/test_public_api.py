from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import verkit
from verkit import InstanceTooLarge, caterpillar, trinode

ROOT = Path(__file__).resolve().parents[1]

# Adding or removing a public name is a deliberate edit of this list.
PUBLIC = [
    "BadGraphDocument",
    "BadLegLabels",
    "BadWeighting",
    "CounterexampleFound",
    "DanglingReference",
    "DisconnectedGraph",
    "FlipMove",
    "Functional",
    "GraphMismatch",
    "HilbertTable",
    "InstanceTooLarge",
    "IsLeg",
    "LevelledWeighting",
    "MarkedGraph",
    "NonTrivalentGraph",
    "NotATree",
    "NumericalResidual",
    "StratumComplex",
    "UnstableSignature",
    "UnstableVertex",
    "VerkitError",
    "admissible_triple",
    "admissible_triple_level",
    "are_isomorphic",
    "caterpillar",
    "contraction_poset",
    "count_classical",
    "count_cox",
    "count_points",
    "count_points_bruteforce",
    "degree_one_generation_check",
    "dualizing_weighting",
    "dumbbell",
    "enumerate_points",
    "enumerate_stable",
    "enumerate_trivalent",
    "factorization_4point",
    "filtration_value",
    "flip_complex",
    "flip_connectivity",
    "flip_dot",
    "flip_neighbors",
    "fusion_coeff",
    "gorenstein_check",
    "hasse_dot",
    "hilbert_cox",
    "hilbert_projective",
    "interior_points",
    "is_point",
    "loop_with_leg",
    "new_functional",
    "new_graph",
    "require_trivalent",
    "standard_graph",
    "theta_graph",
    "trinode",
    "verlinde",
    "verlinde_closed_form",
    "verlinde_factor",
]


# the modules whose __all__ lists make up the package's
MODULES = ["errors", "graphs", "lattice", "moduli", "semigroup", "verlinde"]


def test_public_surface_is_pinned():
    assert sorted(verkit.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(verkit, name)] == []


def test_each_module_states_its_own_surface():
    # the six __all__ lists are disjoint, make up PUBLIC, and name objects
    # defined where they are listed
    surfaces = {name: importlib.import_module(f"verkit.{name}").__all__
                for name in MODULES}
    assert sorted(n for names in surfaces.values() for n in names) == PUBLIC
    for module, names in surfaces.items():
        for name in names:
            assert getattr(verkit, name).__module__ == f"verkit.{module}"
    namespace: dict = {}
    exec("from verkit import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == PUBLIC
    # and the package states none of it again: no public name appears in
    # __init__.py as a string or in an import list
    tree = ast.parse((ROOT / "src" / "verkit" / "__init__.py").read_text())
    stated = {node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant)}
    stated.update(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module
                  for alias in node.names)
    assert stated & set(PUBLIC) == set()


def _imported(directory):
    """Top-level names imported anywhere in the modules under directory."""
    names = set()
    for path in (ROOT / directory).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_code_imports_only_declared_dependencies():
    # An installed but undeclared package would pass here and fail on a
    # clean install; the library may use only the runtime dependencies.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}

    runtime = names(project["dependencies"])
    testing = runtime | names(project["optional-dependencies"]["test"])
    local = {path.stem for path in (ROOT / "perfbench").glob("*.py")}
    for directory, declared in [("src/verkit", runtime), ("tests", testing),
                                ("perfbench", testing)]:
        found = _imported(directory) - set(sys.stdlib_module_names) - {"verkit"}
        assert found - local - declared == set(), directory


def test_every_cap_refuses_at_one_site():
    # the refusal rule is stated once: every cap raises InstanceTooLarge
    # through errors._check_cap, so its message has one shape
    sites = [
        (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "verkit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "InstanceTooLarge"
    ]
    assert len(sites) == 1 and sites[0][0] == "errors.py", sites


@pytest.mark.parametrize("digits", [1501, 5001])
def test_refusals_write_numbers_of_any_length(digits, monkeypatch):
    # str() refuses an int of more than sys.get_int_max_str_digits()
    # digits (4,300 by default); a refusal writes its numbers by
    # errors._decimal instead, and refuses before the route builds anything
    def build(*args):
        raise AssertionError("built a kernel or a sewing side")

    monkeypatch.setattr(importlib.import_module("verkit.lattice"),
                        "_kernels", build)
    monkeypatch.setattr(importlib.import_module("verkit.verlinde"),
                        "_side", build)
    level = 10 ** (digits - 1)
    tree = caterpillar(4)
    calls = [
        lambda: verkit.count_points(trinode(), (0, 0, 0), level),
        lambda: verkit.count_cox(trinode(), level),
        lambda: verkit.verlinde(0, (0, 0, 0), level),
        lambda: verkit.verlinde_factor(0, (0, 0, 0), level),
        lambda: verkit.verlinde_closed_form(0, (0, 0, 0), level),
        lambda: verkit.factorization_4point(0, 0, 0, 0, level),
        lambda: verkit.count_points_bruteforce(tree, (0, 0, 0, 0), level),
        lambda: verkit.count_classical(tree, (level, level, 0, 0)),
        lambda: next(verkit.enumerate_points(tree, (0, 0, 0, 0), level)),
        lambda: verkit.hilbert_cox(trinode(), level),
        lambda: verkit.hilbert_projective(trinode(), (0, 0, 0), 1, level),
    ]
    for call in calls:
        with pytest.raises(InstanceTooLarge, match=r"^\d{%d,} " % digits):
            call()
