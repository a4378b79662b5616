from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import verkit

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


def test_public_surface_is_pinned():
    assert sorted(verkit.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(verkit, name)] == []


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
