import ast
import importlib
import inspect
import json
from pathlib import Path

import signalgames


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from signalgames import *", namespace)
    missing = [name for name in signalgames.__all__ if name not in namespace]
    assert not missing
    assert len(set(signalgames.__all__)) == len(signalgames.__all__)


def test_no_assert_statements_in_src():
    """Certificates and theorem checks raise typed errors, so they still run
    under ``python -O``, which strips ``assert`` statements."""
    root = Path(signalgames.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_benchmark_layer_functions_stay_bindings():
    """The benchmark tracer wraps the layer functions that BENCHMARK.json
    counts calls of (``model.expand`` is ``SymmetricGameSpec.expand``), and
    ``recursive``'s bindings of ``build_auxiliary`` and ``solve_backward``,
    by attribute: each must stay a function bound under its name."""
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    names = [metric["name"].removesuffix(".calls")
             for metric in spec["per_layer"]
             if metric["name"].endswith(".calls")]
    assert len(names) == 14
    for name in names + ["recursive.build_auxiliary", "recursive.solve_backward"]:
        short, attr = name.split(".")
        owner = importlib.import_module(f"signalgames.{short}")
        if name == "model.expand":
            owner = owner.SymmetricGameSpec
        assert inspect.isfunction(vars(owner).get(attr)), name
