import ast
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
