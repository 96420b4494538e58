"""The mutant list of ``tools/mutate.py`` stays attached to the code: every
fragment still occurs exactly once in ``src/``, and every test a mutant
names is still defined.  A refactor that moves a fragment must port its
mutant, not drop it silently.  The mutants themselves run with

    python3 tools/mutate.py
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


mutate = _load_tool()


def _defined(test: str) -> bool:
    """Whether the pytest node id ``test`` names a file, or a test function
    in one, that exists."""
    path, _, name = test.partition("::")
    file = ROOT / path
    return file.is_file() and (not name or f"def {name}(" in file.read_text())


def test_every_mutant_fragment_occurs_once():
    names = [m.name for m in mutate.MUTANTS]
    assert len(set(names)) == len(names) >= 8
    moved = [m.name for m in mutate.MUTANTS if mutate.fragment_counts(ROOT, m) != (1, 1)]
    assert not moved, moved
    assert all(m.replacement != m.fragment and m.tests for m in mutate.MUTANTS)
    missing = [test for m in mutate.MUTANTS for test in m.tests if not _defined(test)]
    assert not missing, missing
