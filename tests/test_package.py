import ast
import functools
import importlib
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import signalgames
from signalgames import corpus, model, reduction


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from signalgames import *", namespace)
    missing = [name for name in signalgames.__all__ if name not in namespace]
    assert not missing
    assert len(set(signalgames.__all__)) == len(signalgames.__all__)


ROOT = Path(__file__).resolve().parents[1]

# loaded on first use: OpenSSL's hash and the verification stack
LAZY_MODULES = ("hashlib", "_hashlib", "signalgames.claims",
                "signalgames.verify", "signalgames.corpus")

LAZY_NAMES = {"expected_limsup": "claims", "first_switch_family": "claims",
              "verify_example": "claims", "build_corpus": "verify",
              "run_verification": "verify"}


def _traced_modules() -> list:
    """``bench/tracer.py``'s TRACED_MODULES, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED_MODULES"]):
            return [f"signalgames.{name}" for name in ast.literal_eval(node.value)]
    raise AssertionError("TRACED_MODULES not found")


def _tracer() -> types.ModuleType:
    """``bench/tracer.py`` run from its text as a fresh module: nothing is
    imported from ``bench`` or written there."""
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_hooks_read_belief_graphs():
    """The benchmark tracer's count hooks of ``build_auxiliary`` and
    ``solve_backward`` run on belief graphs, whose levels list shared
    nodes, and count one belief node per level membership, so a change to
    the reduction's build cannot silently break ``bench/run.py --trace
    1``."""
    tracer = _tracer()
    for game, n in ((corpus.build_game("quitting_game"), 100),
                    (corpus.build_game("noisy_public_2state"), 40)):
        counts = {name: 0 for name in tracer.COUNT_NAMES}
        aux = reduction.build_auxiliary(game, n)
        tracer.HOOKS["reduction.build_auxiliary"](counts, (game, n), {}, aux)
        sol = reduction.solve_backward(aux, want_strategies=False)
        tracer.HOOKS["reduction.solve_backward"](counts, (aux,), {}, sol)
        assert counts["reduction.belief_nodes"] == sum(map(len, aux.levels))
        assert counts["reduction.backward_nodes"] == sol.node_count == \
            sum(map(len, aux.levels))


def _fresh(script: str, *args) -> object:
    """Run ``script`` in a fresh interpreter; its last output line, as JSON."""
    result = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


MODULES_AFTER_IMPORT = """
import json, sys
import signalgames
print(json.dumps(sorted(sys.modules)))
"""

MODULES_AFTER_KERNEL_CHECK = """
import json, runpy, sys
sys.argv = ["signalgames", "kernel-check", "--game",
            "games/noisy_public_2state.game", "--n", "1", "--m", "2"]
try:
    runpy.run_module("signalgames.cli", run_name="__main__")
except SystemExit as exit:
    print(json.dumps(sorted(sys.modules) if exit.code == 0 else exit.code))
"""

LAZY_IDENTITIES = """
import importlib, json, sys
import signalgames
homes = json.loads(sys.argv[1])
found = {}
for name, home in homes.items():
    value = getattr(signalgames, name)   # through the package first
    home_value = getattr(importlib.import_module("signalgames." + home), name)
    found[name] = [value is home_value, name in vars(signalgames)]
for short in ("claims", "verify", "corpus"):
    found[short] = [getattr(signalgames, short) is sys.modules["signalgames." + short],
                    short in vars(signalgames)]
found["missing"] = not hasattr(signalgames, "no_such_name")
print(json.dumps(found))
"""


@pytest.mark.parametrize("script", [MODULES_AFTER_IMPORT, MODULES_AFTER_KERNEL_CHECK],
                         ids=["import", "kernel-check"])
def test_start_up_loads_the_solver_modules_only(script):
    """``import signalgames``, and a ``kernel-check`` run, leave the
    simulator's hash and the verification stack unloaded, and load every
    module the benchmark's tracer rebinds right after the import."""
    loaded = _fresh(script)
    assert isinstance(loaded, list), f"exit code {loaded}"
    loaded = set(loaded)
    assert not loaded.intersection(LAZY_MODULES)
    assert loaded.issuperset(_traced_modules())


def test_lazy_names_are_their_home_modules_attributes():
    """Resolved through the package in a fresh interpreter, each lazy name
    is its home module's attribute and each lazy submodule the loaded
    module, cached in the package namespace; other names still raise
    AttributeError."""
    found = _fresh(LAZY_IDENTITIES, json.dumps(LAZY_NAMES))
    assert found.pop("missing") is True
    assert found == {name: [True, True]
                     for name in [*LAZY_NAMES, "claims", "verify", "corpus"]}


def test_no_assert_statements_in_src():
    """Certificates and theorem checks raise typed errors, so they still run
    under ``python -O``, which strips ``assert`` statements."""
    root = Path(signalgames.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


# the Monte Carlo simulator's statistics and the human-readable decimal
FLOAT_SITES = {"histories.simulate", "histories.SimulationSummary.stderr_of_means",
               "rationals.decimal_repr"}


def _float_sites(path: Path) -> list:
    """(module.qualified.name, line) of each ``float(...)`` call and float
    literal in the module at ``path``, named after the innermost enclosing
    def or class (the module alone at top level)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if ((isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                 and child.func.id == "float")
                    or (isinstance(child, ast.Constant)
                        and isinstance(child.value, float))):
                found.append((".".join([path.stem, *scope]), child.lineno))
            walk(child, scope)

    walk(ast.parse(path.read_text(), str(path)), [])
    return found


def test_no_float_outside_the_simulator_and_decimal_rendering():
    """No float touches a solver path: ``float(...)`` and float literals
    occur only in the Monte Carlo simulator and ``decimal_repr``, and each
    of those still holds one (so the list stays exact)."""
    root = Path(signalgames.__file__).parent
    sites = [site for path in sorted(root.rglob("*.py"))
             for site in _float_sites(path)]
    assert [site for site in sites if site[0] not in FLOAT_SITES] == []
    assert {name for name, _ in sites} == FLOAT_SITES


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


def _defined_names(path: Path) -> list:
    """``(name, line)`` of every function, method and class defined in
    ``path``, dunder methods left out: the interpreter calls those."""
    return [(node.name, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _referenced_names(path: Path) -> set:
    """Every name ``path`` reads: as a Name, an Attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_src_names_have_a_non_test_reader():
    """Every function, method and class under ``src/signalgames`` is read
    by a package module other than ``__init__.py`` or by the benchmark:
    API that only tests use belongs to the tests.  Being exported in
    ``__all__``, or imported by ``__init__.py`` to be exported, is not a
    read."""
    src = Path(signalgames.__file__).parent
    readers = set()
    for path in [*sorted(src.rglob("*.py")), *sorted((ROOT / "bench").rglob("*.py"))]:
        if path != src / "__init__.py":
            readers |= _referenced_names(path)
    unread = [f"{path.name}:{line} {name}"
              for path in sorted(src.rglob("*.py"))
              for name, line in _defined_names(path) if name not in readers]
    assert not unread, unread


def test_only_model_and_lp_read_denominator_lcm():
    """A game's scales P, D and L are derived in one place,
    ``GameSpec.integer_form``, and the tree, belief-graph, Shapley and
    sequence-form walkers read that record: ``rationals.denominator_lcm``
    is read by ``model`` and by ``lp`` (which puts a program over one
    denominator) and by no other module."""
    src = Path(signalgames.__file__).parent
    readers = [path.name for path in sorted(src.rglob("*.py"))
               if "denominator_lcm" in _referenced_names(path)]
    assert readers == ["lp.py", "model.py"]


def test_only_model_reads_action_dist():
    """A strategy's mixes are read through the one checked reader that
    ``model._viewer`` returns: ``BehavioralStrategy.action_dist`` is read by
    ``model`` and by no other module, so no engine reads a mix unchecked."""
    src = Path(signalgames.__file__).parent
    readers = [path.name for path in sorted(src.rglob("*.py"))
               if "action_dist" in _referenced_names(path)]
    assert readers == ["model.py"]


def test_corpus_builds_no_game():
    """The corpus has one source, ``games/*.game``: ``corpus`` loads the
    files and constructs no game spec of its own."""
    names = _referenced_names(Path(corpus.__file__))
    assert not names & {"GameSpec", "SymmetricGameSpec"}


@pytest.mark.parametrize("name", ["GameSpec", "SymmetricGameSpec", "BehavioralStrategy"])
def test_mutable_model_objects_cache_nothing(name):
    """A spec or strategy can be changed in place, so nothing derived from
    it is cached on it: no member of these classes is a
    ``functools.cached_property`` or a ``functools.cache``/``lru_cache``
    wrapper.  Derived tables live on the per-call ``IntegerForm``."""
    cls = getattr(model, name)
    cached = [attr for klass in cls.__mro__[:-1]
              for attr, member in vars(klass).items()
              if isinstance(member, functools.cached_property)
              or isinstance(getattr(member, "__func__", member),
                            functools._lru_cache_wrapper)]
    assert not cached, cached
