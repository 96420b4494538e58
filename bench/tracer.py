"""Spans around the package's layer functions, installed from outside.

The tracer wraps every public function of the traced modules, and every
module-level binding of it: the modules import layer functions by name
(``from .lp import solve_lp``), so wrapping only the defining module would
miss those calls.  Each call records a span (name, start, end, parent,
error).  Count hooks read the wrapped function's arguments and result after
the span has closed and run inside a span of their own, ``trace.hook``, so
their cost is not billed to any layer.  Wrappers return results unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

TRACED_MODULES = ("lp", "seqform", "reduction", "histories", "supvalue",
                  "recursive", "model", "gamefile")
PACKAGE = "signalgames"
HOOK_SPAN = "trace.hook"


def _bits(values) -> int:
    best = 0
    for v in values:
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _lp_hook(counts, args, kwargs, result):
    prog = args[0] if args else kwargs["lp"]
    rows, cols = len(prog.rows), len(prog.objective)
    nnz = sum(1 for row in prog.rows for v in row if v)
    counts["lp.pivots"] += result.pivots
    counts["lp.rows_max"] = max(counts["lp.rows_max"], rows)
    counts["lp.cols_max"] = max(counts["lp.cols_max"], cols)
    counts["lp.nonzeros"] += nnz
    if rows and cols:
        counts["lp.density_max"] = max(counts["lp.density_max"], nnz / (rows * cols))
    returned = [result.objective] if result.objective is not None else []
    for vec in (result.primal, result.duals, result.certificate):
        returned.extend(vec or ())
    counts["lp.bits_max"] = max(counts["lp.bits_max"], _bits(returned))


def _seqform_hook(counts, args, kwargs, prog):
    counts["seqform.live_nodes"] += prog.live_nodes
    counts["seqform.closed_nodes"] += prog.closed_nodes
    counts["seqform.sequences"] += len(prog.p1.seq_index) + len(prog.p2.seq_index)


def _auxiliary_hook(counts, args, kwargs, aux):
    nodes = sum(len(level) for level in aux.levels)
    links = sum(len(node.children) for level in aux.levels for node in level)
    counts["reduction.belief_nodes"] += nodes
    # a child link that reuses an existing node is a merge
    counts["reduction.merged"] += links - (nodes - len(aux.levels[0]))


def _backward_hook(counts, args, kwargs, sol):
    counts["reduction.backward_nodes"] += sol.node_count
    counts["reduction.merged"] += sol.merged_count


def _trees_hook(counts, args, kwargs, pair):
    counts["histories.history_nodes"] += sum(len(level) for level in pair.levels)
    counts["histories.observation_nodes"] += sum(len(level) for level in pair.obs_levels)


def _kernel_hook(counts, args, kwargs, report):
    counts["histories.checked_pairs"] += report.checked_pairs


def _uniform_hook(counts, args, kwargs, report):
    counts["recursive.horizons"] += len(report.value_sequence)


HOOKS = {
    "lp.solve_lp": _lp_hook,
    "seqform.build_sequence_form": _seqform_hook,
    "reduction.build_auxiliary": _auxiliary_hook,
    "reduction.solve_backward": _backward_hook,
    "histories.build_trees": _trees_hook,
    "histories.conditional_check": _kernel_hook,
    "recursive.uniform_value": _uniform_hook,
}

COUNT_NAMES = (
    "lp.pivots", "lp.rows_max", "lp.cols_max", "lp.nonzeros", "lp.bits_max",
    "seqform.live_nodes", "seqform.closed_nodes", "seqform.sequences",
    "reduction.belief_nodes", "reduction.backward_nodes", "reduction.merged",
    "histories.history_nodes", "histories.observation_nodes",
    "histories.checked_pairs", "recursive.horizons",
)


def package_modules() -> dict:
    """Every loaded module of the package, by name."""
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def layer_functions(modules):
    """``{span name: (owner, attribute, function)}`` for every public
    module-level function of the traced modules, plus
    ``SymmetricGameSpec.expand`` (named ``model.expand``)."""
    found = {}
    for short in TRACED_MODULES:
        module = modules[f"{PACKAGE}.{short}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[f"{short}.{attr}"] = (module, attr, value)
    sym = modules[f"{PACKAGE}.model"].SymmetricGameSpec
    found["model.expand"] = (sym, "expand", vars(sym)["expand"])
    return found


class Tracer:
    """Records spans in memory; aggregate them with :func:`summarize`.

    ``spans`` holds ``(name, start, end, parent index, raised)`` tuples in
    the order the calls began; the parent index is -1 for a top-level span.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.counts["lp.density_max"] = 0.0
        self.layer_names: list = []
        self._undo: list = []

    def wrap(self, name, fn, hook=None):
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, True)
                stack.pop()
                raise
            spans[index] = (name, start, clock(), parent, False)
            stack.pop()
            if hook is not None:
                hook_index = len(spans)
                spans.append(None)
                hook_start = clock()
                hook(counts, args, kwargs, result)
                spans[hook_index] = (HOOK_SPAN, hook_start, clock(), parent, False)
            return result

        return traced

    def install(self):
        """Wrap every layer function and rebind every module-level name
        (in any loaded ``signalgames`` module) that refers to it."""
        modules = package_modules()
        wrappers = {}
        for name, (owner, attr, fn) in layer_functions(modules).items():
            self.layer_names.append(name)
            wrapper = self.wrap(name, fn, HOOKS.get(name))
            wrappers[id(fn)] = (fn, wrapper)
            self._rebind(owner, attr, fn, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(module, attr, value, hit[1])
        return self

    def _rebind(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def module_names(self) -> list:
        return sorted({name.split(".", 1)[0] for name in self.layer_names})

    def summarize(self, since=None):
        return summarize(self.spans, since)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def summarize(spans, since=None):
    """Per-name ``calls``/``self_s``/``errors`` and per-module ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children.  With ``since``, only spans starting at or after that clock
    reading are aggregated (their children start later, so the window is
    closed under nesting).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name: dict = {}
    per_module: dict = {}
    for k, (name, start, end, parent, raised) in enumerate(spans):
        if since is not None and start < since:
            continue
        own = (end - start) - child_time[k]
        entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["errors"] += raised
        module = name.split(".", 1)[0]
        per_module[module] = per_module.get(module, 0.0) + own
    return per_name, per_module
