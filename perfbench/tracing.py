"""Per-layer tracing of the twoexact package from outside it.

A layer is one module of the package.  :class:`Tracer` replaces each
layer's public functions at the module namespaces other layers call them
through (the ``from .core import x`` bindings, plus the defining module's
own attribute, which local imports such as ``gen.mutate``'s read).  A call
that crosses from one layer into another opens a span; a call that stays
inside its layer is only counted.  Spans are kept in memory and written out
when the run ends.  Nothing in the package is edited, and everything is put
back by :meth:`Tracer.uninstall`.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: The package modules measured as layers.  ``onecat`` is the independent
#: oracle and runs only outside traced regions, so it is not one of them.
LAYERS = ("cli", "formats", "core", "ideal", "limits", "closure", "exact",
          "factor", "pseudo", "idealeq", "gen")

#: Leaf helpers called millions of times per pass.  Their calls are timed
#: and counted like any other, but not stored one span each, which would
#: cost more memory than the run itself.
FOLDED = frozenset({"core.natural_key"})

#: The validators ``gen.mutate`` runs on each candidate mutant.
TARGET_VALIDATORS = frozenset({
    "core.validate_two_category", "ideal.validate_two_ideal",
    "factor.validate_fs", "pseudo.validate_pseudofunctor",
    "pseudo.validate_pseudonatural"})

_ROOT = -1


class Tracer:
    """Spans and counters for one traced pass over a workload's jobs."""

    def __init__(self, package: dict[str, Any]):
        self._package = package
        self._undo: list[tuple[Any, str, Any]] = []
        self._wrappers: dict[Any, Callable] = {}
        # (name, start, end, parent span index, job id)
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        # stack entries: [layer, span index, start, time covered by children]
        self._stack: list[list] = [["bench", _ROOT, 0.0, 0.0]]
        self.job: int | None = None
        self.calls: Counter[str] = Counter()
        self.layer_calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.fn_self_s: defaultdict[str, float] = defaultdict(float)
        self.budgets: list[Any] = []
        self.kernel_found = 0
        self.arrow_cells = 0
        self.bytes_out = 0
        self.bytes_in = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {"limits.is_two_kernel": self._after_is_two_kernel,
                 "factor.arrow_subcat": self._after_arrow_subcat,
                 "formats.serialize": self._after_serialize,
                 "formats.parse": self._after_parse}
        for layer in LAYERS:
            module = self._package[layer]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in LAYERS:
                    continue
                name = f"{home}.{obj.__name__}"
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, home, name,
                                                     hooks.get(name))
                self._patch(module, attr, self._wrappers[obj])
        core = self._package["core"]
        tc = getattr(core, "TwoCategory", None)
        if tc is not None and hasattr(tc, "iso2"):
            self._patch(tc, "iso2", self._count(tc.iso2, "core.iso2"))
        budget = getattr(core, "Budget", None)
        if budget is not None:
            self._patch(budget, "__init__", self._register(budget.__init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str,
              after: Callable | None) -> Callable:
        stack, spans, calls = self._stack, self.spans, self.calls
        folded = name in FOLDED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            if parent[0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = _ROOT if folded else len(spans)
                if not folded:
                    spans.append(None)
                frame = [layer, index, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    span = end - frame[2]
                    own = span - frame[3]
                    parent[3] += span
                    self.layer_calls[layer] += 1
                    self.self_s[layer] += own
                    self.fn_self_s[name] += own
                    if not folded:
                        spans[index] = (name, frame[2], end, parent[1],
                                        self.job)
            if after is not None:
                after(result, args)
            return result
        return traced

    def _count(self, fn: Callable, name: str) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _register(self, init: Callable) -> Callable:
        budgets = self.budgets

        @functools.wraps(init)
        def registered(budget, *args, **kwargs):
            init(budget, *args, **kwargs)
            budgets.append(budget)
        return registered

    def _after_is_two_kernel(self, cert, args) -> None:
        self.kernel_found += bool(getattr(cert, "ok", False))

    def _after_arrow_subcat(self, arrow, args) -> None:
        cat = arrow.cat
        self.arrow_cells += len(cat.one_cells) + len(cat.two_cells)

    def _after_serialize(self, text, args) -> None:
        self.bytes_out += len(text.encode("utf-8"))

    def _after_parse(self, doc, args) -> None:
        self.bytes_in += len(args[0].encode("utf-8"))

    # -- results -----------------------------------------------------------

    def mutate_validator_calls(self) -> float:
        """Target-validator calls made directly by ``gen.mutate``, per
        mutant it returned."""
        mutates = {i for i, s in enumerate(self.spans) if s[0] == "gen.mutate"}
        checks = sum(1 for s in self.spans
                     if s[0] in TARGET_VALIDATORS and s[3] in mutates)
        return checks / len(mutates) if mutates else 0.0

    def metrics(self, dual_cache_entries: int, overhead: float) -> dict:
        """The per-layer metrics of this pass, as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
        kernels = self.calls["limits.is_two_kernel"]
        out.update({
            "limits.is_two_kernel.calls": (kernels, "count"),
            "limits.hit_ratio": (self.kernel_found / kernels if kernels
                                 else 0.0, "ratio"),
            "search.examined": (sum(b.spent for b in self.budgets), "count"),
            "core.iso2.calls": (self.calls["core.iso2"], "count"),
            "core.dualize.calls": (self.calls["core.dualize"], "count"),
            "ideal.dual_ideal.calls": (self.calls["ideal.dual_ideal"],
                                       "count"),
            "core.dual_cache_entries": (dual_cache_entries, "count"),
            "factor.arrow_subcat.self_s": (
                self.fn_self_s["factor.arrow_subcat"], "s"),
            "factor.arrow_subcat.cells": (self.arrow_cells, "count"),
            "formats.bytes_out": (self.bytes_out, "bytes"),
            "formats.bytes_in": (self.bytes_in, "bytes"),
            "core.natural_key.calls": (self.calls["core.natural_key"],
                                       "count"),
            "core.validate_two_category.self_s": (
                self.fn_self_s["core.validate_two_category"], "s"),
            "gen.mutate.validator_calls": (self.mutate_validator_calls(),
                                           "calls/mutant"),
            "trace.overhead_ratio": (overhead, "ratio"),
        })
        return out

    def write_spans(self, path: str, jobs: list[str]) -> None:
        """A header naming the columns and the jobs, then one JSON array per
        span: name, start, end, parent span index (-1 for none), job index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "start", "end",
                                             "parent", "job"],
                                 "jobs": jobs,
                                 "folded": sorted(FOLDED)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
