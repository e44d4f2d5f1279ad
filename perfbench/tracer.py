"""Outside-in span tracer for taglab's public functions.

The tracer rebinds module attributes: every public function that a taglab
module defines is replaced, in every taglab module that holds a reference to
it (``certify.run``, ``certify.pass_output`` and so on), by a wrapper that
records a span.  Calls made inside a module go through its globals, so they
are traced as well.  Nothing under ``src/`` changes, and ``uninstall``
restores the original functions.

A span is (name, start, end, parent index).  Spans stay in memory until
``summary`` folds them into per-function call counts, inclusive time and
self time (a span's duration minus the durations of its direct children;
the tracer runs in one thread, so children never overlap).
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

# Tiny helpers called in inner loops: a span would cost more than the work
# it measures, so they stay untraced and their time counts to the caller.
UNTRACED = frozenset({
    "core.check_word", "blocks.check_block_word", "blocks.row_key", "blocks.block_key",
    "blocks.count", "algebra.length_residue", "algebra.cut",
})

# Functions whose distinct arguments are counted, for cache-hit potential.
DISTINCT = frozenset({"blocks.converting_set", "blocks.extension_candidates"})


def _observe_run(counters, args, kwargs, result):
    counters["core.run.steps"] += result.steps_taken
    counters["core.run." + {
        "Cycled": "cycled", "Halted": "halted",
        "BudgetExhausted": "budget_exhausted", "TargetReached": "target_reached",
    }[result.kind.value]] += 1


def _observe_pass_output(counters, args, kwargs, result):
    counters["algebra.pass_output.symbols"] += len(args[0])


def _observe_search(counters, args, kwargs, result):
    counters["blocks.search.examined"] += result.examined
    counters["blocks.search.duplicates"] += result.skipped_duplicates
    counters["blocks.search.hits"] += len(result.hits)


OBSERVERS = {
    "core.run": _observe_run,
    "algebra.pass_output": _observe_pass_output,
    "blocks.search": _observe_search,
}


def taglab_modules():
    import taglab
    from taglab import algebra, blocks, certify, cli, core, words
    return [taglab, core, algebra, words, certify, blocks, cli]


class Tracer:
    """Span recorder installed over taglab's module attributes."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        distinct = self.distinct[name] if name in DISTINCT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add((args, tuple(sorted(kwargs.items()))))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self, modules=None) -> "Tracer":
        modules = taglab_modules() if modules is None else modules
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__
                        or name in UNTRACED):
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-function calls, inclusive and self seconds, and span durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions: dict[str, dict] = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            entry = functions.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - inner
            entry["durations"].append(end - start)
        return {
            "functions": functions,
            "counters": dict(self.counters),
            "distinct": {name: len(args) for name, args in self.distinct.items()},
            "spans": len(self.spans),
        }


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of separate processes (distinct counts add up)."""
    out = {"functions": {}, "counters": Counter(), "distinct": Counter(), "spans": 0}
    for s in summaries:
        for name, entry in s["functions"].items():
            acc = out["functions"].setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            for key in ("calls", "incl_s", "self_s", "durations"):
                acc[key] += entry[key]
        out["counters"].update(s["counters"])
        out["distinct"].update(s["distinct"])
        out["spans"] += s["spans"]
    return out
