"""Spans around the public functions of every ``segmarket`` module.

The tracer lives entirely in the benchmark: ``install`` replaces each public
function of a layer module with a wrapper in every ``segmarket`` namespace
that holds it (so ``from .passive import is_feasible`` in ``regulator`` is
traced too), in every module-level dict that holds it (so the ``cmd_*``
functions that ``cli._DISPATCH`` calls are traced), and each public method
of the classes those modules define. ``uninstall`` puts every original back. A wrapper records one span (name,
start, end, parent span, job id) per call into flat arrays, so spans stay in
memory at a few dozen bytes each until the run ends.

Self time is a span's duration minus the durations of its direct children.
Time spent in private helpers (``lp._pivot``, ``passive._producer_steps``)
therefore counts as self time of the public function that called them.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import types
from array import array
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Iterator

PACKAGE = "segmarket"
LAYERS = ("cli", "serialize", "regulator", "region", "passive", "active", "lp", "core", "rationals")
MARKER = "_bench_trace_wrapper"


def _lp_cells(bound: inspect.BoundArguments, result: Any) -> tuple[str, int]:
    return "lp.cells", bound.arguments["num_vars"] * len(bound.arguments["rows"])


def _text_written(bound: inspect.BoundArguments, result: str) -> tuple[str, int]:
    return "serialize.bytes", len(result.encode())


def _text_read(bound: inspect.BoundArguments, result: Any) -> tuple[str, int]:
    return "serialize.bytes", len(bound.arguments["text"].encode())


# Counters computed from the arguments or result of a call, not measured.
OBSERVERS: dict[str, Callable[[inspect.BoundArguments, Any], tuple[str, int]]] = {
    "lp.solve": _lp_cells,
    "serialize.dumps": _text_written,
    "serialize.sweep_to_csv": _text_written,
    "serialize.loads": _text_read,
}


def layer_of(module_name: str) -> str | None:
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def self_times(start: array, end: array, parent: array) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.counters: Counter[str] = Counter()
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if observe is not None:
                key, amount = observe(signature.bind(*args, **kwargs), result)
                tracer.counters[key] += amount
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, True)
        return wrapper

    def _count(self, fn: Callable, key: str) -> Callable:
        tracer = self

        def counter(*args: Any, **kwargs: Any) -> Any:
            tracer.counters[key] += 1
            return fn(*args, **kwargs)

        setattr(counter, MARKER, True)
        return counter

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace an attribute of *owner*, or an item when *owner* is a dict."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = replacement
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every public layer function and method now imported.

        A tracer may be installed and uninstalled many times; its spans and
        counters accumulate across installs.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        modules = package_modules()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = layer_of(value.__module__)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, f"{layer}.{value.__qualname__}")
                self._patch(mod, attr, wrappers[id(value)])
        for mod in modules:
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if id(value) in wrappers:
                            self._patch(table, key, wrappers[id(value)])
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer is None:
                continue
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for attr, value in list(vars(cls).items()):
                    if not attr.startswith("_") and isinstance(value, types.FunctionType):
                        self._patch(cls, attr, self._wrap(value, f"{layer}.{value.__qualname__}"))
                if cls.__name__ == "Market" and layer == "core":
                    self._patch(cls, "__post_init__", self._count(cls.__post_init__, "core.markets_built"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ summary

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per layer plus the named per-function figures."""
        own = self_times(self.start, self.end, self.parent)
        calls: Counter[str] = Counter()
        seconds: Counter[str] = Counter()
        for nid, t in zip(self.name_id, own):
            calls[self.names[nid]] += 1
            seconds[self.names[nid]] += t
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [k for k in calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(calls[k] for k in keys)
            out[f"{layer}.self_s"] = sum(seconds[k] for k in keys)
        out["core.peels"] = calls["core.largest_dominated_er"]
        out["core.markets_built"] = self.counters["core.markets_built"]
        out["passive.is_feasible.calls"] = calls["passive.is_feasible"]
        out["passive.is_feasible.self_s"] = seconds["passive.is_feasible"]
        out["lp.solve.calls"] = calls["lp.solve"]
        out["lp.solve.self_s"] = seconds["lp.solve"]
        out["lp.build_lp.self_s"] = seconds["lp.build_lp"]
        out["lp.cells"] = self.counters["lp.cells"]
        out["serialize.bytes"] = self.counters["serialize.bytes"]
        return out
