"""Per-function self time and call counts for egeo, installed from outside.

The egeo modules import each other's functions by name (``from .x import
f``), so wrapping ``x.f`` alone would miss most calls.  ``Tracer.install``
wraps every public function defined in an egeo module and rebinds each
name, in every egeo module namespace (the package included) and in
module-level lists and dicts such as ``repro.CHECKS``, that refers to it.
``uninstall`` puts every original back.  Nothing in ``src/egeo`` changes.

Spans are kept in memory.  A function's self time is its duration minus
the durations of the wrapped calls it made; recursive calls are separate
spans.  A *region* is the set of spans under an outermost call to one of
its entry functions; its self time is the self time, inside the region, of
functions from the entry functions' own module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Region:
    entries: frozenset
    module: str
    calls: int = 0
    self_s: float = 0.0
    depth: int = 0
    # per-entry-call durations, keyed by the size the key function reports
    durations: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def egeo_modules(package: str = "egeo") -> list:
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, package + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def public_functions(module) -> dict:
    """Functions defined in the module itself whose names are public."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Wraps egeo's public functions; records calls and self time per function."""

    def __init__(self, regions: dict | None = None, size_of=None, observers: dict | None = None):
        # regions: name -> iterable of "module.function" entry points
        self.stats: dict[str, Stat] = {}
        self.regions = {}
        for name, entries in (regions or {}).items():
            entries = frozenset(entries)
            modules = {e.split(".")[0] for e in entries}
            if len(modules) != 1:
                raise ValueError(f"region {name} spans modules {modules}")
            self.regions[name] = Region(entries, modules.pop())
        self.size_of = size_of  # (qualname, args) -> size key for region durations, or None
        self.observers = observers or {}  # qualname -> fn(tracer, result)
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []
        self.wrapped: dict = {}  # original function -> wrapper

    # ----------------------------------------------------------- wrapping

    def _wrap(self, qualname: str, fn):
        stat = self.stats.setdefault(qualname, Stat())
        module = qualname.split(".")[0]
        stack = self._stack
        entered = [r for r in self.regions.values() if qualname in r.entries]
        inside = [r for r in self.regions.values() if r.module == module]
        observe = self.observers.get(qualname)
        size_of = self.size_of

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = [r for r in entered if r.depth == 0]
            for r in entered:
                r.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                stat.calls += 1
                stat.self_s += own
                for r in entered:
                    r.depth -= 1
                for r in inside:
                    if r.depth > 0 or r in opened:
                        r.self_s += own
                for r in opened:
                    r.calls += 1
                    key = size_of(qualname, args) if size_of else None
                    if key is not None:
                        r.durations.setdefault(key, []).append(duration)
            if observe is not None:
                observe(self, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self, package: str = "egeo") -> "Tracer":
        mods = egeo_modules(package)
        for mod in mods:
            for name, fn in public_functions(mod).items():
                if fn not in self.wrapped:  # a re-install reuses wrappers, so stats accumulate
                    self.wrapped[fn] = self._wrap(f"{short(mod.__name__)}.{name}", fn)
        originals = self.wrapped
        for mod in mods:
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if inspect.isfunction(value) and value in originals:
                    self._saved.append((namespace, name, value))
                    namespace[name] = originals[value]
                elif isinstance(value, (list, dict)) and not name.startswith("__"):
                    self._rebind_container(value)
        return self

    def _rebind_container(self, container) -> None:
        keys = range(len(container)) if isinstance(container, list) else list(container)
        for key in keys:
            item = container[key]
            if inspect.isfunction(item) and item in self.wrapped:
                new = self.wrapped[item]
            elif isinstance(item, tuple) and any(inspect.isfunction(x) and x in self.wrapped for x in item):
                new = tuple(self.wrapped.get(x, x) if inspect.isfunction(x) else x for x in item)
            else:
                continue
            self._saved.append((container, key, item))
            container[key] = new

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            holder[key] = original
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ----------------------------------------------------------- queries

    def active(self, region: str) -> bool:
        return self.regions[region].depth > 0

    def count(self, region: str, counter: str, amount: int = 1) -> None:
        counters = self.regions[region].counters
        counters[counter] = counters.get(counter, 0) + amount

    def self_s(self, *qualnames: str) -> float:
        return sum(self.stats[q].self_s for q in qualnames if q in self.stats)

    def calls(self, *qualnames: str) -> int:
        return sum(self.stats[q].calls for q in qualnames if q in self.stats)

    def module_totals(self) -> dict:
        out: dict[str, Stat] = {}
        for qualname, stat in self.stats.items():
            total = out.setdefault(qualname.split(".")[0], Stat())
            total.calls += stat.calls
            total.self_s += stat.self_s
        return out
