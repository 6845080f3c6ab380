"""Span tracer that wraps a package's functions from outside the package.

`Tracer.installed()` swaps every selected module-level function for a
wrapper, in the module that defines it and in every module of the package
that imported it by name, and puts the originals back on exit. Each wrapper
records one span per call (name, parent span, start, end, time in traced
children) on the calling thread's own stack, so the worker threads of a
thread pool attribute self time per thread. Spans stay in memory until the
caller reads them.

An observer, if one is registered for a function, sees the call's bound
arguments and return value and adds to per-thread counters. Its own time is
charged to no span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Iterable, NamedTuple

# Exceptions an observer may raise when the traced program's signatures
# change under it; they are counted, and the traced call still returns.
_OBSERVER_ERRORS = (KeyError, TypeError, AttributeError, ValueError, IndexError)


class Span(NamedTuple):
    thread: int
    name: str
    parent: str | None
    start: float
    end: float
    child_s: float

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class _ThreadLog:
    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # [name, child seconds] per open span
        self.spans: list[Span] = []
        self.counters: Counter = Counter()


class Tracer:
    def __init__(self, observers: dict[str, Callable] | None = None):
        self._observers = observers or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self.wrapped: list[str] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = self._log()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                log.spans.append(Span(log.index, name, parent, t0, t1, frame[1]))
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(log.counters, bound.arguments, result, [f[0] for f in stack])
                except _OBSERVER_ERRORS:
                    log.counters["trace.observer_errors"] += 1
            if stack:
                stack[-1][1] += clock() - t0
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, package: str, modules: Iterable[str], private: Iterable[str] = ()):
        """Trace the public functions of `package.<module>` for each module,
        plus the named private ones (given as "module.function")."""
        private = set(private)
        wrappers = {}  # id(original) -> wrapper
        for short in modules:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in private)
                ):
                    wrappers[id(obj)] = self._wrap(name, obj)
                    self.wrapped.append(name)
        patched: list[tuple[ModuleType, str, Callable]] = []
        try:
            for modname, mod in list(sys.modules.items()):
                if modname != package and not modname.startswith(package + "."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None and wrapper.__wrapped__ is obj:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, obj))
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def spans(self) -> list[Span]:
        return [s for log in self._logs for s in log.spans]

    def counters(self) -> Counter:
        total = Counter()
        for log in self._logs:
            total.update(log.counters)
        return total
