"""In-memory span tracer that wraps a package's functions from outside.

Each call of a wrapped function records a span: name, start and end
(perf_counter_ns), process CPU time at both ends, the index of the
enclosing span, the item id current at the call, and whether an
exception left the function.  Optional counters read a call's arguments
and result and add work counts under "<name>.<counter>".

Modules bind functions by name (`from .weights import classify`), so
`install` rebinds every alias of a wrapped object found in the package's
loaded modules: module attributes, module-level dict values and tuples
held in those dicts (a dispatch table of (function, params) pairs).
`uninstall` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# span fields
NAME, T0, T1, C0, C1, PARENT, ITEM, RAISED = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.item = None
        self._local = threading.local()
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, counter=None):
        spans, counts = self.spans, self.counts
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, 0, 0, 0, 0, stack[-1] if stack else -1, self.item, False]
            stack.append(len(spans))
            spans.append(span)
            span[C0] = time.process_time_ns()
            span[T0] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[T1] = time.perf_counter_ns()
                span[C1] = time.process_time_ns()
                stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound.arguments, out).items():
                    counts[f"{name}.{key}"] += int(value)
            return out

        return traced

    # -- patching -------------------------------------------------------------

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            old = container[key]
            container[key] = value
        else:
            old = container.__dict__[key]
            setattr(container, key, value)
        self._patches.append((container, key, old))

    def install(self, package: str, specs) -> None:
        """Wrap each (owner, attr, span name, counter) of `specs`.

        An owner is a module or a class; class attributes are replaced on
        the class, module functions wherever the package refers to them.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for owner, attr, name, counter in specs:
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name, counter)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                wrappers[id(original)] = (original, wrapper)

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not None:
                    self._set(module, attr, new)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        new = swap(entry)
                        if new is None and isinstance(entry, tuple):
                            swapped = tuple(swap(e) or e for e in entry)
                            if any(a is not b for a, b in zip(swapped, entry)):
                                new = swapped
                        if new is not None:
                            self._set(value, key, new)

    def uninstall(self) -> None:
        while self._patches:
            container, key, old = self._patches.pop()
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)

    # -- results --------------------------------------------------------------

    def self_times_ns(self, start: int = T0, end: int = T1) -> list[int]:
        """Per span, its duration minus its child spans' (wall or, with
        start=C0, end=C1, process CPU time)."""
        out = [span[end] - span[start] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                out[span[PARENT]] -= span[end] - span[start]
        return out

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, self_s, cpu_s (self CPU time) and raised."""
        wall, cpu = self.self_times_ns(), self.self_times_ns(C0, C1)
        acc: dict[str, list[int]] = {}
        for idx, span in enumerate(self.spans):
            row = acc.setdefault(span[NAME], [0, 0, 0, 0])
            row[0] += 1
            row[1] += wall[idx]
            row[2] += cpu[idx]
            row[3] += span[RAISED]
        return {
            name: {"calls": c, "self_s": w / 1e9, "cpu_s": p / 1e9, "raised": r}
            for name, (c, w, p, r) in sorted(acc.items())
        }
