"""Spans at the package's module boundaries, recorded by wrapping public functions.

Every public function of a layer module is replaced, in its own module, in the
package namespace and in every module that imports it by name, with a wrapper
that opens a span when the call crosses into that layer from another layer (or
from the benchmark).  Calls inside one layer run unwrapped, so a layer's self
time is the time spent in its own code.  Spans are kept in flat arrays and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _letters(x) -> int:
    """Letters carried by a value: a word, a matrix's rows, or an entry's word."""
    if isinstance(x, str):
        return len(x)
    rows = getattr(x, "rows", None)
    if rows is not None:
        return sum(map(len, rows))
    word = getattr(x, "word", None)
    return len(word) if isinstance(word, str) else 0


class Tracer:
    """Spans and boundary counts for the named layer modules of `package`.

    `install` puts the wrappers in place and `uninstall` restores the original
    functions, so untraced and traced rounds can alternate in one process.
    """

    def __init__(self, package, layers: list[str]):
        self.package = package
        self.modules = {name: getattr(package, name) for name in layers}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.layer: str | None = None
        self.current = -1
        self.paused = False
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for layer, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    self.names.append(f"{layer}.{attr}")
                    self._wrappers[fn] = self._wrap(fn, layer, len(self.names) - 1)

    def install(self) -> None:
        for ns in (self.package, *self.modules.values()):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, self._wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, fn, layer: str, name_id: int):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused or tracer.layer == layer:
                return fn(*args, **kwargs)
            return tracer._span(fn, layer, name_id, args, kwargs)

        return wrapper

    def _span(self, fn, layer, name_id, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_end.append(0.0)
        outer = self.layer, self.current
        self.layer, self.current = layer, idx
        self.span_start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[layer, "errors"] += 1
            raise
        finally:
            self.span_end[idx] = perf_counter()
            self.layer, self.current = outer
        counts = self.counts
        counts[layer, "letters_in"] += sum(len(a) for a in args if isinstance(a, str))
        counts[layer, "letters_out"] += _letters(result)
        if isinstance(result, (list, tuple)):
            counts[layer, "items_out"] += len(result)
        terms = getattr(result, "terms", None)
        if terms is not None:
            counts[layer, "terms"] += len(terms)
            counts[layer, "live_terms"] += sum(1 for t in terms if t.contribution)
        return result

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Span count and self time per layer; self time excludes direct child spans."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            layer = self.names[self.span_name[i]].split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += dur[i] - child[i]
        return calls, self_s

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then one [name, parent, start_s, end_s] line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with path.open("w", encoding="ascii") as fh:
            fh.write(json.dumps({**meta, "names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"[{self.span_name[i]}, {self.span_parent[i]}, "
                    f"{self.span_start[i] - t0:.7f}, {self.span_end[i] - t0:.7f}]\n"
                )
