"""Spans, counts and call taps recorded from outside the program.

`Tracer` keeps spans in memory (name, start, end, parent) and writes them out
once, when the run ends. `Instruments` replaces a function of the program by a
wrapper, in every `volsampler` module that holds it (a name imported with
`from .x import y` is a separate binding, so each one is patched), or a method
on its class. A wrapper opens a span only when tracing is on; a hook given to
it runs on every call, traced or not, which is how the untraced run counts
field evaluations and captures the outputs it checks.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

ROOT = -1


class Tracer:
    """In-memory span recorder; single-threaded, so spans nest strictly."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._stack.pop()

    def root_name(self) -> str | None:
        return self.names[self._stack[0]] if self._stack else None

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover. Children
        of one span never overlap (one thread), so their durations add."""
        self_t = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent != ROOT:
                self_t[parent] -= self.ends[idx] - self.starts[idx]
        return self_t

    def roots_of(self) -> list[int]:
        """Index of each span's outermost ancestor."""
        roots = []
        for idx, parent in enumerate(self.parents):
            roots.append(idx if parent == ROOT else roots[parent])
        return roots

    def write(self, path) -> None:
        spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                 for i, (n, s, e, p) in enumerate(
                     zip(self.names, self.starts, self.ends, self.parents))]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": spans, "counts": dict(self.counts)}, f)


class Instruments:
    """Installs wrappers around program functions and methods; `restore`
    puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, orig, span: str | None, hook):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            on = tracer.enabled
            idx = tracer.begin(span) if on and span else -1
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if idx >= 0:
                    tracer.end(idx)
            if hook is not None:
                # hook work is the tracer's own, not the caller's
                hidx = tracer.begin("trace.hook") if on else -1
                try:
                    hook(result, dt, *args, **kwargs)
                finally:
                    if hidx >= 0:
                        tracer.end(hidx)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def function(self, module, attr: str, span: str | None, hook=None) -> None:
        """Wrap module.attr and every volsampler-module binding of it; a span
        of None records no span, only the hook."""
        orig = getattr(module, attr)
        wrapped = self._wrapper(orig, span, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "volsampler" or name.startswith("volsampler.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def method(self, cls, attr: str, span: str | None, hook=None) -> None:
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, self._wrapper(orig, span, hook))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
