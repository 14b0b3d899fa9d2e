"""Spans around the calls one gridmdl layer makes into another.

A span has a name, start, end, parent span and item id, plus an optional
note taken from the wrapped call's return value (or the name of the
exception it raised). Spans stay in memory; `layer_stats` reduces them to
per-layer counts and self times, where a span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.item = -1
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.items = array("i")
        self.notes: dict[int, object] = {}
        self.errors: dict[int, str] = {}
        self._open: list[int] = []
        self._depth: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.items.append(self.item)
        self.end.append(0.0)
        self._open.append(sid)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.start.append(self.clock())
        return sid

    def exit(self, sid: int, note=None, error: str | None = None) -> None:
        self.end[sid] = self.clock()
        self._open.pop()
        self._depth[self.names[sid]] -= 1
        if note is not None:
            self.notes[sid] = note
        if error is not None:
            self.errors[sid] = error

    def inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0


def wrap(tracer: Tracer, module, attr: str, name: str, note=None,
         outermost: bool = False):
    """Replace `module.attr` by a traced version; returns the original.

    `note(args, kwargs, result)` extracts a value to keep with the span. With
    `outermost`, calls made while a span of the same name is open run
    untraced, so a recursive function counts once per outermost call."""
    orig = getattr(module, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        if outermost and tracer.inside(name):
            return orig(*args, **kwargs)
        sid = tracer.enter(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException as e:
            tracer.exit(sid, error=type(e).__name__)
            raise
        tracer.exit(sid, note(args, kwargs, result) if note else None)
        return result

    setattr(module, attr, traced)
    return orig


class Patches:
    """Module attributes replaced for a while; `restore` puts them back."""

    def __init__(self):
        self._saved: list[tuple] = []

    def wrap(self, tracer: Tracer, module, attr: str, name: str, **kw) -> None:
        self._saved.append((module, attr, wrap(tracer, module, attr, name, **kw)))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(tr: Tracer) -> dict[str, LayerStats]:
    """Calls, inclusive time and self time per span name."""
    n = len(tr)
    child_s = [0.0] * n
    for sid in range(n):
        p = tr.parent[sid]
        if p >= 0:
            child_s[p] += tr.end[sid] - tr.start[sid]
    out: dict[str, LayerStats] = {}
    for sid in range(n):
        dur = tr.end[sid] - tr.start[sid]
        st = out.get(tr.names[sid])
        if st is None:
            st = out[tr.names[sid]] = LayerStats()
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s[sid]
    return out


def children(tr: Tracer) -> list[list[int]]:
    """Child span ids of every span."""
    out: list[list[int]] = [[] for _ in range(len(tr))]
    for sid in range(len(tr)):
        p = tr.parent[sid]
        if p >= 0:
            out[p].append(sid)
    return out
