"""In-memory spans around calls into the package's public functions.

The wrappers live in the benchmark, not in the package: ``patched``
swaps module attributes for timing wrappers and restores them on exit.
Calls the package makes through a module attribute (``analytic.X``, or
a module-level name looked up at call time) are seen; names a module
imported with ``from .x import y`` are not, and their time stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans (id, name, start, end, parent, run, attrs) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = "main"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "run": self.run,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` with a span per call; ``attrs(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec["attrs"].update(attrs(args, kwargs, result))
                return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, attrs)`` targets for the duration of the block."""
        saved = []
        try:
            for module, attr, attrs in targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                short = module.__name__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(fn, f"{short}.{attr}", attrs))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def select(self, name: str, run_prefix: str = "") -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["run"].startswith(run_prefix)]

    def dump(self, path: Path, extra: dict) -> None:
        selfs = self_times(self.spans)
        spans = [dict(s, self_s=selfs[s["id"]]) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(extra, spans=spans), indent=1, default=str) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover.

    Children are clipped to the parent's interval and their union is
    taken, so overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            lo, hi = max(s["start"], parent["start"]), min(s["end"], parent["end"])
            if hi > lo:
                children.setdefault(parent["id"], []).append((lo, hi))
    out = {}
    for s in spans:
        covered, reach = 0.0, float("-inf")
        for lo, hi in sorted(children.get(s["id"], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = duration(s) - covered
    return out
