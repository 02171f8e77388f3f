"""Spans around the calls into each layer of ``qdrepeater``, from outside it.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent span, task id).  The
replacement is made in every ``qdrepeater`` module namespace that binds the
function, because ``protocols``, ``timebin`` and ``scatter`` import
``apply_map`` and friends by name.  ``StateVector.__post_init__`` and
``LinearMap.__post_init__`` are wrapped too, so constructor validation shows
as the spans ``qstate.StateVector`` and ``qstate.LinearMap``.  Private
helpers are not wrapped: their time is self time of the public function
that called them.  ``uninstall`` restores the originals.

Spans stay in memory until ``write_jsonl``; ``summary`` derives per-function
and per-layer call counts and self times (span time minus the time covered
by its child spans) plus three counters computed from call arguments and
results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("cavity", "scatter", "timebin", "qstate", "protocols", "metrics", "cli")
CONSTRUCTORS = ("StateVector", "LinearMap")

#: Bytes per complex128 amplitude; apply_map reads and writes the register.
_AMPLITUDE_BYTES = 16


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.task: list[int] = []
        self.task_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.peak_dim = 0
        self.bytes_computed = 0
        self.branches = 0
        self.live_branches = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        names, start, end, parent, task, stack = (
            self.names, self.start, self.end, self.parent, self.task, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            task.append(self.task_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _note_timebin(self, args, kwargs, result):
        register = getattr(result, "register", None)     # set on StateVector results
        if register is not None:
            self.peak_dim = max(self.peak_dim, register.dim)

    def _note_apply_map(self, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        self.bytes_computed += _AMPLITUDE_BYTES * state.register.dim * 2

    def _note_measure(self, args, kwargs, result):
        self.branches += len(result)
        self.live_branches += sum(1 for br in result if br.probability > 0.0)

    def install(self):
        """Wrap the public functions and constructors of every layer."""
        modules = {layer: importlib.import_module(f"qdrepeater.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                note = None
                if layer == "timebin":
                    note = self._note_timebin
                elif layer == "qstate" and attr == "apply_map":
                    note = self._note_apply_map
                elif layer == "qstate" and attr == "measure":
                    note = self._note_measure
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, note))
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "qdrepeater" or name.startswith("qdrepeater."))]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)][1])
        for cls_name in CONSTRUCTORS:
            cls = getattr(modules["qstate"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(f"qstate.{cls_name}", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def summary(self) -> dict:
        """Per-function and per-layer ``calls`` / ``self_s`` plus the counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        for name, own in zip(self.names, self.self_times()):
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
        out["timebin.peak_dim"] = self.peak_dim
        out["qstate.apply_map.bytes_computed"] = self.bytes_computed
        out["qstate.measure.live_ratio"] = (
            self.live_branches / self.branches if self.branches else 0.0)
        return out

    def write_jsonl(self, path, origin: float = 0.0, header: dict | None = None):
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": name, "parent": self.parent[i], "task": self.task[i],
                    "start": self.start[i] - origin, "end": self.end[i] - origin,
                }) + "\n")
