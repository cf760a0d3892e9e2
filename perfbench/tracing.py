"""In-memory span tracer that wraps the charsum layers from outside the package.

Every public module-level function of the layer modules (and
``FieldCtx.add_vec``) is replaced by a wrapper that records one span per call:
name, start, end, parent span and run id.  A function imported under another
name elsewhere (``cli.make_field`` next to ``field.make_field``, the package
re-exports in ``charsum``) is rebound too, so no call path escapes the trace.
``uninstall`` puts every original back.

Spans live in compact arrays (about 30 bytes each) and are reduced at the end:
inclusive time per function (recursive re-entries counted once), self time
within the layer (the span minus the part covered by spans of *other* layers)
and call counts.  A few functions also carry counters read around the call:
cache misses of ``hyperf.binom_row`` and ``curves.power_count_table`` from the
context cache size, and grid cases of ``sums.verify_identity``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("field", "chars", "sums", "hyperf", "curves", "apps", "cli")


def _cache_size(args, kwargs, key=None):
    """Size of the context cache (or of one of its sub-caches), read before
    and after a call; growth means the call missed."""
    ctx = args[0] if args else kwargs["ctx"]
    cache = ctx._cache if key is None else ctx._cache.get(key, ())
    return len(cache)


# Functions whose calls are also counted as cache hits or misses.
_MISS_PROBES = {
    "hyperf.binom_row": functools.partial(_cache_size, key="binom_rows"),
    "curves.power_count_table": _cache_size,
}


def _identity_name(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["name"]


class Tracer:
    """Records spans for wrapped charsum functions; one instance per run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.depth = array("b")
        self.nested = array("b")  # 1 when a span of the same name is open
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.run_phase: list[str] = []  # run id -> phase name
        self._stack: list[int] = []
        self._open_by_name: dict[int, int] = defaultdict(int)
        self._run_id = -1
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._installed = False
        self.new_run("untagged")

    # -- recording -------------------------------------------------------------

    def new_run(self, phase: str) -> None:
        """Start a new run id (one sample, grid report or CLI invocation)."""
        self.run_phase.append(phase)
        self._run_id = len(self.run_phase) - 1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        nid = self._name_id(name)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self._run_id)
        self.depth.append(min(len(stack), 127))
        self.nested.append(1 if self._open_by_name[nid] else 0)
        self._open_by_name[nid] += 1
        stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._open_by_name[self.name_id[idx]] -= 1

    def _wrap(self, label: str, fn):
        tracer = self
        probe = _MISS_PROBES.get(label)
        is_identity = label == "sums.verify_identity"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label
            if is_identity:
                name = f"{label}.{_identity_name(args, kwargs)}"
            before = probe(args, kwargs) if probe else 0
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if probe and probe(args, kwargs) > before:
                tracer.counters[f"{label}.misses"] += 1
            if is_identity:
                tracer.counters[f"{name}.cases"] += result.cases
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap:
        each public layer function under every name any charsum module gives
        it, plus ``FieldCtx.add_vec``."""
        for layer in LAYERS:
            importlib.import_module(f"charsum.{layer}")
        modules = [
            mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "charsum" or name.startswith("charsum."))
        ]
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"charsum.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for owner in modules:
                    for alias, value in vars(owner).items():
                        if value is obj:
                            plan.append((owner, alias, obj, wrapper))
        field_ctx = sys.modules["charsum.field"].FieldCtx
        original = field_ctx.__dict__["add_vec"]
        plan.append((field_ctx, "add_vec", original,
                     self._wrap("field.FieldCtx.add_vec", original)))
        return plan

    def install(self) -> None:
        """Bind the wrappers; cheap after the first call, so a run can switch
        tracing on and off around single jobs."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or ()):
            setattr(owner, attr, original)
        self._installed = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------------------

    def summary(self, phases=None):
        """Reduce the spans to per-function and per-layer figures.

        Returns ``(functions, layers)``.  ``functions`` maps each span name to
        its ``calls``, inclusive ``s`` and in-layer ``self_s``; ``layers`` maps
        each module to its ``calls`` and ``self_s`` (time spent in the module's
        own code, each instant counted once).  With ``phases`` given, only
        spans whose run id belongs to one of those phases are counted.
        """
        import numpy as np

        functions: dict[str, dict[str, float]] = {}
        layers: dict[str, dict[str, float]] = {}
        n = len(self.start)
        if n == 0:
            return functions, layers
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        depth = np.frombuffer(self.depth, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        layer_of_name = np.array(
            [LAYERS.index(name.split(".", 1)[0]) for name in self.names], dtype=np.int32
        )
        layer = layer_of_name[name_id]
        # Time of each span covered by spans of other layers, pushed up level by
        # level from the deepest spans: a child of another layer covers its whole
        # duration, a child of the same layer passes on what covers it.
        ext = np.zeros(n)
        for level in range(int(depth.max()), 0, -1):
            idx = np.nonzero(depth == level)[0]
            par = parent[idx]
            cross = layer[idx] != layer[par]
            np.add.at(ext, par, np.where(cross, dur[idx], ext[idx]))
        self_time = dur - ext
        keep = np.ones(n, dtype=bool)
        if phases is not None:
            wanted = np.array([p in phases for p in self.run_phase])
            keep = wanted[np.frombuffer(self.run, dtype=np.int32)]
        outer = keep & (np.frombuffer(self.nested, dtype=np.int8) == 0)
        m = len(self.names)
        calls = np.bincount(name_id[keep], minlength=m)
        incl = np.bincount(name_id[outer], weights=dur[outer], minlength=m)
        selfs = np.bincount(name_id[outer], weights=self_time[outer], minlength=m)
        for nid, name in enumerate(self.names):
            if calls[nid]:
                functions[name] = {
                    "calls": int(calls[nid]),
                    "s": float(incl[nid]),
                    "self_s": float(selfs[nid]),
                }
        top = keep & ((parent < 0) | (layer != layer[np.maximum(parent, 0)]))
        layer_calls = np.bincount(layer[keep], minlength=len(LAYERS))
        layer_self = np.bincount(layer[top], weights=self_time[top], minlength=len(LAYERS))
        for lid, name in enumerate(LAYERS):
            if layer_calls[lid]:
                layers[name] = {"calls": int(layer_calls[lid]), "self_s": float(layer_self[lid])}
        return functions, layers
