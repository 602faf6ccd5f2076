"""Outside-in tracing of the langmuir_lab layers.

The tracer rebinds every public function of each layer module, in every
package module that holds a reference to it (including module-level tuples
such as analysis._ALL_CHECKS), and restores the originals on uninstall.
Nothing inside the package is edited.

Two kinds of wrapper:

* span: one record per call with name, start, end, parent span, thread id
  and thread CPU time.  Used for every layer except the hot leaves below.
* leaf: the public functions of `dynamics` and `output.fmt` run hundreds
  of thousands of times per unit, so they only bump per-thread call and
  time counters.  Leaf time is credited to the enclosing span, which gives
  span self time without one record per field evaluation.

A span opened on a thread with no open span of its own (a pool worker)
takes as parent the innermost open span of the thread that installed the
tracer: the scan_alpha or run_all_checks call that is waiting on the pool.
Span times are wall times, so on pool threads they include waiting for the
GIL; the thread CPU time kept with each span measures that wait.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("dynamics", "integrator", "shooting", "analysis", "output", "cli")
LEAF_LAYERS = frozenset({"dynamics"})
LEAF_FUNCTIONS = frozenset({"output.fmt"})


def _probe_integrate(traj):
    return {"samples": len(traj.samples), "events": len(traj.events)}


def _probe_orbit(rec):
    return {"solver_iters": len(rec.solver_trace)}


def _probe_text(text):
    return {"bytes": len(text)}


# Facts read from a traced function's return value.
PROBES = {
    "integrator.integrate": _probe_integrate,
    "shooting.find_langmuir_orbit": _probe_orbit,
    "shooting.find_brake_orbit": _probe_orbit,
    "output.trajectory_csv": _probe_text,
    "output.trajectory_svg": _probe_text,
    "output.orbit_record_json": _probe_text,
    "output.scan_csv": _probe_text,
    "output.verdict_json": _probe_text,
}


class Span:
    __slots__ = (
        "id", "name", "parent", "tid", "t0", "t1", "cpu0", "cpu1",
        "child_s", "child_leaf_s", "leaf_s", "leaf_calls", "extra",
    )

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "tid": self.tid, "start": self.t0, "end": self.t1,
            "thread_cpu_s": self.cpu1 - self.cpu0, "child_s": self.child_s,
            "leaf_s": self.leaf_s, "leaf_calls": self.leaf_calls,
            "extra": self.extra,
        }


class _ThreadState(threading.local):
    """Per-thread span stack and leaf counters; counters are never shared
    between threads, so no increment can be lost to a thread switch."""

    def __init__(self, registry: list):
        self.stack: list[Span] = []
        self.depth = 0
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.secs: defaultdict[str, float] = defaultdict(float)
        self.layer_s: defaultdict[str, float] = defaultdict(float)
        registry.append((self.calls, self.secs))


def _layer(qualname: str) -> str:
    return qualname.split(".", 1)[0]


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [package] + [
            getattr(package, name) for name in LAYERS
        ]
        self._threads: list[tuple[dict, dict]] = []
        self._tls = _ThreadState(self._threads)
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []
        self._home_stack: list[Span] = []
        self.spans: list[Span] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._tls.stack
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(self._package, layer)
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                if layer in LEAF_LAYERS or qual in LEAF_FUNCTIONS:
                    wrapped[obj] = self._leaf(qual, obj)
                else:
                    wrapped[obj] = self._span(qual, obj)
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, name, wrapped[obj])
                elif isinstance(obj, tuple) and any(
                    inspect.isfunction(o) and o in wrapped for o in obj
                ):
                    self._rebind(mod, name, tuple(
                        wrapped.get(o, o) if inspect.isfunction(o) else o
                        for o in obj
                    ))

    def _rebind(self, mod, name: str, new) -> None:
        self._restore.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, old in reversed(self._restore):
            setattr(mod, name, old)
        self._restore.clear()

    # ------------------------------------------------------------ wrappers

    def _span(self, qual: str, fn):
        tls, spans, ids = self._tls, self.spans, self._ids
        perf, tcpu, get_ident = (
            time.perf_counter, time.thread_time, threading.get_ident
        )
        probe = PROBES.get(qual)

        def wrapper(*args, **kwargs):
            stack = tls.stack
            home = self._home_stack
            parent = stack[-1] if stack else (home[-1] if home else None)
            sp = Span()
            sp.id, sp.name, sp.tid = next(ids), qual, get_ident()
            sp.parent = parent.id if parent is not None else None
            sp.child_s, sp.child_leaf_s, sp.extra = 0.0, {}, {}
            layer0, calls0 = dict(tls.layer_s), dict(tls.calls)
            stack.append(sp)
            sp.cpu0 = tcpu()
            sp.t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.t1 = perf()
                sp.cpu1 = tcpu()
                stack.pop()
                sp.leaf_s = {
                    k: v - layer0.get(k, 0.0) for k, v in tls.layer_s.items()
                    if v != layer0.get(k, 0.0)
                }
                sp.leaf_calls = {
                    k: v - calls0.get(k, 0) for k, v in tls.calls.items()
                    if v != calls0.get(k, 0)
                }
                if parent is not None and parent.tid == sp.tid:
                    parent.child_s += sp.t1 - sp.t0
                    for k, v in sp.leaf_s.items():
                        parent.child_leaf_s[k] = parent.child_leaf_s.get(k, 0.0) + v
                spans.append(sp)
            if probe is not None:
                sp.extra = probe(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, qual: str, fn):
        tls, perf, layer = self._tls, time.perf_counter, _layer(qual)

        def wrapper(*args, **kwargs):
            tls.depth += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tls.depth -= 1
                tls.calls[qual] += 1
                tls.secs[qual] += dt
                if not tls.depth:  # nested leaves are inside this time
                    tls.layer_s[layer] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ reading

    def leaf_totals(self) -> tuple[dict, dict]:
        """Leaf calls and seconds summed over every thread so far."""
        calls: defaultdict[str, int] = defaultdict(int)
        secs: defaultdict[str, float] = defaultdict(float)
        for thread_calls, thread_secs in list(self._threads):
            for k, v in list(thread_calls.items()):
                calls[k] += v
            for k, v in list(thread_secs.items()):
                secs[k] += v
        return dict(calls), dict(secs)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")


def self_time(sp: Span) -> float:
    """Span duration minus same-thread child spans and minus leaf time of
    other layers run directly inside it (leaf_s is inclusive of children)."""
    own = _layer(sp.name)
    foreign = sum(
        s - sp.child_leaf_s.get(layer, 0.0)
        for layer, s in sp.leaf_s.items() if layer != own
    )
    return (sp.t1 - sp.t0) - sp.child_s - foreign
