"""Spans around the public functions of each ``edgeworth`` module, recorded
from outside the program.

``Tracer.install`` replaces every public function and public method of the
eight layer modules by a timing wrapper, both where it is defined and under
every name another ``edgeworth`` module imported it as (``corrector.concat``
is ``multiindex.concat``).  Calls through module globals, class attributes
and package re-exports are therefore all seen.  Private helpers are not
wrapped, so their time counts as self time of the public function that
called them.  ``Tracer.remove`` puts every original back.

Spans stay in memory.  Every span updates per-function totals (calls,
self time, inclusive time of outermost calls).  Spans that enter a layer
from another one are also kept whole, with their parent, and written out
at the end; the primitive layers (multiindex, hermite: millions of calls a
pass) only update totals.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("multiindex", "hermite", "moments", "corrector", "sampling", "kernels", "experiments", "cli")
PRIMITIVE = ("multiindex", "hermite")
_DUNDERS = ("__add__", "__mul__", "__call__")


class _ThreadState:
    """What one thread records; threads never touch each other's state, so
    worker threads of the program (``--workers``) need no lock."""

    def __init__(self):
        self.stack = []  # open frames: [layer, owner, t0, child seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, self s, inclusive s, open calls
        self.owner_self_s = defaultdict(float)
        self.counters = Counter()
        self.spans = []  # (span id, parent span id, key, t0, t1) of layer-entry spans
        self.ids = []  # ids of the open layer-entry spans


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches = []  # (owner, attribute, original value)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def _run(self, fn, key, layer, args, kwargs):
        state = self._state()
        stack = state.stack
        st = state.stats[key]
        same_layer = bool(stack) and stack[-1][0] == layer
        owner = stack[-1][1] if same_layer else key
        frame = [layer, owner, 0.0, 0.0]
        stack.append(frame)
        record = not same_layer and layer not in PRIMITIVE
        if record:
            parent_id = state.ids[-1] if state.ids else None
            state.ids.append(next(self._ids))
        st[3] += 1
        t0 = frame[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            own = dur - frame[3]
            st[0] += 1
            st[1] += own
            st[3] -= 1
            if not st[3]:
                st[2] += dur
            state.owner_self_s[owner] += own
            if stack:
                stack[-1][3] += dur
            if record:
                state.spans.append((state.ids.pop(), parent_id, key, t0, t1))

    def run_op(self, name: str, fn):
        """Run one benchmark op as the root span of the calls it makes."""
        return self._run(fn, "op:" + name, "bench", (), {})

    def _wrap(self, fn, key, layer):
        hook = _HOOKS.get(key)
        run = self._run

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return run(fn, key, layer, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = run(fn, key, layer, args, kwargs)
                hook(self._state(), result)
                return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, package: str = "edgeworth") -> None:
        """Wrap every public function and method of the layer modules."""
        pkg = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = [pkg] + list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap(obj, f"{layer}.{name}", layer)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, new)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in _DUNDERS:
                            continue
                        kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
                        raw = member.__func__ if kind else member
                        if inspect.isfunction(raw):
                            new = self._wrap(raw, f"{layer}.{name}.{attr}", layer)
                            self._patch(obj, attr, kind(new) if kind else new)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put back every original the last ``install`` replaced."""
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- summaries (call when no traced call is running) ----------------------

    def summary(self) -> dict:
        """Totals over all threads: per-function stats, self time per
        same-layer owner, counters, and the recorded spans in start order."""
        stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
        owner: dict = defaultdict(float)
        counters: Counter = Counter()
        spans = []
        for state in self._threads:
            for key, st in state.stats.items():
                for k in range(3):
                    stats[key][k] += st[k]
            for key, v in state.owner_self_s.items():
                owner[key] += v
            counters.update(state.counters)
            spans += state.spans
        return {"stats": dict(stats), "owner_self_s": dict(owner), "counters": dict(counters),
                "spans": sorted(spans, key=lambda sp: sp[3])}


def _count_draws(state, result):
    size = int(np.size(result))
    state.counters["moments.draws"] += size
    if state.stats["sampling.sample_sum"][3]:
        state.counters["sampling.sample_sum_draws"] += size


def _count_terms(state, result):
    state.counters["corrector.terms"] += len(result.terms)


_HOOKS = {
    "moments.sample_component": _count_draws,
    "moments.component_icdf": _count_draws,
    "corrector.corrector_polynomial": _count_terms,
}
