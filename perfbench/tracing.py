"""In-memory span tracing of the orderfield package, installed from outside it.

`Tracer.install()` replaces every public function of each layer module with a
timing wrapper.  A module that imported the function under its own name (for
example `harness.deploy` or `estimator.build_dft_matrix`) is patched too, so
calls between modules are seen.  `Tracer.uninstall()` puts every original
back.  Nothing inside `src/orderfield` is edited.

A span is (id, parent, name, start, end).  Each thread keeps its own parent
stack and its own span buffer, so spans opened on pool workers nest under
the `<layer>.trial` span of their trial (named after the module that defined
the trial function), whose parent is the `parallel.trial_map` call that
scheduled it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = (
    "fields",
    "sampling",
    "estimator",
    "asymptotics",
    "ambiguity",
    "harness",
    "parallel",
    "cli",
)


class _Buffer:
    """Spans finished on one thread, stored as flat columns."""

    def __init__(self):
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []


def _dir_bytes(path) -> int:
    if not path or not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _harness_out_dir(args, kwargs):
    """Output directory of a harness run_* call: config field or keyword."""
    if "output_dir" in kwargs:
        return kwargs["output_dir"]
    if args and hasattr(args[0], "output_dir"):
        return args[0].output_dir
    if len(args) >= 6:
        return args[5]
    return ""


# Counters recorded at layer boundaries: name -> fn(args, kwargs, result) -> {key: amount}.
_HOOKS = {
    "fields.eval_field": lambda a, k, r: {"fields.eval_field.points": int(np.size(a[1]))},
    "sampling.deploy": lambda a, k, r: {"sampling.deploy.locations": int(a[0])},
    "sampling.extract_quantile_samples": lambda a, k, r: {
        "sampling.ranks_read": int(np.size(a[1]))
    },
    "sampling.save_samples": lambda a, k, r: {
        "sampling.save_samples.bytes": _file_bytes(a[1], a[2])
    },
    "harness.run_mse_sweep": lambda a, k, r: {
        "harness.bytes_written": _dir_bytes(_harness_out_dir(a, k))
    },
    "harness.run_clt_check": lambda a, k, r: {
        "harness.bytes_written": _dir_bytes(_harness_out_dir(a, k))
    },
    "harness.run_ambiguity_demo": lambda a, k, r: {
        "harness.bytes_written": _dir_bytes(_harness_out_dir(a, k))
    },
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "orderfield" or name.startswith("orderfield."))]


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []
        self.trial_capacity_s = 0.0
        self.max_workers = 0

    # ---- recording ----

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counters.update(counts)

    def timed(self, nid: int, fn, args, kwargs, parent=None, pass_id=False):
        """Call ``fn`` inside a span; ``parent`` overrides the thread's stack."""
        buf = self._buffer()
        stack = buf.stack
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            if pass_id:
                return fn(sid, *args, **kwargs)
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            buf.ids.append(sid)
            buf.parents.append(parent)
            buf.names.append(nid)
            buf.starts.append(start)
            buf.ends.append(end)

    # ---- patching ----

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.timed(nid, fn, args, kwargs)
            if hook is not None:
                self.add(hook(args, kwargs, result))
            return result

        return wrapper

    def _wrap_trial_map(self, fn, worker_count):
        nid = self.name_id("parallel.trial_map")

        @functools.wraps(fn)
        def wrapper(trial_fn, count):
            trial_nid = self.name_id(trial_fn.__module__.rsplit(".", 1)[-1] + ".trial")
            workers = worker_count()
            effective = 1 if workers <= 1 or count <= 1 else min(workers, count)

            def body(sid):
                def traced_trial(i):
                    return self.timed(trial_nid, trial_fn, (i,), {}, parent=sid)

                return fn(traced_trial, count)

            t0 = time.perf_counter()
            result = self.timed(nid, body, (), {}, pass_id=True)
            wall = time.perf_counter() - t0
            with self._lock:
                self.trial_capacity_s += wall * effective
                self.max_workers = max(self.max_workers, workers)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer module, wherever bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"orderfield.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "parallel" and attr == "trial_map":
                    wrappers[id(obj)] = self._wrap_trial_map(obj, mod.worker_count)
                else:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute `install` replaced."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    @property
    def patched(self) -> list[tuple]:
        return list(self._patches)

    # ---- results ----

    def columns(self) -> dict:
        """All finished spans as numpy columns."""
        with self._lock:
            bufs = list(self._buffers)
        cols = {}
        for key, dtype in (("ids", np.int64), ("parents", np.int64), ("names", np.int64),
                           ("starts", np.float64), ("ends", np.float64)):
            parts = [np.frombuffer(getattr(b, key), dtype=dtype) for b in bufs if len(b.ids)]
            cols[key] = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
        return cols

    def write_spans(self, path) -> None:
        cols = self.columns()
        np.savez_compressed(path, name_table=np.array(self.names), **cols)


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by a set of intervals."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    # an interval starts a new merged block when it begins after every earlier end
    new_block = np.empty(s.size, dtype=bool)
    new_block[0] = True
    new_block[1:] = s[1:] > reach[:-1]
    block = np.cumsum(new_block) - 1
    block_start = s[new_block]
    block_end = np.zeros(block_start.size)
    np.maximum.at(block_end, block, e)
    return float(np.sum(block_end - block_start))


def self_times(cols: dict, names: list, wall_s: float) -> dict:
    """Per-name self time, total time and call count, plus untraced time.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Children on one thread nest and never overlap, so their
    durations add; the trials under a `parallel.trial_map` span run on
    several workers and may overlap, so there the covered part is the length
    of the union of the child intervals.
    """
    ids, parents, name_ix = cols["ids"], cols["parents"], cols["names"]
    starts, ends = cols["starts"], cols["ends"]
    dur = ends - starts
    n = ids.size
    order = np.argsort(ids)
    has_parent = parents != 0
    pos = np.searchsorted(ids, parents[has_parent], sorter=order)
    parent_ix = order[np.minimum(pos, max(n - 1, 0))]
    covered = np.bincount(parent_ix, weights=dur[has_parent], minlength=n)
    if "parallel.trial_map" in names:
        pooled = name_ix[parent_ix] == names.index("parallel.trial_map")
        rows = np.flatnonzero(has_parent)[pooled]
        owners = parent_ix[pooled]
        sort = np.argsort(owners, kind="stable")
        rows, owners = rows[sort], owners[sort]
        for group in np.split(np.arange(rows.size), np.flatnonzero(np.diff(owners)) + 1):
            if group.size:
                members = rows[group]
                covered[owners[group[0]]] = _union_length(starts[members], ends[members])
    roots = ~has_parent
    untraced = wall_s - _union_length(starts[roots], ends[roots])
    self_s = dur - covered
    k = len(names)
    return {
        "self_s": np.bincount(name_ix, weights=self_s, minlength=k),
        "total_s": np.bincount(name_ix, weights=dur, minlength=k),
        "calls": np.bincount(name_ix, minlength=k),
        "untraced_s": untraced,
    }
