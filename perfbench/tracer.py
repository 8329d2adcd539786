"""Span tracing of decoupkit's layers, built from the benchmark's files alone.

`Tracer.install()` wraps the public functions of every decoupkit module, a
few methods on their classes, and the numpy.linalg kernels the modules call.
Modules bind names with `from .qmat import partial_trace`, so each wrapper is
rebound in every `decoupkit.*` namespace that holds the original.  The
bindings are worked out once, so install() and uninstall() are cheap enough
to switch tracing on and off around single points.

Spans (name, start, end, parent, thread) are kept in memory in per-thread
buffers with a per-thread parent stack; `write()` saves them and `fold()`
turns them into a per-layer table of calls and self time.  A few
counters are computed from operand sizes and return values at the same
boundaries.  `uninstall()` restores every original.
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
import weakref
from array import array

import numpy as np

LAYERS = ("cli", "config", "protocols", "decouple", "twirl", "channels",
          "entropy", "qmat")
LINALG = ("eigh", "eigvalsh", "qr", "svd", "cholesky", "norm", "matrix_power")
# (module, class, attribute, span name)
METHODS = (("channels", "KrausMap", "apply", "channels.KrausMap.apply"),
           ("qmat", "DensityOp", "__post_init__", "qmat.DensityOp"),
           ("qmat", "LabeledOperator", "permuted", "qmat.LabeledOperator.permuted"),
           ("qmat", "PureState", "projector", "qmat.PureState.projector"))
PRIVATE = (("twirl", "_conjugate_on"),)
# counted at span boundaries from operand sizes and return values
COUNTERS = ("channels.choi.distinct_maps", "qmat.DensityOp.eigh_d3",
            "channels.KrausMap.apply.kron_bytes", "qmat.trace_norm.d3",
            "decouple.simultaneous_witness.tries",
            "decouple.simultaneous_witness.found", "entropy.h_cond.evals",
            "entropy.h_cond.converged", "cli.emit.bytes")


class _ThreadBuf:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack = []
        self.ids = array("q")
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counters = {}


class Tracer:
    def __init__(self):
        self._names = []
        self._bufs = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._bound = None
        self._choi_maps = weakref.WeakValueDictionary()

    # -- recording ---------------------------------------------------------

    def _buf(self) -> _ThreadBuf:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuf(len(self._bufs))
                self._bufs.append(buf)
            self._local.buf = buf
        return buf

    def count(self, key: str, amount=1):
        c = self._buf().counters
        c[key] = c.get(key, 0) + amount

    def _wrap(self, fn, name: str, post=None):
        name_id = len(self._names)
        self._names.append(name)
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buf()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(name_id)
                buf.starts.append(t0)
                buf.ends.append(t1)
                buf.parents.append(parent)
            if post is not None:
                post(args, result)
            return result

        return traced

    # -- computed counters, from operand sizes and return values -----------

    def _post_hooks(self):
        def choi(args, result):
            # KrausMap is unhashable, so maps are told apart by identity
            kmap = args[0]
            if self._choi_maps.get(id(kmap)) is not kmap:
                self._choi_maps[id(kmap)] = kmap
                self.count("channels.choi.distinct_maps")

        def density(args, result):
            d = args[0].op.entries.shape[0]
            self.count("qmat.DensityOp.eigh_d3", d ** 3)

        def kraus_apply(args, result):
            kmap, m = args[0], args[1]
            m = getattr(m, "op", m)
            d_sp = m.space.total_dim // kmap.in_space.total_dim
            per_op = (kmap.out_space.total_dim * d_sp) * (kmap.in_space.total_dim * d_sp)
            self.count("channels.KrausMap.apply.kron_bytes",
                       16 * per_op * len(kmap.kraus))

        def trace_norm(args, result):
            m = getattr(args[0], "op", args[0])
            d = np.shape(getattr(m, "entries", m))[0]
            self.count("qmat.trace_norm.d3", d ** 3)

        def witness(args, result):
            self.count("decouple.simultaneous_witness.tries", result.tries)
            self.count("decouple.simultaneous_witness.found", not result.anomaly)

        def h_cond(args, result):
            self.count("entropy.h_cond.evals", result.iterations)
            self.count("entropy.h_cond.converged", bool(result.converged))

        def emit(args, result):
            self.count("cli.emit.bytes", sum(os.path.getsize(p) for p in result))

        return {"channels.choi": choi, "qmat.DensityOp": density,
                "channels.KrausMap.apply": kraus_apply,
                "qmat.trace_norm": trace_norm,
                "decouple.simultaneous_witness": witness,
                "entropy.h_cond": h_cond, "cli.emit": emit}

    # -- install / uninstall -----------------------------------------------

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        mods = {name: importlib.import_module(f"decoupkit.{name}") for name in LAYERS}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "decoupkit" or n.startswith("decoupkit.")]
        hooks = self._post_hooks()
        targets = []
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.append((obj, f"{layer}.{attr}"))
        for layer, attr in PRIVATE:
            targets.append((getattr(mods[layer], attr), f"{layer}.{attr}"))
        out = []
        for orig, name in targets:
            wrapped = self._wrap(orig, name, hooks.get(name))
            for ns in namespaces:
                out += [(ns, attr, orig, wrapped)
                        for attr, obj in vars(ns).items() if obj is orig]
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            orig = cls.__dict__[attr]
            out.append((cls, attr, orig, self._wrap(orig, name, hooks.get(name))))
        for attr in LINALG:
            orig = getattr(np.linalg, attr)
            out.append((np.linalg, attr, orig, self._wrap(orig, f"linalg.{attr}")))
        return out

    def install(self):
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, _, wrapped in self._bound:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._bound or ():
            setattr(owner, attr, orig)

    # -- output ------------------------------------------------------------

    def spans(self) -> dict:
        """All spans as numpy arrays, one entry per span."""
        cols = {"id": [], "name": [], "start_ns": [], "end_ns": [],
                "parent": [], "thread": []}
        for b in self._bufs:
            cols["id"].append(np.array(b.ids, dtype=np.int64))
            cols["name"].append(np.array(b.names, dtype=np.int32))
            cols["start_ns"].append(np.array(b.starts, dtype=np.int64))
            cols["end_ns"].append(np.array(b.ends, dtype=np.int64))
            cols["parent"].append(np.array(b.parents, dtype=np.int64))
            cols["thread"].append(np.full(len(b.ids), b.tid, dtype=np.int32))
        out = {k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
               for k, v in cols.items()}
        out["names"] = np.array(self._names)
        return out

    def write(self, path: str):
        np.savez(path, **self.spans())

    def counters(self) -> dict:
        total = dict.fromkeys(COUNTERS, 0)
        for b in self._bufs:
            for k, v in b.counters.items():
                total[k] += v
        return total

    def fold(self) -> dict:
        """{span name: (calls, self_s)}; self time is the span's duration
        minus the part covered by its child spans on the same thread."""
        s = self.spans()
        n_ids = int(s["id"].max()) + 1 if len(s["id"]) else 0
        dur = (s["end_ns"] - s["start_ns"]).astype(np.float64)
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=n_ids)
        self_ns = dur - child[s["id"]]
        n_names = len(self._names)
        calls = np.bincount(s["name"], minlength=n_names)
        self_s = np.bincount(s["name"], weights=self_ns, minlength=n_names) * 1e-9
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self._names)}
