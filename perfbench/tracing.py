"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`install` replaces
public functions with timing wrappers at the place their callers look them
up (a module attribute or a class attribute), so nothing under ``src/``
changes.  A span is (id, name, start, end, parent, thread, op, a1, a2):
``parent`` is the enclosing span on the same thread (-1 at the top of a
thread), ``op`` the benchmark op that caused it, and ``a1``/``a2`` two
integer attributes a wrapper may fill in (matrix order for eigensolver
calls, block count and largest block for ``reduce_input``).

Each thread appends to its own buffer, so recording takes no lock; span ids
come from one process-wide counter.  Spans stay in memory until
:meth:`Tracer.arrays` merges them when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import threading
import time
from array import array

import numpy as np

# span name -> (module path, attribute) sites to wrap; a site that no longer
# exists is skipped, so its metrics read zero calls instead of failing
SITES = {
    "estimators.solve": [("suffreduce.estimators", "solve")],
    "estimators.kkt_residual": [("suffreduce.estimators", "kkt_residual")],
    "estimators.objective_at": [("suffreduce.estimators", "objective_at")],
    "reductions.reduce_input": [
        ("suffreduce.estimators", "reduce_input"),
        ("suffreduce.reductions", "reduce_input"),
    ],
    "reductions.reassemble_blocks": [("suffreduce.estimators", "reassemble_blocks")],
    "linkage.slt": [("suffreduce.reductions", "slt")],
    "linkage.slt_plus": [("suffreduce.reductions", "slt_plus")],
    "linkage.slc": [("suffreduce.reductions", "slc")],
    "linkage.threshold_components": [("suffreduce.reductions", "threshold_components")],
    "linkage.mst_kruskal": [("suffreduce.linkage", "mst_kruskal")],
    "linkage.cut_dendrogram": [("suffreduce.linkage", "cut_dendrogram")],
    "symmat.wrap": [("suffreduce.symmat.SymMatrix", "wrap")],
    "symmat.from_dense": [("suffreduce.symmat.SymMatrix", "from_dense")],
    "symmat.dense": [("suffreduce.symmat.SymMatrix", "dense")],
    "kernel.eigh": [("numpy.linalg", "eigh")],
    "kernel.eigvalsh": [("numpy.linalg", "eigvalsh")],
}


def _matrix_order(args, kwargs, out):
    a = args[0] if args else kwargs.get("a")
    return int(np.shape(a)[-1]), 0


def _partition_size(args, kwargs, out):
    part = getattr(out, "partition", None)
    if part is None:
        return 0, 0
    return len(part.blocks), max(len(b) for b in part.blocks)


ATTRS = {
    "kernel.eigh": _matrix_order,
    "kernel.eigvalsh": _matrix_order,
    "reductions.reduce_input": _partition_size,
}


class _Buffer:
    __slots__ = ("thread", "stack", "cols")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        # id, name, parent, op, a1, a2 as int64; start, end as double
        self.cols = tuple(array("q") for _ in range(6)) + (array("d"), array("d"))


class Tracer:
    """Collects spans while an op is active (``op >= 0``)."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        attrs = ATTRS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                a1, a2 = attrs(args, kwargs, out) if attrs and out is not None else (0, 0)
                c = buf.cols
                c[0].append(sid)
                c[1].append(nid)
                c[2].append(parent)
                c[3].append(op)
                c[4].append(a1)
                c[5].append(a2)
                c[6].append(t0)
                c[7].append(t1)

        return traced

    def run_op(self, op: int, name: str, fn):
        """Run ``fn()`` as op ``op`` under a root span; returns its result."""
        self.op = op
        try:
            return self.wrap(fn, name)()
        finally:
            self.op = -1

    def arrays(self) -> dict:
        """All spans as numpy columns sorted by id, plus derived self time."""
        keys = ("id", "name", "parent", "op", "a1", "a2", "start", "end")
        cols = {k: [] for k in keys}
        thread = []
        for buf in self._buffers:
            for k, col in zip(keys, buf.cols):
                cols[k].append(np.frombuffer(col, dtype=np.int64 if col.typecode == "q" else float))
            thread.append(np.full(len(buf.cols[0]), buf.thread, dtype=np.int64))
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        out["thread"] = np.concatenate(thread) if thread else np.zeros(0, dtype=np.int64)
        order = np.argsort(out["id"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        dur = out["end"] - out["start"]
        pidx = np.searchsorted(out["id"], out["parent"])
        has = out["parent"] >= 0
        child = np.bincount(pidx[has], weights=dur[has], minlength=dur.size)
        out["dur"] = dur
        out["self"] = dur - child
        out["parent_index"] = np.where(has, pidx, -1)
        return out

    def write(self, path, spans: dict) -> None:
        """Write spans as gzipped TSV: id name start end parent thread op a1 a2."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\top\ta1\ta2\n")
            for row in zip(*(spans[k].tolist() for k in
                             ("id", "name", "start", "end", "parent", "thread", "op", "a1", "a2"))):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%d\t%d\t%d\n"
                         % (row[0], self.names[row[1]], *row[2:]))


def _resolve(path: str):
    """The module or class at a dotted path, or None if it does not exist."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


class Patches:
    """The wrappers :func:`install` made, switchable on and off."""

    def __init__(self):
        self.sites: list[tuple[object, str, object, object]] = []  # owner, attr, original, traced
        self.names: list[str] = []

    def set(self, traced: bool) -> None:
        for owner, attr, original, wrapper in self.sites:
            setattr(owner, attr, wrapper if traced else original)


def install(tracer: Tracer) -> Patches:
    """Wrap every site in SITES that exists and switch the wrappers on."""
    patches = Patches()
    done: dict[int, object] = {}
    for name, sites in SITES.items():
        for owner_path, attr in sites:
            owner = _resolve(owner_path)
            if owner is None:
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if id(fn) not in done:
                done[id(fn)] = tracer.wrap(fn, name)
            patches.sites.append((owner, attr, raw, kind(done[id(fn)]) if kind else done[id(fn)]))
            if name not in patches.names:
                patches.names.append(name)
    patches.set(True)
    return patches
