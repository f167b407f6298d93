"""Outside-in span tracing of the isocg layers.

Spans are taken by replacing module attributes of the package with timing
wrappers for the duration of a traced phase; nothing in the package itself
changes.  Each span records its name, start, end, parent span, operation id
and, for the kernels, the vector length.  Spans are kept in flat in-memory
arrays and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array

import numpy as np

import isocg.cli
import isocg.faults
import isocg.iso
import isocg.linalg
import isocg.solvers

SOLVER_SPANS = ("solvers.cg_solve", "solvers.sscg_solve")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name), 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, size_arg: int | None = None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self._open(nid, len(args[size_arg]) if size_arg is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the tracer's arrays can still grow afterwards.
        return {
            key: np.array(getattr(self, key))
            for key in ("name", "parent", "op", "size", "start", "end")
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _targets():
    """(owner, attribute, span name, index of the sized argument) to wrap."""
    out = [
        (isocg.solvers, "gemv", "linalg.gemv", 1),
        (isocg.solvers, "dot", "linalg.dot", 0),
        (isocg.faults.FaultInjector, "inject", "faults.inject", None),
        (isocg.solvers, "cg_solve", "solvers.cg_solve", None),
        (isocg.solvers, "sscg_solve", "solvers.sscg_solve", None),
        (isocg.linalg, "gen_spd_spectrum", "linalg.gen", None),
        (isocg.cli, "gemv", "linalg.gemv", 1),
        (isocg.cli, "gen_spd_diag_dominant", "linalg.gen", None),
        (isocg.cli, "cg_solve", "solvers.cg_solve", None),
        (isocg.cli, "sscg_solve", "solvers.sscg_solve", None),
        (isocg.cli, "load_sampleset", "machine.load_sampleset", None),
    ]
    for attr, fn in vars(isocg.iso).items():
        if inspect.isfunction(fn) and fn.__module__ == isocg.iso.__name__:
            out.append((isocg.iso, attr, f"iso.{attr}", None))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced attribute for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, size_arg in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, size_arg))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanTable:
    """Per-name totals, self times and parent relations of a finished trace."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.size = a["size"]
        self.dur = a["end"] - a["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=self.dur.size
        )
        self.self_time = self.dur - child_time

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, child: str, *parents: str) -> np.ndarray:
        """Spans named ``child`` whose direct parent is one of ``parents``."""
        return self.mask(child) & self._parent_in(*parents)

    def _parent_in(self, *names: str) -> np.ndarray:
        has_parent = self.parent >= 0
        out = np.zeros(self.dur.size, dtype=bool)
        out[has_parent] = self.mask(*names)[self.parent[has_parent]]
        return out

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def children_total(self, *names: str) -> float:
        """Time of the direct children of spans named ``names``."""
        return float(self.dur[self._parent_in(*names)].sum())

    def self_total(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())
