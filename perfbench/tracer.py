"""Outside-in span tracer for e2vem.

The tracer wraps public library functions from the benchmark's side: for
every traced name it replaces the function in each ``e2vem`` module
namespace that holds it (a module that did ``from .geometry import
build_polygon`` has its own binding), so calls are seen whichever module
makes them. Spans (name, start, end, parent) stay in memory until the
benchmark writes them out. A traced name the library no longer defines is
recorded as absent and counts zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

#: Package whose module namespaces are patched.
PACKAGE = "e2vem"

#: ``module.function`` names wrapped by :meth:`Tracer.install`.
TRACED = (
    "degree.assign_degrees",
    "degree.congruence_key",
    "degree.min_admissible_l",
    "degree.stiffness_rank",
    "geometry.build_polygon",
    "geometry.polygon_quadrature",
    "projectors.build_projectors",
    "projectors.compute_pinabla",
    "polyspace.build_moment_table",
    "assembly.assemble",
    "assembly.assemble_full",
    "assembly.solve",
    "analysis.solution_errors",
)


class Tracer:
    """Span recorder; single-threaded, like the runs it observes."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []        # [name_id, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._patched: list = []
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [nid, clock(), 0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for qualified in TRACED:
            module_name, attr = qualified.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(qualified)
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for module in modules:
                if vars(module).get(attr) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def tracing(self):
        """Keep the wrappers installed for the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived numbers ------------------------------------------------

    def _array(self) -> np.ndarray:
        return np.array(self.spans, dtype=np.int64).reshape(-1, 4)

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds and self seconds (duration
        minus the time its direct child spans cover)."""
        arr = self._array()
        dur = arr[:, 2] - arr[:, 1]
        child = np.zeros(len(arr), dtype=np.int64)
        has_parent = arr[:, 3] >= 0
        np.add.at(child, arr[has_parent, 3], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = arr[:, 0] == nid
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()) * 1e-9,
                         "self_s": float((dur[sel] - child[sel]).sum()) * 1e-9}
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span ``ancestor`` above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        count = 0
        for span in self.spans:
            if span[0] != nid:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == aid:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        arr = self._array()
        np.savez_compressed(path, names=np.array(self.names), name_id=arr[:, 0],
                            start_ns=arr[:, 1], end_ns=arr[:, 2],
                            parent=arr[:, 3])
