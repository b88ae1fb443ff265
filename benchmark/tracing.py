"""Span tracing of lindosc from outside the package.

The tracer replaces every public function of each lindosc module (the
module's ``__all__`` when it has one, otherwise its public functions) plus
``DensityMatrix.from_matrix`` by a wrapper that records a span, in every
``lindosc.*`` namespace that binds the function.  Classes are left alone, so
``isinstance`` checks inside the package keep working.  Nothing under
``src/`` is edited; ``uninstall`` puts the original objects back.

Spans live in flat in-memory arrays (start, end, parent, name index) and
are written out only when the run ends.  A span's parent is the innermost
open span of the same thread; a span opened on a worker thread with no
open span of its own (the Husimi grids run on a thread pool) takes the
main thread's innermost open span as parent.  Self time is a span's
duration minus the union of the intervals its children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

MODULES = ("cli", "validation", "lindblad_engine", "fock_core",
           "freeform_solutions", "gaussian_class", "observables",
           "nonhermitian")

FROM_MATRIX = "fock_core.from_matrix"


def public_functions(mod):
    """The module's traced callables: ``__all__`` members that are plain
    functions, or every public function defined in a module without one."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == mod.__name__]
    return {n: getattr(mod, n) for n in names
            if inspect.isfunction(getattr(mod, n, None))}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.hooks: dict = {}           # span name -> fn(args, kwargs)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()
        self._undo: list[tuple] = []
        self.enabled = False            # spans are recorded only when set

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, fn, span_name: str):
        idx = self.name_index.setdefault(span_name, len(self.names))
        if idx == len(self.names):
            self.names.append(span_name)
        hook = self.hooks.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                par = stack[-1]
            elif self._main_stack:
                par = self._main_stack[-1]
            else:
                par = -1
            with self._lock:
                sid = len(self.t0)
                self.t0.append(0.0)
                self.t1.append(0.0)
                self.parent.append(par)
                self.name.append(idx)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.t1[sid] = clock()
                self.t0[sid] = start
                stack.pop()
                if hook is not None:
                    hook(args, kwargs)

        return traced

    # -- patching ---------------------------------------------------------
    def install(self, modules: dict) -> None:
        """modules maps short module names (see MODULES) to module objects."""
        replace = {}
        for short, mod in modules.items():
            for fname, fn in public_functions(mod).items():
                replace[id(fn)] = (fn, self._wrap(fn, f"{short}.{fname}"))
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == "lindosc"
                                            or k.startswith("lindosc."))]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, val))
        dm = modules["fock_core"].DensityMatrix
        raw = dm.__dict__["from_matrix"]
        dm.from_matrix = classmethod(self._wrap(raw.__func__, FROM_MATRIX))
        self._undo.append((dm, "from_matrix", raw))

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._undo):
            setattr(ns, attr, val)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals
        (clipped to the parent's interval)."""
        n = len(self.t0)
        children: dict[int, list[int]] = {}
        for sid in range(n):
            par = self.parent[sid]
            if par >= 0:
                children.setdefault(par, []).append(sid)
        out = [0.0] * n
        for sid in range(n):
            s, e = self.t0[sid], self.t1[sid]
            covered = 0.0
            kids = children.get(sid)
            if kids:
                ivs = sorted((max(self.t0[k], s), min(self.t1[k], e))
                             for k in kids)
                cur_s, cur_e = ivs[0]
                for a, b in ivs[1:]:
                    if a > cur_e:
                        covered += max(0.0, cur_e - cur_s)
                        cur_s, cur_e = a, b
                    else:
                        cur_e = max(cur_e, b)
                covered += max(0.0, cur_e - cur_s)
            out[sid] = (e - s) - covered
        return out

    def totals(self):
        """(calls, self seconds) per span name, summed over all spans."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for sid, st in enumerate(selfs):
            nm = self.names[self.name[sid]]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + st
        return calls, self_s

    def write(self, path: str) -> None:
        """Every span as a TSV row: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.t0)):
                fh.write(f"{sid}\t{self.parent[sid]}\t"
                         f"{self.names[self.name[sid]]}\t"
                         f"{self.t0[sid]:.9f}\t{self.t1[sid]:.9f}\n")
