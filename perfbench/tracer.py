"""Span tracer for the traced run, kept in the benchmark's files.

Each layer is a module of eiskern.  The tracer wraps the functions that
layers.TRACED names and rebinds each wrapper under the same name in every
eiskern.* namespace that holds the original (``alternating_sum`` lives in
summation, numkern, omega and hilbert_eisenstein, for example), so calls
between layers are traced as well as the benchmark's own calls.  Spans go
to per-thread in-memory buffers (name, parent span, start, end, self time,
work count) and are folded into per-function totals when a pass ends.
Untraced runs never import this module.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from types import FunctionType

import layers


def traced_functions() -> list[tuple[str, FunctionType]]:
    """(layer.function, original) for every function layers.TRACED names."""
    out = []
    for layer, names in layers.TRACED.items():
        mod = importlib.import_module(f"eiskern.{layer}")
        out.extend((f"{layer}.{name}", getattr(mod, name)) for name in names)
    return out


class _Buffer:
    """Spans of one thread; arrays keep a pass's spans compact in memory."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span index, time covered by children]
        self.clear()

    def clear(self) -> None:
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.work = array("q")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._bindings: list[tuple[object, str, FunctionType]] = []
        self._wrappers: list[tuple[FunctionType, FunctionType]] = []
        for name, original in traced_functions():
            fid = len(self.names)
            self.names.append(name)
            counts_work = name in layers.WORK_COUNTED
            self._wrappers.append((original, self._wrap(fid, original, counts_work)))

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fid: int, f: FunctionType, counts_work: bool) -> FunctionType:
        perf = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(f)
        def traced(*args, **kwargs):
            buf = get_buffer()
            stack = buf.stack
            idx = len(buf.fid)
            buf.fid.append(fid)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.self_time.append(0.0)
            buf.work.append(0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = f(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                buf.start[idx] = t0
                buf.end[idx] = t1
                buf.self_time[idx] = dur - frame[1]
            if counts_work:
                buf.work[idx] = result[2]
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapper in each eiskern namespace holding the original."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "eiskern" or n.startswith("eiskern.")]
        for original, wrapper in self._wrappers:
            name = original.__name__
            for mod in modules:
                if vars(mod).get(name) is original:
                    setattr(mod, name, wrapper)
                    self._bindings.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in self._bindings:
            setattr(mod, name, original)
        self._bindings.clear()

    def drain(self) -> tuple[dict[str, dict], list[tuple]]:
        """Fold the buffered spans into per-function totals and clear them.

        Returns ({name: {calls, total_s, self_s, work, under}}, spans) where
        ``under`` counts calls whose parent span is summation.alternating_sum
        and spans are (name, parent index, start, end, self) tuples.
        """
        totals: dict[str, dict] = {}
        spans: list[tuple] = []
        alt = self.names.index("summation.alternating_sum")
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            fid, parent = buf.fid, buf.parent
            for i in range(len(fid)):
                name = self.names[fid[i]]
                t = totals.get(name)
                if t is None:
                    t = totals[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "work": 0, "under": 0}
                t["calls"] += 1
                t["total_s"] += buf.end[i] - buf.start[i]
                t["self_s"] += buf.self_time[i]
                t["work"] += buf.work[i]
                if parent[i] >= 0 and fid[parent[i]] == alt:
                    t["under"] += 1
                spans.append((name, parent[i], buf.start[i], buf.end[i], buf.self_time[i]))
            buf.clear()
        return totals, spans
