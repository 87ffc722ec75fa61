"""Span tracing of fluidpricing's public functions, installed from outside.

The tracer wraps each target function at every module binding callers
look it up through (``experiments.exact_policy_values`` and
``sim.exact_policy_values`` are separate bindings of one function), and
the policy methods at class level.  Each call records a span: name,
start, end, parent span on the same thread, thread id and an optional
work count taken from the arguments or the result.  Spans are kept in
per-thread arrays and summarised when the run ends; nothing inside the
package is edited.  A target the package no longer defines is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "fluidpricing"


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _cells(args, kwargs, result):
    T, y0 = _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "y0")
    return T * (y0 + 1)


def _backward_cells(args, kwargs, result):
    policies = _arg(args, kwargs, 3, "policies")
    return _cells(args, kwargs, result) * (1 + len(policies or {}))


def _multi_states(args, kwargs, result):
    T, y0 = _arg(args, kwargs, 1, "T"), _arg(args, kwargs, 2, "y0")
    return T * (int(y0[0]) + 1) * (int(y0[1]) + 1)


def _rep_periods(T_pos: int, reps_pos: int):
    def work(args, kwargs, result):
        return _arg(args, kwargs, T_pos, "T") * _arg(args, kwargs, reps_pos, "n_reps")
    return work


def _periods(args, kwargs, result):
    return _arg(args, kwargs, 2, "T")


def _n_products(args, kwargs, result):
    return _arg(args, kwargs, 0, "model").n


def _result_size(args, kwargs, result):
    return np.size(result)


def _first_size(args, kwargs, result):
    return np.size(result[0])


def _result_len(args, kwargs, result):
    return len(result)


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` of the package, recorded as ``span``."""

    span: str
    module: str
    attr: str
    work: Callable | None = None
    method: bool = False  # wrap ``attr`` on every class of ``module`` that defines it


# The run_* experiments are traced so that waiting on the worker pool
# counts as experiments time, not as cli.main self time.
TARGETS = (
    Target("policies.backward", "policies", "exact_policy_values", _backward_cells),
    Target("policies.solve_dp", "policies", "solve_dp", _cells),
    Target("policies.solve_dp_multi", "policies", "solve_dp_multi", _multi_states),
    Target("policies.rates_batch", "policies", "rates_batch", method=True),
    Target("policies.decide", "policies", "decide", method=True),
    Target("fluid.solve_fluid_multi", "fluid", "solve_fluid_multi", _n_products),
    Target("fluid.box_qp2_batch", "fluid", "box_qp2_batch", _first_size),
    Target("sim.simulate", "sim", "simulate", _periods),
    Target("sim.simulate_multi", "sim", "simulate_multi", _periods),
    Target("sim.simulate_batch", "sim", "simulate_batch", _rep_periods(2, 5)),
    Target("sim.simulate_batch_multi", "sim", "simulate_batch_multi", _rep_periods(1, 4)),
    Target("sim.ho_inner_values", "sim", "ho_inner_values", _rep_periods(1, 4)),
    Target("sim.estimate_regret", "sim", "estimate_regret"),
    Target("rng.uniforms", "rng", "uniforms", _result_size),
    Target("experiments.run_table2", "experiments", "run_table2"),
    Target("experiments.run_sweep", "experiments", "run_sweep"),
    Target("experiments.run_ho_compare", "experiments", "run_ho_compare"),
    Target("experiments.trace_rows", "experiments", "trace_rows", _result_len),
    Target("experiments.write_csv", "experiments", "write_csv", _result_len),
    Target("cli.main", "cli", "main"),
)


class _ThreadSpans:
    """Spans opened on one thread, as parallel arrays indexed by open order."""

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # a span of the same name is open below it
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack: list[int] = []


@dataclass
class Spans:
    """All recorded spans, flattened; ``self_s`` is duration minus direct children."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    nested: np.ndarray
    start: np.ndarray
    end: np.ndarray
    work: np.ndarray
    tid: np.ndarray
    self_s: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self.mask(span).sum())

    def busy(self, mask: np.ndarray) -> float:
        """Summed duration of the selected spans, counting nested repeats once."""
        keep = mask & (self.nested == 0)
        return float(self.duration[keep].sum())

    def work_sum(self, mask: np.ndarray) -> float:
        return float(self.work[mask & (self.nested == 0)].sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, start=self.start, end=self.end,
                            work=self.work, tid=self.tid)


class Tracer:
    """Installs span-recording wrappers on the imported package; a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names = [t.span for t in self.targets]
        self.absent: list[str] = []
        self._local = threading.local()
        self._buffers: list[_ThreadSpans] = []
        self._buffers_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        absent = []
        for nid, target in enumerate(self.targets):
            home = sys.modules.get(f"{PACKAGE}.{target.module}")
            if target.method:
                classes = [c for c in vars(home).values()
                           if isinstance(c, type) and c.__module__ == home.__name__
                           and callable(vars(c).get(target.attr))] if home else []
                for cls in classes:
                    original = vars(cls)[target.attr]
                    self._patch(cls, target.attr, self._wrap(nid, original, target.work))
                if not classes:
                    absent.append(target.span)
                continue
            original = getattr(home, target.attr, None) if home else None
            if not callable(original):
                absent.append(target.span)
                continue
            wrapped = self._wrap(nid, original, target.work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        self.absent = absent

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans(threading.get_ident())
            self._local.buf = buf
            with self._buffers_lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, nid: int, fn, work):
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            i = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.nested.append(any(buf.name[j] == nid for j in stack))
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.work.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                buf.start[i] = t0
                buf.end[i] = t1
            if work is not None:
                try:
                    buf.work[i] = work(args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    buf.work[i] = math.nan
            return result

        return traced

    # -- results -----------------------------------------------------------

    def spans(self) -> Spans:
        parts = []
        offset = 0
        for buf in self._buffers:
            n = len(buf.name)
            parent = np.array(buf.parent, dtype=np.int64)
            start = np.array(buf.start, dtype=np.float64)
            end = np.array(buf.end, dtype=np.float64)
            has_parent = parent >= 0
            children = np.bincount(parent[has_parent], weights=(end - start)[has_parent],
                                   minlength=n)
            parts.append(dict(
                name=np.array(buf.name, dtype=np.int64),
                parent=np.where(has_parent, parent + offset, -1),
                nested=np.array(buf.nested, dtype=np.int8),
                start=start,
                end=end,
                work=np.array(buf.work, dtype=np.float64),
                tid=np.full(n, buf.tid, dtype=np.int64),
                self_s=(end - start) - children[:n],
            ))
            offset += n
        keys = ("name", "parent", "nested", "start", "end", "work", "tid", "self_s")
        if not parts:
            return Spans(names=self.names, **{k: np.zeros(0) for k in keys})
        return Spans(names=self.names, **{k: np.concatenate([p[k] for p in parts]) for k in keys})
