"""Span recorder for the graphfilt benchmark.

The tracer wraps every public function of the graphfilt modules at each
module attribute that names it, so a call is recorded whichever module looks
it up (``graphfilt.cli.normalize``, ``graphfilt.cg.fir_apply``, ...). Nothing
under ``src/`` is edited: the wrappers live only in the traced process and
``uninstall`` puts the original functions back.

A span is ``(name, start, end, parent, op_id, info)``. ``parent`` is the index
of the enclosing span in the same op (-1 at the top), times come from
``time.perf_counter`` (CLOCK_MONOTONIC, so a child process's spans share the
parent's clock), and ``info`` holds counters read from the call's result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager

LAYERS = ("cli", "graphs", "spectral", "fir", "arma", "cg", "design", "experiments")
SHIFT_SPANS = ("graphs.shift_apply", "graphs.shift_apply_transpose")


def _normalize_name(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "")
    return "graphs.normalize_" + str(kind).replace("normalized-", "")


def _cg_info(args, kwargs, result):
    filt = args[0] if args else kwargs["filt"]
    _, trace = result
    return {
        "ar": filt.ar_order,
        "ma": filt.ma_order,
        "iterations": trace.iterations,
        "shift_applications": trace.shift_applications,
        "normal_equations": trace.normal_equations,
        "converged": trace.converged,
    }


def _finite_report(args, kwargs, result):
    return {"finite": math.isfinite(result.rnmse_true)}


def _iterative_info(args, kwargs, result):
    return {"passes": result.iterations}


def _spmv_info(args, kwargs, result):
    """Computed cost of one CSR product: 2 nnz flops; the CSR arrays plus one
    read and one write of a float64 vector."""
    m = (args[0] if args else kwargs["op"]).matrix
    nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + 16 * m.shape[0]
    return {"flops": 2 * m.nnz, "bytes": nbytes}


# Span names that depend on the arguments, and counters read from results.
_NAMERS = {"graphs.normalize": _normalize_name}
_OBSERVERS = {
    "cg.arma_apply_cg": _cg_info,
    "design.run_method": _finite_report,
    "design.iterative_design": _iterative_info,
    "graphs.shift_apply": _spmv_info,
    "graphs.shift_apply_transpose": _spmv_info,
}


class Tracer:
    """In-memory span list with a call stack, for one benchmark op."""

    def __init__(self, op_id: int = 0):
        self.spans = []
        self._stack = []
        self.op_id = op_id

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, name, start, parent, info):
        self._stack.pop()
        self.spans[index] = (name, start, time.perf_counter(), parent, self.op_id, info)

    @contextmanager
    def span(self, name: str):
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, parent, None)

    def wrap(self, label: str, fn):
        namer = _NAMERS.get(label)
        observer = _OBSERVERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else label
            index, parent = self._open()
            start = time.perf_counter()
            info = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"raised": type(exc).__name__}
                raise
            else:
                if observer is not None:
                    info = observer(args, kwargs, result)
                return result
            finally:
                self._close(index, name, start, parent, info)

        return traced


def install(tracer: Tracer):
    """Wrap the public functions of every graphfilt layer; return the patches."""
    modules = [importlib.import_module(f"graphfilt.{layer}") for layer in LAYERS]
    labels = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                labels[obj] = f"{layer}.{name}"
    wrappers = {fn: tracer.wrap(label, fn) for fn, label in labels.items()}
    patches = []
    for module in [importlib.import_module("graphfilt"), *modules]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    return patches


def uninstall(patches) -> None:
    for module, name, original in patches:
        setattr(module, name, original)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def check_nesting(spans, tol: float = 1e-6):
    """Return a list of problems: children outside parents, negative self time."""
    problems = []
    for i, (name, start, end, parent, op_id, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p_name, p_start, p_end, _, p_op, _ = spans[parent]
            if parent >= i:
                problems.append(f"span {i} {name} has a later parent {parent}")
            if start < p_start - tol or end > p_end + tol:
                problems.append(f"span {i} {name} is not inside parent {p_name}")
            if op_id != p_op:
                problems.append(f"span {i} {name} crosses ops")
    for i, s in enumerate(self_times(spans)):
        if s < -tol:
            problems.append(f"span {i} {spans[i][0]} has negative self time {s:.3g}")
    return problems


def shift_calls_under(spans, ancestor: str) -> dict:
    """Shift-application spans counted under their nearest `ancestor` span.

    Returns {index of ancestor span: count}; ancestors with no shift
    application below them map to 0.
    """
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == ancestor}
    for name, _, _, parent, _, _ in spans:
        if name not in SHIFT_SPANS:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            counts[parent] += 1
    return counts
