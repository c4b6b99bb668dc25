"""Per-layer tracing from outside the library.

`traced_fit` replays `kgo.fit` through the public functions of `sample`,
`hilbert`, `tensors`, `baselines` and `solver`, in the order
`model.fit_prepared` calls them, with one span around each call.
`sym_eig` (as bound in `solver`, `hilbert` and `tensors`) and
`evaluate_basis` (as bound in `model`) are wrapped for the duration of a
traced call only; nothing in the library is changed.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

import kgo
import kgo.hilbert
import kgo.model
import kgo.solver
import kgo.tensors


class Span:
    __slots__ = ("name", "parent", "start", "end", "size")

    def __init__(self, name, parent, start, size):
        self.name, self.parent, self.start, self.end, self.size = name, parent, start, None, size

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, size=0):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, parent, time.perf_counter(), size)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def total(self, name) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_seconds(self, name) -> float:
        """Duration of the named spans minus what their direct children cover."""
        own = 0.0
        for i, s in enumerate(self.spans):
            if s.name == name:
                own += s.seconds - sum(c.seconds for c in self.spans if c.parent == i)
        return own


@contextmanager
def wrapped(tracer, name, bindings):
    """Replace each (module, attribute) binding by a span-recording wrapper.

    A span's size is the leading dimension of the call's last argument: the
    matrix order for `sym_eig`, the raw row width for `evaluate_basis`.
    """
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in bindings]

    def wrap(func):
        def traced(*args, **kwargs):
            with tracer.span(name, size=int(np.shape(args[-1])[0])):
                return func(*args, **kwargs)
        return traced

    try:
        for mod, attr, func in originals:
            setattr(mod, attr, wrap(func))
        yield
    finally:
        for mod, attr, func in originals:
            setattr(mod, attr, func)


SYM_EIG_BINDINGS = ((kgo.solver, "sym_eig"), (kgo.hilbert, "sym_eig"), (kgo.tensors, "sym_eig"))
EVALUATE_BASIS_BINDINGS = ((kgo.model, "evaluate_basis"),)


def traced_fit(sample, x_spec, f_spec, kind, config):
    """One layer-by-layer fit; returns (operator, trace, layer metrics)."""
    tracer = Tracer()
    with wrapped(tracer, "linalg.sym_eig", SYM_EIG_BINDINGS), tracer.span("model.fit"):
        with tracer.span("sample.design"):
            if x_spec.kind == "chebyshev" and x_spec.scale is None:
                x_spec = kgo.with_scale(x_spec, sample.x_rows)
            if f_spec.kind == "chebyshev" and f_spec.scale is None:
                f_spec = kgo.with_scale(f_spec, sample.f_rows)
            x_points = kgo.design_matrix(x_spec, sample.x_rows)
            f_points = kgo.design_matrix(f_spec, sample.f_rows)
        x_const = np.zeros(x_points.shape[1])
        x_const[x_spec.constant_index] = 1.0
        f_const = np.zeros(f_points.shape[1])
        f_const[f_spec.constant_index] = 1.0
        with tracer.span("hilbert.prepare"):
            data = kgo.prepare_points(x_points, f_points, sample.weights, x_const, f_const,
                                      kgo.hilbert.DEFAULT_REL_THRESHOLD)
        tracemalloc.start()
        try:
            with tracer.span("tensors.build"):
                tensor = kgo.build_coverage_tensor(kind, data)
            tensor_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        u_init = None
        if config.algorithm == kgo.solver.LSQ_ADJ or config.init_with_least_squares:
            with tracer.span("baselines.lsq"):
                u_init = kgo.lsq_channel(data)
        with tracer.span("solver.solve"):
            op, trace = kgo.solve(tensor, config, u_init)
        with tracer.span("tensors.projection"):
            try:
                kgo.label_matched_projection(data)
            except kgo.NumericalError:
                pass
        with tracer.span("tensors.ftot"):
            kgo.ftot_upper_bound(data)
        with tracer.span("baselines.fjdg"):
            kgo.joint_distribution_coverage(data)

    eig_spans = [s for s in tracer.spans if s.name == "linalg.sym_eig"]
    f_after = [r.f_after for r in trace]
    solve_s = tracer.total("solver.solve")
    metrics = {
        "sample.design_s": tracer.total("sample.design"),
        "hilbert.prepare_s": tracer.total("hilbert.prepare"),
        "hilbert.x_dropped": data.x_space.raw_dim - data.x_space.eff_dim,
        "hilbert.f_dropped": data.f_space.raw_dim - data.f_space.eff_dim,
        "tensors.build_s": tracer.total("tensors.build"),
        "tensors.peak_mb": tensor_peak / 1e6,
        "tensors.z_bytes": data.size * tensor.d * tensor.n * 8,
        "tensors.projection_s": tracer.total("tensors.projection"),
        "tensors.ftot_s": tracer.total("tensors.ftot"),
        "baselines.lsq_s": tracer.total("baselines.lsq"),
        "baselines.fjdg_s": tracer.total("baselines.fjdg"),
        "solver.solve_s": solve_s,
        "solver.iterations": op.iterations,
        "solver.iter_ms": 1e3 * solve_s / len(trace),
        "solver.best_iteration": trace.records[int(np.argmax(f_after))].iteration,
        "linalg.sym_eig_calls": len(eig_spans),
        "linalg.sym_eig_s": sum(s.seconds for s in eig_spans),
        "linalg.sym_eig_dim": max(s.size for s in eig_spans),
        "model.fit_traced_s": tracer.total("model.fit"),
        "model.fit_self_s": tracer.self_seconds("model.fit"),
    }
    return op, trace, metrics


def traced_eval_row(model, x_row, f_row):
    """The per-row eval trio with a span around each call.

    Returns the trio's outputs, as `run.eval_row` does, and seconds per part.
    """
    tracer = Tracer()
    with wrapped(tracer, "sample.evaluate_basis", EVALUATE_BASIS_BINDINGS):
        with tracer.span("eval.row"):
            with tracer.span("model.most_probable"):
                pred = kgo.most_probable(model, x_row)
            with tracer.span("model.value"):
                val, _ = kgo.value(model, x_row)
            with tracer.span("model.probability"):
                prob = kgo.probability(model, x_row, f_row)
    return (pred.f_max_p, val, pred.certainty, prob), {
        "row": tracer.total("eval.row"),
        "most_probable": tracer.total("model.most_probable"),
        "value": tracer.total("model.value"),
        "probability": tracer.total("model.probability"),
        "evaluate_basis": tracer.total("sample.evaluate_basis"),
        "evaluate_basis_calls": tracer.count("sample.evaluate_basis"),
    }
