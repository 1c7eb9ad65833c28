"""Span tracing of the spincavity layers, installed from outside the package.

The tracer replaces every module-level binding of each public function of
the traced layers (and the entries of ``fitkit.MODEL_FUNCS``) with a thin
wrapper that records a span: name, start, end, parent span and task id.
Spans stay in memory until the run ends. Nothing inside ``src/`` changes;
``uninstall`` restores the original bindings.

Only calls made while ``active`` is true are recorded, so input
preparation and output checks can call the same functions untraced.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

# Package modules traced as layers. physcalc and errors are left out: their
# calls take microseconds and no performance work targets them.
LAYERS = ("hilbert", "spectra", "fitkit", "dataio", "svgplot", "cli")

MODEL_SPAN_PREFIX = "fitkit.model."


def _fock_dim(args, kwargs, result):
    return args[0].fock_dim


def _text_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


def _result_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _fit_outcome(args, kwargs, result):
    return (result.n_iterations, bool(result.converged))


def _return_value(args, kwargs, result):
    return result


# Extra value stored with a span, computed from the call's arguments and
# result after it returns.
MEASURES = {
    "hilbert.build_liouvillian": _fock_dim,
    "hilbert.steady_state": _fock_dim,
    "dataio.atomic_write_text": _text_bytes,
    "svgplot.render_spectra": _result_bytes,
    "svgplot.render_sweep_map": _result_bytes,
    "fitkit.fit": _fit_outcome,
    "cli.main": _return_value,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "value", "error")

    def __init__(self, name, parent, task):
        self.name = name
        self.parent = parent
        self.task = task
        self.start = self.end = 0.0
        self.value = None
        self.error = None

    def as_record(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "task": self.task,
                "value": self.value, "error": self.error}


class Tracer:
    """Records spans of wrapped calls into an in-memory list."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.task = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, tracer.task)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                if isinstance(exc, SystemExit):
                    span.value = exc.code
                raise
            finally:
                stack.pop()
            span.end = perf_counter()
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layers' public functions at every binding in the package."""
        import spincavity
        from spincavity import fitkit

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"spincavity.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        modules = [m for n, m in sys.modules.items()
                   if m is spincavity or n.startswith("spincavity.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._replace(module, attr, entry[1])
        for kind, fn in list(fitkit.MODEL_FUNCS.items()):
            self._restore.append((fitkit.MODEL_FUNCS, kind, fn))
            fitkit.MODEL_FUNCS[kind] = self.wrap(MODEL_SPAN_PREFIX + kind.value, fn)

    def _replace(self, module, attr, new):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()
        self.active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_record(i)) + "\n")


class SpanStats:
    """Per-name totals over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        for i, span in enumerate(spans):
            d = span.end - span.start
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.busy[span.name] = self.busy.get(span.name, 0.0) + d
            self.self_time[span.name] = (self.self_time.get(span.name, 0.0)
                                         + d - child_time[i])
            self.durations.setdefault(span.name, []).append(d)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def has_ancestor(self, span, ancestor):
        p = span.parent
        while p >= 0:
            if self.spans[p].name == ancestor:
                return True
            p = self.spans[p].parent
        return False

    def p50_ms(self, name):
        d = self.durations.get(name)
        return 1e3 * statistics.median(d) if d else 0.0


def liouvillian_side(fock_dim):
    """N, the side of the vectorized Liouvillian: (3 fock_dim)^2."""
    return (3 * fock_dim) ** 2


def lu_flop(fock_dim):
    """Computed flop of one steady_state point: two complex LU solves."""
    n = liouvillian_side(fock_dim)
    return 2.0 * (8.0 / 3.0) * n ** 3


def layer_metrics(spans, n_passes):
    """Per-layer metrics per pass, keyed by the names in BENCHMARK.json."""
    st = SpanStats(spans)
    per = 1.0 / n_passes

    def calls(name):
        return st.calls.get(name, 0) * per

    def busy(name):
        return st.busy.get(name, 0.0) * per

    def self_s(name):
        return st.self_time.get(name, 0.0) * per

    m = {}
    for name in ("hilbert.build_liouvillian", "hilbert.time_evolve_oracle",
                 "hilbert.steady_state", "spectra.two_transition_spectrum",
                 "fitkit.fit", "fitkit.profile_bound",
                 "dataio.atomic_write_text", "cli.main"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("hilbert.build_liouvillian", "hilbert.steady_state",
                 "hilbert.time_evolve_oracle", "hilbert.fock_convergence_shift",
                 "spectra.master_equation_spectrum",
                 "spectra.two_transition_spectrum", "spectra.field_sweep",
                 "spectra.synthesize_noisy", "fitkit.fit",
                 "fitkit.fit_thermal_pup", "fitkit.profile_bound",
                 "dataio.spectrum_to_text", "dataio.load_spectrum",
                 "dataio.load_params", "dataio.sha256_of",
                 "dataio.atomic_write_text", "svgplot.render_spectra",
                 "svgplot.render_sweep_map", "cli.main"):
        m[f"{name}.busy_s"] = (busy(name), "s")
    for name in ("hilbert.steady_state", "spectra.master_equation_spectrum",
                 "cli.main"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("hilbert.steady_state", "fitkit.fit"):
        m[f"{name}.call_ms_p50"] = (st.p50_ms(name), "ms")

    solves = st.named("hilbert.steady_state")
    fock_dims = [s.value for s in solves if s.value is not None]
    # The matrix of the scan's own cutoff, not of the convergence check's
    # larger one.
    scan_dims = {s.value for s in solves
                 if st.has_ancestor(s, "spectra.master_equation_spectrum")}
    m["hilbert.liouvillian_mb_computed"] = (
        max((16.0 * liouvillian_side(f) ** 2 / 1e6 for f in scan_dims),
            default=0.0), "MB")
    gflop = sum(lu_flop(f) for f in fock_dims) / 1e9
    solve_self = st.self_time.get("hilbert.steady_state", 0.0)
    m["hilbert.lu_gflop_computed"] = (gflop * per, "Gflop")
    m["hilbert.lu_gflops_computed"] = (
        gflop / solve_self if solve_self > 0 else 0.0, "Gflop/s")

    models = [s for s in spans if s.name.startswith(MODEL_SPAN_PREFIX)]
    profile_models = sum(1 for s in models
                         if st.has_ancestor(s, "fitkit.profile_bound"))
    m["fitkit.model_evals"] = (len(models) * per, "count")
    m["fitkit.model_evals.profile"] = (profile_models * per, "count")
    m["fitkit.model_eval_us"] = (
        1e6 * statistics.fmean(s.end - s.start for s in models)
        if models else 0.0, "us")
    fits = [s.value for s in st.named("fitkit.fit") if s.value is not None]
    m["fitkit.lm_iterations"] = (sum(f[0] for f in fits) * per, "count")
    m["fitkit.converged_ratio"] = (
        sum(f[1] for f in fits) / len(fits) if fits else 0.0, "ratio")

    writes = st.named("dataio.atomic_write_text")
    m["dataio.bytes_written"] = (
        sum(s.value or 0 for s in writes) * per, "B")
    renders = (st.named("svgplot.render_spectra")
               + st.named("svgplot.render_sweep_map"))
    m["svgplot.bytes"] = (sum(s.value or 0 for s in renders) * per, "B")

    mains = st.named("cli.main")
    m["cli.exit_2"] = (sum(1 for s in mains if s.value == 2) * per, "count")
    m["cli.unhandled"] = (sum(1 for s in mains if s.error is not None
                              and s.error != "SystemExit") * per, "count")
    return m
