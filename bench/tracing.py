"""Span tracing of the isocompare layers from outside the library.

``Tracer.install`` replaces each traced function at every place the library
looks it up (module globals and module-level dispatch tables) with a wrapper
that records a span; ``uninstall`` puts the originals back.  No library file
is touched.  Spans stay in memory; ``summarize`` turns one pass of them into
per-layer counts and self times, and ``dump`` writes them out.

Spans of the ``football-alpha`` thread pool have no parent on their own
thread; they are attached to the innermost open span of the main thread,
which belongs to the op that launched the pool (the benchmark is a single
client, so only one op is ever in flight).  Self time subtracts only child
spans of the same thread, so a handler waiting on its pool keeps that wait.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict

# (function name, layer name): the span name does not depend on which module
# defines the function, so a later module rename keeps the metric names.
LIBRARY_FUNCTIONS = [
    ("run", "cli.run"),
    ("render", "cli.render"),
    ("read_pairs", "config.read_pairs"),
    ("validate", "config.validate"),
    ("build_metric", "config.build_metric"),
    ("alpha_result", "football.alpha_result"),
    ("alpha_oracle", "football.alpha_oracle"),
    ("alpha_as_written", "football.alpha_as_written"),
    ("epsilon0", "football.epsilon0"),
    ("cylinder_growth", "football.cylinder_growth"),
    ("candidate_profile", "warped.candidate_profile"),
    ("slice_at", "warped.slice_at"),
    ("total_volume", "warped.total_volume"),
    ("curvature_bounds", "warped.curvature_bounds"),
    ("variation_report", "variation.variation_report"),
    ("check_first_variation", "variation.check"),
    ("check_mean_curvature_evolution", "variation.check"),
    ("check_second_variation", "variation.check"),
    ("convergence_order", "variation.convergence_order"),
    ("phase_curve", "phase_plane.phase_curve"),
    ("ricci_mass", "phase_plane.ricci_mass"),
    ("volume_from_path", "phase_plane.volume_from_path"),
    ("monotonicity_profile", "gmt.monotonicity_profile"),
    ("area_ratio_constant", "gmt.area_ratio_constant"),
    ("cutoff_budget", "gmt.cutoff_budget"),
]

# (module, attribute, layer name): functions traced only where one module
# imported them, so the span names the calling layer.
CALL_SITES = [
    ("warped", "quad", "warped.quad"),
    ("gmt", "quad", "gmt.quad"),
    ("quadrature", "quad", "quadrature.quad"),
    ("football", "minimize_scalar", "football.minimize_scalar"),
    ("football", "sqrt_endpoint", "football.sqrt_endpoint"),
    ("phase_plane", "sqrt_endpoint", "phase_plane.sqrt_endpoint"),
    ("phase_plane", "inverse_sqrt_integral", "phase_plane.inverse_sqrt_integral"),
]

# Spans where a quadrature helper returns to another module: a
# QuadratureError leaving one of them is counted once.
QUADRATURE_EXITS = ("football.sqrt_endpoint", "phase_plane.sqrt_endpoint",
                    "phase_plane.inverse_sqrt_integral")

class Span:
    __slots__ = ("name", "tid", "parent", "op", "t0", "t1", "error",
                 "warnings", "evals", "err_est", "extra")

    def __init__(self, name, tid, parent, op):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.op = op
        self.error = None
        self.warnings = 0
        self.evals = 0
        self.err_est = 0.0
        self.extra = None


def _out_bytes(span, result):
    span.extra = len(result.encode("utf-8"))


def _alpha_evals(span, result):
    span.extra = len(result.evaluations)


def _slice_key(span, args):
    span.extra = (id(args[0]), float(args[1]))


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules            # "isocompare.x" -> module
        self.spans: list[Span] = []
        self.op = None
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, stack: list) -> Span:
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, threading.get_ident(), parent, self.op)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def _exit(self, span: Span, stack: list) -> None:
        span.t1 = time.perf_counter()
        stack.pop()
        self.spans.append(span)   # list.append is atomic under the GIL

    def wrap(self, name: str, fn, on_args=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._enter(name, stack)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._exit(span, stack)
            if on_args is not None:
                on_args(span, args)
            if on_result is not None:
                on_result(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_quad(self, name: str, quad):
        """quad(func, a, b, ...) recording QUADPACK's integrand evaluation
        count, its error estimate and whether it would have issued an
        IntegrationWarning.  The call is made with ``full_output=1``, which
        returns those figures instead of warning, and the caller gets the
        usual (value, error) pair.  Counting evaluations with a Python
        wrapper around the integrand instead roughly doubled the traced
        time of football-alpha."""
        tracer = self

        def traced(func, *args, **kwargs):
            stack = tracer._stack()
            span = tracer._enter(name, stack)
            try:
                result = quad(func, *args, full_output=1, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer._exit(span, stack)
            span.evals = result[2]["neval"]
            span.err_est = float(result[1])
            span.warnings = len(result) > 3     # QUADPACK's ier in 1-5, 7
            return result[:2]

        traced.__wrapped__ = quad
        return traced

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in self.modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value, True))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patches.append((value, dkey, dvalue, False))
                            value[dkey] = wrapper
                        elif isinstance(dvalue, tuple) and any(
                                v is original for v in dvalue):
                            self._patches.append((value, dkey, dvalue, False))
                            value[dkey] = tuple(wrapper if v is original else v
                                                for v in dvalue)

    def _find(self, fname: str):
        for module in self.modules.values():
            obj = getattr(module, fname, None)
            if callable(obj) and getattr(obj, "__module__", "").startswith(
                    "isocompare"):
                return obj
        return None

    def install(self) -> None:
        hooks = {"render": (None, _out_bytes), "epsilon0": (None, _alpha_evals),
                 "slice_at": (_slice_key, None)}
        for module_name, attr, name in CALL_SITES:
            module = self.modules.get("isocompare." + module_name)
            original = getattr(module, attr, None) if module else None
            if original is None:
                continue
            wrapper = (self.wrap_quad(name, original) if attr == "quad"
                       else self.wrap(name, original))
            self._patches.append((module, attr, original, True))
            setattr(module, attr, wrapper)
        for fname, name in LIBRARY_FUNCTIONS:
            original = self._find(fname)
            if original is not None:
                on_args, on_result = hooks.get(fname, (None, None))
                self._replace_everywhere(
                    original, self.wrap(name, original, on_args, on_result))
        cli = self.modules.get("isocompare.cli")
        for command, handler in list(getattr(cli, "_HANDLERS", {}).items()):
            self._patches.append((cli._HANDLERS, command, handler, False))
            cli._HANDLERS[command] = self.wrap("cli.handler", handler)

    def uninstall(self) -> None:
        for container, key, original, is_module in reversed(self._patches):
            if is_module:
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    @contextlib.contextmanager
    def op_span(self, index: int):
        """Context for one op: every span it causes carries its index."""
        self.op = index
        stack = self._stack()
        span = self._enter("op", stack)
        try:
            yield
        finally:
            self._exit(span, stack)
            self.op = None

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# derived numbers


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus same-thread child durations, in seconds."""
    child = defaultdict(float)
    for span in spans:
        parent = span.parent
        if parent is not None and parent.tid == span.tid:
            child[id(parent)] += span.t1 - span.t0
    return {id(s): (s.t1 - s.t0) - child[id(s)] for s in spans}


def summarize(spans: list[Span]) -> dict:
    """Totals for one traced pass: per layer calls, self seconds, integrand
    evaluations, worst error estimate, warnings; plus the derived ratios'
    numerators and denominators."""
    own = self_times(spans)
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "evals": 0,
                                  "err_est": 0.0, "warnings": 0})
    totals = defaultdict(float)
    slice_keys = set()
    alpha_ops = set()
    for span in spans:
        layer = layers[span.name]
        layer["calls"] += 1
        layer["self_s"] += own[id(span)]
        layer["evals"] += span.evals
        layer["err_est"] = max(layer["err_est"], span.err_est)
        layer["warnings"] += span.warnings
        if span.name in QUADRATURE_EXITS and span.error == "QuadratureError":
            totals["quadrature_errors"] += 1
        if span.name == "cli.render":
            totals["out_bytes"] += span.extra
        elif span.name == "football.epsilon0" and span.extra is not None:
            totals["alpha_evals"] += span.extra
        elif span.name == "warped.slice_at" and span.extra is not None:
            slice_keys.add((span.op,) + span.extra)
        elif span.name == "football.alpha_result":
            totals["alpha_result_s"] += span.t1 - span.t0
            alpha_ops.add(span.op)
    for span in spans:
        if span.name == "cli.handler" and span.op in alpha_ops:
            totals["alpha_handler_s"] += span.t1 - span.t0
    totals["distinct_slices"] = len(slice_keys)
    return {"layers": {k: dict(v) for k, v in layers.items()},
            "totals": dict(totals)}


def counts_of(summary: dict) -> dict:
    """The parts of a summary that must repeat exactly from pass to pass."""
    out = {f"{name}.calls": layer["calls"]
           for name, layer in summary["layers"].items()}
    out.update({f"{name}.evals": layer["evals"]
                for name, layer in summary["layers"].items()})
    for key in ("out_bytes", "alpha_evals", "distinct_slices"):
        out[key] = summary["totals"].get(key, 0)
    return out


def dump(spans: list[Span], path: str) -> None:
    """One JSON line per span: id, parent, op, thread, times and counters."""
    own = self_times(spans)
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            record = {"id": i, "parent": ids.get(id(s.parent)), "op": s.op,
                      "tid": s.tid, "name": s.name, "t0": s.t0, "t1": s.t1,
                      "self_ms": own[id(s)] * 1e3}
            if s.error:
                record["error"] = s.error
            if s.evals:
                record["evals"] = s.evals
                record["err_est"] = s.err_est
            if s.warnings:
                record["warnings"] = s.warnings
            fh.write(json.dumps(record) + "\n")
