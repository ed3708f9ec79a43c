"""Span recorder for the traced benchmark run.

``install`` wraps, at run time, the public functions below in every
``magweyl.*`` namespace that binds them (``weyl`` and ``verify`` import
them with ``from .x import y``, so patching the defining module alone
would miss those calls).  Each call made while the recorder is active
becomes a span: name, start, end, parent and whether it raised; start and
end are CPU seconds of the process (``time.process_time``).  Spans
stay in memory until the run ends; ``per_layer_metrics`` reduces them.

The untraced run never imports this module.
"""

import functools
import importlib
import os
import sys
import time

LAYERS = ("poly", "nilpotent", "magnetic", "repspace", "weyl", "modspace",
          "verify", "cli")

WRAPPED = {
    "poly": ("poly_compose", "poly_integrate_param"),
    "nilpotent": (
        "bch_product", "right_invariant_field", "exp_semidirect",
        "bch_average_map", "bch_average_inverse", "left_translation_map",
        "build_translate_span", "semidirect_nilpotency_check",
    ),
    "magnetic": ("pair_with_right_field", "magnetic_phase_exponent",
                 "admissible_space"),
    "repspace": (
        "eval_poly_grid", "ft_symbol", "ift_symbol", "NumPoly.eval_batch",
        "HSOperator.compose", "HSOperator.singular_values", "tensor_write",
        "tensor_read", "csv_write", "csv_read",
    ),
    "weyl": (
        "QuantizerContext.averaged_pairing", "QuantizerContext.segment_exponent",
        "ambiguity", "ambiguity_formula", "quantize", "dequantize", "reconstruct",
        "symbol_ambiguity", "materialize_quantizer", "ambiguity_overlap_quadrature",
    ),
    "modspace": ("mixed_power_norm", "mod_norm_vector", "mod_norm_symbol"),
    "cli": ("main",),
}

# Wrapped so that verify's own time is attributed to its layer; it has no
# per-function metric.
LAYER_ONLY = {"verify": ("run_suite",)}

CHECK_NAMES = (
    "orthogonality", "unitarity", "rank-one", "reconstruction",
    "reproducing-kernel", "ambiguity-factorization", "wigner-bound",
    "operator-bound", "trace-bound", "gauge-field", "symbolic-exactness",
    "quadrature-orthogonality",
)

PHASE_CALLS = ("weyl.QuantizerContext.averaged_pairing",
               "weyl.QuantizerContext.segment_exponent")
PHASE_BUILDS = ("magnetic.pair_with_right_field",
                "magnetic.magnetic_phase_exponent")
IO_DIRECTION = {
    "repspace.tensor_write": "written", "repspace.csv_write": "written",
    "repspace.tensor_read": "read", "repspace.csv_read": "read",
}


def per_layer_names():
    """Every metric name ``per_layer_metrics`` reports, in order."""
    names = []
    for layer, funcs in WRAPPED.items():
        for func in funcs:
            names += ["%s.%s.calls" % (layer, func), "%s.%s.self_s" % (layer, func)]
    for layer in LAYERS:
        names += ["layer.%s.self_s" % layer, "layer.%s.errors" % layer]
    names += ["weyl.phase_cache.hit_ratio", "repspace.io.bytes_written",
              "repspace.io.bytes_read"]
    names += ["verify.check.%s.s" % name for name in CHECK_NAMES]
    names.append("trace.overhead_share")
    return names


class Recorder:
    """Spans as lists ``[key, start, end, parent, raised]``; ``key`` indexes
    ``names``.  Records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = []
        self.layers = []
        self.spans = []
        self.io_bytes = {"written": 0, "read": 0}
        self._stack = []

    def wrap(self, name, layer, fn):
        key = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        io_dir = IO_DIRECTION.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if io_dir is not None and not span[4]:
                    self.io_bytes[io_dir] += os.path.getsize(args[0])

        return wrapper


def _replace_everywhere(original, wrapper):
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "magweyl" or modname.startswith("magweyl.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder):
    """Wrap every listed function for ``recorder``; call after the workload
    has imported the package."""
    for layer in LAYERS:
        importlib.import_module("magweyl." + layer)
    for table in (WRAPPED, LAYER_ONLY):
        for layer, funcs in table.items():
            module = sys.modules["magweyl." + layer]
            for func in funcs:
                name = "%s.%s" % (layer, func)
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, recorder.wrap(name, layer, vars(cls)[meth]))
                else:
                    original = getattr(module, func)
                    _replace_everywhere(original, recorder.wrap(name, layer, original))


def per_layer_metrics(recorder, timed_s, check_timings):
    """Reduce the spans to the per-layer metrics (everything except
    ``trace.overhead_share``, which needs the untraced run) and the share of
    the timed operation time that top-level spans cover."""
    spans = recorder.spans
    child_time = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = {}
    self_s = {}
    errors = {layer: 0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    for i, (key, start, end, parent, raised) in enumerate(spans):
        name = recorder.names[key]
        layer = recorder.layers[key]
        own = (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_self[layer] += own
        errors[layer] += int(raised)
        if parent < 0:
            top += end - start

    phase_keys = {recorder.names.index(n) for n in PHASE_CALLS}
    build_keys = {recorder.names.index(n) for n in PHASE_BUILDS}
    phase_calls = sum(1 for span in spans if span[0] in phase_keys)
    misses = len({
        span[3] for span in spans
        if span[0] in build_keys and span[3] >= 0 and spans[span[3]][0] in phase_keys
    })

    metrics = {}
    for layer, funcs in WRAPPED.items():
        for func in funcs:
            name = "%s.%s" % (layer, func)
            metrics[name + ".calls"] = (calls.get(name, 0), "count")
            metrics[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = (layer_self[layer], "s")
        metrics["layer.%s.errors" % layer] = (errors[layer], "count")
    # No phase lookups at all means no misses either.
    ratio = 1.0 if phase_calls == 0 else (phase_calls - misses) / phase_calls
    metrics["weyl.phase_cache.hit_ratio"] = (ratio, "ratio")
    metrics["repspace.io.bytes_written"] = (recorder.io_bytes["written"], "bytes")
    metrics["repspace.io.bytes_read"] = (recorder.io_bytes["read"], "bytes")
    for name in CHECK_NAMES:
        metrics["verify.check.%s.s" % name] = (check_timings.get(name, 0.0), "s")
    coverage = top / timed_s if timed_s > 0 else 0.0
    return metrics, coverage
