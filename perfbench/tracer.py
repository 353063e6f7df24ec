"""Span recorder for the traced run, installed from outside the package.

``instrument(recorder)`` wraps every public function of the layer
modules, and every public method of their classes, in a span.  A
wrapped function is patched under every name a ``levyreduce`` module
imported it as, so calls across modules and within a module both pass
through the span.  Nothing under ``src/`` changes.

Spans stay in memory as ``[layer, name, start, end, parent]`` and are
turned into per-layer figures once, by ``summarize``, when the
invocation ends.  Counts are taken at the same boundaries: the hooks
below read arguments and results of the wrapped call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "quadrature", "measures", "laplace", "spherical", "conditions",
    "reduction", "simulate", "pricing", "cli",
)


class Recorder:
    """In-memory spans plus counts and maxima gathered at span boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def parent_layer(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, layer: str, name: str, fn, hook=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = rec.parent_layer()
            if hook is not None and hook.before is not None:
                args, kwargs = hook.before(rec, args, kwargs)
            span = [layer, name, 0.0, 0.0, rec._stack[-1] if rec._stack else None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                rec._stack.pop()
            if hook is not None and hook.after is not None:
                hook.after(rec, outer, args, result)
            return result

        return traced


class Hook:
    def __init__(self, before=None, after=None):
        self.before = before
        self.after = after


def _count_integral(rec, outer, args, result):
    # only at the boundary into the quadrature layer, so a probe that
    # returns an inner result is not counted twice
    if outer != "quadrature" and hasattr(result, "n_eval"):
        rec.counts["quadrature.extension_blocks"] += int(result.n_eval)
        rec.counts["quadrature.inconclusive"] += result.status == "inconclusive"


def _count_directions(rec, args, kwargs):
    measure, fn = args[0], args[1]

    def counted(dirs):
        rec.counts["spherical.directions_evaluated"] += len(dirs)
        return fn(dirs)

    return (measure, counted) + tuple(args[2:]), kwargs


def _sampler_built(rec, outer, args, result):
    rec.note_max("simulate.dropped_variance", float(result[1]))


def _ensemble_done(rec, outer, args, result):
    n_paths, cols = result.values.shape
    rec.counts["simulate.path_steps"] += n_paths * (cols - 1)
    rec.note_max("simulate.clamp_frequency", float(result.clamp_frequency))
    rec.note_max("simulate.path_matrix_mb", result.values.nbytes / 1e6)


def _increment_drawn(rec, outer, args, result):
    rec.counts["simulate.increment_paths"] += int(args[2])


HOOKS = {
    ("spherical", "integrate_over_directions"): Hook(before=_count_directions),
    ("simulate", "truncated_jump_sampler"): Hook(after=_sampler_built),
    ("simulate", "simulate_original"): Hook(after=_ensemble_done),
    ("simulate", "JumpSampler.sample_increment"): Hook(after=_increment_drawn),
}


def _count_radii(rec, method):
    """Count jump radii drawn; a counter, not a span (private method)."""

    @functools.wraps(method)
    def counted(self, i, n, gen):
        rec.counts["simulate.jumps"] += int(n)
        return method(self, i, n, gen)

    return counted


def _public_callables(module):
    """(qualified name, owner, attribute, function) defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", obj, attr, member


def instrument(rec: Recorder) -> None:
    """Wrap the layer modules' public callables in spans of rec."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "levyreduce" or n.startswith("levyreduce."))]
    for layer in LAYERS:
        module = sys.modules[f"levyreduce.{layer}"]
        for qualname, owner, attr, fn in list(_public_callables(module)):
            hook = HOOKS.get((layer, qualname))
            if hook is None and layer == "quadrature":
                hook = Hook(after=_count_integral)
            wrapped = rec.wrap(layer, qualname, fn, hook)
            setattr(owner, attr, wrapped)
            if owner is module:
                for other in modules:
                    for alias, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, alias, wrapped)
    sampler = sys.modules["levyreduce.simulate"].JumpSampler
    sampler._draw_radii = _count_radii(rec, sampler._draw_radii)


def summarize(rec: Recorder) -> dict:
    """Per-layer figures from the recorded spans, counts and maxima."""
    child_time = defaultdict(float)
    for layer, name, start, end, parent in rec.spans:
        if parent is not None:
            child_time[parent] += end - start
    calls = Counter()
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    open_names: dict[int, frozenset] = {}
    for sid, (layer, name, start, end, parent) in enumerate(rec.spans):
        key = f"{layer}.{name}"
        calls[key] += 1
        calls[f"{layer}.calls"] += 1
        self_s[layer] += (end - start) - child_time[sid]
        # inclusive time counts only the outermost span of a name
        above = open_names.get(parent, frozenset())
        if key not in above:
            inclusive[key] += end - start
        open_names[sid] = above if key in above else above | {key}
    return {
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "self_s": dict(self_s),
        "counts": dict(rec.counts),
        "maxima": dict(rec.maxima),
    }
