"""Per-layer spans recorded from outside the program.

Each traced public function is replaced, in every wudlab module namespace
that holds it, by a wrapper that records a span (name, start, end, parent).
Replacing the name where the caller looks it up means calls between modules
are seen too, e.g. ``wudlab.lab.alpha`` or ``wudlab.tuples.build_character_table``.
Spans stay in memory; the layer metrics are derived from them per repetition.

The layers are the wudlab modules. ``poly`` has no hot public entry: its
Horner evaluators run inside the sieve, density and characters spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

TRACED = {
    "number_core": ("unit_group", "factor"),
    "density": ("alpha", "count_unit_roots"),
    "characters": ("build_character_table", "z_chi", "curve_point_count"),
    "tuples": ("count_v_double", "v_double_incex"),
    "sieve": ("iter_segments",),
    "lab": ("run_distribution", "run_distribution_multi", "run_additive", "run_scenario"),
}

# lru caches whose cache_info() gives the builds (misses) and hits per repetition
CACHE_COUNTERS = {
    "number_core.unit_group": ("number_core", "unit_group"),
    "characters.build_character_table": ("characters", "build_character_table"),
}

COUNT_V_DOUBLE_METHODS = ("brute", "character", "linear")

# name -> (unit, better); the per-layer metrics every traced run reports
LAYER_METRICS = {
    "sieve.iter_segments.s": ("s", "lower"),
    "sieve.segments": ("count", "lower"),
    "sieve.segment_s.p50": ("s", "lower"),
    "lab.self_s": ("s", "lower"),
    "density.alpha.s": ("s", "lower"),
    "density.alpha.calls": ("count", "lower"),
    "density.count_unit_roots.s": ("s", "lower"),
    "density.count_unit_roots.calls": ("count", "lower"),
    "number_core.unit_group.s": ("s", "lower"),
    "number_core.unit_group.builds": ("count", "lower"),
    "number_core.unit_group.hits": ("count", "higher"),
    "number_core.factor.s": ("s", "lower"),
    "number_core.factor.calls": ("count", "lower"),
    "characters.build_character_table.s": ("s", "lower"),
    "characters.build_character_table.builds": ("count", "lower"),
    "characters.build_character_table.hits": ("count", "higher"),
    "characters.z_chi.s": ("s", "lower"),
    "characters.z_chi.calls": ("count", "lower"),
    "characters.curve_point_count.s": ("s", "lower"),
    **{f"tuples.count_v_double.{m}.s": ("s", "lower") for m in COUNT_V_DOUBLE_METHODS},
    "tuples.v_double_incex.s": ("s", "lower"),
}


def _module(layer: str):
    return importlib.import_module(f"wudlab.{layer}")


def wudlab_modules() -> list:
    """Every imported wudlab module."""
    return [m for key, m in sys.modules.items() if key.startswith("wudlab.") and m is not None]


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "sieve.iter_segments":
            @functools.wraps(fn)
            def segments(*args, **kwargs):
                # one span per segment: the time spent inside next()
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open("sieve.segment")
                    try:
                        seg = next(it)
                    except StopIteration:
                        tracer.spans[idx][0] = "sieve.exhausted"
                        return
                    finally:
                        tracer._close(idx)
                    yield seg
            return segments

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "tuples.count_v_double":
                label += "." + kwargs.get("method", args[4] if len(args) > 4 else "auto")
            idx = tracer._open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
        return wrapper

    def install(self) -> None:
        modules = wudlab_modules()
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(_module(layer), fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one repetition, from its spans and cache counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    segment_s = []
    lab_self = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "sieve.segment":
            segment_s.append(end - start)
        if name.startswith("lab."):
            lab_self += (end - start) - child[i]
    out = {
        "sieve.iter_segments.s": total.get("sieve.segment", 0.0),
        "sieve.segments": len(segment_s),
        "sieve.segment_s.p50": statistics.median(segment_s) if segment_s else 0.0,
        "lab.self_s": lab_self,
    }
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            out.setdefault(metric, total.get(base, 0.0))
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
    for base, (layer, fname) in CACHE_COUNTERS.items():
        fn = getattr(_module(layer), fname)
        while not hasattr(fn, "cache_info"):  # under a tracing wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{base}.builds"] = info.misses
        out[f"{base}.hits"] = info.hits
    return out
