"""One workload in a fresh process: set up, time repetitions, check outputs.

Started by run.py with the checkout's src/ on PYTHONPATH and one thread per
numerical library. Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload dist --seed 1 --seconds 30 --trace 0
    python3 perfbench/worker.py --workload dist --seed 1 --setup-only
    python3 perfbench/worker.py --workload dist --print-digests
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401
import wudlab  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3         # untraced repetitions, at least
MIN_TRACED_REPS = 2  # traced and untraced repetitions each, with --trace 1


@dataclass(frozen=True)
class Raised:
    """The outcome of an operation that raised instead of returning."""

    kind: str
    message: str


def _caches() -> list:
    """Every lru cache in wudlab; cleared so each repetition starts cold."""
    found = {id(v): v for mod in tracing.wudlab_modules() for v in vars(mod).values()
             if hasattr(v, "cache_clear")}
    return list(found.values())


def _run_ops(ops) -> tuple[list, list[float]]:
    results, times = [], []
    for op in ops:
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(type(exc).__name__, str(exc))
        times.append(perf_counter() - t)
        results.append(out)
    return results, times


def _fingerprint(results) -> str:
    return hashlib.sha256(repr(results).encode()).hexdigest()


def measure(wl, seconds: float, tracer) -> dict:
    """Repeat the workload for about `seconds`, every repetition cold.

    With a tracer, repetitions alternate untraced and traced, so the tracing
    overhead is the difference of the two medians.
    """
    caches = _caches()
    walls, traced_walls, layer_rows = [], [], []
    op_times = {op.name: [] for op in wl.ops}
    fingerprints = set()
    start = perf_counter()
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        results = None  # free the last outputs before the next repetition runs
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        results, times = _run_ops(wl.ops)
        wall = perf_counter() - t0
        if traced:
            tracer.uninstall()
            layer_rows.append(tracing.layer_metrics(tracer.spans))
            traced_walls.append(wall)
        else:
            walls.append(wall)
            for op, t in zip(wl.ops, times):
                op_times[op.name].append(t)
        fingerprints.add(_fingerprint(results))
        if tracer is None:
            enough = len(walls) >= MIN_REPS
        else:
            enough = min(len(walls), len(traced_walls)) >= MIN_TRACED_REPS
        if enough and perf_counter() - start + wall > seconds:
            break
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "layer_rows": layer_rows,
        "op_s": {name: statistics.median(ts) for name, ts in op_times.items()},
        "results": results,
        "deterministic": len(fingerprints) == 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def check(wl, results) -> list[dict]:
    """Failures among the last repetition's outputs, each marked known or not."""
    failures = []
    for op, out in zip(wl.ops, results):
        if isinstance(out, Raised):
            mode, detail = out.kind, out.message
        else:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if not problems:
                continue
            mode, detail = "wrong", "; ".join(problems[:5])
        failures.append({"op": op.name, "mode": mode, "detail": detail,
                         "known": workloads.KNOWN_DEFECTS.get(op.name) == mode})
    return failures


def _write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                "spans": spans}))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--print-digests", action="store_true",
                    help="print the count digests of one run, to record them")
    args = ap.parse_args()

    src = ROOT / "src"
    if not Path(wudlab.__file__).resolve().is_relative_to(src):
        print(f"wudlab imported from {wudlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    setup_s = perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.print_digests:
        results, _ = _run_ops(wl.ops)
        print(json.dumps({op.name: [workloads.report_digest(r) for r in out]
                          for op, out in zip(wl.ops, results)}, indent=1))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    run = measure(wl, args.seconds, tracer)
    failures = check(wl, run.pop("results"))
    if not run.pop("deterministic"):
        failures.append({"op": "*", "mode": "nondeterministic", "known": False,
                         "detail": "repetitions produced different outputs"})
    reps = len(run["walls"]) + len(run["traced_walls"])
    failed_ops = {f["op"] for f in failures}
    out = {
        "setup_s": setup_s,
        "n_sieved": wl.n_sieved,
        "attempted": len(wl.ops) * reps,
        "failed": sum(op.name in failed_ops for op in wl.ops) * reps,
        "correct": all(f["known"] for f in failures),
        "failures": failures,
        **run,
    }
    rows = out.pop("layer_rows")
    if tracer is not None:
        out["layers"] = {name: statistics.median(row[name] for row in rows)
                         for name in tracing.LAYER_METRICS}
        _write_spans(ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json",
                     tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
