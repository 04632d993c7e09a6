"""wudlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dist --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Each measurement runs in a fresh process with one thread per numerical
library (worker.py). With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; with --trace 1 it carries the per-layer
metrics of a traced run and the tracing overhead. Lines before it are a
readable summary and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
SETUP_PROBES = 6        # setup-only processes besides the measuring one
PROBE_TIMEOUT = 30      # seconds
WORKER_GRACE = 90       # seconds a worker may take beyond --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    """Interpreter, library and machine facts recorded with each result."""
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = _read(index / "size")
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        describe = None
    src_loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_describe": describe,
        "src_loc": src_loc,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("dist", "additive", "local"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wudlab" / "__init__.py").is_file():
        print(f"no wudlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            _worker([*common, "--setup-only"], PROBE_TIMEOUT)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = _worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                      args.seconds + WORKER_GRACE)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    walls = res["walls"]
    wall_s = statistics.median(walls)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(walls)} untraced" +
          (f" + {len(res['traced_walls'])} traced" if args.trace else ""))
    print(f"  wall_s          {wall_s:.4f} s   median of {len(walls)}, "
          f"min {min(walls):.4f}, max {max(walls):.4f}")
    if res["n_sieved"]:
        print(f"  n_per_s         {res['n_sieved'] / wall_s:.0f} 1/s   "
              f"({res['n_sieved']} integers sieved per repetition)")
    print(f"  ops_failed_frac {res['failed'] / res['attempted']:.4f}   "
          f"{res['failed']} of {res['attempted']} timed operations")
    for f in res["failures"]:
        print(f"    failed {f['op']}: {f['mode']}{' (known defect)' if f['known'] else ''}"
              f" - {f['detail'][:160]}")
    print("  repetitions     " + " ".join(f"{w:.3f}" for w in walls) + " s")
    small = {k: t for k, t in res["op_s"].items() if t < 0.01}
    for name, t in res["op_s"].items():
        if name not in small:
            print(f"    op {name:32s} {t:.4f} s   median")
    if small:
        print(f"    {len(small)} ops under 10 ms each    {sum(small.values()):.4f} s   sum of medians")

    if args.trace:
        traced = statistics.median(res["traced_walls"])
        layers = {"trace.overhead_s": traced - wall_s,
                  "trace.overhead_frac": traced / wall_s - 1, **res["layers"]}
        units = {"trace.overhead_s": "s", "trace.overhead_frac": "frac"}
        units.update({k: u for k, (u, _) in tracing.LAYER_METRICS.items()})
        metrics = {k: _metric(v, units[k]) for k, v in layers.items()}
        print(f"  traced wall_s   {traced:.4f} s   overhead {traced - wall_s:+.4f} s "
              f"({100 * (traced / wall_s - 1):+.2f} %)")
    else:
        setups.append(res["setup_s"])
        metrics = {
            "wall_s": _metric(wall_s, "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(setups), "s"),
        }
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(environment()))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
