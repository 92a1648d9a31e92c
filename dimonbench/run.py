"""Run one dimon benchmark workload against the working tree.

    python3 dimonbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Set-up builds the compiled kernel the way the repository does
(``python setup.py build_ext --inplace``), after deleting any
``src/dimon/_tc_core*.so`` left in the tree.  Then one worker process
imports dimon from ``src`` and runs the workload's job list in passes;
an untraced run shares its --seconds among five such workers.  Every
answer is checked against reference.json.

With --trace 0 the last line of output holds the end-to-end metrics,
with --trace 1 the per-layer ones; see README.md.  The exit code is 0
only when every answer was correct.
"""

import argparse
import glob
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

# worker processes per untraced run, each timed from start to ready
WORKERS = 5
# job latencies per run at least, so that the 90th percentile has ten beyond it
MIN_SAMPLES = 110
# a run ends within 180 s, or 900 s when the build has to compile
BUILD_TIMEOUT_S = 700
# each worker may take this much longer than its share of --seconds,
# for its set-up and for a last pass that runs over
WORKER_MARGIN_S = 15


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def build_extension():
    """Seconds the repository's own extension build took.

    Any compiled kernel already in the tree is deleted first: ``*.so`` is
    git-ignored, so one built for another commit would otherwise be used.
    """
    for path in glob.glob(os.path.join(SRC, "dimon", "_tc_core*.so")):
        os.remove(path)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
    )
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"setup.py build_ext failed:\n{done.stderr[-2000:]}")
    return seconds


def _run_worker(args, seconds, min_samples, deadline):
    """Raw samples of one worker, and the seconds its set-up took."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # one thread per worker: the run measures a single caller
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--min-samples", str(min_samples)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True, stdout=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                raise BenchError("worker set-up timed out")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker failed (exit code {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1]), setup_s


def run_workers(args):
    """Samples pooled over the run's workers, and their set-up times.

    An untraced run splits its time over several worker processes, one
    after the other: how fast one process runs varies more than the
    passes inside it do, so pooling steadies the medians.
    """
    workers, min_samples = (1, 0) if args.trace else (WORKERS, -(-MIN_SAMPLES // WORKERS))
    pooled, setups = None, []
    deadline = time.perf_counter() + args.seconds + workers * WORKER_MARGIN_S
    for _ in range(workers):
        raw, setup_s = _run_worker(args, args.seconds / workers, min_samples, deadline)
        setups.append(setup_s)
        if pooled is None:
            pooled = raw
            continue
        for key in ("latencies", "passes", "traced_passes", "layers", "problems",
                    "attempted", "failed", "undecided"):
            pooled[key] += raw[key]
        pooled["peak_rss_mb"] = max(pooled["peak_rss_mb"], raw["peak_rss_mb"])
    return pooled, setups


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, setups):
    cuts = statistics.quantiles(raw["latencies"], n=10, method="inclusive")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(statistics.median(raw["passes"]), "s"),
        "job_p50_ms": _metric(cuts[4] * 1000, "ms"),
        "job_p90_ms": _metric(cuts[8] * 1000, "ms"),
        "peak_rss_mb": _metric(raw["peak_rss_mb"], "MB"),
        # 1 - undecided_ratio, which is 0 on verify and monoid
        "decided_ratio": _metric(1 - raw["undecided"] / raw["attempted"], "ratio"),
    }


def per_layer(raw, extension_s):
    layers = raw["layers"]
    out = {}
    for name in layers[0]:
        if name != "monoids.target_elements":
            unit = "s" if name.endswith("_s") else "count"
            out[name] = _metric(statistics.median(p[name] for p in layers), unit)
    ratios = [p["monoids.elements_built"] / p["monoids.target_elements"]
              for p in layers if p["monoids.target_elements"]]
    out["monoids.elements_built_ratio"] = _metric(statistics.median(ratios) if ratios else 0.0,
                                                  "ratio")
    traced = statistics.median(raw["traced_passes"])
    attributed = statistics.median(sum(v for k, v in p.items() if k.endswith("_s"))
                                   for p in layers)
    out["build.extension_s"] = _metric(extension_s, "s")
    out["build.backend_compiled"] = _metric(int(raw["backend"] == "compiled"), "count")
    out["trace.overhead_s"] = _metric(traced - statistics.median(raw["passes"]), "s")
    out["trace.unattributed_s"] = _metric(traced - attributed, "s")
    out["trace.absent_layers"] = _metric(len(raw["absent"]), "count")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one dimon benchmark workload.")
    ap.add_argument("--workload", required=True, choices=("verify", "monoid", "consequence"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dimon", "__init__.py")):
        raise BenchError(f"no dimon package under {SRC}")

    extension_s = build_extension()
    raw, setups = run_workers(args)

    if args.trace:
        metrics = per_layer(raw, extension_s)
    else:
        metrics = end_to_end(raw, setups)
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {args.workload}, seed {args.seed}, backend {raw['backend']}, "
          f"extension build {extension_s:.2f} s")
    passes = raw["passes"]
    q1, _, q3 = statistics.quantiles(passes, n=4) if len(passes) > 1 else passes * 3
    print(f"passes {len(passes)} untraced (pass_s quartiles {q1:.3f} to {q3:.3f} s), "
          f"{len(raw['traced_passes'])} traced; job samples {len(raw['latencies'])}; "
          f"set-up samples {len(setups)}")
    print(f"attempted {attempted}, failed {failed} (failed_ratio {failed / attempted:.4f}), "
          f"capped {raw['undecided']} (undecided_ratio {raw['undecided'] / attempted:.4f})")
    for problem in raw["problems"]:
        print(f"problem: {problem}")
    for name in raw["absent"]:
        print(f"absent layer: {name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"dimonbench: {exc}", file=sys.stderr)
        sys.exit(2)
