"""One benchmark worker: set up, report ready, then run one workload.

Started by run.py with the repository's ``src`` on PYTHONPATH.  After
importing dimon and building its job list the worker prints ``ready``
(run.py times set-up up to that line), then runs passes over the job
list for about --seconds seconds.  The loop is closed with one caller:
each job starts when the previous one has returned.  The result is one
JSON line of raw samples, which run.py pools over its workers.

With --trace 1 the passes alternate between untraced and traced, so the
tracing overhead is measured in the same process.
"""

import argparse
import contextlib
import json
import random
import resource
import time

import dimon  # noqa: F401  (set-up cost: the package and its imports)
import dimon.cli  # noqa: F401  (set-up cost: click, as for every CLI user)

import tracer as tracing
import workloads


def measure(jobs, workload, seed, seconds, trace, min_samples=0):
    """Raw samples of passes over jobs for about ``seconds`` seconds.

    Passes go on while the next one is expected to end in time, and in
    any case until there are ``min_samples`` untraced job latencies and,
    when tracing, one traced pass.
    """
    reference = workloads.load_reference()
    recorder = workloads.EnumerationRecorder() if workload == "verify" else None
    tracer = tracing.Tracer() if trace else None
    rng = random.Random(seed)
    out = {"latencies": [], "passes": [], "traced_passes": [], "layers": [],
           "attempted": 0, "failed": 0, "undecided": 0, "problems": [], "absent": []}
    begin = time.perf_counter()

    def more():
        if not out["passes"] or len(out["latencies"]) < min_samples:
            return True
        if tracer is not None and not out["traced_passes"]:
            return True
        elapsed = time.perf_counter() - begin
        return elapsed + elapsed / (len(out["passes"]) + len(out["traced_passes"])) <= seconds

    with recorder or contextlib.nullcontext():
        while more():
            traced = tracer is not None and len(out["passes"]) > len(out["traced_passes"])
            if traced:
                tracer.reset()
                tracer.install()
                out["absent"] = list(tracer.absent)
            order = list(jobs)
            rng.shuffle(order)
            pass_s = 0.0
            for job in order:
                start = time.perf_counter()
                try:
                    answer = job.run()
                except Exception as exc:  # a wrong answer, counted and reported
                    answer = {"error": f"{type(exc).__name__}: {exc}"}
                elapsed = time.perf_counter() - start
                pass_s += elapsed
                if recorder is not None:
                    answer["digest"] = recorder.take_digest()
                problems = workloads.check(reference, workload, job.key, answer)
                out["attempted"] += 1
                out["undecided"] += answer.get("outcome") == "capped"
                if problems:
                    out["failed"] += 1
                    out["problems"].extend(problems[: max(0, 20 - len(out["problems"]))])
                if not traced:
                    out["latencies"].append(elapsed)
            if traced:
                tracer.uninstall()
                out["traced_passes"].append(pass_s)
                out["layers"].append({**tracer.times, **tracer.counts})
            else:
                out["passes"].append(pass_s)
    out["backend"] = getattr(dimon.congruence, "BACKEND", "unknown")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-samples", type=int, default=0)
    args = ap.parse_args(argv)
    jobs = workloads.build_jobs(args.workload)
    print("ready", flush=True)
    out = measure(jobs, args.workload, args.seed, args.seconds, args.trace, args.min_samples)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
