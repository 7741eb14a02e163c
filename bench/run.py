#!/usr/bin/env python3
"""thetalab benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload witt-g3 --seed 1 --seconds 10 --trace 0

Every pass runs in a forked process with jobs=1 and its own, initially empty
THETALAB_CACHE directory:

  set-up   build, validate and basis-reduce the lattices.  Repeated in fresh
           processes while the samples sum to under SETUP_BUDGET_S; the last
           process keeps its lattices and drives the rest of the run.
  cold     rounds of the whole workload on an empty cache, forked from the
           set-up process, until --seconds have passed (at least one round).
  warm     the workload again in fresh forks of the set-up process, reading
           the disk cache the last cold round wrote.

Times are scaled to a reference host speed with probes (see timed()).
Outputs are checked after each timed pass.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics (end-to-end metrics with
--trace 0; per-layer metrics from spans with --trace 1).  Result and span
files go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# Forked passes must not inherit a BLAS thread pool; thetalab's numpy work is
# integer arithmetic, which never calls BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import multiprocessing as mp  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CACHE_ENV = "THETALAB_CACHE"

# The shared hosts this runs on drift in speed by a third and more within
# minutes: over ten runs of one workload, the spread of the wall times can
# exceed any bound a regression gate could use.  So every timed call is
# accompanied by probes, five before and five after the call and one every
# PROBE_EVERY_S during it (from a timer signal), and its time is reported in
# seconds of a host on which a probe takes PROBE_REF_S:
# (wall time - in-call probe time) * PROBE_REF_S / mean probe time.
# A probe is a fixed piece of the two kinds of work thetalab does:
# interpreter work on dicts, tuples, strings and ints, and small int64 numpy
# products and histograms, timed on its second turn so that what the
# workload left in the caches does not change it.
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.001
_PROBE_MATRIX = np.arange(4096, dtype=np.int64).reshape(64, 64)
SETUP_BUDGET_S = 3.0
SETUP_MAX = 15
WARM_BUDGET_S = 2.0
WARM_MAX = 15

FORK = mp.get_context("fork")


class PassError(RuntimeError):
    pass


def probe() -> float:
    """Wall seconds of one probe, run right after an untimed one so that it
    finds its code and data in the caches, wherever it is called."""
    for _turn in range(2):
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(700):
            key = (i % 31, (i * 7) % 17)
            counts[key] = counts.get(key, 0) + int(str(i))
        sorted(counts.items())
        a = _PROBE_MATRIX
        for _ in range(12):
            np.bincount((a @ a[:8].T).ravel() & 1023, minlength=1024)
    return time.perf_counter() - t0


def timed(fn, *args):
    """fn(*args) and its time as (scaled s, wall s without the probes, mean
    probe s outside the call, mean probe s inside it or None)."""
    outside = [probe() for _ in range(5)]
    inside = []
    in_call_probe_s = 0.0

    def on_alarm(signum, frame):
        nonlocal in_call_probe_s
        t0 = time.perf_counter()
        inside.append(probe())
        in_call_probe_s += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= in_call_probe_s
    outside += [probe() for _ in range(5)]
    speed = statistics.fmean(outside + inside)
    return result, (wall * PROBE_REF_S / speed, wall, statistics.fmean(outside),
                    statistics.fmean(inside) if inside else None)


def _child(conn, fn, args):
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def in_child(fn, *args):
    """fn(*args) in a forked process; its return value, or PassError."""
    recv, send = FORK.Pipe(duplex=False)
    proc = FORK.Process(target=_child, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        status, value = recv.recv()
    except EOFError:
        status, value = "error", f"pass process exited with code {proc.exitcode}"
    finally:
        recv.close()
        proc.join()
    if status != "ok":
        raise PassError(value)
    return value


def _timed_pass(wl, lats, cache: Path, tracer, label: str) -> dict:
    os.environ[CACHE_ENV] = str(cache)
    if tracer:
        tracer.start_pass(label)
    result, timing = timed(wl.solve, lats)
    return {
        "timing": timing,
        "result": result,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.end_pass() if tracer else None,
    }


def _reference(wl, inputs, cache: Path):
    os.environ[CACHE_ENV] = str(cache)
    return wl.reference(inputs)


def drive(wl, inputs, lats, args, work: Path, tracer) -> dict:
    """Cold rounds, then warm passes, each checked after its timer stops."""
    ref = in_child(_reference, wl, inputs, work / "reference") if wl.reference else None
    run = {"timings": {"solve_s": [], "warm_s": []}, "peak_rss_mb": [], "passes": [], "attempted": 0, "failed": 0}

    def checked_pass(label: str, cache: Path) -> dict:
        out = in_child(_timed_pass, wl, lats, cache, tracer, label)
        ops = wl.check(out["result"], ref)
        run["attempted"] += len(ops)
        run["failed"] += ops.count(False)
        if out["trace"]:
            run["passes"].append(out["trace"])
        return out

    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        cache = work / f"cold-{i}"
        out = checked_pass(f"cold-{i}", cache)
        run["timings"]["solve_s"].append(out["timing"])
        run["peak_rss_mb"].append(out["rss_mb"])
        i += 1
        if time.perf_counter() >= deadline:
            break
    warm = run["timings"]["warm_s"]
    while len(warm) < WARM_MAX and (not warm or sum(t[1] for t in warm) < WARM_BUDGET_S):
        warm.append(checked_pass(f"warm-{len(warm)}", cache)["timing"])
    return run


def _setup_then_drive(conn, wl, inputs, args, work: Path, index: int):
    """Set up (timed), report, and either exit or drive the run."""
    try:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.install()
            if tracer.missing and index == 0:
                print(f"warning: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
        os.environ[CACHE_ENV] = str(work / f"setup-{index}")
        lats, timing = timed(wl.setup, inputs)
        conn.send(("setup", timing))
        if conn.recv():
            setup_pass = tracer.end_pass() if tracer else None
            out = drive(wl, inputs, lats, args, work, tracer)
            if setup_pass:
                out["passes"].insert(0, setup_pass)
            conn.send(("ok", out))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def measure(wl, args, work: Path) -> dict:
    inputs = wl.inputs(args.seed)
    setup = []
    while True:
        here, there = FORK.Pipe()
        proc = FORK.Process(target=_setup_then_drive, args=(there, wl, inputs, args, work, len(setup)))
        proc.start()
        there.close()
        try:
            kind, value = here.recv()
            if kind == "setup":
                setup.append(value)
                walls = [t[1] for t in setup]
                more = len(setup) < SETUP_MAX and sum(walls) + walls[-1] < SETUP_BUDGET_S
                here.send(not more)
                if not more:
                    kind, value = here.recv()
        except EOFError:
            kind, value = "error", f"set-up process exited with code {proc.exitcode}"
        finally:
            here.close()
            proc.join()
        if kind == "error":
            raise PassError(value)
        if kind == "ok":
            value["timings"]["setup_s"] = setup
            return value


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="thetalab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thetalab" / "__init__.py").is_file():
        print(f"error: no thetalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import summarize
    import thetalab
    import workloads

    if Path(thetalab.__file__).resolve().parent != ROOT / "src" / "thetalab":
        print(f"error: imported thetalab from {thetalab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # One CPU for every process of the run: passes run one at a time, so
    # this costs nothing and keeps a pass from changing core mid-way.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(wl, args, work)
    except PassError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        chosen = [p for p in run["passes"] if p["label"] in summarize.REPORTED_PASSES]
        metrics = {m: {"value": v, "unit": summarize.unit(m)} for m, v in summarize.layer_metrics(chosen).items()}
    else:
        metrics = {m: {"value": statistics.median(t[0] for t in ts), "unit": "s"} for m, ts in run["timings"].items()}
        metrics["peak_rss_mb"] = {"value": statistics.median(run["peak_rss_mb"]), "unit": "MB"}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    stem = f"{wl.name}-seed{args.seed}"
    record = {**result, "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "timings": run["timings"], "peak_rss_mb": run["peak_rss_mb"],
              "probe_ref_s": PROBE_REF_S, "machine": machine()}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        summarize.write_spans(OUT / f"spans-{stem}.jsonl", run["passes"])
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        print("wall: " + ", ".join(f"{k}={statistics.median(t[1] for t in ts):.4g} s" for k, ts in run["timings"].items()))
    print("samples: " + ", ".join(f"{k}={len(v)}" for k, v in run["timings"].items()))
    print(f"operations: {run['attempted']} attempted, {run['failed']} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
