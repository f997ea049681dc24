"""One benchmark process: set up one workload, run it, print one JSON line.

Started by run.py, once per measured run and again for each extra set-up
sample.  ``--spawned`` is the parent's CLOCK_MONOTONIC reading just before
it started this process, so set-up time covers interpreter start, imports,
input generation and one untimed warm-up op.  With ``--seconds 0`` the
process stops after set-up.

The timed loop is closed: the next op starts only after the previous one
returned and its gate ran.  It stops starting ops once the op latencies sum
to ``--seconds`` (gates are not timed), so the last op may run past it.  With
``--trace 1`` the loop runs for a third of the time, then the same ops are
replayed twice, alternating op by op between untraced and wrapped;
per-layer metrics come from the traced replay's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from suffreduce.estimators import ConvergenceError, NoSolutionError  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


class Record(NamedTuple):
    """One attempted op.  The output itself is dropped so that it does not
    count toward peak memory; only what the layer metrics need is kept.
    ``op`` holds its input matrices, so only a traced run, which replays
    the ops, keeps it."""

    entry: str
    lat: float
    status: str  # ok, raised, not_converged or gate
    why: str | None
    iterations: int = 0
    kkt: float | None = None
    op: object = None


def attempt(op, run=None) -> Record:
    """Run one op and its gate.  Never raises: an op that fails is recorded
    and the loop goes on."""
    run = run or op.run
    t0 = time.perf_counter()
    try:
        out = run()
    except (ConvergenceError, NoSolutionError) as exc:
        lat = time.perf_counter() - t0
        return Record(op.entry, lat, "raised", f"{type(exc).__name__}: {exc}", op=op)
    except Exception as exc:  # the loop must keep running; record what broke
        lat = time.perf_counter() - t0
        why = "".join(traceback.format_exception_only(exc)).strip()
        return Record(op.entry, lat, "raised", why, op=op)
    lat = time.perf_counter() - t0
    info = (int(getattr(out, "iterations", 0)), getattr(out, "kkt_residual", None))
    if getattr(out, "converged", True) is False:
        return Record(op.entry, lat, "not_converged", "converged=False", *info, op=op)
    try:
        why = op.gate(out)
    except Exception as exc:  # a gate that cannot evaluate the output fails it
        why = "gate raised: " + "".join(traceback.format_exception_only(exc)).strip()
    return Record(op.entry, lat, "gate" if why else "ok", why, *info, op=op)


def timed_loop(ops, seconds: float, keep_ops: bool) -> list[Record]:
    """Closed loop over ``ops`` until their latencies sum to ``seconds``
    (at least one op).  Gates do not count, so a faster program completes
    more ops in the same measured time; wall time is capped at three times
    ``seconds`` in case gates are slow.  Unless ``keep_ops``, each op and
    its inputs are released once it ran, so that peak memory does not grow
    with the number of ops completed."""
    records = []
    timed = 0.0
    stop = time.monotonic() + 3.0 * seconds
    while timed < seconds and time.monotonic() < stop:
        rec = attempt(next(ops))
        records.append(rec if keep_ops else rec._replace(op=None))
        timed += rec.lat
    return records


def end_to_end(records) -> dict:
    """Untraced metrics; set-up time is added by run.py.

    Throughput counts ops that passed over the time they took.  Failed ops
    are charged through ok_share instead: a rare failure that runs to the
    iteration cap costs seconds, and would otherwise swing throughput by
    tens of percent from seed to seed.  Their time is in the record
    (failed_s).  Latency percentiles are over every attempted op.
    """
    lats = [r.lat for r in records]
    ok_lats = [r.lat for r in records if r.status == "ok"]
    ok = len(ok_lats)
    values = {
        "ops_per_s": ok / sum(ok_lats) if ok else 0.0,
        "op_s_p50": float(np.percentile(lats, 50)),
        "op_s_p90": float(np.percentile(lats, 90)),
        "ok_share": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = layers.units("end_to_end")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def summary(records) -> dict:
    counts: dict[str, int] = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    failures = [{"index": i, "entry": r.entry, "status": r.status, "reason": r.why}
                for i, r in enumerate(records) if r.status != "ok"]
    return {
        "attempted": len(records),
        "failed": len(records) - counts.get("ok", 0),
        "incorrect": counts.get("gate", 0),
        "status_counts": counts,
        "failures": failures[:20],
        "timed_wall_s": sum(r.lat for r in records),
        "failed_s": sum(r.lat for r in records if r.status != "ok"),
    }


def traced_replay(records, spans_out):
    """Replay the ops of ``records`` twice, op by op: untraced, then with
    every layer wrapped.  Alternating cancels drift in machine speed, so
    the ratio of the two sums is the tracing overhead.  Returns the records
    of both replays (both are gated), the traced replay's per-layer metrics
    and the span accounting."""
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    plain, replay = [], []
    for i, r in enumerate(records):
        patches.set(False)
        plain.append(attempt(r.op))
        patches.set(True)
        replay.append(attempt(r.op, lambda op=r.op, i=i: tracer.run_op(i, "op." + op.entry, op.run)))
    spans = tracer.arrays()
    values, acct = layers.layer_metrics(spans, tracer.names, replay, threading.main_thread().ident,
                                        sum(r.lat for r in plain))
    units = layers.units("per_layer")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    acct["wrapped"] = patches.names
    if spans_out:
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_out, spans)
        acct["spans_file"] = spans_out
    return plain, replay, metrics, acct


def main(argv=None) -> int:
    args = _parse(argv)
    size = workloads.TINY[args.workload] if args.size == "tiny" else {}
    stream = workloads.WORKLOADS[args.workload](args.seed, **size)
    attempt(next(stream()))  # warm-up
    ops = stream()
    setup_s = time.monotonic() - args.spawned
    if args.seconds <= 0:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = args.seconds / 3.0 if args.trace else args.seconds
    records = timed_loop(ops, seconds, keep_ops=bool(args.trace))
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s,
              "untraced": summary(records), "metrics": end_to_end(records)}
    if args.trace:
        plain, replay, result["layers"], result["accounting"] = traced_replay(records,
                                                                              args.spans_out)
        result["replayed"] = summary(plain)
        result["traced"] = summary(replay)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """What the numbers depend on, read after the timed loop."""
    import platform
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "commit": _git_commit(),
        "threads_env": {k: os.environ.get(k, "unset") for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SUFFREDUCE_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
