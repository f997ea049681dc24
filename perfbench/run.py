"""suffreduce benchmark: closed-loop workloads over the library's public
entry points, with end-to-end metrics untraced and per-layer metrics from a
traced replay.

Run from the root of a checkout (the library is imported from ``src/``):

    python3 perfbench/run.py --workload planted_path --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in its own process (worker.py); set-up time is the median
over SETUP_SAMPLES fresh processes.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Above it
are a table of every metric and, one JSON line per workload, the full record
(environment, failures, span accounting), which is also written to
``.perfbench_out/``.  Spans of a traced run go to
the same directory.  Workloads, seeds and the per-layer predictions are
described in perfbench/spec.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends well inside 180 s


class RunError(RuntimeError):
    pass


def _child(args: list[str], timeout: float) -> dict:
    """Run worker.py with ``args``; returns the JSON of its last line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned", repr(time.monotonic()), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--size", size]
    samples = [_child(base + ["--seconds", "0"], deadline - time.monotonic())["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--spans-out", str(OUT / f"spans-{name}-seed{seed}.tsv.gz")]
    rec = _child(base + extra, deadline - time.monotonic())
    samples.append(rec["setup_s"])
    rec["setup_samples_s"] = samples
    if trace:
        metrics = rec["layers"]
        counts = rec["traced"]
        gated = ("untraced", "replayed", "traced")
    else:
        setup_s = {"value": statistics.median(samples), "unit": layers.units("end_to_end")["setup_s"]}
        metrics = dict(rec["metrics"], setup_s=setup_s)
        counts = rec["untraced"]
        gated = ("untraced",)
    rec["result"] = {
        "correct": all(rec[k]["incorrect"] == 0 for k in gated),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    return rec


def _table(rec: dict) -> str:
    res = rec["result"]
    lines = [f"{rec['workload']} seed={rec['seed']} attempted={res['attempted']} "
             f"failed={res['failed']} failed_share={res['failed'] / res['attempted']:.4g} "
             f"correct={res['correct']}"]
    for key, m in res["metrics"].items():
        lines.append(f"  {key:<32} {m['value']:>14.6g} {m['unit']}")
    for f in rec["untraced"]["failures"]:
        lines.append(f"  failed op {f['index']} {f['entry']}: {f['status']} {f['reason']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of workloads.py, or all")
    ap.add_argument("--seed", type=int, default=20240817)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the self-check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "suffreduce" / "__init__.py").is_file():
        print(f"no suffreduce sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all") or args.seconds <= 0:
        print(f"--workload must be one of {', '.join(WORKLOADS)} or all, and --seconds > 0",
              file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            rec = run_workload(name, args.seed, args.seconds, args.trace, args.size, deadline)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(rec, indent=1))
            print(_table(rec), flush=True)
            results.append(rec)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results
                        for k, v in r["result"]["metrics"].items()},
        }
    for r in results:
        print(json.dumps({k: v for k, v in r.items() if k != "result"}))
    print(f"# {len(results)} workload(s) in {time.monotonic() - start:.1f} s", flush=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
