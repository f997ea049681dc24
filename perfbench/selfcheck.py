"""Fast self-check of the benchmark at tiny input sizes (~1 minute).

    python3 perfbench/selfcheck.py

Runs every workload untraced and traced with shrunken inputs and checks:

- every end-to-end and per-layer metric named in BENCHMARK.json is
  emitted, and nothing else;
- every gate passes and no op fails at this commit;
- self times from the spans (span minus child spans, per thread) account
  for the traced wall time: no span has negative self time or leaves its
  parent, the root spans cover the traced wall, and the remainder is
  reported as unattributed;
- layers a workload never calls read 0;
- outside a checkout (only BENCHMARK.json and perfbench/) the benchmark
  exits non-zero without printing a result.

Exits 0 when all hold; otherwise prints each failed check and exits 1.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_SECONDS = "2"
EPS = 1e-6

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def run_all(trace: int) -> tuple[dict, list[dict]]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", TINY_SECONDS, "--trace", str(trace), "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    records = [json.loads(line) for line in lines if line.startswith('{"workload"')]
    return json.loads(lines[-1]), records


def check_metrics(final: dict, kind: str, trace: int) -> None:
    want = layers.units(kind)
    check(set(final) == {"correct", "attempted", "failed", "metrics"},
          f"trace {trace}: result line has exactly correct/attempted/failed/metrics")
    for name in WORKLOADS:
        got = {k.split(".", 1)[1]: v for k, v in final["metrics"].items()
               if k.startswith(name + ".")}
        check({k: v["unit"] for k, v in got.items()} == want,
              f"trace {trace}: {name} emits every {kind} metric with its unit")
        check(all(isinstance(v["value"], (int, float)) for v in got.values()),
              f"trace {trace}: {name} metric values are numbers")
    check(final["correct"] and final["failed"] == 0 and final["attempted"] > 0,
          f"trace {trace}: every gate passes, no op fails ({final['attempted']} ops)")


def check_accounting(rec: dict) -> None:
    name, acct = rec["workload"], rec["accounting"]
    wall = acct["traced_wall_s"]
    check(acct["min_self_s"] >= -EPS, f"{name}: no span has negative self time")
    check(acct["max_escape_s"] <= EPS, f"{name}: every child span lies inside its parent")
    check(0.0 < acct["root_s"] <= wall * (1 + EPS) and acct["root_s"] >= 0.9 * wall,
          f"{name}: op root spans cover the traced wall ({acct['root_s']:.4f} of {wall:.4f} s)")
    layers = sum(acct["layers_s"].values())
    check(abs(layers + acct["root_self_s"] - acct["root_s"]) <= EPS * max(wall, 1.0),
          f"{name}: layer self times {layers:.4f} s + root self time "
          f"{acct['root_self_s']:.4f} s = root spans {acct['root_s']:.4f} s")
    check(acct["root_self_s"] - EPS <= acct["unattributed_s"] <= wall,
          f"{name}: unattributed {acct['unattributed_s']:.4f} s of traced wall {wall:.4f} s")
    with gzip.open(acct["spans_file"], "rt") as fh:
        rows = sum(1 for _ in fh) - 1
    check(rows == acct["spans"] > 0, f"{name}: {rows} spans written to {acct['spans_file']}")


def check_not_called(final: dict) -> None:
    m = {k: v["value"] for k, v in final["metrics"].items()}
    zero = {
        "screen_grid": ["estimators.iterations", "estimators.certificate_s", "kernel.eigh_calls",
                        "estimators.block_parallelism", "reductions.reassemble_s"],
        "battery_mix": ["linkage.mst_s", "linkage.cut_s"],
        "planted_path": ["linkage.mst_s", "linkage.cut_s"],
        "fps_battery": ["linkage.mst_s", "linkage.cut_s", "reductions.reassemble_s"],
    }
    for name, keys in zero.items():
        check(all(m[f"{name}.{k}"] == 0 for k in keys), f"{name}: uncalled layers read 0")
    nonzero = {
        "screen_grid": ["linkage.mst_s", "linkage.cut_s", "linkage.graph_builds"],
        "planted_path": ["reductions.reduce_s", "estimators.certificate_s", "kernel.eigh_calls",
                         "estimators.block_parallelism", "symmat.pack_calls"],
        "battery_mix": ["estimators.iterations", "kernel.eigh_calls", "symmat.pack_calls"],
        "fps_battery": ["kernel.eigh_n3", "estimators.solve_self_s"],
    }
    for name, keys in nonzero.items():
        check(all(m[f"{name}.{k}"] > 0 for k in keys), f"{name}: called layers read > 0")
    check(all(m[f"{w}.trace.overhead"] > 0 for w in WORKLOADS), "trace.overhead reported")


def check_outside_checkout() -> None:
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "screen_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          f"outside a checkout: exit {out.returncode}, no result printed")


def main() -> int:
    final0, _ = run_all(0)
    check_metrics(final0, "end_to_end", 0)
    final1, records = run_all(1)
    check_metrics(final1, "per_layer", 1)
    for rec in records:
        check_accounting(rec)
    check_not_called(final1)
    check_outside_checkout()
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
