"""Per-layer metrics derived from the spans of a traced run.

Layers are the library's modules: ``linkage``, ``reductions``,
``estimators`` and ``symmat``; ``kernel`` is the LAPACK eigensolver
(numpy.linalg.eigh/eigvalsh) that estimators calls.  Every metric is per op
unless its unit is a ratio.  A layer that is never called reads 0.

Self time is a span's duration minus the time its child spans on the same
thread cover.  On the calling thread the op's root span holds everything
else; :func:`accounting` checks that self times add up to the traced wall
time and reports the root spans' own self time as unattributed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

GRAPH_BUILDS = ("linkage.slt", "linkage.slt_plus", "linkage.slc", "linkage.threshold_components")
EIGEN = ("kernel.eigh", "kernel.eigvalsh")
PACK = ("symmat.wrap", "symmat.from_dense", "symmat.dense")


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` list, in its order."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class _Spans:
    def __init__(self, spans: dict, names: list[str]):
        self.s = spans
        self.names = names

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.s["name"], ids)

    def count(self, *names) -> int:
        return int(self.mask(*names).sum())

    def total(self, key: str, *names) -> float:
        return float(self.s[key][self.mask(*names)].sum())


def block_phases(sp: _Spans) -> list[tuple[float, list[float], list[float]]]:
    """Per decomposed op: (phase wall, block waits, block seconds).

    The block phase runs from the end of the op's reduce_input to the start
    of its reassembly (or of its certificate when nothing is reassembled).
    Block solves are the solve spans that start inside it, on any thread.
    """
    s = sp.s
    root = sp.mask(*[n for n in sp.names if n.startswith("op.")])
    reduce_ = sp.mask("reductions.reduce_input")
    solve = sp.mask("estimators.solve")
    after = sp.mask("reductions.reassemble_blocks", "estimators.kkt_residual")
    by_op: dict[int, dict] = defaultdict(lambda: {"reduce": None, "after": None, "solves": []})
    for i in np.nonzero(root | reduce_ | solve | after)[0]:
        rec = by_op[int(s["op"][i])]
        if reduce_[i] and s["parent_index"][i] >= 0 and root[s["parent_index"][i]]:
            rec["reduce"] = s["end"][i]
        elif after[i] and rec["after"] is None and s["parent_index"][i] >= 0 \
                and root[s["parent_index"][i]]:
            rec["after"] = s["start"][i]
        elif solve[i]:
            rec["solves"].append((s["start"][i], s["dur"][i]))
    out = []
    for rec in by_op.values():
        start = rec["reduce"]
        if start is None:
            continue
        blocks = [(t0, d) for t0, d in rec["solves"] if t0 >= start]
        if not blocks:
            continue
        end = rec["after"] if rec["after"] is not None else max(t0 + d for t0, d in blocks)
        out.append((end - start, [t0 - start for t0, _ in blocks], [d for _, d in blocks]))
    return out


def accounting(spans: dict, names: list[str], main_thread: int, traced_wall: float) -> dict:
    """Self time per layer on the calling thread against the traced wall.

    Returns seconds per layer, the root spans' duration and own self time
    (layers plus root self time must add up to the root duration), the
    unattributed remainder (traced wall minus every non-root span's self
    time: the roots' self time plus the wrappers' own cost), and the nesting
    checks: the most negative self time and the largest amount by which a
    child span leaves its parent.
    """
    s = spans
    main = s["thread"] == main_thread
    layer = np.array([n.split(".")[0] for n in names] or [""])[s["name"]] \
        if s["name"].size else np.zeros(0, dtype=str)
    per_layer = {}
    for name in sorted(set(layer[main].tolist()) - {"op"}):
        per_layer[name] = float(s["self"][main & (layer == name)].sum())
    roots = main & (layer == "op")
    has = s["parent_index"] >= 0
    pi = s["parent_index"][has]
    escape = 0.0
    if pi.size:
        escape = float(max(np.max(s["start"][pi] - s["start"][has]),
                           np.max(s["end"][has] - s["end"][pi])))
    return {
        "traced_wall_s": traced_wall,
        "root_s": float(s["dur"][roots].sum()),
        "root_self_s": float(s["self"][roots].sum()),
        "layers_s": per_layer,
        "unattributed_s": traced_wall - sum(per_layer.values()),
        "min_self_s": float(s["self"].min()) if s["self"].size else 0.0,
        "max_escape_s": max(escape, 0.0),
        "spans": int(s["id"].size),
    }


def layer_metrics(spans: dict, names: list[str], replay: list, main_thread: int,
                  untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced replay.

    ``replay`` holds a record (entry, lat, iterations, kkt, op) per traced op;
    ``untraced_wall`` is the latency sum of the same ops run untraced.
    Returns (metrics as name -> value, accounting record).
    """
    sp = _Spans(spans, names)
    n = max(len(replay), 1)
    traced_wall = float(sum(r.lat for r in replay))
    acct = accounting(spans, names, main_thread, traced_wall)

    reduce_ = sp.mask("reductions.reduce_input")
    phases = block_phases(sp)
    cert_pass = [
        r.kkt <= r.op.spec.opts.tol * (1.0 + float(np.max(np.abs(r.op.x.dense()))))
        for r in replay if r.entry == "solve_decomposed" and r.kkt is not None
    ]
    eig = sp.mask(*EIGEN)
    values = {
        "linkage.graph_builds": sp.count(*GRAPH_BUILDS) / n,
        "linkage.self_s": float(spans["self"][sp.mask(*[x for x in names if x.startswith("linkage.")])].sum()) / n,
        "linkage.mst_s": sp.total("dur", "linkage.mst_kruskal") / n,
        "linkage.cut_s": sp.total("dur", "linkage.cut_dendrogram") / n,
        "reductions.reduce_s": sp.total("dur", "reductions.reduce_input") / n,
        "reductions.reassemble_s": sp.total("dur", "reductions.reassemble_blocks") / n,
        "reductions.blocks": float(spans["a1"][reduce_].mean()) if reduce_.any() else 0.0,
        "reductions.largest_block": float(spans["a2"][reduce_].mean()) if reduce_.any() else 0.0,
        "estimators.iterations": sum(r.iterations for r in replay) / n,
        "estimators.solve_self_s": sp.total("self", "estimators.solve") / n,
        "estimators.certificate_s": sp.total("dur", "estimators.kkt_residual") / n,
        "estimators.objective_s": sp.total("dur", "estimators.objective_at") / n,
        "estimators.cert_pass_share": float(np.mean(cert_pass)) if cert_pass else 0.0,
        "estimators.block_wait_s": float(np.mean([np.mean(w) for _, w, _ in phases])) if phases else 0.0,
        "estimators.block_parallelism": (sum(sum(b) for _, _, b in phases)
                                         / sum(w for w, _, _ in phases)) if phases else 0.0,
        "kernel.eigh_calls": int(eig.sum()) / n,
        "kernel.eigh_s": float(spans["dur"][eig].sum()) / n,
        "kernel.eigh_n3": float((spans["a1"][eig].astype(float) ** 3).sum()) / n,
        "symmat.pack_calls": sp.count(*PACK) / n,
        "symmat.pack_s": sp.total("self", *PACK) / n,
        "trace.overhead": traced_wall / untraced_wall if untraced_wall > 0 else 0.0,
        "trace.unattributed_s": acct["unattributed_s"] / n,
    }
    return values, acct
