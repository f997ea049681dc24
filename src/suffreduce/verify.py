"""Executable checks that the reductions really are sufficient.

The central routine solves each estimator twice, on the raw input and on its
reduced input, compares the outcomes at the documented tolerances, and
re-derives the mask conditions from scratch.  ``run_suite`` batches these
checks (plus clustering, orbit, and minimality invariants) over seeded
random instances; failures are recorded in the summary, not thrown.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    EstimatorSpec,
    Family,
    SolverOptions,
    objective_at,
    reduction_for,
    solve,
)
from .instances import lambda_grid, random_instance, sign_instance
from .linkage import (
    Partition,
    components,
    cut_dendrogram,
    is_binary_ultrametric,
    mst_kruskal,
    slc,
    threshold_components,
)
from .orbit import (
    MaskProjection,
    check_projection_conditions,
    conj_majorizes,
    cut_membership,
)
from .penalty import GroupId, PenaltyKind, PenaltySpec
from .reductions import reduce_input
from .symmat import SymMatrix, hadamard

__all__ = [
    "SufficiencyReport",
    "TrialRecord",
    "SuiteSummary",
    "check_sufficiency",
    "check_support_containment",
    "enumerate_feasible_ultrametrics",
    "check_minimality_slc",
    "run_suite",
]

#: families with strictly convex objectives: the minimizer is unique, so the
#: reduced solve must reproduce it entrywise
STRICT_FAMILIES = {
    Family.LASSO,
    Family.NNLS,
    Family.GLASSO,
    Family.SPARSE_COV,
    Family.POSITIVE_INVCOV,
    Family.ISING_PMLE,
}

CONTAINMENT_REL_TOL = 1e-6


@dataclass(frozen=True)
class SufficiencyReport:
    family: str
    deviation: float
    objective_gap: float
    violations: tuple[tuple[int, int], ...]
    averaging: bool
    dual_feasibility: bool
    dual_invariance: bool
    passed: bool


def check_support_containment(theta, partition: Partition, tol: float = CONTAINMENT_REL_TOL):
    """Off-block entries of theta larger than tol * max|theta|."""
    td = np.asarray(theta, dtype=float)
    lab = np.asarray(partition.labels)
    cross = lab[:, None] != lab[None, :]
    cutoff = tol * float(np.max(np.abs(td)))
    bad = np.argwhere(cross & (np.abs(td) > cutoff))
    return [(int(i), int(j)) for i, j in bad if i < j]


def check_sufficiency(
    spec: EstimatorSpec,
    x,
    tol: float = 1e-5,
    mask_override: MaskProjection | None = None,
) -> SufficiencyReport:
    """Solve on x and on the reduced input, then compare.

    The reduced solve sees only the masked input (no partition or mask is
    passed along).  ``mask_override`` substitutes a hand-built mask for the
    canonical one, which is how the negative controls inject corrupted
    masks.  Strict families gate on entrywise deviation <= tol; the Fantope
    family gates on support containment and objective gap.
    """
    red_penalty, group = reduction_for(spec)
    rp = reduce_input(red_penalty, group, x)
    if mask_override is None:
        mask, reduced, partition = rp.mask, rp.reduced, rp.partition
    else:
        mask = mask_override
        reduced = mask.apply(x)
        partition = None if mask.matrix is None else components(mask.matrix.dense())
    conditions = check_projection_conditions(mask, x, red_penalty, group)

    rep_full = solve(spec, x)
    rep_reduced = solve(spec, reduced)
    full = np.asarray(rep_full.theta, dtype=float)
    red = np.asarray(rep_reduced.theta, dtype=float)
    deviation = float(np.max(np.abs(full - red)))
    gap = abs(objective_at(spec, x, rep_reduced.theta) - objective_at(spec, x, rep_full.theta))

    violations: tuple[tuple[int, int], ...] = ()
    if partition is not None:
        violations = tuple(
            sorted(
                set(check_support_containment(rep_full.theta, partition))
                | set(check_support_containment(rep_reduced.theta, partition))
            )
        )

    if spec.family in STRICT_FAMILIES:
        passed = conditions.all_hold and deviation <= tol and not violations
    else:
        scale = 1.0 + float(np.max(np.abs(np.asarray(x, dtype=float))))
        passed = conditions.all_hold and not violations and gap <= tol * scale
    return SufficiencyReport(
        spec.family.value,
        deviation,
        gap,
        violations,
        conditions.averaging,
        conditions.dual_feasibility,
        conditions.dual_invariance,
        passed,
    )


def enumerate_feasible_ultrametrics(x: SymMatrix, lam: float) -> list[SymMatrix]:
    """All binary ultrametric unit-diagonal matrices keeping every entry of
    x with |x_ij| > lam.  Exhaustive over the p(p-1)/2 free bits; p <= 5."""
    p = x.p
    if p > 5:
        raise ValueError(f"exhaustive enumeration capped at p=5, got {p}")
    d = np.abs(x.dense())
    pairs = [(i, j) for i in range(p - 1) for j in range(i + 1, p)]
    need = [d[i, j] > lam for i, j in pairs]
    out = []
    for bits in itertools.product((0.0, 1.0), repeat=len(pairs)):
        if any(n and b == 0.0 for n, b in zip(need, bits)):
            continue
        b = np.eye(p)
        for (i, j), v in zip(pairs, bits):
            b[i, j] = b[j, i] = v
        bm = SymMatrix.wrap(b)
        if is_binary_ultrametric(bm):
            out.append(bm)
    return out


def check_minimality_slc(x: SymMatrix, lam: float) -> bool:
    """Does the linkage mask have strictly the fewest kept entries among all
    feasible ultrametric masks?"""
    mask = slc(SymMatrix.wrap(np.abs(x.dense())), lam)
    feasible = enumerate_feasible_ultrametrics(x, lam)
    sums = [float(np.sum(b.dense())) for b in feasible]
    mask_sum = float(np.sum(mask.dense()))
    best = min(sums)
    argmins = [b for b, s in zip(feasible, sums) if s == best]
    return (
        len(argmins) == 1
        and mask_sum == best
        and bool(np.array_equal(argmins[0].dense(), mask.dense()))
    )


# =====================================================================
# suite runner
# =====================================================================

@dataclass(frozen=True)
class TrialRecord:
    check: str
    params: dict
    passed: bool
    deviation: float
    message: str = ""


@dataclass
class SuiteSummary:
    seed: int
    trials: list[TrialRecord] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def record(self, check, params, passed, deviation=0.0, message=""):
        self.trials.append(TrialRecord(check, dict(params), bool(passed), float(deviation), message))

    @property
    def failures(self) -> list[TrialRecord]:
        return [t for t in self.trials if not t.passed]

    def to_dict(self) -> dict:
        worst: dict[str, float] = {}
        for t in self.trials:
            worst[t.check] = max(worst.get(t.check, 0.0), t.deviation)
        return {
            "seed": self.seed,
            "trials": len(self.trials),
            "passed": len(self.trials) - len(self.failures),
            "failures": [
                {
                    "check": t.check,
                    "params": t.params,
                    "deviation": t.deviation,
                    "message": t.message,
                }
                for t in self.failures
            ],
            "worst_deviation": worst,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _sym_l1(lam: float) -> PenaltySpec:
    return PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam)


def _default_specs(lam: float) -> list[EstimatorSpec]:
    opts = SolverOptions(tol=1e-8)
    return [
        EstimatorSpec(Family.GLASSO, _sym_l1(lam), opts=opts),
        EstimatorSpec(Family.SPARSE_COV, _sym_l1(lam), eps=0.01, opts=opts),
        EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), opts=opts),
        EstimatorSpec(Family.FANTOPE_SPCA, _sym_l1(lam), k=2, opts=opts),
    ]


def _suite_sufficiency(summary: SuiteSummary, rng, sizes, families):
    for p in sizes:
        x = random_instance(rng, p)
        lam = float(np.quantile(np.abs(x.dense()[~np.eye(p, dtype=bool)]), 0.6))
        for spec in _default_specs(lam):
            if families and spec.family.value not in families:
                continue
            try:
                rep = check_sufficiency(spec, x, tol=1e-5)
                summary.record(
                    "sufficiency", {"family": spec.family.value, "p": p, "lam": lam},
                    rep.passed, rep.deviation,
                )
            except Exception as exc:  # solver failures count as check failures
                summary.record(
                    "sufficiency", {"family": spec.family.value, "p": p, "lam": lam},
                    False, np.inf, f"{type(exc).__name__}: {exc}",
                )
        if not families or "ising_pmle" in families:
            ps = min(p, 8)
            xs = sign_instance(rng, ps)
            lam_s = float(np.quantile(np.abs(xs.dense()[~np.eye(ps, dtype=bool)]), 0.6))
            spec = EstimatorSpec(Family.ISING_PMLE, _sym_l1(lam_s), opts=SolverOptions(tol=1e-8))
            rep = check_sufficiency(spec, xs, tol=1e-4)
            summary.record(
                "sufficiency", {"family": "ising_pmle", "p": ps, "lam": lam_s},
                rep.passed, rep.deviation,
            )
        # exact screening: solver support components match the threshold graph
        lam_mid = float(np.quantile(np.abs(x.dense()[~np.eye(p, dtype=bool)]), 0.5))
        if not families or "glasso" in families:
            rep = solve(EstimatorSpec(Family.GLASSO, _sym_l1(lam_mid), opts=SolverOptions(tol=1e-8)), x)
            td = rep.theta.dense()
            got = components(np.abs(td) > 1e-8 * float(np.max(np.abs(td))))
            want = threshold_components(x, lam_mid)
            summary.record(
                "exact_screening", {"p": p, "lam": lam_mid}, got == want,
                0.0 if got == want else 1.0,
            )
        # negative control: drop one required edge from the mask
        corrupted = _corrupt_mask(x, lam)
        if corrupted is not None:
            conds = check_projection_conditions(
                corrupted, x, _sym_l1(lam), GroupId.DIAGONAL_CONJUGATION
            )
            summary.record(
                "negative_control", {"p": p, "lam": lam}, not conds.dual_feasibility,
                0.0 if not conds.dual_feasibility else 1.0,
                "corrupted mask must fail dual feasibility",
            )
    # closed-form vector chains
    from .reductions import hard_threshold, positive_part, reconstruct_from_soft
    from .estimators import lasso, nnls

    for _ in range(5):
        v = rng.standard_normal(50)
        lamv = 0.5
        chain1 = np.array_equal(
            reconstruct_from_soft(lasso(v, lamv), lamv), hard_threshold(v, lamv)
        )
        chain2 = np.array_equal(lasso(v, lamv), lasso(hard_threshold(v, lamv), lamv))
        chain3 = np.array_equal(nnls(v), positive_part(v))
        ok = chain1 and chain2 and chain3
        summary.record("vector_chains", {"n": 50, "lam": lamv}, ok, 0.0 if ok else 1.0)


def _corrupt_mask(x: SymMatrix, lam: float) -> MaskProjection | None:
    mask = slc(SymMatrix.wrap(np.abs(x.dense())), lam)
    d = mask.dense()
    xd = np.abs(x.dense())
    required = np.argwhere(np.triu(xd > lam, k=1) & (d > 0))
    if not required.size:
        return None
    i, j = required[0]
    d[i, j] = d[j, i] = 0.0
    return MaskProjection(GroupId.DIAGONAL_CONJUGATION, matrix=SymMatrix.wrap(d))


def _suite_clustering(summary: SuiteSummary, rng, sizes):
    for p in sizes:
        x = random_instance(rng, p)
        for lam in lambda_grid(x, 5):
            lam = float(lam)
            a = threshold_components(x, lam)
            b = cut_dendrogram(mst_kruskal(x), lam)
            mask = slc(SymMatrix.wrap(np.abs(x.dense())), lam)
            c = components(mask.dense())
            ok = a == b == c
            summary.record("clustering_routes", {"p": p, "lam": lam}, ok, 0.0 if ok else 1.0)
            ok_ultra = is_binary_ultrametric(mask)
            w = np.linalg.eigvalsh(mask.dense())
            summary.record(
                "mask_ultrametric_psd", {"p": p, "lam": lam},
                ok_ultra and w[0] >= -1e-10, max(0.0, -float(w[0])),
            )


def _suite_minimality(summary: SuiteSummary, rng, sizes):
    for p in [s for s in sizes if s <= 5] or [4, 5]:
        for _ in range(3):
            x = random_instance(rng, p)
            lam = float(np.quantile(np.abs(x.dense()[~np.eye(p, dtype=bool)]), 0.5))
            ok = check_minimality_slc(x, lam)
            summary.record("slc_minimality", {"p": p, "lam": lam}, ok, 0.0 if ok else 1.0)


def _suite_orbitope(summary: SuiteSummary, rng, sizes):
    from .orbit import arcsin_map

    for p in [s for s in sizes if s <= 6] or [4, 6]:
        for _ in range(3):
            x = random_instance(rng, p)
            d = x.dense()
            scale = np.sqrt(np.outer(np.diag(d), np.diag(d)))
            corr = SymMatrix.from_dense(d / scale, asym_tol=1e-6)
            mapped = arcsin_map(corr)
            ok = cut_membership(mapped)
            summary.record("arcsin_in_cut", {"p": p}, ok, 0.0 if ok else 1.0)
            lam = float(np.quantile(np.abs(d[~np.eye(p, dtype=bool)]), 0.5))
            mask = slc(SymMatrix.wrap(np.abs(x.dense())), lam)
            ok2 = conj_majorizes(x, hadamard(mask, x))
            summary.record("mask_majorizes", {"p": p, "lam": lam}, ok2, 0.0 if ok2 else 1.0)


def run_suite(
    seed: int = 0,
    sizes: tuple[int, ...] = (4, 5, 6, 8),
    families: tuple[str, ...] = (),
    suites: tuple[str, ...] = ("all",),
) -> SuiteSummary:
    """Run the named invariant suites over seeded random instances.

    suites: subset of {"sufficiency", "clustering", "minimality",
    "orbitope"} or "all".  Empty ``families`` means every family; a name
    the sufficiency suite does not check raises ValueError.  Failures are
    recorded in the summary rather than raised.
    """
    known = {"sufficiency", "clustering", "minimality", "orbitope"}
    expand = set(known if "all" in suites else suites)
    bad = expand - known
    if bad:
        raise ValueError(f"unknown suites: {sorted(bad)}")
    checked = {spec.family.value for spec in _default_specs(0.0)} | {Family.ISING_PMLE.value}
    if set(families) - checked:
        raise ValueError(f"unknown families: {sorted(set(families) - checked)}; "
                         f"valid: {', '.join(sorted(checked))}")
    start = time.perf_counter()
    summary = SuiteSummary(seed=seed)
    rng = np.random.default_rng(seed)
    if "sufficiency" in expand:
        _suite_sufficiency(summary, rng, sizes, tuple(families))
    if "clustering" in expand:
        _suite_clustering(summary, rng, sizes)
    if "minimality" in expand:
        _suite_minimality(summary, rng, sizes)
    if "orbitope" in expand:
        _suite_orbitope(summary, rng, sizes)
    summary.elapsed_seconds = time.perf_counter() - start
    return summary
