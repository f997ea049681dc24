"""Ten end-to-end gates, one test per criterion.

Each test prints a single summary line (visible with -s or on failure) and
enforces the documented tolerance and time budget.  Criteria 1-3 share the
session battery fixture from conftest.
"""

import json
import time

import numpy as np

from suffreduce.cli import main as cli_main
from suffreduce.estimators import (
    EstimatorSpec,
    Family,
    SolverOptions,
    glasso,
    ising_logpartition,
    ising_pmle,
    lasso,
    nnls,
    solve,
)
from suffreduce.instances import lambda_grid, sign_instance, two_community
from suffreduce.linkage import (
    Partition,
    components,
    is_binary_ultrametric,
    slc,
    slt,
    slt_plus,
    threshold_components,
)
from suffreduce.orbit import arcsin_map, cut_membership
from suffreduce.penalty import PenaltyKind, PenaltySpec
from suffreduce.reductions import (
    hard_threshold,
    positive_part,
    reconstruct_from_soft,
)
from suffreduce.symmat import SymMatrix
from suffreduce.verify import check_minimality_slc, check_support_containment

OPTS = SolverOptions(tol=1e-8)


def support_partition(theta: SymMatrix) -> Partition:
    td = theta.dense()
    return components(np.abs(td) > 1e-8 * float(np.max(np.abs(td))))


def report(n, name, start, detail):
    print(f"criterion {n:02d} {name}: PASS ({time.perf_counter() - start:.1f}s, {detail})")


def test_criterion_01_support_components_equal_threshold_components(battery):
    start = time.perf_counter()
    checked = 0
    for x in battery:
        for lam in lambda_grid(x, 10):
            lam = float(lam)
            rep = glasso(x, lam, OPTS)
            assert support_partition(rep.theta) == threshold_components(x, lam)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(1, "screening equals thresholding", start, f"{checked} solves")


def test_criterion_02_reduced_solves_match_full_solves(battery):
    start = time.perf_counter()
    worst = 0.0

    def deviation(spec, x, reduced):
        full_rep = solve(spec, x)
        red_rep = solve(spec, reduced)
        full = full_rep.theta.dense()
        red = red_rep.theta.dense()
        return float(np.max(np.abs(full - red)))

    for x in battery:
        for q in (0.4, 0.7):
            lam = float(np.quantile(np.abs(x.dense()[~np.eye(x.p, dtype=bool)]), q))
            pen = PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam)
            red = slt(x, lam)
            for spec in (
                EstimatorSpec(Family.GLASSO, pen, opts=OPTS),
                EstimatorSpec(Family.SPARSE_COV, pen, eps=0.01, opts=OPTS),
            ):
                worst = max(worst, deviation(spec, x, red))
        spec = EstimatorSpec(
            Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), opts=OPTS
        )
        worst = max(worst, deviation(spec, x, slt_plus(x)))
    gen = np.random.default_rng(77)
    ising_opts = SolverOptions(tol=1e-10)
    for p in (4, 6, 8):
        for _ in range(5):
            x = sign_instance(gen, p)
            lam = float(np.quantile(np.abs(x.dense()[~np.eye(p, dtype=bool)]), 0.5))
            spec = EstimatorSpec(
                Family.ISING_PMLE,
                PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                opts=ising_opts,
            )
            worst = max(worst, deviation(spec, x, slt(x, lam)))
    assert worst <= 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(2, "reduction sufficiency", start, f"worst deviation {worst:.2e}")


def test_criterion_03_subspace_support_contained_in_blocks(battery):
    start = time.perf_counter()
    checked = 0
    # the containment gate is 1e-6 relative, so a 1e-7 solve is enough; the
    # linear objective makes the tail of the splitting method slow on some
    # instances, hence the raised iteration cap
    opts = SolverOptions(tol=1e-7, max_iter=100000)
    for x in battery:
        grid = lambda_grid(x, 10)
        for k in (1, 2):
            for lam in grid:
                lam = float(lam)
                spec = EstimatorSpec(
                    Family.FANTOPE_SPCA,
                    PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                    k=k,
                    opts=opts,
                )
                rep = solve(spec, x)
                part = threshold_components(x, lam)
                assert check_support_containment(rep.theta, part, tol=1e-6) == []
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, "subspace support containment", start, f"{checked} solves")


def test_criterion_04_linkage_mask_is_unique_minimizer():
    start = time.perf_counter()
    gen = np.random.default_rng(41)
    from suffreduce.instances import random_instance

    for p in (3, 4, 5):
        for _ in range(20):
            x = random_instance(gen, p)
            off = np.abs(x.dense()[~np.eye(p, dtype=bool)])
            lam = float(np.quantile(off, float(gen.uniform(0.1, 0.9))))
            assert check_minimality_slc(x, lam)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, "mask minimality by enumeration", start, "60 enumerations")


def test_criterion_05_ultrametric_iff_psd():
    start = time.perf_counter()
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 4)]
    for code in range(64):
        b = np.eye(4)
        for bit, (i, j) in enumerate(pairs):
            b[i, j] = b[j, i] = float((code >> bit) & 1)
        ultra = is_binary_ultrametric(SymMatrix.wrap(b))
        psd = np.linalg.eigvalsh(b)[0] >= -1e-10
        assert ultra == psd
    gen = np.random.default_rng(5)
    for _ in range(200):
        b = np.eye(6)
        iu = np.triu_indices(6, 1)
        bits = gen.integers(0, 2, size=iu[0].size).astype(float)
        b[iu] = bits
        b.T[iu] = bits
        ultra = is_binary_ultrametric(SymMatrix.wrap(b))
        psd = np.linalg.eigvalsh(b)[0] >= -1e-10
        assert ultra == psd
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "ultrametric equals psd", start, "64 exhaustive + 200 random")


def test_criterion_06_rescaled_arcsine_stays_in_hull():
    start = time.perf_counter()
    gen = np.random.default_rng(6)
    from suffreduce.instances import random_instance

    count = 0
    for p in (2, 3, 4, 5, 6):
        for _ in range(20):
            x = random_instance(gen, p)
            d = x.dense()
            corr = d / np.sqrt(np.outer(np.diag(d), np.diag(d)))
            np.fill_diagonal(corr, 1.0)
            mapped = arcsin_map(SymMatrix.from_dense(corr, asym_tol=1e-8))
            assert cut_membership(mapped)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, "arcsine image in sign hull", start, f"{count} matrices")


def test_criterion_07_closed_form_chains_bitwise():
    start = time.perf_counter()
    gen = np.random.default_rng(7)
    x = gen.standard_normal((10000, 32)) * gen.choice([0.1, 1.0, 10.0], size=(10000, 1))
    for lam in (0.25, 0.5, 1.0, 1.5):
        assert np.array_equal(reconstruct_from_soft(lasso(x, lam), lam), hard_threshold(x, lam))
        assert np.array_equal(lasso(x, lam), lasso(hard_threshold(x, lam), lam))
    assert np.array_equal(nnls(x), positive_part(x))
    assert np.array_equal(nnls(positive_part(x)), positive_part(x))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, "closed-form chains bitwise", start, "10000 vectors x 4 levels")


def test_criterion_08_moment_oracle():
    start = time.perf_counter()
    gen = np.random.default_rng(8)
    worst = 0.0
    h = 1e-5
    for p in (2, 3, 4, 5, 6):
        a = gen.standard_normal((p, p)) * 0.5
        theta = (a + a.T) / 2
        np.fill_diagonal(theta, 0.0)
        _, moment = ising_logpartition(SymMatrix.from_dense(theta))
        for i in range(p - 1):
            for j in range(i + 1, p):
                up, dn = theta.copy(), theta.copy()
                up[i, j] = up[j, i] = theta[i, j] + h
                dn[i, j] = dn[j, i] = theta[i, j] - h
                fd = (
                    ising_logpartition(SymMatrix.wrap(up))[0]
                    - ising_logpartition(SymMatrix.wrap(dn))[0]
                ) / (2 * h)
                worst = max(worst, abs(fd - 2 * moment.entry(i, j)))
    assert worst <= 1e-6
    x = SymMatrix.from_dense(np.array([[1.0, 0.5], [0.5, 1.0]]))
    rep = ising_pmle(x, 0.0, SolverOptions(tol=1e-11))
    gap = abs(rep.theta.entry(0, 1) - np.arctanh(0.5) / 2)
    assert gap <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, "moment oracle", start, f"fd error {worst:.1e}, stationary gap {gap:.1e}")


def test_criterion_09_block_decomposition_benchmark(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench.json"
    assert cli_main(
        ["bench", "--p", "200", "--blocks", "10", "--lam", "0.3", "-o", str(out)]
    ) == 0
    b = json.loads(out.read_text())
    assert b["max_deviation"] <= 1e-5  # hard gate
    # the speedup target is hardware dependent: recorded, not asserted
    report(
        9,
        "decomposition benchmark",
        start,
        f"deviation {b['max_deviation']:.1e}, speedup {b['speedup']:.1f}x "
        f"(soft target 3x)",
    )


def test_criterion_10_two_community_structure_agreement():
    start = time.perf_counter()
    x = two_community(40, within=0.6, cross=0.05)
    lam = 0.3
    planted = Partition.from_blocks([tuple(range(20)), tuple(range(20, 40))], 40)

    w = SymMatrix.wrap(np.abs(x.dense()))
    mask_part = threshold_components(x, lam)
    assert mask_part == planted
    assert np.array_equal(
        slc(w, lam).dense(),
        np.kron(np.eye(2), np.ones((20, 20))),
    )

    g = glasso(x, lam, OPTS)
    assert support_partition(g.theta) == planted

    spec = EstimatorSpec(
        Family.FANTOPE_SPCA, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam), k=2, opts=OPTS
    )
    f = solve(spec, x)
    assert support_partition(f.theta) == planted

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, "two-community agreement", start, "3 routes, exact 2-block recovery")
