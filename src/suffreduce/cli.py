"""Command line entry point.

Six verbs: cov, cluster, threshold, solve, verify, bench.  Matrices move
through headerless CSV, reports through JSON.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .estimators import (
    ISING_MAX_P,
    ConvergenceError,
    EstimatorSpec,
    Family,
    NoSolutionError,
    SolverOptions,
    solve,
    solve_decomposed,
)
from .instances import random_instance, sign_instance
from .io import read_matrix_csv, read_votes_csv, write_json, write_matrix_csv
from .linkage import cluster_matrix, cut_dendrogram, mst_kruskal
from .penalty import GroupId, PenaltyKind, PenaltySpec
from .reductions import reduce_input
from .symmat import SymMatrix, uncentered_covariance
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

ESTIMATOR_NAMES = {
    "glasso": Family.GLASSO,
    "fps": Family.FANTOPE_SPCA,
    "sparse_cov": Family.SPARSE_COV,
    "positive_invcov": Family.POSITIVE_INVCOV,
    "ising": Family.ISING_PMLE,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffreduce",
        description="Screening reductions and solvers for penalized second-moment estimators.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_cov = sub.add_parser("cov", help="uncentered covariance V'V/n from an observation csv")
    p_cov.add_argument("votes", help="csv of observations, one row per record")
    p_cov.add_argument("-o", "--output", required=True, help="output matrix csv")
    p_cov.add_argument(
        "--general", action="store_true",
        help="allow arbitrary real entries instead of {-1,0,1}",
    )

    p_cluster = sub.add_parser("cluster", help="single-linkage dendrogram and optional cut")
    p_cluster.add_argument("matrix", help="square symmetric matrix csv")
    p_cluster.add_argument("--lam", type=float, default=None, help="cut height (strict)")
    p_cluster.add_argument("--dendrogram", required=True, help="output dendrogram json")
    p_cluster.add_argument("--clusters", default=None, help="output cluster matrix csv (needs --lam)")

    p_thr = sub.add_parser("threshold", help="single-linkage masking of a symmetric matrix")
    p_thr.add_argument("matrix", help="square symmetric matrix csv")
    p_thr.add_argument("--mode", choices=("l1", "positive"), default="l1",
                       help="l1: mask by |x| linkage above --lam; positive: signed linkage at 0")
    p_thr.add_argument("--lam", type=float, default=None, help="threshold level (l1 mode)")
    p_thr.add_argument("-o", "--output", required=True, help="output reduced matrix csv")
    p_thr.add_argument("--mask", default=None, help="optional output csv for the binary mask")

    p_solve = sub.add_parser("solve", help="run one estimator, optionally block-decomposed")
    p_solve.add_argument("matrix", help="input second-moment matrix csv")
    p_solve.add_argument("--estimator", required=True, choices=sorted(ESTIMATOR_NAMES))
    p_solve.add_argument("--lam", type=float, default=0.0, help="l1 penalty level")
    p_solve.add_argument("--k", type=int, default=1, help="subspace dimension (fps)")
    p_solve.add_argument("--eps", type=float, default=0.0, help="eigenvalue floor (sparse_cov)")
    p_solve.add_argument("--penalize-diagonal", action="store_true",
                         help="penalize diagonal entries too (glasso)")
    p_solve.add_argument("--decompose", choices=("on", "off"), default="off")
    p_solve.add_argument("--tol", type=float, default=1e-9)
    p_solve.add_argument("--max-iter", type=int, default=10000)
    p_solve.add_argument("-o", "--output", required=True, help="output estimate csv")
    p_solve.add_argument("--report", default=None, help="output solve report json")

    p_verify = sub.add_parser("verify", help="run randomized invariant suites")
    p_verify.add_argument("--suite", default="all",
                          choices=("sufficiency", "clustering", "minimality", "orbitope", "all"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--sizes", default="4,5,6,8", help="comma separated instance sizes")
    p_verify.add_argument("--families", default="", help="comma separated family names (empty: all)")
    p_verify.add_argument("-o", "--output", default=None, help="output summary json")

    p_bench = sub.add_parser("bench", help="direct versus decomposed wall time")
    p_bench.add_argument("--estimator", default="glasso", choices=("glasso", "ising"),
                         help="ising plants sign data and solves directly only at p <= "
                              f"{ISING_MAX_P}")
    p_bench.add_argument("--p", type=int, default=200)
    p_bench.add_argument("--blocks", type=int, default=10)
    p_bench.add_argument("--lam", type=float, default=0.3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", default=None, help="output bench json")
    return parser


def _load_symmetric(path: str) -> SymMatrix:
    a = read_matrix_csv(path)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return SymMatrix.from_dense(a)


def _cmd_cov(args) -> int:
    v = read_votes_csv(args.votes, general=args.general)
    write_matrix_csv(args.output, uncentered_covariance(v).dense())
    return EXIT_OK


def _cmd_cluster(args) -> int:
    x = _load_symmetric(args.matrix)
    if args.clusters is not None and args.lam is None:
        raise ValueError("--clusters requires --lam")
    dend = mst_kruskal(x)
    part = None if args.clusters is None else cut_dendrogram(dend, args.lam)  # checks --lam
    write_json(args.dendrogram, dend.to_dict())
    if part is not None:
        write_matrix_csv(args.clusters, cluster_matrix(part).dense())
    return EXIT_OK


def _cmd_threshold(args) -> int:
    x = _load_symmetric(args.matrix)
    if args.mode == "l1":
        if args.lam is None:
            raise ValueError("--mode l1 requires --lam")
        penalty = PenaltySpec(PenaltyKind.SYMMETRIC_L1, args.lam)
    else:
        penalty = PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)
    rp = reduce_input(penalty, GroupId.DIAGONAL_CONJUGATION, x)
    write_matrix_csv(args.output, rp.reduced.dense())
    if args.mask is not None:
        write_matrix_csv(args.mask, rp.mask.matrix.dense())
    return EXIT_OK


def _penalty_for(family: Family, lam: float) -> PenaltySpec:
    if family is Family.POSITIVE_INVCOV:
        return PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)
    return PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam)


def _cmd_solve(args) -> int:
    x = _load_symmetric(args.matrix)
    family = ESTIMATOR_NAMES[args.estimator]
    spec = EstimatorSpec(
        family,
        _penalty_for(family, args.lam),
        k=args.k,
        eps=args.eps,
        penalize_diagonal=args.penalize_diagonal,
        opts=SolverOptions(tol=args.tol, max_iter=args.max_iter),
    )
    start = time.perf_counter()
    if args.decompose == "on":
        report = solve_decomposed(spec, x)
    else:
        report = solve(spec, x)
    elapsed = time.perf_counter() - start
    write_matrix_csv(args.output, report.theta)
    if args.report is not None:
        payload = {
            "estimator": args.estimator,
            "lam": args.lam,
            "objective": report.objective,
            "kkt_residual": report.kkt_residual,
            "iterations": report.iterations,
            "converged": report.converged,
            "support_size": int(np.sum(report.support)),
            "seconds": elapsed,
            "decomposed": args.decompose == "on",
        }
        if report.blocks is not None:
            payload["blocks"] = [
                {
                    "indices": list(b.indices),
                    "iterations": b.iterations,
                    "seconds": b.seconds,
                }
                for b in report.blocks
            ]
        write_json(args.report, payload)
    if not report.converged:
        raise ConvergenceError(
            f"{args.estimator}: kkt residual {report.kkt_residual:.3e} after "
            f"{report.iterations} iterations"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    if not sizes or any(s < 2 for s in sizes):
        raise ValueError(f"--sizes must list integers >= 2, got {args.sizes!r}")
    families = tuple(f.strip() for f in args.families.split(",") if f.strip())
    summary = run_suite(seed=args.seed, sizes=sizes, families=families, suites=(args.suite,))
    payload = summary.to_dict()
    if args.output is not None:
        write_json(args.output, payload)
    n_fail = len(payload["failures"])
    print(f"verify: {payload['passed']}/{payload['trials']} checks passed "
          f"({payload['elapsed_seconds']:.1f}s)")
    for f in payload["failures"]:
        print(f"  FAIL {f['check']} {f['params']} deviation={f['deviation']:.3e} {f['message']}")
    return EXIT_VERIFY_FAILED if n_fail else EXIT_OK


def _cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    family = ESTIMATOR_NAMES[args.estimator]
    if family is Family.ISING_PMLE:
        # within-block moments near 0.49, cross-block ones near 0 (sd 0.02)
        x = sign_instance(rng, args.p, n_obs=2000, n_blocks=args.blocks, flip_prob=0.15)
    else:
        x = random_instance(rng, args.p, n_blocks=args.blocks, within=0.6, cross=0.0)
    spec = EstimatorSpec(
        family,
        PenaltySpec(PenaltyKind.SYMMETRIC_L1, args.lam),
        opts=SolverOptions(tol=1e-7),
    )
    # the Ising enumeration of the whole input is capped; its blocks are not
    solve_direct = family is not Family.ISING_PMLE or args.p <= ISING_MAX_P
    t0 = time.perf_counter()
    direct = solve(spec, x) if solve_direct else None
    t1 = time.perf_counter()
    decomposed = solve_decomposed(spec, x)
    t2 = time.perf_counter()
    payload = {
        "estimator": args.estimator,
        "p": args.p,
        "blocks": args.blocks,
        "lam": args.lam,
        "seed": args.seed,
        "solved_directly": solve_direct,
        "seconds_direct": None,
        "seconds_decomposed": t2 - t1,
        "speedup": None,
        "max_deviation": None,
        "iterations_direct": None,
        "iterations_decomposed": decomposed.iterations,
        # the blocks certified at a closed-form start, with no iteration
        "blocks_at_start": sum(b.iterations == 0 for b in decomposed.blocks),
    }
    reports = [("decomposed", decomposed)]
    if direct is None:
        message = (f"bench: decomposed {payload['seconds_decomposed']:.2f}s; no direct solve, "
                   f"as {args.estimator} enumerates at most {ISING_MAX_P} spins at once")
    else:
        reports.insert(0, ("direct", direct))
        payload.update(
            seconds_direct=t1 - t0,
            speedup=(t1 - t0) / max(t2 - t1, 1e-12),
            max_deviation=float(np.max(np.abs(direct.theta.dense() - decomposed.theta.dense()))),
            iterations_direct=direct.iterations,
        )
        message = (f"bench: direct {payload['seconds_direct']:.2f}s, "
                   f"decomposed {payload['seconds_decomposed']:.2f}s, "
                   f"speedup {payload['speedup']:.1f}x, deviation {payload['max_deviation']:.2e}")
    if args.output is not None:
        write_json(args.output, payload)
    print(message)
    for way, report in reports:
        if not report.converged:
            raise ConvergenceError(
                f"{way} {args.estimator}: kkt residual {report.kkt_residual:.3e} after "
                f"{report.iterations} iterations"
            )
    return EXIT_OK


_DISPATCH = {
    "cov": _cmd_cov,
    "cluster": _cmd_cluster,
    "threshold": _cmd_threshold,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.verb](args)
    except (ConvergenceError, NoSolutionError) as exc:
        print(f"suffreduce {args.verb}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"suffreduce {args.verb}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
