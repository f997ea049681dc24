"""Recover a planted two-community structure by three different routes.

Builds a p-variable covariance with two equally sized communities, then at a
separating threshold compares the block structure found by
  1. single-linkage clustering of the entry magnitudes,
  2. the connected components of the sparse inverse-covariance support,
  3. the connected components of the penalized subspace-estimate support.

Run:  python3 scripts/two_community_demo.py --p 40 --lam 0.3
"""

import argparse
import sys

import numpy as np

from suffreduce.estimators import (
    EstimatorSpec,
    Family,
    SolverOptions,
    glasso,
    solve,
)
from suffreduce.instances import two_community
from suffreduce.linkage import components, cut_dendrogram, mst_kruskal
from suffreduce.penalty import PenaltyKind, PenaltySpec
from suffreduce.symmat import SymMatrix


def support_blocks(theta, rel_tol=1e-8):
    td = theta.dense()
    return components(np.abs(td) > rel_tol * np.max(np.abs(td)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=int, default=40)
    ap.add_argument("--within", type=float, default=0.6)
    ap.add_argument("--cross", type=float, default=0.05)
    ap.add_argument("--lam", type=float, default=0.3)
    args = ap.parse_args(argv)

    x = two_community(args.p, within=args.within, cross=args.cross)
    w = SymMatrix.wrap(np.abs(x.dense()))

    dend = mst_kruskal(w)
    linkage_blocks = cut_dendrogram(dend, args.lam)
    print(f"linkage cut at {args.lam}: {len(linkage_blocks.blocks)} blocks")
    for b in linkage_blocks.blocks:
        print("  ", b)

    g = glasso(x, args.lam, SolverOptions(tol=1e-8))
    gb = support_blocks(g.theta)
    print(f"inverse-covariance support: {len(gb.blocks)} blocks "
          f"(kkt {g.kkt_residual:.1e}, {g.iterations} iters)")

    spec = EstimatorSpec(
        Family.FANTOPE_SPCA,
        PenaltySpec(PenaltyKind.SYMMETRIC_L1, args.lam),
        k=2,
        opts=SolverOptions(tol=1e-8),
    )
    f = solve(spec, x)
    fb = support_blocks(f.theta)
    print(f"subspace-estimate support:  {len(fb.blocks)} blocks "
          f"(kkt {f.kkt_residual:.1e}, {f.iterations} iters)")

    agree = linkage_blocks == gb == fb
    print("all three routes agree" if agree else "routes DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
