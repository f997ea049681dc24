"""Check that a git revision and the working tree give bit-identical results.

    python3 scripts/parity.py --against HEAD~1

Exports ``<rev>`` with ``git archive`` into a temporary directory, then runs
one fixed set of calls twice, each time in a fresh subprocess: once
importing the library from the exported ``src/`` and once from this tree's
``src/``.  The set is

- the acceptance battery at seeds 20240817 and 7 (50 instances each):
  glasso and sparse_cov at the 0.4 and 0.7 off-diagonal quantiles, glasso
  with a penalized diagonal at the 0.7 quantile (its 1x1 blocks certify
  at their start 1 / (x_ii + lam_ii)), positive_invcov, and fantope_spca
  (k = 2), each through ``solve`` and ``solve_decomposed``, with
  ``kkt_residual`` and ``objective_at`` at the solution and at a perturbed,
  non-optimal point;
- glasso, positive_invcov and Ising on inputs whose blocks are all 1x1, at
  p = 1 and p = 12, the same way: stacks of 1x1 blocks in the solve and
  in the certificate;
- Ising pseudo-likelihood at p = 6, 8, 10, 12, the same way;
- ``ising_logpartition`` on seeded couplings at p = 1, 2, 7, 12 and 15, so
  that the state enumeration is pinned directly and not only through the
  Ising solves;
- decomposed Ising on one planted p = 60 sign input per seed (5 blocks of
  12, n_obs 2000, flip_prob 0.15, lambda 0.2, tol 1e-8): the reduction and
  ``solve_decomposed`` alone, as a direct solve and the p x p check would
  enumerate all 60 spins, above the cap of 15;
- decomposed glasso on one planted p = 500 input (25 blocks) per seed at
  the eight lambdas 0.30 .. 0.66, with ``kkt_residual`` and
  ``objective_at`` at each solution: the p x p check on the one-block
  partition, at the points whose blocks the decomposed solve certifies
  from its stacks;
- glasso (lambda 0.3), sparse_cov (eps 0.5, lambda 0.3) and positive_invcov,
  the same way, on one planted p = 200 input per seed with ten 20x20 blocks
  (its off-block entries made nonpositive for positive_invcov): decomposed
  solves that run ten blocks as one stack, which they leave at different
  iterations;
- glasso with a symmetric weight matrix, with and without a penalized
  diagonal, and lasso and nnls, through ``solve``, ``kkt_residual`` and
  ``objective_at``;
- ``reduction_for`` and ``reduce_input`` for every spec above;
- the screening routes on every battery input, on the planted p = 500
  inputs and on one 16 x 16 and one 200 x 200 input per seed whose |x_ij|
  take only four values (ties everywhere): ``mst_kruskal`` once, then
  ``threshold_components`` and ``cut_dendrogram`` at each of the ten
  ``lambda_grid`` points;
- the same routes on one shuffled chain per seed: p = 500 items joined
  only along a random order, by distinct weights, cut at ten quantiles of
  the chain weights.  At the lowest cut the threshold graph is one path
  through all 500 items, the most rounds a component labelling takes.

Per item it compares the SHA-256 of theta and of the support, the
iteration count, the block iteration counts, the KKT residual and the
objective as float hex, the ``converged`` flag, the log partition function
as float hex and the SHA-256 of the moment matrix, the reduction pair and the
reduced input, mask and partition, the dendrogram merges (ids, heights as
float hex) and the partition blocks of each screening route, or the
exception raised.  Exits 0 when every item is identical and no call raised
on either side, 1 otherwise.

When items differ it prints how many of each kind (solve, certificate or
objective at a point, enumeration, reduction, screening) differ, how many
differing solves and points belong to each family, the full digests of the
differing reductions and screening routes, and per family the deviation of
the differing solves: the largest |theta_after - theta_before| / (1 +
max|x|), the largest |objective_after - objective_before| / (1 +
|objective_before|), how many supports changed, how many solves report
``converged`` on each side, and the iteration totals on each side; for the
differing enumerations, the largest |logZ_after - logZ_before| / |logZ_before|
and the largest |moment_after - moment_before|.  A change
that alters the solver's iterates on purpose is judged by that table, while
its screening and reduction items must stay identical.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20240817, 7)
PLANTED_LAMS = tuple(float(v) for v in np.linspace(0.30, 0.66, 8))


def _sha(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    return hashlib.sha256(a.tobytes()).hexdigest()


def _hex(v) -> str:
    return float(v).hex()


def _pack(a) -> str:
    """theta as compressed float64 bytes; mostly zero thetas pack small."""
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    return base64.b64encode(zlib.compress(a.tobytes())).decode()


def _unpack(text: str) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=float)


def _report(rep) -> dict:
    return {
        "theta": _sha(rep.theta),
        "support": _sha(rep.support),
        "iterations": rep.iterations,
        "blocks": None if rep.blocks is None else [b.iterations for b in rep.blocks],
        "kkt": _hex(rep.kkt_residual),
        "objective": _hex(rep.objective),
        "converged": bool(rep.converged),
    }


def _quantile(x, q: float) -> float:
    d = np.abs(x.dense())
    return float(np.quantile(d[~np.eye(x.p, dtype=bool)], q))


class _Dump:
    """The fixed call set, run against whichever suffreduce is importable."""

    def __init__(self):
        from suffreduce import estimators
        from suffreduce.reductions import reduce_input

        self.est = estimators
        self.reduce_input = reduce_input
        self.out: dict = {}

    def record(self, key: str, call):
        """Store call()'s digest under key, or the exception it raised."""
        try:
            value, digest = call()
        except Exception as exc:  # a raise is a result to compare
            self.out[key] = {"raised": f"{type(exc).__name__}: {exc}"}
            return None
        self.out[key] = digest
        return value

    def solved(self, key: str, way: str, spec, x):
        def call():
            rep = getattr(self.est, way)(spec, x)
            # the values behind the deviation table; equal exactly when the
            # theta hash is
            return rep, dict(_report(rep), family=spec.family.value, theta_z=_pack(rep.theta),
                             x_scale=_hex(1.0 + np.max(np.abs(np.asarray(x)))))
        return self.record(f"{key}/{way}", call)

    def point(self, key: str, spec, x, theta):
        self.record(key, lambda: (None, {
            "kkt": _hex(self.est.kkt_residual(spec, x, theta)),
            "objective": _hex(self.est.objective_at(spec, x, theta)),
            "family": spec.family.value,
        }))

    def reduction(self, key: str, spec, x):
        def call():
            penalty, group = self.est.reduction_for(spec)
            rp = self.reduce_input(penalty, group, x)
            mask = rp.mask.vector if rp.mask.matrix is None else rp.mask.matrix
            weights = None if penalty.weights is None else _sha(penalty.weights)
            return None, {
                "penalty": [penalty.kind.value, weights],
                "group": group.value,
                "reduced": _sha(rp.reduced),
                "mask": _sha(mask),
                "partition": None if rp.partition is None else rp.partition.blocks,
            }
        self.record(f"{key}/reduction", call)

    def screening(self, key: str, x, lams=None):
        """The dendrogram of x, and the threshold-graph components and the
        dendrogram cut at each of ``lams``, by default x's ten lambda_grid
        points."""
        from suffreduce import linkage
        from suffreduce.instances import lambda_grid

        def kruskal():
            dend = linkage.mst_kruskal(x)
            return dend, [[a, b, _hex(h)] for a, b, h in dend.merges]

        dend = self.record(f"{key}/mst_kruskal", kruskal)
        if lams is None:
            lams = lambda_grid(x, 10)
        for j, lam in enumerate(float(v) for v in lams):
            self.record(f"{key}/{j}/threshold_components", lambda: (None, {
                "lam": _hex(lam), "blocks": linkage.threshold_components(x, lam).blocks}))
            if dend is not None:
                self.record(f"{key}/{j}/cut_dendrogram",
                            lambda: (None, linkage.cut_dendrogram(dend, lam).blocks))

    def matrix_spec(self, key: str, spec, x, gen, decompose: bool = True):
        """solve and, with ``decompose``, the reduction and solve_decomposed;
        the certificate and objective at each solution and at a perturbed
        point."""
        ways = ("solve",)
        if decompose:
            self.reduction(key, spec, x)
            ways += ("solve_decomposed",)
        for way in ways:
            rep = self.solved(key, way, spec, x)
            if rep is None:
                continue
            self.point(f"{key}/{way}/at_solution", spec, x, rep.theta)
            t = np.asarray(rep.theta, dtype=float)
            e = gen.standard_normal(t.shape)
            t = 0.9 * t + 0.01 * (e + e.T)
            if spec.family is self.est.Family.ISING_PMLE:
                np.fill_diagonal(t, 0.0)
            self.point(f"{key}/{way}/perturbed", spec, x, t)

    def singletons(self, seed: int, opts, pert):
        """Inputs whose screening partition is all 1x1 blocks: a penalty
        above every off-diagonal magnitude, or no positive off-diagonal
        entry for positive_invcov."""
        from suffreduce.instances import random_instance, sign_instance
        from suffreduce.penalty import PenaltyKind, PenaltySpec

        Spec, Fam = self.est.EstimatorSpec, self.est.Family
        gen = np.random.default_rng([seed, 3])
        for p in (1, 12):
            a = random_instance(gen, p).dense()
            diag = np.diag(np.diag(a))
            lam = 1.01 * float(np.max(np.abs(a - diag))) + 0.1
            self.matrix_spec(f"singletons/{seed}/{p}/glasso",
                             Spec(Fam.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                                  opts=opts),
                             a, pert)
            self.matrix_spec(f"singletons/{seed}/{p}/positive_invcov",
                             Spec(Fam.POSITIVE_INVCOV,
                                  PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), opts=opts),
                             diag - 0.01 * np.abs(a - diag), pert)
            xs = sign_instance(gen, p).dense()
            lam = 1.01 * float(np.max(np.abs(xs - np.diag(np.diag(xs))))) + 0.1
            self.matrix_spec(f"singletons/{seed}/{p}/ising",
                             Spec(Fam.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                                  opts=self.est.SolverOptions(tol=1e-10)),
                             xs, pert)

    def enumeration(self, seed: int):
        """ising_logpartition on seeded couplings with a zero diagonal."""
        from suffreduce.symmat import SymMatrix

        gen = np.random.default_rng([seed, 5])
        for p in (1, 2, 7, 12, 15):
            a = 0.3 * np.triu(gen.standard_normal((p, p)), 1)
            theta = SymMatrix.wrap(a + a.T)

            def call():
                logz, moment = self.est.ising_logpartition(theta)
                return None, {"logz": _hex(logz), "moment": _sha(moment),
                              "moment_z": _pack(moment)}
            self.record(f"enumeration/{seed}/{p}/ising_logpartition", call)

    def stacks(self, seed: int, pert):
        """Inputs whose screening partition is ten 20x20 blocks, which a
        decomposed solve runs as one stack."""
        from suffreduce.instances import random_instance
        from suffreduce.penalty import PenaltyKind, PenaltySpec

        Spec, Fam = self.est.EstimatorSpec, self.est.Family
        x = random_instance(np.random.default_rng(seed), 200, n_blocks=10, within=0.6, cross=0.0)
        l1 = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)
        self.matrix_spec(f"stacks/{seed}/glasso", Spec(Fam.GLASSO, l1), x, pert)
        self.matrix_spec(f"stacks/{seed}/sparse_cov", Spec(Fam.SPARSE_COV, l1, eps=0.5), x, pert)
        block = np.arange(200) // 20
        d = x.dense()
        self.matrix_spec(f"stacks/{seed}/positive_invcov",
                         Spec(Fam.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)),
                         np.where(block[:, None] == block[None, :], d, -np.abs(d)), pert)

    def run(self) -> dict:
        from suffreduce.instances import random_instance, sign_instance
        from suffreduce.penalty import PenaltyKind, PenaltySpec
        from suffreduce.symmat import SymMatrix

        est = self.est
        Spec, Fam, Opts = est.EstimatorSpec, est.Family, est.SolverOptions
        crit = Opts(tol=1e-8)

        def l1(lam):
            return PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam)

        for seed in SEEDS:
            gen = np.random.default_rng(seed)
            pert = np.random.default_rng([seed, 2])
            for i in range(50):
                p = (10, 20, 30)[i % 3]
                n_blocks = int(gen.integers(1, 5))
                cross = float(gen.choice([0.0, 0.05, 0.1]))
                x = random_instance(gen, p, n_blocks=n_blocks, cross=cross)
                key = f"battery/{seed}/{i}"
                self.screening(f"{key}/screening", x)
                for q in (0.4, 0.7):
                    lam = _quantile(x, q)
                    self.matrix_spec(f"{key}/glasso/q{q}", Spec(Fam.GLASSO, l1(lam), opts=crit),
                                     x, pert)
                    self.matrix_spec(f"{key}/sparse_cov/q{q}",
                                     Spec(Fam.SPARSE_COV, l1(lam), eps=0.01, opts=crit), x, pert)
                self.matrix_spec(f"{key}/glasso_penalized_diagonal/q0.7",
                                 Spec(Fam.GLASSO, l1(_quantile(x, 0.7)), penalize_diagonal=True,
                                      opts=crit),
                                 x, pert)
                self.matrix_spec(
                    f"{key}/positive_invcov",
                    Spec(Fam.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                         opts=crit),
                    x, pert)
                self.matrix_spec(
                    f"{key}/fantope_spca",
                    Spec(Fam.FANTOPE_SPCA, l1(_quantile(x, 0.6)), k=2,
                         opts=Opts(tol=1e-7, max_iter=100000)),
                    x, pert)
                if i < 10:
                    w = np.abs(pert.standard_normal((p, p))) * _quantile(x, 0.5)
                    for diag in (False, True):
                        self.matrix_spec(
                            f"{key}/glasso_weights/diag{diag}",
                            Spec(Fam.GLASSO, l1((w + w.T) / 2.0), penalize_diagonal=diag,
                                 opts=crit),
                            x, pert, decompose=False)  # a weight matrix has no reduction

            for p in (6, 8, 10, 12):
                xs = sign_instance(gen, p)
                self.matrix_spec(f"ising/{seed}/{p}",
                                 Spec(Fam.ISING_PMLE, l1(_quantile(xs, 0.5)),
                                      opts=Opts(tol=1e-10)),
                                 xs, pert)

            self.enumeration(seed)
            xi = sign_instance(np.random.default_rng([seed, 8]), 60, n_obs=2000, n_blocks=5,
                               flip_prob=0.15)
            spec = Spec(Fam.ISING_PMLE, l1(0.2), opts=Opts(tol=1e-8))
            self.reduction(f"ising_decomposed/{seed}/60", spec, xi)
            self.solved(f"ising_decomposed/{seed}/60", "solve_decomposed", spec, xi)
            self.singletons(seed, crit, pert)
            tied = np.triu(np.random.default_rng([seed, 4]).integers(-3, 4, (16, 16)) / 4.0, 1)
            self.screening(f"tied/{seed}/screening",
                           SymMatrix.wrap(tied + tied.T + 2.0 * np.eye(16)))
            tied = np.triu(np.random.default_rng([seed, 6]).integers(-3, 4, (200, 200)) / 4.0, 1)
            self.screening(f"tied200/{seed}/screening",
                           SymMatrix.wrap(tied + tied.T + 2.0 * np.eye(200)))
            chain_gen = np.random.default_rng([seed, 7])
            order = chain_gen.permutation(500)
            weights = chain_gen.uniform(0.05, 1.0, 499)
            chain = np.zeros((500, 500))
            chain[order[:-1], order[1:]] = weights
            self.screening(f"chain/{seed}/screening", SymMatrix.wrap(chain + chain.T + np.eye(500)),
                           np.quantile(weights, np.linspace(0.0, 1.0, 10)))
            self.stacks(seed, pert)

            xp = random_instance(gen, 500, n_blocks=25, within=0.6, cross=0.05)
            self.screening(f"planted/{seed}/screening", xp)
            for lam in PLANTED_LAMS:
                spec = Spec(Fam.GLASSO, l1(lam), opts=Opts(tol=1e-7))
                key = f"planted/{seed}/{lam:.4f}"
                self.reduction(key, spec, xp)
                rep = self.solved(key, "solve_decomposed", spec, xp)
                if rep is not None:
                    self.point(f"{key}/solve_decomposed/at_solution", spec, xp, rep.theta)

            v = gen.standard_normal(40)
            for name, penalty, family in (
                ("lasso", PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5), Fam.LASSO),
                ("lasso_weights",
                 PenaltySpec(PenaltyKind.ENTRYWISE_L1, np.abs(gen.standard_normal(40))),
                 Fam.LASSO),
                ("nnls", PenaltySpec(PenaltyKind.POSITIVE_CONE), Fam.NNLS),
            ):
                spec, key = Spec(family, penalty), f"vector/{seed}/{name}"
                self.reduction(key, spec, v)
                rep = self.solved(key, "solve", spec, v)
                if rep is not None:
                    self.point(f"{key}/perturbed", spec, v,
                               rep.theta + 0.01 * pert.standard_normal(40))
        return self.out


def _side(src: Path) -> dict:
    """Run the call set in a subprocess that imports the library from src."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump", str(src)],
        capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise SystemExit(f"call set failed against {src}:\n{out.stderr}")
    return json.loads(out.stdout)


_SOLVE_ENDS = ("/solve", "/solve_decomposed")


def _shown(digest):
    """A digest as printed: without the packed theta or moment."""
    if digest is None:
        return digest
    return {k: v for k, v in digest.items() if k not in ("theta_z", "moment_z")}


def _kind(key: str) -> str:
    if key.endswith(_SOLVE_ENDS):
        return "solve"
    if key.endswith(("/at_solution", "/perturbed")):
        return "point"
    if key.endswith("/ising_logpartition"):
        return "enumeration"
    if key.endswith("/reduction"):
        return "reduction"
    return "screening"


def _deviations(pairs) -> None:
    """Per family, how far the differing solves (before, after) moved."""
    families: dict[str, list] = {}
    for b, a in pairs:
        families.setdefault(b["family"], []).append((b, a))
    print(f"  {'family':<16}{'solves':>7}{'max dtheta':>12}{'max dobj':>11}"
          f"{'supp. changed':>15}{'converged':>14}{'iterations':>18}")
    for family, rows in sorted(families.items()):
        dtheta = max(float(np.max(np.abs(_unpack(a["theta_z"]) - _unpack(b["theta_z"])),
                                  initial=0.0)) / float.fromhex(b["x_scale"])
                     for b, a in rows)
        dobj = max(abs(float.fromhex(a["objective"]) - float.fromhex(b["objective"]))
                   / (1.0 + abs(float.fromhex(b["objective"]))) for b, a in rows)
        support = sum(b["support"] != a["support"] for b, a in rows)
        conv = f"{sum(b['converged'] for b, _ in rows)}/{sum(a['converged'] for _, a in rows)}"
        its = (f"{sum(b['iterations'] for b, _ in rows)}->"
               f"{sum(a['iterations'] for _, a in rows)}")
        print(f"  {family:<16}{len(rows):>7}{dtheta:>12.2e}{dobj:>11.2e}"
              f"{support:>15}{conv:>14}{its:>18}")


def _compare(before: dict, after: dict) -> int:
    keys = sorted(set(before) | set(after))
    differ = [k for k in keys if before.get(k) != after.get(k)]
    raised = [k for k in keys
              if "raised" in before.get(k, {}) or "raised" in after.get(k, {})]
    solves = sum(1 for k in keys if k.endswith(_SOLVE_ENDS))
    print(f"parity: {len(keys)} items ({solves} solves), {len(keys) - len(differ)} identical, "
          f"{len(differ)} differ, {len(raised)} raised")
    if differ:
        kinds = [_kind(k) for k in differ]
        print("  differ by kind: " + ", ".join(
            f"{kind} {kinds.count(kind)}"
            for kind in ("solve", "point", "enumeration", "reduction", "screening")))
        families = [(after.get(k) or before.get(k)).get("family") for k in differ
                    if _kind(k) in ("solve", "point")]
        print("  differing solves and points by family: " + ", ".join(
            f"{f} {families.count(f)}" for f in sorted(set(families), key=str)))
    for k in differ:
        if _kind(k) in ("reduction", "screening"):
            print(f"  DIFF {k}\n    before {before.get(k)}\n    after  {after.get(k)}")
    pairs = [(before[k], after[k]) for k in differ
             if _kind(k) == "solve" and k in before and k in after
             and "raised" not in before[k] and "raised" not in after[k]]
    if pairs:
        print("  differing solves: max dtheta = |theta_after - theta_before| / (1 + max|x|), "
              "max dobj = |objective change| / (1 + |objective_before|), "
              "converged and iterations as before/after")
        _deviations(pairs)
    enums = [(before[k], after[k]) for k in differ
             if _kind(k) == "enumeration" and k in before and k in after
             and "raised" not in before[k] and "raised" not in after[k]]
    if enums:
        dlogz = max(abs(float.fromhex(a["logz"]) - float.fromhex(b["logz"]))
                    / abs(float.fromhex(b["logz"])) for b, a in enums)
        dmoment = max(float(np.max(np.abs(_unpack(a["moment_z"]) - _unpack(b["moment_z"]))))
                      for b, a in enums)
        print(f"  differing enumerations: {len(enums)}, max |dlogz| / |logz_before| = "
              f"{dlogz:.2e}, max |dmoment| = {dmoment:.2e}")
    for k in raised:
        print(f"  RAISED {k}: {_shown(before.get(k))} | {_shown(after.get(k))}")
    return 1 if differ or raised else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="git revision to compare the working tree with")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        sys.path.insert(0, args.dump)
        json.dump(_Dump().run(), sys.stdout)
        return 0
    if not args.against:
        parser.error("--against is required")
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        archive = subprocess.run(["git", "archive", args.against, "src"], cwd=ROOT,
                                 capture_output=True, check=False)
        if archive.returncode != 0:
            raise SystemExit(archive.stderr.decode())
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        before = _side(Path(tmp) / "src")
    after = _side(ROOT / "src")
    return _compare(before, after)


if __name__ == "__main__":
    sys.exit(main())
