import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import brentq

from suffreduce.estimators import (
    _FAMILIES,
    ConvergenceError,
    EstimatorSpec,
    Family,
    NoSolutionError,
    SolverOptions,
    _fantope_project_dense,
    _separable_check,
    fantope_spca,
    glasso,
    ising_logpartition,
    ising_pmle,
    kkt_residual,
    lasso,
    nnls,
    objective_at,
    positive_invcov,
    reduction_for,
    solve,
    solve_decomposed,
    sparse_cov,
)
from suffreduce.instances import random_instance, sign_instance
from suffreduce.linkage import Partition, components, threshold_components
from suffreduce.penalty import GroupId, PenaltyKind, PenaltySpec
from suffreduce.reductions import reduce_input
from suffreduce.symmat import SymMatrix

OPTS = SolverOptions(tol=1e-9)


def sym(rows):
    return SymMatrix.from_dense(np.array(rows, dtype=float))


def certificate_ok(spec, x, report, factor=10.0):
    scale = 1.0 + float(np.max(np.abs(x.dense() if isinstance(x, SymMatrix) else x)))
    return kkt_residual(spec, x, report.theta) <= factor * spec.opts.tol * scale


class TestSolverOptions:
    @pytest.mark.parametrize("field, value, need", [
        ("tol", 0.0, "tol > 0"), ("tol", -1.0, "tol > 0"), ("tol", float("nan"), "tol > 0"),
        ("max_iter", 0, "max_iter >= 1"), ("check_every", 0, "check_every >= 1"),
        ("rho", 0.0, "rho > 0"), ("rho", -1.0, "rho > 0"),
        ("over_relax", 0.0, "0 < over_relax < 2"), ("over_relax", 2.0, "0 < over_relax < 2"),
    ])
    def test_invalid_field_rejected(self, field, value, need):
        with pytest.raises(ValueError, match=f"need {re.escape(need)}$"):
            SolverOptions(**{field: value})

    def test_boundary_values_accepted(self):
        SolverOptions(tol=1e-300, max_iter=1, check_every=1, rho=1e-9, over_relax=1.999)


class TestNonFiniteNeverCertifies:
    def test_glasso(self):
        x = sym([[1.0, 0.5], [0.5, 1.0]])
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.1))
        assert kkt_residual(spec, x, np.full((2, 2), np.nan)) == np.inf
        assert kkt_residual(spec, x, np.array([[1.0, np.inf], [np.inf, 1.0]])) == np.inf

    def test_ising(self):
        x = sign_instance(np.random.default_rng(0), 3)
        theta = np.full((3, 3), np.nan)
        np.fill_diagonal(theta, 0.0)
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.1))
        assert kkt_residual(spec, x, theta) == np.inf

    def test_admm_driver_rejects_nan_iterates(self):
        # a prox map gone NaN must end in ConvergenceError, not a certified NaN
        from suffreduce.estimators import _admm, _glasso_kkt

        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        lam_mat = np.array([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ConvergenceError):
            _admm(
                "glasso",
                s[None],
                np.eye(2)[None],
                lambda v, rho, x: np.full_like(v, np.nan),
                lambda a, rho: a,
                lambda s_b, theta, z: (_glasso_kkt(s_b, lam_mat, z), z),
                SolverOptions(max_iter=50),
                [1e-9],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_admm_driver_rejects_iterates_gone_non_finite_late(self, bad):
        # the last member of a stack of two goes non-finite on its sixth
        # prox, once its Anderson memory holds secant pairs; the batched
        # normal equations must not raise LinAlgError, the other member
        # certifies, and the stack ends in ConvergenceError
        from suffreduce.estimators import _admm, _glasso_kkt, _logdet_prox, _soft

        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        lam_mat = np.array([[0.0, 0.1], [0.1, 0.0]])
        calls = [0]
        certified = []

        def prox_f(v, rho, x):
            calls[0] += 1
            theta = _logdet_prox(v, rho, x)
            if calls[0] >= 6:
                theta[-1] = bad
            return theta

        def certify(s_b, theta, z):
            resid = _glasso_kkt(s_b, lam_mat, z)
            certified.append(resid)
            return resid, z

        with pytest.raises(ConvergenceError, match="in 200 iterations"), np.errstate(invalid="ignore"):
            _admm("glasso", np.stack([s, 1.5 * s]), np.stack([np.eye(2)] * 2), prox_f,
                  lambda a, rho: _soft(a, lam_mat[None] / rho), certify,
                  SolverOptions(max_iter=200), [1e-9, 1e-9])
        assert min(certified) <= 1e-9  # the first member left the stack


class TestStackedCertificate:
    """A KKT residual on a stack (B, n, n) gives each member the residual it
    gets alone, and reads inf only for the members with a non-finite entry."""

    @staticmethod
    def _residual(family):
        from suffreduce.estimators import _glasso_kkt, _positive_invcov_kkt

        if family == "glasso":
            lam_mat = 0.2 * (1.0 - np.eye(6))
            return lambda xs, zs: _glasso_kkt(xs, lam_mat, zs)
        return _positive_invcov_kkt

    @staticmethod
    def _stack(family):
        # solutions, perturbed solutions and one point that is not positive
        # definite
        gen = np.random.default_rng(11)
        xs, zs = [], []
        for i in range(4):
            x = random_instance(gen, 6, n_blocks=2)
            if family == "glasso":
                spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2))
            else:
                d = x.dense()
                x = SymMatrix.wrap(np.where(np.eye(6, dtype=bool), d, -np.abs(d)))
                spec = EstimatorSpec(Family.POSITIVE_INVCOV,
                                     PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
            z = solve(spec, x).theta.dense()
            xs.append(x.dense())
            zs.append(z if i % 2 == 0 else z + 0.01 * gen.standard_normal((6, 6)))
        zs[3] = -np.eye(6)
        return np.stack(xs), np.stack(zs)

    @pytest.mark.parametrize("family", ["glasso", "positive_invcov"])
    def test_stack_matches_members_alone(self, family):
        residual = self._residual(family)
        xs, zs = self._stack(family)
        alone = [residual(x_b, z_b) for x_b, z_b in zip(xs, zs)]
        stacked = residual(xs, zs)
        assert stacked.shape == (4,)
        assert stacked.tobytes() == np.array(alone).tobytes()
        assert stacked[0] <= 1e-8 and stacked[2] <= 1e-8 and stacked[3] == np.inf

    @pytest.mark.parametrize("family", ["glasso", "positive_invcov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_reads_inf_alone(self, family, bad):
        residual = self._residual(family)
        xs, zs = self._stack(family)
        expected = residual(xs, zs)
        zs[1, 2, 4] = bad
        stacked = residual(xs, zs)
        assert stacked[1] == np.inf
        assert residual(xs[1], zs[1]) == np.inf
        keep = [0, 2, 3]
        assert stacked[keep].tobytes() == expected[keep].tobytes()
        zs[:, 0, 0] = bad
        assert np.array_equal(residual(xs, zs), np.full(4, np.inf))


class TestCertificateSchedule:
    """_admm certifies on its cadence, at the last iteration, and at most
    once per window when both ADMM residual norms are within tol."""

    @pytest.mark.parametrize("max_iter", [100, 95, 7])
    def test_stalled_solve_bounds_certificate_calls(self, max_iter):
        from suffreduce.estimators import _admm

        calls = []

        def certify(xs, theta, z):
            calls.append(1)
            return np.full(len(z), np.inf), z

        def zero(v, rho, *x):  # theta = z = z_old = 0: both residual norms are 0
            return np.zeros_like(v)

        opts = SolverOptions(max_iter=max_iter, check_every=10)
        with pytest.raises(ConvergenceError):
            _admm("stalled", np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), zero, zero, certify,
                  opts, [1e-9])
        assert len(calls) <= 2 * math.ceil(max_iter / opts.check_every)

    @staticmethod
    def _one_block():
        # the cadence alone first certifies this input at iteration 25
        x = random_instance(np.random.default_rng(3), 20, n_blocks=1)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.5),
                             opts=SolverOptions(tol=1e-7))
        return spec, x

    def test_certifies_before_first_cadence_check(self):
        spec, x = self._one_block()
        rep = solve(spec, x)
        assert rep.converged
        assert rep.iterations < spec.opts.check_every
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert kkt_residual(spec, x, rep.theta) <= spec.opts.tol * scale

    def test_one_block_decomposed_matches_solve(self):
        spec, x = self._one_block()
        direct = solve(spec, x)
        dec = solve_decomposed(spec, x)
        assert len(dec.blocks) == 1
        assert dec.iterations == direct.iterations == dec.blocks[0].iterations
        assert np.array_equal(dec.theta.dense(), direct.theta.dense())


class TestStackedDriver:
    """solve_decomposed runs same-size blocks as one lockstep _admm stack;
    each block must leave it with the theta and the iteration count it has
    when solved alone."""

    @staticmethod
    def _case(seed, case):
        # 10 blocks of 20; positive_invcov gets the input with its off-block
        # entries made nonpositive, so that its screening finds the same blocks
        x = random_instance(np.random.default_rng(seed), 200, n_blocks=10, within=0.6, cross=0.0)
        if case == "glasso":
            return EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)), x
        if case == "sparse_cov":
            return EstimatorSpec(Family.SPARSE_COV, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3),
                                 eps=0.5), x
        same = (np.arange(200) // 20)[:, None] == (np.arange(200) // 20)[None, :]
        d = x.dense()
        return (EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)),
                SymMatrix.wrap(np.where(same, d, -np.abs(d))))

    # blocks exit the stack at iterations 22-24 (glasso), 42-54
    # (positive_invcov) and 8-12 (sparse_cov)
    @pytest.mark.parametrize("seed", [20240817, 7])
    @pytest.mark.parametrize("case", ["glasso", "positive_invcov", "sparse_cov"])
    def test_stack_matches_blocks_solved_alone(self, seed, case):
        spec, x = self._case(seed, case)
        rep = solve_decomposed(spec, x)
        assert rep.converged
        assert [len(b.indices) for b in rep.blocks] == [20] * 10
        if case != "sparse_cov" or seed == 7:
            assert len({b.iterations for b in rep.blocks}) > 1  # members leave apart
        partition = reduce_input(*reduction_for(spec), x).partition
        theta, xd = rep.theta.dense(), x.dense()
        for stat, blk in zip(rep.blocks, partition.blocks):
            alone = solve(spec, xd[np.ix_(blk, blk)])
            assert stat.indices == blk and stat.iterations == alone.iterations
            assert theta[np.ix_(blk, blk)].tobytes() == alone.theta.dense().tobytes()

    def test_stalled_member_raises_and_others_leave_when_certified(self):
        from suffreduce.estimators import _admm

        calls = [0, 0, 0]
        passes_on = [3, None, 1]  # the call on which each member certifies
        stacks = []  # the members certified by each certify call

        def certify(xs, theta, z):
            members = [int(x_b[0, 0]) for x_b in xs]
            stacks.append(members)
            resid = []
            for m in members:
                calls[m] += 1
                resid.append(0.0 if calls[m] == passes_on[m] else np.inf)
            return np.array(resid), z

        def zero(v, rho, *x):  # theta = z = z_old = 0: both residual norms are 0
            return np.zeros_like(v)

        x = np.arange(3.0)[:, None, None] * np.ones((3, 3, 3))
        opts = SolverOptions(max_iter=100, check_every=10)
        with pytest.raises(ConvergenceError, match="tol 2.000e-09 in 100 iterations"):
            _admm("stack", x, np.zeros((3, 3, 3)), zero, zero, certify, opts,
                  [1e-9, 2e-9, 3e-9])
        assert calls[0] == 3 and calls[2] == 1
        assert calls[1] <= 2 * math.ceil(opts.max_iter / opts.check_every)
        # one call per iteration on every due member: all three at iteration
        # 1 (early), 0 and 1 at 10 (cadence) and 11 (early), then 1 alone
        assert stacks[:3] == [[0, 1, 2], [0, 1], [0, 1]]
        assert all(members == [1] for members in stacks[3:])

    def test_failing_block_raises_what_it_raises_alone(self):
        # blocks of sizes 3, 4, 3: the 3x3 stack meets the NoSolutionError of
        # its second block first, but the 4x4 block, first in partition
        # order, stalls, and a block-by-block solve raises its error
        easy = np.full((3, 3), 0.2) + 0.8 * np.eye(3)  # 7 iterations alone
        # nearly singular, with variances 1 to 1000: 250 iterations alone
        d = np.sqrt([1.0, 10.0, 100.0, 1000.0])
        slow = (np.full((4, 4), 0.999) + 0.001 * np.eye(4)) * np.outer(d, d)
        bad = easy.copy()
        bad[1, 1] = -1.0
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.1),
                             opts=SolverOptions(max_iter=100))
        x = SymMatrix.wrap(block_diag(easy, slow, bad))
        assert [len(blk) for blk in reduce_input(*reduction_for(spec), x).partition.blocks] == [3, 4, 3]
        with pytest.raises(ConvergenceError, match="glasso did not reach tol"):
            solve(spec, SymMatrix.wrap(slow))
        with pytest.raises(ConvergenceError, match="glasso did not reach tol"):
            solve_decomposed(spec, x)

    # summed block iterations of plain (unaccelerated) ADMM on these inputs
    @pytest.mark.parametrize("case, plain", [("glasso", 389), ("positive_invcov", 1205)])
    def test_anderson_cuts_block_iterations(self, case, plain):
        spec, x = self._case(20240817, case)
        rep = solve_decomposed(spec, x)
        assert rep.converged
        assert rep.iterations == sum(b.iterations for b in rep.blocks) <= 0.7 * plain


class TestClosedForms:
    def test_lasso(self):
        x = np.array([2.0, -0.3, 0.5, -1.5])
        assert np.array_equal(lasso(x, 0.5), [1.5, 0.0, 0.0, -1.0])

    def test_nnls(self):
        assert np.array_equal(nnls(np.array([1.0, -2.0])), [1.0, 0.0])

    def test_solve_dispatch_vector(self):
        spec = EstimatorSpec(Family.LASSO, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5))
        rep = solve(spec, np.array([2.0, 0.1]))
        assert np.array_equal(rep.theta, [1.5, 0.0])
        assert rep.converged and rep.kkt_residual == 0.0
        assert np.array_equal(rep.support, [True, False])


class TestGlasso:
    def test_identity_unpenalized(self):
        rep = glasso(sym(np.eye(3)), 0.0, OPTS)
        assert np.allclose(rep.theta.dense(), np.eye(3), atol=1e-9)

    def test_offdiag_penalty_below_level_gives_identity(self):
        # off-diagonal 0.9 <= 0.95 zeroes out; unpenalized diagonal matches
        rep = glasso(sym([[1.0, 0.9], [0.9, 1.0]]), 0.95, OPTS)
        assert np.allclose(rep.theta.dense(), np.eye(2), atol=1e-8)
        assert rep.theta.entry(0, 1) == 0.0

    def test_penalized_diagonal_closed_form(self):
        x = sym(np.diag([2.0, 5.0]))
        rep = glasso(x, 0.5, OPTS, penalize_diagonal=True)
        assert np.allclose(rep.theta.dense(), np.diag([1 / 2.5, 1 / 5.5]), atol=1e-9)

    def test_inverse_relation_unpenalized(self, rng):
        x = random_instance(rng, 6)
        rep = glasso(x, 0.0, OPTS)
        assert np.allclose(rep.theta.dense() @ x.dense(), np.eye(6), atol=1e-7)

    def test_unpenalized_closed_form_must_certify(self, ill_conditioned):
        # the closed-form inverse reads KKT residual 5.7e-8 here, above
        # tol * (1 + max|x|) = 1.7e-9, so it may not report converged=True
        x = SymMatrix.from_dense(ill_conditioned)
        with pytest.raises(ConvergenceError, match="glasso: KKT residual"):
            glasso(x, 0.0, SolverOptions(tol=1e-9))
        rep = glasso(x, 0.0, SolverOptions(tol=1e-6))
        assert rep.converged and rep.iterations == 0
        assert rep.kkt_residual <= 1e-6 * (1.0 + np.max(np.abs(ill_conditioned)))

    def test_matrix_weights(self):
        lam = np.array([[0.0, 0.95], [0.95, 0.0]])
        rep = glasso(sym([[1.0, 0.9], [0.9, 1.0]]), lam, OPTS)
        assert np.allclose(rep.theta.dense(), np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("lam", [-0.3, -np.inf])
    def test_negative_scalar_penalty_rejected(self, lam):
        # it used to run 10,000 iterations and raise ConvergenceError
        with pytest.raises(ValueError, match="lam must be nonnegative"):
            glasso(sym([[1.0, 0.5], [0.5, 1.0]]), lam, OPTS)

    def test_unpenalized_nonpositive_diagonal_rejected(self):
        with pytest.raises(NoSolutionError):
            glasso(sym([[0.0, 0.0], [0.0, 1.0]]), 0.5, OPTS)

    def test_certificate(self, rng):
        for _ in range(5):
            x = random_instance(rng, int(rng.integers(3, 12)))
            lam = float(rng.uniform(0.05, 0.5))
            spec = EstimatorSpec(
                Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam), opts=OPTS
            )
            rep = solve(spec, x)
            assert rep.converged
            assert certificate_ok(spec, x, rep)

    def test_support_components_match_threshold_graph(self, rng):
        x = random_instance(rng, 12, n_blocks=3)
        for lam in (0.2, 0.4, 0.7):
            rep = glasso(x, lam, OPTS)
            td = rep.theta.dense()
            got = components(np.abs(td) > 1e-8 * np.abs(td).max())
            assert got == threshold_components(x, lam)

    def test_nonconvergence_raises(self, rng):
        x = random_instance(rng, 8)
        with pytest.raises(ConvergenceError):
            glasso(x, 0.1, SolverOptions(tol=1e-9, max_iter=3))


class TestFantopeProject:
    def test_rank_one_projection(self):
        got = _fantope_project_dense(np.diag([3.0, 2.0, 1.0]), 1)
        assert np.allclose(got, np.diag([1.0, 0.0, 0.0]), atol=1e-11)

    def test_idempotent_on_projections(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        proj = q @ q.T
        got = _fantope_project_dense(proj, 2)
        assert np.allclose(got, proj, atol=1e-10)

    def test_tie_splits_evenly(self):
        # shifting by nu=0.1 leaves 0.5 on each tied eigenvalue
        got = _fantope_project_dense(np.diag([0.6, 0.6]), 1)
        assert np.allclose(got, np.diag([0.5, 0.5]), atol=1e-11)

    def test_feasibility(self, rng):
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2
        for k in (1, 3, 6):
            w = np.linalg.eigvalsh(_fantope_project_dense(m, k))
            assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
            assert np.sum(w) == pytest.approx(k, abs=1e-9)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            _fantope_project_dense(np.eye(2), 3)

    def test_flat_trace_segment(self):
        # the trace is 1 for every shift in [0, 2], a flat segment at k
        got = _fantope_project_dense(np.diag([3.0, 0.0]), 1)
        assert np.allclose(got, np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("k, want", [(1, [1.0, 0.0, 0.0]), (2, [1.0, 1.0, 0.0])])
    def test_coinciding_breakpoints(self, k, want):
        # eigenvalues exactly 1 apart: w_i - 1 lands on w_{i+1}
        got = _fantope_project_dense(np.diag([2.0, 1.0, 0.0]), k)
        assert np.allclose(got, np.diag(want), atol=1e-12)

    def test_full_rank_gives_identity(self, rng):
        a = rng.standard_normal((4, 4))
        # -0.4 - (-0.4 - 1.0) rounds below 1, so the trace at the lowest
        # breakpoint falls short of p
        for m in ((a + a.T) / 2, np.diag([-0.4, 2.0, 5.0, 0.3])):
            got = _fantope_project_dense(m, 4)
            assert np.allclose(got, np.eye(4), atol=1e-12)

    def test_shift_matches_independent_root(self, rng):
        for trial in range(200):
            p = int(rng.integers(2, 13))
            k = int(rng.integers(1, p))
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            if trial % 2:
                # half-integer spectrum: tied eigenvalues and breakpoints
                # w_i - 1 that meet other eigenvalues
                w = rng.integers(-4, 5, size=p) / 2.0
            else:
                w = rng.standard_normal(p) * float(rng.uniform(0.1, 5.0))
            a = (q * w) @ q.T
            a = (a + a.T) / 2
            got = _fantope_project_dense(a, k)
            assert abs(np.trace(got) - k) <= 1e-12 * p
            w = np.linalg.eigvalsh(a)
            nu = brentq(
                lambda t: np.sum(np.clip(w - t, 0.0, 1.0)) - k,
                w.min() - 1.0, w.max(), xtol=1e-14,
            )
            # on a flat segment nu is not unique, but the clipped spectrum is
            want = np.clip(w - nu, 0.0, 1.0)
            assert np.allclose(np.linalg.eigvalsh(got), want, atol=1e-10)


class TestFantopeSpca:
    def test_top_eigenvector_at_zero_penalty(self):
        rep = fantope_spca(sym(np.diag([3.0, 1.0])), 0.0, 1, OPTS)
        assert np.allclose(rep.theta.dense(), np.diag([1.0, 0.0]), atol=1e-7)

    def test_matches_eigh_oracle(self, rng):
        x = random_instance(rng, 6)
        w, q = np.linalg.eigh(x.dense())
        target = q[:, -2:] @ q[:, -2:].T
        rep = fantope_spca(x, 0.0, 2, OPTS)
        assert np.allclose(rep.theta.dense(), target, atol=1e-6)

    def test_huge_penalty_full_rank_forces_identity(self):
        x = sym([[1.0, 0.4], [0.4, 2.0]])
        rep = fantope_spca(x, 100.0, 2, OPTS)
        assert np.allclose(rep.theta.dense(), np.eye(2), atol=1e-7)

    def test_certificate(self, rng):
        for _ in range(4):
            x = random_instance(rng, 7)
            lam = float(rng.uniform(0.05, 0.4))
            spec = EstimatorSpec(
                Family.FANTOPE_SPCA,
                PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                k=2,
                opts=OPTS,
            )
            rep = solve(spec, x)
            assert rep.converged
            assert certificate_ok(spec, x, rep)


class TestSparseCov:
    def test_floor_binds(self):
        rep = sparse_cov(sym(np.diag([5.0, 1.0])), 0.0, 2.0, OPTS)
        assert np.allclose(rep.theta.dense(), np.diag([5.0, 2.0]), atol=1e-8)

    def test_soft_threshold_when_already_feasible(self):
        rep = sparse_cov(sym([[5.0, 0.1], [0.1, 5.0]]), 1.0, 0.01, OPTS)
        assert np.allclose(rep.theta.dense(), np.diag([4.0, 4.0]), atol=1e-12)
        assert rep.iterations == 0

    def test_direct_path_must_certify(self):
        # the soft threshold clears the floor, so no ADMM runs; its roundoff
        # residual (4.2e-17) certifies at tol 1e-9 but not at 1e-20
        x = random_instance(np.random.default_rng(3), 6)
        rep = sparse_cov(x, 0.05, 0.01, OPTS)
        assert rep.converged and rep.iterations == 0 and rep.kkt_residual > 0.0
        with pytest.raises(ConvergenceError, match="sparse_cov: KKT residual"):
            sparse_cov(x, 0.05, 0.01, SolverOptions(tol=1e-20))

    def test_identity_at_zero_penalty(self, rng):
        x = random_instance(rng, 5)
        w = np.linalg.eigvalsh(x.dense())
        eps = 0.5 * float(w.min())
        rep = sparse_cov(x, 0.0, eps, OPTS)
        assert np.allclose(rep.theta.dense(), x.dense(), atol=1e-9)

    def test_feasible_and_certified(self, rng):
        for _ in range(5):
            x = random_instance(rng, int(rng.integers(3, 10)))
            lam = float(rng.uniform(0.1, 0.6))
            spec = EstimatorSpec(
                Family.SPARSE_COV,
                PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                eps=0.05,
                opts=OPTS,
            )
            rep = solve(spec, x)
            assert rep.converged
            assert np.linalg.eigvalsh(rep.theta.dense())[0] >= 0.05 - 1e-10
            assert certificate_ok(spec, x, rep)

    def test_eps_required(self):
        with pytest.raises(ValueError):
            sparse_cov(sym(np.eye(2)), 0.1, 0.0, OPTS)


class TestPositiveInvCov:
    def test_diagonal_input(self):
        rep = positive_invcov(sym(np.diag([2.0, 4.0])), OPTS)
        assert np.allclose(rep.theta.dense(), np.diag([0.5, 0.25]), atol=1e-8)

    def test_negative_offdiag_unconstrained(self):
        # inverse of [[1,.5],[.5,1]] has nonpositive off-diagonal already
        x = sym([[1.0, 0.5], [0.5, 1.0]])
        rep = positive_invcov(x, OPTS)
        assert np.allclose(rep.theta.dense(), np.linalg.inv(x.dense()), atol=1e-8)

    def test_positive_offdiag_constraint_binds(self):
        # inverse would have positive off-diagonal, so the fit pins it to 0
        x = sym([[1.0, -0.5], [-0.5, 1.0]])
        rep = positive_invcov(x, OPTS)
        assert np.allclose(rep.theta.dense(), np.eye(2), atol=1e-8)

    def test_feasible_and_certified(self, rng):
        for _ in range(5):
            x = random_instance(rng, int(rng.integers(3, 10)))
            spec = EstimatorSpec(
                Family.POSITIVE_INVCOV,
                PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                opts=OPTS,
            )
            rep = solve(spec, x)
            off = ~np.eye(x.p, dtype=bool)
            assert rep.converged
            assert np.all(rep.theta.dense()[off] <= 0.0)
            assert certificate_ok(spec, x, rep)


def _ising_reference(theta):
    """(logZ, E[u u']) by a plain loop over all 2^p sign vectors, with every
    sum taken by math.fsum."""
    p = len(theta)
    t = theta.tolist()
    states = list(itertools.product((-1.0, 1.0), repeat=p))
    energy = [math.fsum(t[i][j] * u[i] * u[j] for i in range(p) for j in range(p))
              for u in states]
    emax = max(energy)
    weights = [math.exp(e - emax) for e in energy]
    total = math.fsum(weights)
    moment = [[math.fsum(w * u[i] * u[j] for w, u in zip(weights, states)) / total
               for j in range(p)] for i in range(p)]
    return emax + math.log(total), np.array(moment)


class TestIsing:
    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("scale", [0.3, 5.0])
    def test_logpartition_matches_brute_force(self, p, scale):
        """The half enumeration against a loop over every state; couplings up
        to 5 put the largest energy far above the rest, so the shift by the
        maximum carries the sum."""
        a = np.triu(np.random.default_rng([p, int(10 * scale)]).uniform(-scale, scale, (p, p)), 1)
        theta = a + a.T
        logz, moment = ising_logpartition(SymMatrix.wrap(theta))
        ref_logz, ref_moment = _ising_reference(theta)
        assert abs(logz - ref_logz) <= 1e-12 * abs(ref_logz)
        assert np.max(np.abs(moment.dense() - ref_moment)) <= 1e-12 * np.max(np.abs(ref_moment))

    def test_logpartition_p1(self):
        logz, moment = ising_logpartition(SymMatrix.wrap(np.zeros((1, 1))))
        assert logz == math.log(2.0)
        assert moment.dense().tolist() == [[1.0]]

    def test_p2_logpartition_closed_form(self):
        for t in (-0.7, 0.0, 0.3, 1.1):
            theta = sym([[0.0, t], [t, 0.0]])
            logz, moment = ising_logpartition(theta)
            assert logz == pytest.approx(np.log(2 * np.exp(2 * t) + 2 * np.exp(-2 * t)), abs=1e-12)
            assert moment.entry(0, 1) == pytest.approx(np.tanh(2 * t), abs=1e-12)
            assert moment.entry(0, 0) == 1.0

    def test_independent_coordinates(self):
        theta = sym(np.zeros((3, 3)))
        logz, moment = ising_logpartition(theta)
        assert logz == pytest.approx(3 * np.log(2), abs=1e-12)
        assert np.allclose(moment.dense(), np.eye(3))

    def test_moment_matches_finite_difference(self, rng):
        """Perturbing one symmetric pair of entries moves the log partition
        by twice the corresponding moment."""
        for p in (2, 3, 5):
            a = rng.standard_normal((p, p)) * 0.4
            theta = (a + a.T) / 2
            np.fill_diagonal(theta, 0.0)
            _, moment = ising_logpartition(SymMatrix.from_dense(theta))
            h = 1e-5
            for i, j in [(0, 1), (0, p - 1)]:
                up, dn = theta.copy(), theta.copy()
                up[i, j] = up[j, i] = theta[i, j] + h
                dn[i, j] = dn[j, i] = theta[i, j] - h
                fd = (
                    ising_logpartition(SymMatrix.wrap(up))[0]
                    - ising_logpartition(SymMatrix.wrap(dn))[0]
                ) / (2 * h)
                assert fd == pytest.approx(2 * moment.entry(i, j), abs=1e-6)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            ising_logpartition(sym(np.eye(2)))

    def test_p_cap(self):
        with pytest.raises(ValueError):
            ising_logpartition(SymMatrix.from_dense(np.zeros((16, 16))))
        with pytest.raises(ValueError):
            ising_pmle(SymMatrix.from_dense(np.eye(16)), 0.1)

    def test_p2_stationary_point(self):
        """Unpenalized fit matches the scalar moment equation root."""
        x = sym([[1.0, 0.5], [0.5, 1.0]])
        rep = ising_pmle(x, 0.0, OPTS)
        root = brentq(lambda t: np.tanh(2 * t) - 0.5, 0.0, 2.0, xtol=1e-14)
        assert rep.theta.entry(0, 1) == pytest.approx(root, abs=1e-8)
        assert root == pytest.approx(np.arctanh(0.5) / 2, abs=1e-12)

    def test_zero_solution_at_large_penalty(self, rng):
        x = sign_instance(rng, 5)
        lam = float(np.abs(x.dense()[~np.eye(5, dtype=bool)]).max())
        rep = ising_pmle(x, lam + 0.01, OPTS)
        assert np.array_equal(rep.theta.dense(), np.zeros((5, 5)))

    def test_certificate(self, rng):
        for p in (4, 6):
            x = sign_instance(rng, p)
            spec = EstimatorSpec(
                Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2), opts=OPTS
            )
            rep = solve(spec, x)
            assert rep.converged
            assert certificate_ok(spec, x, rep)

    def test_certificate_ignores_the_diagonal_of_x(self, rng):
        """The certificate reads only the off-diagonal moments, so a diagonal
        of x other than 1 does not change it."""
        x = sign_instance(rng, 5)
        x3 = SymMatrix.wrap(x.dense() + 2.0 * np.eye(5))
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2),
                             opts=OPTS)
        theta = solve(spec, x).theta
        assert kkt_residual(spec, x3, theta) == kkt_residual(spec, x, theta) <= 1e-8


class TestSolveDispatcher:
    def test_penalty_kind_enforced(self):
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5))
        with pytest.raises(ValueError):
            solve(spec, sym(np.eye(2)))

    def test_reduction_pairs(self):
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3))
        pen, group = reduction_for(spec)
        assert pen.kind is PenaltyKind.SYMMETRIC_L1 and group is GroupId.DIAGONAL_CONJUGATION
        spec = EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
        pen, group = reduction_for(spec)
        assert pen.kind is PenaltyKind.OFFDIAG_POSITIVITY
        spec = EstimatorSpec(Family.LASSO, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.3))
        assert reduction_for(spec)[1] is GroupId.SIGN_FLIP_VECTOR

    def test_objective_at_matches_report(self, rng):
        x = random_instance(rng, 6)
        spec = EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS
        )
        rep = solve(spec, x)
        assert objective_at(spec, x, rep.theta) == pytest.approx(rep.objective, abs=1e-12)

    UNUSABLE_SPECS = {
        "glasso_positivity": (
            EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)),
            "glasso expects a symmetric_l1 penalty, got offdiag_positivity",
        ),
        "positive_invcov_l1": (
            EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)),
            "positive_invcov expects a offdiag_positivity penalty, got symmetric_l1",
        ),
        "fantope_spca_without_k": (
            EstimatorSpec(Family.FANTOPE_SPCA, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)),
            "fantope_spca requires k",
        ),
        "sparse_cov_without_eps": (
            EstimatorSpec(Family.SPARSE_COV, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)),
            "sparse_cov requires eps",
        ),
    }
    ENTRY_POINTS = {
        "solve": solve,
        "solve_decomposed": solve_decomposed,
        "kkt_residual": lambda spec, x: kkt_residual(spec, x, np.eye(x.p)),
        "objective_at": lambda spec, x: objective_at(spec, x, np.eye(x.p)),
        "reduction_for": lambda spec, x: reduction_for(spec),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("name", sorted(UNUSABLE_SPECS))
    def test_every_entry_point_checks_the_spec(self, name, entry):
        """A spec its family cannot use raises the same ValueError from every
        entry point, instead of a TypeError or a number computed from NaN
        weights."""
        spec, message = self.UNUSABLE_SPECS[name]
        x = random_instance(np.random.default_rng(0), 6)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.ENTRY_POINTS[entry](spec, x)

    @pytest.mark.parametrize("weights", ["matrix", "scalar"])
    def test_glasso_penalized_diagonal_check_matches_report(self, weights):
        """kkt_residual and objective_at of a glasso spec with a penalized
        diagonal reproduce the solver's own certificate and objective."""
        x = random_instance(np.random.default_rng(4), 8)
        lam = 0.2
        if weights == "matrix":
            w = np.abs(np.random.default_rng(5).standard_normal((8, 8)))
            lam = 0.2 * (w + w.T)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             penalize_diagonal=True, opts=OPTS)
        rep = solve(spec, x)
        assert rep.converged and rep.iterations > 0
        assert kkt_residual(spec, x, rep.theta) == rep.kkt_residual
        assert objective_at(spec, x, rep.theta) == rep.objective

    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV])
    def test_log_det_objective_against_slogdet(self, family):
        """The objective of the log-det families, direct and decomposed,
        against -log det from np.linalg.slogdet plus the entrywise terms; a
        point that is not positive definite reads inf."""
        x = random_instance(np.random.default_rng(6), 12, n_blocks=3, cross=0.0)
        s = x.dense()
        if family is Family.GLASSO:
            spec = EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS)
        else:
            s = np.where(np.eye(12, dtype=bool), s, -np.abs(s))
            x = SymMatrix.wrap(s)
            spec = EstimatorSpec(family, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), opts=OPTS)
        off = ~np.eye(12, dtype=bool)
        for rep in (solve(spec, x), solve_decomposed(spec, x)):
            theta = rep.theta.dense()
            sign, logdet = np.linalg.slogdet(theta)
            penalty = 0.3 * np.sum(np.abs(theta[off])) if family is Family.GLASSO else 0.0
            want = -logdet + np.sum(s * theta) + penalty
            assert sign == 1.0
            assert rep.objective == pytest.approx(want, rel=1e-12)
            assert objective_at(spec, x, rep.theta) == pytest.approx(want, rel=1e-12)
        assert objective_at(spec, x, -np.eye(12)) == np.inf


class TestConvergedMeansCertified:
    """converged=True means that the independent certificate at the reported
    point is within tol * (1 + max|x|), through solve and solve_decomposed.
    fantope_spca still stops on its ADMM residuals and is not checked."""

    @staticmethod
    def _specs(x):
        opts = SolverOptions(tol=1e-8)
        off = np.abs(x.dense()[~np.eye(x.p, dtype=bool)])
        for q in (0.4, 0.7):
            l1 = PenaltySpec(PenaltyKind.SYMMETRIC_L1, float(np.quantile(off, q)))
            yield EstimatorSpec(Family.GLASSO, l1, opts=opts)
            yield EstimatorSpec(Family.SPARSE_COV, l1, eps=0.01, opts=opts)
        yield EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                            opts=opts)

    @staticmethod
    def _check(spec, x, way):
        rep = way(spec, x)
        assert rep.converged
        scale = 1.0 + float(np.max(np.abs(np.asarray(x))))
        assert kkt_residual(spec, x, rep.theta) <= spec.opts.tol * scale

    @pytest.mark.parametrize("way", [solve, solve_decomposed])
    def test_matrix_families_on_battery_sample(self, battery, way):
        for x in battery[::2]:
            for spec in self._specs(x):
                self._check(spec, x, way)

    @pytest.mark.parametrize("way", [solve, solve_decomposed])
    def test_ising(self, way):
        gen = np.random.default_rng(77)
        for p in (4, 6, 8):
            x = sign_instance(gen, p)
            lam = float(np.quantile(np.abs(x.dense()[~np.eye(p, dtype=bool)]), 0.5))
            spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                                 opts=SolverOptions(tol=1e-10))
            self._check(spec, x, way)


class TestSolveDecomposed:
    def test_matches_direct(self, rng):
        x = random_instance(rng, 18, n_blocks=3, cross=0.0)
        spec = EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS
        )
        direct = solve(spec, x)
        dec = solve_decomposed(spec, x)
        assert dec.converged
        assert np.max(np.abs(direct.theta.dense() - dec.theta.dense())) <= 1e-6
        assert dec.blocks is not None and len(dec.blocks) >= 2

    def test_vector_family_rejected(self):
        spec = EstimatorSpec(Family.LASSO, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5))
        with pytest.raises(ValueError):
            solve_decomposed(spec, np.ones(4))

    def test_sparse_cov_blocks(self, rng):
        x = random_instance(rng, 12, n_blocks=3, cross=0.0)
        spec = EstimatorSpec(
            Family.SPARSE_COV,
            PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3),
            eps=0.05,
            opts=OPTS,
        )
        direct = solve(spec, x)
        dec = solve_decomposed(spec, x)
        assert np.max(np.abs(direct.theta.dense() - dec.theta.dense())) <= 1e-6
        assert len(dec.blocks) >= 2
        assert dec.converged
        assert dec.kkt_residual <= OPTS.tol * (1.0 + float(np.max(np.abs(x.dense()))))

    @staticmethod
    def _block_input(draw, sizes):
        rng = np.random.default_rng(3)
        return SymMatrix.wrap(block_diag(*[draw(rng, n).dense() for n in sizes]))

    def test_separable_families_take_only_the_partition(self, monkeypatch):
        """A separable decomposed solve builds no cluster mask: screening
        gives it the partition alone.  fantope_spca solves the whole masked
        matrix, so it still builds one."""
        class MaskBuilt(Exception):
            pass

        def no_mask(partition):
            raise MaskBuilt

        monkeypatch.setattr("suffreduce.reductions.cluster_matrix", no_mask)
        x = self._block_input(lambda rng, n: random_instance(rng, n, n_blocks=1), (6, 5, 4))
        l1 = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3)
        for spec, inp in (
            (EstimatorSpec(Family.GLASSO, l1, opts=OPTS), x),
            (EstimatorSpec(Family.SPARSE_COV, l1, eps=0.05, opts=OPTS), x),
            (EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                           opts=OPTS), x),
            (EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                           opts=SolverOptions(tol=1e-10)),
             self._block_input(sign_instance, (5, 4, 3))),
        ):
            rep = solve_decomposed(spec, inp)
            assert rep.converged and len(rep.blocks) >= 3
        with pytest.raises(MaskBuilt):
            solve_decomposed(EstimatorSpec(Family.FANTOPE_SPCA, l1, k=1, opts=OPTS), x)

    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV, Family.ISING_PMLE])
    def test_blockwise_certificate_matches_kkt_residual(self, family):
        if family is Family.ISING_PMLE:
            x = self._block_input(sign_instance, (5, 4, 3))
            spec = EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                                 opts=SolverOptions(tol=1e-10))
        else:
            x = self._block_input(lambda rng, n: random_instance(rng, n, n_blocks=1), (6, 5, 4))
            penalty = (PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3) if family is Family.GLASSO
                       else PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
            spec = EstimatorSpec(family, penalty, opts=OPTS)
        rep = solve_decomposed(spec, x)
        assert len(rep.blocks) >= 3
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert rep.converged and rep.kkt_residual <= spec.opts.tol * scale
        assert abs(rep.kkt_residual - kkt_residual(spec, x, rep.theta)) <= 1e-12 * scale
        assert rep.objective == pytest.approx(objective_at(spec, x, rep.theta), rel=1e-12)

    @staticmethod
    def _near_cutoff(family):
        """An input, a partition and a block-diagonal non-optimal theta
        whose entry theta_34 lies above the support cutoff of its own block
        but below that of the whole matrix, where the input is moved by 0.2
        so that the two classifications give different residuals."""
        if family is Family.ISING_PMLE:
            a = [[0.0, 1.0, 0.5], [1.0, 0.0, 0.2], [0.5, 0.2, 0.0]]
            b = [[0.0, 1e-10, 0.0], [1e-10, 0.0, 1e-4], [0.0, 1e-4, 0.0]]
            theta = block_diag(a, b, [[0.0]])
            _, moment = ising_logpartition(SymMatrix.wrap(theta))
            s = moment.dense()
        else:
            a = 1e4 * np.array([[2.0, -1.0, -0.5], [-1.0, 2.0, -0.2], [-0.5, -0.2, 2.0]])
            b = [[1.0, -1e-6, 0.0], [-1e-6, 1.0, -0.3], [0.0, -0.3, 1.0]]
            theta = block_diag(a, b, [[1.0]])
            s = np.linalg.inv(theta)
        s[3, 4] = s[4, 3] = s[3, 4] - 0.2
        return SymMatrix.wrap(s), components(theta), SymMatrix.wrap(theta)

    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV, Family.ISING_PMLE])
    def test_blockwise_certificate_uses_global_support_cutoff(self, family):
        x, partition, theta = self._near_cutoff(family)
        assert len(partition.blocks) == 3
        penalty = (PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY) if family is Family.POSITIVE_INVCOV
                   else PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3))
        spec = EstimatorSpec(family, penalty, opts=OPTS)
        kkt, objective = _separable_check(spec, x, theta, partition)
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert abs(kkt - kkt_residual(spec, x, theta)) <= 1e-12 * scale
        assert objective == pytest.approx(objective_at(spec, x, theta), rel=1e-12)

    @staticmethod
    def _glasso_solution(rng):
        x = random_instance(rng, 12, n_blocks=3, cross=0.0)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS)
        partition = threshold_components(x, 0.3)
        assert len(partition.blocks) >= 2
        return spec, x, partition, solve_decomposed(spec, x).theta.dense()

    def test_blockwise_certificate_rejects_off_block_entry(self, rng):
        spec, x, partition, theta = self._glasso_solution(rng)
        i, j = partition.blocks[0][0], partition.blocks[1][0]
        theta[i, j] = theta[j, i] = 1e-3
        assert _separable_check(spec, x, SymMatrix.wrap(theta), partition)[0] == np.inf

    def test_blockwise_certificate_rejects_nan(self, rng):
        spec, x, partition, theta = self._glasso_solution(rng)
        theta[0, 0] = np.nan
        assert _separable_check(spec, x, theta, partition)[0] == np.inf

    def test_nan_penalty_never_certifies(self):
        """A NaN weight that gets past PenaltySpec (set after construction)
        makes the screening term NaN on a partition of singletons; the check
        returns (inf, nan) instead of dropping that term, and
        solve_decomposed refuses the weight when it screens."""
        penalty = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.1)
        object.__setattr__(penalty, "weights", float("nan"))
        spec = EstimatorSpec(Family.GLASSO, penalty, opts=OPTS)
        x = random_instance(np.random.default_rng(0), 6)
        partition = Partition.from_blocks([(i,) for i in range(6)], 6)
        theta = np.diag(1.0 / np.diag(x.dense()))
        kkt, objective = _separable_check(spec, x, theta, partition)
        assert kkt == np.inf and np.isnan(objective)
        with pytest.raises(ValueError, match="penalty weights must be nonnegative"):
            solve_decomposed(spec, x)

    @pytest.mark.parametrize("family, expected", [
        (Family.GLASSO, 0.4),  # max(|x_ij| - 0.1, 0) over x_01 = 0.3, x_02 = -0.5
        (Family.POSITIVE_INVCOV, 0.3),  # max(x_ij, 0) over the same two edges
    ])
    def test_blockwise_certificate_scores_cut_edges(self, family, expected):
        """On a partition finer than the screening partition, the
        certificate is the screening excess over the cut edges."""
        x = sym([[1.0, 0.3, -0.5], [0.3, 1.0, 0.2], [-0.5, 0.2, 1.0]])
        penalty = (PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.1) if family is Family.GLASSO
                   else PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
        spec = EstimatorSpec(family, penalty, opts=OPTS)
        assert len(reduce_input(*reduction_for(spec), x).partition.blocks) == 1
        finer = Partition.from_blocks([(0,), (1, 2)], 3)
        theta = np.zeros((3, 3))
        for blk in finer.blocks:
            theta[np.ix_(blk, blk)] = solve(spec, x.dense()[np.ix_(blk, blk)]).theta.dense()
        kkt, _ = _separable_check(spec, x, theta, finer)
        assert kkt == pytest.approx(expected, abs=1e-12)

    def test_ising_above_enumeration_cap(self):
        rng = np.random.default_rng(0)
        pieces = [sign_instance(rng, n).dense() for n in (8, 8, 4)]
        x = SymMatrix.wrap(block_diag(*pieces))
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                             opts=SolverOptions(tol=1e-8))
        rep = solve_decomposed(spec, x)
        assert [len(b.indices) for b in rep.blocks] == [8, 8, 4]
        assert rep.converged
        assert rep.kkt_residual <= spec.opts.tol * (1.0 + float(np.max(np.abs(x.dense()))))
        theta = rep.theta.dense()
        objective = 0.0
        start = 0
        for piece, stat in zip(pieces, rep.blocks):
            direct = ising_pmle(SymMatrix.wrap(piece), 0.05, spec.opts)
            idx = slice(start, start + len(piece))
            assert np.array_equal(theta[idx, idx], direct.theta.dense())
            assert stat.iterations == direct.iterations
            objective += direct.objective
            start += len(piece)
        assert rep.objective == pytest.approx(objective, rel=1e-12)


class TestSizeGroups:
    """solve_decomposed and the blockwise check work on stacks of same-size
    blocks, a 1x1 block being a member of a (B, 1, 1) stack; every member
    must get the theta, iterations, residual and objective piece it gets
    alone."""

    @staticmethod
    def _all_singletons(p=12, seed=0):
        # off-diagonal entries all below the penalty: every block is 1x1
        x = random_instance(np.random.default_rng(seed), p)
        lam = 1.01 * float(np.max(np.abs(x.dense() - np.diag(np.diag(x.dense())))))
        return x, lam

    def test_glasso_all_singletons_closed_form(self):
        x, lam = self._all_singletons()
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam), opts=OPTS)
        rep = solve_decomposed(spec, x)
        assert np.array_equal(rep.theta.dense(), np.diag(1.0 / np.diag(x.dense())))
        assert rep.iterations == 0 and rep.converged
        assert [b.indices for b in rep.blocks] == [(i,) for i in range(x.p)]
        assert all(b.iterations == 0 for b in rep.blocks)
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert abs(rep.kkt_residual - kkt_residual(spec, x, rep.theta)) <= 1e-12 * scale
        assert abs(rep.objective - objective_at(spec, x, rep.theta)) <= 1e-12 * scale
        for (i,) in threshold_components(x, lam).blocks:
            direct = solve(spec, x.dense()[np.ix_((i,), (i,))])
            assert direct.iterations == 0
            assert direct.theta.dense()[0, 0] == rep.theta.entry(i, i)

    # hand-built 1x1 blocks, checked against top = 100 (support cutoff 1e-6):
    # positive on the support, positive below the cutoff, zero, negative
    D = np.array([0.5, 3.0, 1.0, 2.0, 0.7])
    T = np.array([2.0, 1e-7, 0.0, -0.5, 1.3])
    TOP = 100.0

    @pytest.mark.parametrize("family, penalty, diag", [
        (Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), False),
        (Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), True),
        (Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 1e9), True),
        (Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), False),
    ])
    def test_stacked_residual_and_piece_are_the_member_ones(self, family, penalty, diag):
        spec = EstimatorSpec(family, penalty, penalize_diagonal=diag)
        rec = _FAMILIES[family]
        s, t = self.D[:, None, None], self.T[:, None, None]
        pieces = rec.piece(spec, s, t)
        stacked = rec.residual(spec, s, t, self.TOP, pieces)
        for i in range(len(self.D)):
            piece = rec.piece(spec, s[i:i + 1], t[i:i + 1])
            assert stacked[i] == rec.residual(spec, s[i:i + 1], t[i:i + 1], self.TOP, piece)[0]
            assert np.array_equal(pieces[i], piece[0])
        assert np.all(np.isinf(stacked[self.T <= 0.0]))
        assert np.all(np.isfinite(stacked[self.T > 0.0]))

    def test_ising_stacked_residual_and_piece_are_the_member_ones(self):
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2))
        rec = _FAMILIES[Family.ISING_PMLE]
        s, t = self.D[:, None, None], np.zeros((len(self.D), 1, 1))
        pieces = rec.piece(spec, s, t)
        stacked = rec.residual(spec, s, t, self.TOP, pieces)
        for i in range(len(self.D)):
            [(logz, moment)] = rec.piece(spec, s[i:i + 1], t[i:i + 1])
            assert stacked[i] == rec.residual(spec, s[i:i + 1], t[i:i + 1], self.TOP, None)[0]
            assert pieces[i][0] == logz and pieces[i][1] == moment
        # a nonzero diagonal is refused as the enumeration refuses it
        with pytest.raises(ValueError, match="zero diagonal"):
            rec.residual(spec, np.eye(1)[None], np.eye(1)[None], 1.0, None)
        nonzero = self.T[:, None, None]
        for part in (lambda: rec.residual(spec, s, nonzero, self.TOP, None),
                     lambda: rec.piece(spec, s, nonzero)):
            with pytest.raises(ValueError, match="zero diagonal"):
                part()

    @staticmethod
    def _mixed(family):
        """Input, non-optimal point and spec on interleaved blocks of sizes
        2, 1, 3, 1, 2, zero off the blocks."""
        partition = Partition.from_blocks([(0, 3), (1,), (2, 5, 6), (4,), (7, 8)], 9)
        labels = np.array(partition.labels)
        same = labels[:, None] == labels[None, :]
        a, b = np.random.default_rng(5).uniform(-0.3, 0.3, (2, 9, 9))
        x = np.where(same, a + a.T, 0.0) + 2.0 * np.eye(9)
        theta = np.where(same, b + b.T, 0.0) + 1.5 * np.eye(9)
        lam = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2)
        spec = {
            Family.GLASSO: EstimatorSpec(Family.GLASSO, lam),
            Family.POSITIVE_INVCOV: EstimatorSpec(
                Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)),
            Family.SPARSE_COV: EstimatorSpec(Family.SPARSE_COV, lam, eps=0.5),
            Family.ISING_PMLE: EstimatorSpec(Family.ISING_PMLE, lam),
        }[family]
        if family is Family.ISING_PMLE:
            np.fill_diagonal(theta, 0.0)
        return spec, x, theta, partition

    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV,
                                        Family.SPARSE_COV, Family.ISING_PMLE])
    def test_mixed_sizes_check_is_the_member_one(self, family, monkeypatch):
        """On blocks of several sizes in one check, the residual is the
        largest one-member residual and the objective assembles the
        one-member pieces in partition order, bit for bit."""
        spec, x, theta, partition = self._mixed(family)
        rec = _FAMILIES[family]
        top = float(np.max(np.abs(theta)))
        residuals, pieces = [], []
        for blk in partition.blocks:
            ix = np.ix_(blk, blk)
            piece = rec.piece(spec, x[ix][None], theta[ix][None])
            residuals.append(float(rec.residual(spec, x[ix][None], theta[ix][None], top, piece)[0]))
            pieces.append(piece[0])
        kkt, objective = _separable_check(spec, x, theta, partition)
        assert kkt == max(residuals) > 0.0
        assert objective == rec.objective(spec, x, theta, pieces)
        # the pieces as the objective receives them
        monkeypatch.setitem(_FAMILIES, family, dataclasses.replace(
            rec, objective=lambda spec, s, t, got: got))
        got = _separable_check(spec, x, theta, partition, residual=False)[1]
        assert len(got) == len(pieces)
        for g, want in zip(got, pieces):
            assert np.array_equal(g, want) if isinstance(want, np.ndarray) else g == want

    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV])
    def test_scaled_singleton_fails_the_check(self, family):
        x, lam = self._all_singletons()
        penalty = (PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam) if family is Family.GLASSO
                   else PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
        spec = EstimatorSpec(family, penalty, opts=OPTS)
        if family is Family.POSITIVE_INVCOV:
            x = SymMatrix.wrap(np.diag(np.diag(x.dense())))  # every block 1x1
        rep = solve_decomposed(spec, x)
        assert rep.converged and len(rep.blocks) == x.p
        theta = rep.theta.dense()
        theta[3, 3] *= 1.01
        partition = reduce_input(*reduction_for(spec), x).partition
        kkt, _ = _separable_check(spec, x, theta, partition)
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert kkt > spec.opts.tol * scale
        assert abs(kkt - kkt_residual(spec, x, theta)) <= 1e-12 * scale

    def test_penalized_diagonal_singletons_take_the_solver(self):
        x, lam = self._all_singletons()
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             penalize_diagonal=True, opts=OPTS)
        rep = solve_decomposed(spec, x)
        assert rep.converged and rep.iterations > 0
        for stat, blk in zip(rep.blocks, threshold_components(x, lam).blocks):
            direct = solve(spec, x.dense()[np.ix_(blk, blk)])
            assert stat.indices == blk and stat.iterations == direct.iterations
            assert direct.theta.dense()[0, 0] == rep.theta.entry(blk[0], blk[0])

    def test_singleton_errors_come_in_partition_order(self):
        """A stack of 1x1 blocks raises what the first failing block raises
        alone: a diagonal at the 1e-12 floor, or a certificate above a
        tolerance finer than 1/(1/x_ii)'s rounding."""
        penalty = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.5)
        spec = EstimatorSpec(Family.GLASSO, penalty, opts=OPTS)
        with pytest.raises(NoSolutionError, match="lam=0 needs a positive definite input"):
            solve_decomposed(spec, SymMatrix.wrap(np.diag([1.0, 1e-13, 2.0])))
        d = np.array([1.0, 3.0, 7.0, 49.0, 10.0])
        assert np.any(1.0 / (1.0 / d) != d)
        fine = EstimatorSpec(Family.GLASSO, penalty, opts=SolverOptions(tol=1e-300))
        with pytest.raises(ConvergenceError, match="glasso: KKT residual"):
            solve_decomposed(fine, SymMatrix.wrap(np.diag(d)))
        # both in one stack: the earlier block's error, whichever it is
        with pytest.raises(ConvergenceError, match="glasso: KKT residual"):
            solve_decomposed(fine, SymMatrix.wrap(np.diag([49.0, 1e-13])))
        with pytest.raises(NoSolutionError, match="lam=0 needs a positive definite input"):
            solve_decomposed(fine, SymMatrix.wrap(np.diag([1e-13, 49.0])))

    def test_ising_singletons_match_ising_pmle(self):
        rng = np.random.default_rng(2)
        pieces = [sign_instance(rng, n).dense() for n in (4, 1, 3, 1, 1)]
        x = SymMatrix.wrap(block_diag(*pieces))
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                             opts=SolverOptions(tol=1e-10))
        rep = solve_decomposed(spec, x)
        assert [len(b.indices) for b in rep.blocks] == [4, 1, 3, 1, 1]
        assert rep.converged
        theta = rep.theta.dense()
        logz = 0
        start = 0
        for piece, stat in zip(pieces, rep.blocks):
            direct = ising_pmle(SymMatrix.wrap(piece), 0.05, spec.opts)
            idx = slice(start, start + len(piece))
            assert np.array_equal(theta[idx, idx], direct.theta.dense())
            assert stat.iterations == direct.iterations
            logz += ising_logpartition(direct.theta)[0]
            start += len(piece)
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert abs(rep.kkt_residual - kkt_residual(spec, x, rep.theta)) <= 1e-12 * scale
        assert rep.objective == pytest.approx(objective_at(spec, x, rep.theta), rel=1e-12)


class TestInfiniteWeight:
    @pytest.mark.parametrize("family", [Family.GLASSO, Family.ISING_PMLE])
    def test_objective_is_finite(self, family):
        """At lam = inf the solution is diagonal and pays no penalty: its
        objective is the lam = 0 objective at the same point, not inf * 0."""
        rng = np.random.default_rng(0)
        x = sign_instance(rng, 6) if family is Family.ISING_PMLE else random_instance(rng, 6)
        spec = EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf), opts=OPTS)
        free = EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.0), opts=OPTS)
        for rep in (solve(spec, x), solve_decomposed(spec, x)):
            theta = rep.theta.dense()
            assert rep.converged and np.array_equal(theta, np.diag(np.diag(theta)))
            assert np.isfinite(rep.objective)
            assert rep.objective == pytest.approx(objective_at(free, x, rep.theta), rel=1e-12)
            assert objective_at(spec, x, rep.theta) == objective_at(free, x, rep.theta)

    INFEASIBLE = {
        "sparse_cov": (EstimatorSpec(Family.SPARSE_COV, PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf),
                                     eps=0.1), True),
        "fantope_spca": (EstimatorSpec(Family.FANTOPE_SPCA,
                                       PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf), k=2), True),
        "glasso_penalized_diagonal": (EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf), penalize_diagonal=True), True),
        "glasso_weight_matrix": (EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.diag([1.0, np.inf, 1.0, 1.0]))),
            False),
    }

    @pytest.mark.parametrize("name", sorted(INFEASIBLE))
    def test_weight_on_an_entry_that_cannot_be_zero_raises(self, name):
        """An infinite weight on an entry that is nonzero at every feasible
        point leaves no finite objective: NoSolutionError before any
        iteration, from the direct and the decomposed solve."""
        spec, decomposable = self.INFEASIBLE[name]
        x = random_instance(np.random.default_rng(0), 4)
        entries = (solve, solve_decomposed) if decomposable else (solve,)
        for entry in entries:
            with pytest.raises(NoSolutionError, match="infinite"):
                entry(spec, x)

    def test_asymmetric_weight_matrix_with_inf_rejected(self):
        w = np.diag([1.0, np.inf, 1.0])
        w[0, 2] = 0.5
        with pytest.raises(ValueError, match="weight matrix must be symmetric"):
            glasso(SymMatrix.wrap(np.eye(3)), w)
