import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import brentq

from suffreduce.estimators import (
    _CHECK_EVERY,
    _FAMILIES,
    _OVER_RELAX,
    _RHO,
    ConvergenceError,
    EstimatorSpec,
    Family,
    NoSolutionError,
    SolverOptions,
    _completion_inverse,
    _fantope_project_dense,
    _glasso_start,
    _positive_invcov_polish,
    _separable_check,
    _size_groups,
    _stack_check,
    _support,
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
from suffreduce.linkage import Partition, chordal_cliques, components, threshold_components
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
        ("max_iter", 0, "max_iter >= 1"),
    ])
    def test_invalid_field_rejected(self, field, value, need):
        with pytest.raises(ValueError, match=f"need {re.escape(need)}$"):
            SolverOptions(**{field: value})

    def test_boundary_values_accepted(self):
        SolverOptions(tol=1e-300, max_iter=1)

    def test_only_tol_and_max_iter(self):
        # rho, over-relaxation and the certificate cadence are fixed
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol", "max_iter"]

    @pytest.mark.parametrize("field, value", [
        ("rho", 2.0), ("over_relax", 1.5), ("adapt_rho", False), ("check_every", 10),
    ])
    def test_removed_field_rejected(self, field, value):
        with pytest.raises(TypeError):
            SolverOptions(**{field: value})

    def test_fixed_settings_are_the_old_defaults(self):
        assert (_RHO, _OVER_RELAX, _CHECK_EVERY) == (1.0, 1.6, 25)


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
                50,
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
                  200, [1e-9, 1e-9])
        assert min(certified) <= 1e-9  # the first member left the stack

    def test_ising_pmle_infinite_input_entry(self):
        """An inf in x makes the tolerance inf; the residual at the start is
        inf too, which must not certify."""
        a = sign_instance(np.random.default_rng(0), 6).dense()
        a[0, 1] = a[1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            try:
                rep = ising_pmle(SymMatrix(a), 0.2, OPTS)
            except ConvergenceError:
                return
        assert not rep.converged

    @pytest.mark.parametrize("entry", [(0, 0), (0, 11), (0, 1)])
    def test_glasso_decomposed_infinite_weight_and_input_entry(self, entry):
        a = random_instance(np.random.default_rng(0), 12, n_blocks=3).dense()
        a[entry] = a[entry[::-1]] = np.inf
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf),
                             opts=OPTS)
        with np.errstate(invalid="ignore"):
            try:
                rep = solve_decomposed(spec, SymMatrix(a))
            except ConvergenceError:
                return
        assert not rep.converged

    def test_admm_driver_exit_needs_a_finite_residual(self):
        from suffreduce.estimators import _admm, _logdet_prox, _soft

        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ConvergenceError, match="in 30 iterations"):
            _admm("glasso", s[None], np.eye(2)[None], _logdet_prox,
                  lambda a, rho: _soft(a, 0.1 / rho),
                  lambda xs, theta, z: (np.full(len(xs), np.inf), z), 30, [np.inf])

    @pytest.mark.parametrize("entry", ["solve", "solve_decomposed"])
    @pytest.mark.parametrize("family", [Family.GLASSO, Family.POSITIVE_INVCOV])
    def test_eigh_failure_is_a_convergence_error(self, family, entry):
        """A NaN inside a block makes eigh raise LinAlgError, a ValueError
        that the CLI would report as a usage error; it must reach the caller
        as the family's ConvergenceError."""
        a = random_instance(np.random.default_rng(0), 12, n_blocks=3).dense()
        a[0, 1] = a[1, 0] = np.nan
        penalty = (PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3) if family is Family.GLASSO
                   else PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
        run = solve if entry == "solve" else solve_decomposed
        with pytest.raises(ConvergenceError, match=f"^{family.value}: ") as caught, \
                np.errstate(invalid="ignore"):
            run(EstimatorSpec(family, penalty, opts=OPTS), SymMatrix(a))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


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

        with pytest.raises(ConvergenceError):
            _admm("stalled", np.zeros((1, 3, 3)), np.zeros((1, 3, 3)), zero, zero, certify,
                  max_iter, [1e-9])
        assert len(calls) <= 2 * math.ceil(max_iter / _CHECK_EVERY)

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
        assert rep.iterations < _CHECK_EVERY
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

    @staticmethod
    def _polish_case(seed, make_battery):
        # the ten 20 x 20 battery inputs 52, 55, ..., 79, one block each; on
        # _case's planted blocks every member certifies its first polish at
        # iteration 25, here one member's first polish fails (73 at seed
        # 20240817, 76 at seed 7), so the members leave at 25 and at 50
        blocks = [x.dense() for x in make_battery(seed, 80)[52::3]]
        return (EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)),
                SymMatrix.wrap(block_diag(*blocks)))

    # blocks exit the stack at iterations 1-17 (glasso), 25 and 50
    # (positive_invcov) and 8-12 (sparse_cov)
    @pytest.mark.parametrize("seed", [20240817, 7])
    @pytest.mark.parametrize("case", ["glasso", "positive_invcov", "sparse_cov"])
    def test_stack_matches_blocks_solved_alone(self, seed, case, make_battery):
        spec, x = (self._polish_case(seed, make_battery) if case == "positive_invcov"
                   else self._case(seed, case))
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
        max_iter = 100
        with pytest.raises(ConvergenceError, match="tol 2.000e-09 in 100 iterations"):
            _admm("stack", x, np.zeros((3, 3, 3)), zero, zero, certify, max_iter,
                  [1e-9, 2e-9, 3e-9])
        assert calls[0] == 3 and calls[2] == 1
        assert calls[1] <= 2 * math.ceil(max_iter / _CHECK_EVERY)
        # one call per iteration on every due member: all three at iteration
        # 1 (early), 0 and 1 at 25 (cadence) and 26 (early), then 1 alone
        assert stacks[:3] == [[0, 1, 2], [0, 1], [0, 1]]
        assert all(members == [1] for members in stacks[3:])

    def test_failing_block_raises_what_it_raises_alone(self):
        # blocks of sizes 3, 4, 3: the 3x3 stack meets the NoSolutionError of
        # its second block first, but the 4x4 block, first in partition
        # order, stalls, and a block-by-block solve raises its error
        easy = np.full((3, 3), 0.2) + 0.8 * np.eye(3)  # 1 iteration alone
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

    # summed block iterations from the start diag(1/d) with a zero dual, on
    # a planted input (10 blocks of 20, within 0.6, cross 0.05, tol 1e-7)
    @pytest.mark.parametrize("lam, cold", [(0.3, 187), (0.4, 178)])
    def test_dual_feasible_start_cuts_planted_iterations(self, lam, cold):
        x = random_instance(np.random.default_rng(20240817), 200, n_blocks=10,
                            within=0.6, cross=0.05)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             opts=SolverOptions(tol=1e-7))
        rep = solve_decomposed(spec, x)
        assert rep.converged and len(rep.blocks) == 10
        assert rep.iterations <= 0.5 * cold


class TestDualFeasibleStart:
    """glasso's ADMM starts each problem at w0^-1, where w0 is the soft
    threshold of x at the weights off the diagonal and x_ii + lam_ii on it,
    when w0 is positive definite and that point has a lower objective than
    diag(1/d); else at diag(1/d).  The dual starts at (w0 - x) / rho."""

    # w0 at lam 0.4 is positive definite, but nearly singular (min eig 0.025)
    NEAR = np.array([[0.73, 1.66, -0.37, 0.63], [1.66, 6.04, -1.33, 1.9],
                     [-0.37, -1.33, 0.48, -0.42], [0.63, 1.9, -0.42, 0.69]])
    # w0 at lam 0.4 is indefinite (min eig -0.041)
    INDEFINITE = np.array([[1.1, -1.95, -0.42, 0.46], [-1.95, 4.68, 1.61, -1.38],
                           [-0.42, 1.61, 0.97, -0.43], [0.46, -1.38, -0.43, 0.57]])

    @staticmethod
    def _equi(n):
        return 0.6 * np.ones((n, n)) + 0.4 * np.eye(n)

    @staticmethod
    def _w0(s, lam_mat):
        w0 = np.sign(s) * np.maximum(np.abs(s) - lam_mat, 0.0)
        np.fill_diagonal(w0, np.diag(s) + np.diag(lam_mat))
        return w0

    @staticmethod
    def _start(s, lam_mat):
        return _glasso_start(s[None], lam_mat, np.diag(s)[None])[0][0]

    def _certified(self, s, lam, **kw):
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             opts=OPTS, **kw)
        rep = solve(spec, s)
        assert rep.converged
        assert kkt_residual(spec, s, rep.theta) <= OPTS.tol * (1.0 + np.max(np.abs(s)))
        return rep

    @pytest.mark.parametrize("diag", [False, True])
    @pytest.mark.parametrize("lam", [0.2, 0.5])
    def test_equicorrelated_block_is_solved_by_its_start(self, lam, diag):
        # w0 = a 11^T + b I: its inverse has negative off-diagonal entries,
        # which meet the KKT conditions exactly
        s = self._equi(5)
        rep = self._certified(s, lam, penalize_diagonal=diag)
        assert rep.iterations == 0
        lam_mat = np.full((5, 5), lam) if diag else lam * (1.0 - np.eye(5))
        w0_inv = np.linalg.inv(self._w0(s, lam_mat))
        assert np.max(np.abs(rep.theta.dense() - w0_inv)) <= 1e-12

    def test_indefinite_w0_starts_at_the_diagonal(self):
        s = np.full((3, 3), 0.9)
        np.fill_diagonal(s, 1.0)
        weights = np.zeros((3, 3))
        weights[0, 1] = weights[1, 0] = 0.9
        assert np.linalg.eigvalsh(self._w0(s, weights))[0] < -0.27
        assert np.array_equal(self._start(s, weights), np.eye(3))
        self._certified(s, weights)

    def test_guard_keeps_the_diagonal_on_a_near_singular_w0(self):
        lam_mat = 0.4 * (1.0 - np.eye(4))
        assert 0.0 < np.linalg.eigvalsh(self._w0(self.NEAR, lam_mat))[0] < 0.03
        assert np.array_equal(self._start(self.NEAR, lam_mat), np.diag(1.0 / np.diag(self.NEAR)))
        self._certified(self.NEAR, 0.4)

    def test_mixed_starts_in_one_stack_match_each_block_alone(self):
        lam_mat = 0.4 * (1.0 - np.eye(4))
        blocks = [self._equi(4), self.NEAR, self.INDEFINITE, 2.0 * self._equi(4)]
        starts = [self._start(b, lam_mat) for b in blocks]
        assert np.allclose(starts[0], np.linalg.inv(self._w0(blocks[0], lam_mat)))
        assert np.array_equal(starts[1], np.diag(1.0 / np.diag(blocks[1])))
        assert np.linalg.eigvalsh(self._w0(blocks[2], lam_mat))[0] < 0.0
        assert np.array_equal(starts[2], np.diag(1.0 / np.diag(blocks[2])))
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.4), opts=OPTS)
        rep = solve_decomposed(spec, SymMatrix.wrap(block_diag(*blocks)))
        assert rep.converged and [len(b.indices) for b in rep.blocks] == [4] * 4
        # the equicorrelated members are certified at their start and leave
        # before the ADMM; the other two iterate
        assert [b.iterations == 0 for b in rep.blocks] == [True, False, False, True]
        theta = rep.theta.dense()
        for stat, b, start in zip(rep.blocks, blocks, starts):
            alone = solve(spec, b)
            assert stat.iterations == alone.iterations
            ix = np.ix_(stat.indices, stat.indices)
            assert theta[ix].tobytes() == alone.theta.dense().tobytes()
            if stat.iterations == 0:
                assert theta[ix].tobytes() == start.tobytes()

    @pytest.mark.parametrize("diag", [False, True])
    def test_equicorrelated_blocks_take_no_eigendecomposition(self, diag, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        blocks = [self._equi(4), self._equi(5), 2.0 * self._equi(4)]
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2),
                             penalize_diagonal=diag, opts=OPTS)
        rep = solve_decomposed(spec, SymMatrix.wrap(block_diag(*blocks)))
        assert rep.converged and [b.iterations for b in rep.blocks] == [0, 0, 0]
        assert calls == []

    # connected but not a clique of the thresholded graph at lam 0.2: a path
    PATH = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.5], [0.1, 0.5, 1.0]])
    # a clique at lam 0.1 whose w0^-1 has the sign of x, not of -x, at (0, 2)
    SAME_SIGN = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.9], [0.5, 0.9, 1.0]])
    # the 4-cycle 0-1-2-3 at lam 0.2, with w0^-1 negative on the cycle: its
    # sign-consistent graph is the cycle, which is not chordal
    CYCLE = np.array([[1.0, 0.4, 0.1, 0.4], [0.4, 1.0, 0.4, 0.1],
                      [0.1, 0.4, 1.0, 0.4], [0.4, 0.1, 0.4, 1.0]])

    def test_tree_is_solved_by_its_closed_form(self):
        """PATH fails the entrywise gate (w0^-1 is nonzero at (0, 2)), but its
        sign-consistent graph is the path 0-1-2, a tree: the closed form
        inv(w0_01) + inv(w0_12) - 1 / w0_11, each term padded with zeros, is
        certified and reported at 0 iterations."""
        lam_mat = 0.2 * (1.0 - np.eye(3))
        z0, w0, pos = _glasso_start(self.PATH[None], lam_mat, np.diag(self.PATH)[None])
        assert pos[0] and z0[0, 0, 2] != 0.0
        w0 = w0[0]
        tree = np.zeros((3, 3))
        for edge in ([0, 1], [1, 2]):
            tree[np.ix_(edge, edge)] += np.linalg.inv(w0[np.ix_(edge, edge)])
        tree[1, 1] -= 1.0 / w0[1, 1]
        rep = self._certified(self.PATH, 0.2)
        assert rep.iterations == 0
        theta = rep.theta.dense()
        assert theta[0, 2] == theta[2, 0] == 0.0
        assert np.max(np.abs(theta - tree)) <= 1e-12
        # its inverse is w0 on the path and on the diagonal
        inv = np.linalg.inv(theta)
        on = tree != 0.0
        assert np.max(np.abs(inv[on] - w0[on])) <= 1e-12

    def test_completion_inverse_on_random_chordal_graphs(self):
        """On random SPD w and random chordal graphs, the closed form is zero
        off the graph and its inverse equals w on the graph and on the
        diagonal."""
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 13))
            adj = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.95), 1)
            adj |= adj.T
            cliques = chordal_cliques(adj)
            if cliques is None:
                continue
            a = rng.standard_normal((n, n + 3))
            w = a @ a.T / (n + 3) + 0.1 * np.eye(n)
            theta = _completion_inverse(w, *cliques)
            on = adj | np.eye(n, dtype=bool)
            assert np.array_equal(theta, theta.T)
            assert np.all(theta[~on] == 0.0)
            inv = np.linalg.inv(theta)
            assert np.max(np.abs(inv[on] - w[on])) <= 1e-10 * np.max(np.abs(w))
            checked += 1

    def test_gate_chordal_and_iterating_members_in_one_stack(self):
        """One stack of three 4x4 blocks at lam 0.2: an equicorrelated block
        certified at w0^-1 by the gate, a path whose w0^-1 fails the gate but
        whose closed form on the path certifies, and the 4-cycle, which
        iterates.  Each gets the theta bytes and iteration count it gets
        alone, and the path gets the closed form bit for bit."""
        path = np.eye(4)
        path[[0, 1, 2], [1, 2, 3]] = path[[1, 2, 3], [0, 1, 2]] = [0.4, 0.45, 0.4]
        path[0, 2] = path[2, 0] = 0.1
        path[1, 3] = path[3, 1] = -0.05
        path[0, 3] = path[3, 0] = 0.15
        blocks = [self._equi(4), path, self.CYCLE]
        lam_mat = 0.2 * (1.0 - np.eye(4))
        z0, w0, pos = _glasso_start(np.stack(blocks), lam_mat, np.stack([np.diag(b) for b in blocks]))
        assert pos.all() and z0[1, 0, 3] != 0.0  # the path fails the gate
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2), opts=OPTS)
        rep = solve_decomposed(spec, SymMatrix.wrap(block_diag(*blocks)))
        assert rep.converged and [b.iterations for b in rep.blocks] == [0, 0, 8]
        theta = rep.theta.dense()
        for stat, b in zip(rep.blocks, blocks):
            alone = solve(spec, b)
            assert stat.iterations == alone.iterations
            ix = np.ix_(stat.indices, stat.indices)
            assert theta[ix].tobytes() == alone.theta.dense().tobytes()
        closed = _completion_inverse(w0[1], [[0, 1], [1, 2], [2, 3]], [[1], [2]])
        assert theta[4:8, 4:8].tobytes() == closed.tobytes()

    # iterations: what each input takes with the ADMM run from its start;
    # INDEFINITE is a clique at lam 0.4 that starts at diag(1/d)
    @pytest.mark.parametrize("case, lam, tol, iterations", [
        ("not_chordal", 0.2, 1e-9, 8),
        ("cold_start", 0.4, 1e-9, 50),
        ("same_sign", 0.1, 1e-9, 38),
        ("tol_below_rounding", 0.5, 2e-16, 194),
    ])
    def test_start_that_fails_runs_the_admm_from_it(self, case, lam, tol, iterations,
                                                    monkeypatch):
        """A member that fails the entrywise gate and whose sign-consistent
        graph is not chordal takes no certificate before the ADMM; one that
        passes the gate, or whose graph is chordal, but whose closed-form
        point misses the tolerance pays one.  All run the ADMM from the start
        pair (w0^-1 or diag(1/d), (w0 - x) / rho)."""
        import suffreduce.estimators as est

        s = {"not_chordal": self.CYCLE, "cold_start": self.INDEFINITE,
             "same_sign": self.SAME_SIGN, "tol_below_rounding": self._equi(3)}[case]
        events = []
        admm, kkt = est._admm, est._glasso_kkt

        def spy_admm(name, x, z0, *args, u0=None):
            events.append(("admm", z0.tobytes(), u0.tobytes()))
            return admm(name, x, z0, *args, u0=u0)

        def spy_kkt(*args, **kwargs):
            events.append(("kkt", args[2].tobytes()))
            return kkt(*args, **kwargs)

        monkeypatch.setattr(est, "_admm", spy_admm)
        monkeypatch.setattr(est, "_glasso_kkt", spy_kkt)
        rep = glasso(SymMatrix.wrap(s), lam, SolverOptions(tol=tol))
        assert rep.converged and rep.iterations == iterations
        assert rep.kkt_residual <= tol * (1.0 + np.max(np.abs(s)))
        lam_mat = lam * (1.0 - np.eye(len(s)))
        z0, w0, _ = _glasso_start(s[None], lam_mat, np.diag(s)[None])
        admm_at = [e[0] for e in events].index("admm")
        assert events[admm_at][1:] == (z0.tobytes(), ((w0 - s) / _RHO).tobytes())
        assert admm_at == (1 if case in ("same_sign", "tol_below_rounding") else 0)
        if case == "same_sign":
            # the one certificate is at the closed form on the path 0-1-2,
            # the clique less the edge (0, 2) where w0^-1 has the sign of x
            assert z0[0, 0, 2] > 0.0
            path = _completion_inverse(w0[0], [[0, 1], [1, 2]], [[1]])
            assert events[0] == ("kkt", path[None].tobytes())


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

    def test_unpenalized_stack_raises_for_its_first_failing_member(self, ill_conditioned):
        """With no penalty a stack certifies all its closed-form inverses at
        once; the error names the first member that fails, with the message
        that member gives alone."""
        from suffreduce.estimators import _glasso_stack

        good = np.eye(6) + 0.1 * np.ones((6, 6))
        zero = np.zeros((6, 6))
        opts = SolverOptions(tol=1e-9)
        with pytest.raises(ConvergenceError) as alone:
            _glasso_stack(ill_conditioned[None], zero, opts)
        for stack in ([good, ill_conditioned], [good, ill_conditioned, 2.0 * ill_conditioned]):
            with pytest.raises(ConvergenceError) as stacked:
                _glasso_stack(np.stack(stack), zero, opts)
            assert str(stacked.value) == str(alone.value)
        solved = _glasso_stack(np.stack([good, 2.0 * good]), zero, opts)
        assert [it for _, _, it in solved] == [0, 0]
        for (theta, kkt, _), x in zip(solved, (good, 2.0 * good)):
            assert kkt <= opts.tol * (1.0 + np.max(np.abs(x)))
            assert np.allclose(theta @ x, np.eye(6), atol=1e-12)

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

    def test_certificate_scores_a_positive_offdiagonal_entry(self):
        """inv(x) meets every stationarity condition but has a positive
        off-diagonal entry: the residual reads that entry and the objective
        inf, also for a member of a stacked blockwise check."""
        x = np.cov(np.random.default_rng(0).standard_normal((50, 6)).T)
        theta = np.linalg.inv(x)
        off = ~np.eye(6, dtype=bool)
        worst = theta[off].max()
        assert worst == pytest.approx(0.159, abs=1e-3)
        spec = EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                             opts=OPTS)
        assert kkt_residual(spec, x, theta) == worst
        assert objective_at(spec, x, theta) == np.inf
        rep = solve(spec, x)
        assert rep.converged and np.all(rep.theta.dense()[off] <= 0.0)
        assert rep.objective == pytest.approx(5.7367, abs=1e-4)
        # two copies of x as two 6x6 blocks: the optimum and inv(x)
        s, t = block_diag(x, x), block_diag(rep.theta.dense(), theta)
        groups = _size_groups(Partition.from_blocks([range(6), range(6, 12)], 12))
        stacks = [(s[ix], t[ix]) for _, ix in groups]
        assert len(stacks) == 1 and len(stacks[0][0]) == 2
        kkt, objective, _ = _stack_check(spec, s, t, groups, stacks)
        assert kkt == worst and objective == np.inf
        rec = _FAMILIES[Family.POSITIVE_INVCOV]
        shared = rec.share(spec, *stacks[0])
        alone = rec.residual(spec, *stacks[0], float(np.max(np.abs(t))), shared)
        assert alone[0] <= spec.opts.tol * (1.0 + np.max(np.abs(x))) and alone[1] == worst
        pieces = rec.piece(spec, *stacks[0], shared)
        assert pieces[0] == pytest.approx(rep.objective, rel=1e-12) and pieces[1] == np.inf


class TestPositiveInvCovPolish:
    """positive_invcov's certificate callback polishes each due ADMM point
    by Newton on its pattern and reports the polished point only where the
    certificate passes it; the ADMM goes on otherwise."""

    SPEC = EstimatorSpec(Family.POSITIVE_INVCOV, PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY),
                         opts=SolverOptions(tol=1e-8))

    @pytest.mark.parametrize("seed", [20240817, 7])
    @pytest.mark.parametrize("way", [solve, solve_decomposed])
    def test_battery_reports_are_feasible_and_certified(self, seed, way, make_battery):
        for x in make_battery(seed):
            rep = way(self.SPEC, x)
            theta = rep.theta.dense()
            assert rep.converged
            assert np.all(theta[~np.eye(x.p, dtype=bool)] <= 0.0)
            scale = 1.0 + float(np.max(np.abs(x.dense())))
            assert kkt_residual(self.SPEC, x, rep.theta) <= self.SPEC.opts.tol * scale

    # summed iterations of these 50 solves before the polish; most now
    # certify at their first check, iteration 25
    def test_polish_cuts_battery_iterations(self, battery):
        assert sum(solve(self.SPEC, x).iterations for x in battery) <= 0.75 * 3133

    def test_failed_first_polish_still_converges(self, battery, monkeypatch):
        """battery input 14 (p = 30): its first polish, at iteration 25, is
        not certified, so the ADMM goes on and certifies at iteration 50."""
        import suffreduce.estimators as est

        x = battery[14]
        tol = self.SPEC.opts.tol * (1.0 + float(np.max(np.abs(x.dense()))))
        tried = []

        def recorded(s, z, tol_b):
            out = _positive_invcov_polish(s, z, tol_b)
            tried.append(np.inf if out is None else kkt_residual(self.SPEC, s, out))
            return out

        monkeypatch.setattr(est, "_positive_invcov_polish", recorded)
        rep = solve(self.SPEC, x)
        assert x.p == 30 and rep.converged and rep.iterations == 2 * _CHECK_EVERY
        assert tried[0] > tol and tried[-1] <= tol
        assert kkt_residual(self.SPEC, x, rep.theta) <= tol

    def test_polish_keeps_the_pattern_and_zeros(self, battery):
        """From a point on the solution's pattern, perturbed there, the
        polish is zero wherever that point is, and its gradient on the
        pattern is within tol."""
        x = battery[5].dense()
        theta = solve(self.SPEC, x).theta.dense()
        on = theta != 0.0
        bump = 1e-3 * np.random.default_rng(1).standard_normal(theta.shape)
        z = theta + np.where(on & (theta < -1e-3), bump + bump.T, 0.0)
        tol = 1e-10
        out = _positive_invcov_polish(x, z, tol)
        assert np.array_equal(out == 0.0, z == 0.0) and np.array_equal(out, out.T)
        grad = np.where(z != 0.0, x - np.linalg.inv(out), 0.0)
        assert np.max(np.abs(grad)) <= 10 * tol
        assert _positive_invcov_polish(x, -np.eye(len(x)), tol) is None


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
    @pytest.mark.parametrize("p", range(1, 13))
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

    @pytest.mark.parametrize("p", [13, 15])
    def test_logpartition_matches_full_sign_table(self, p):
        """The largest sizes against a sum over all 2^p sign vectors, from a
        sign table built here with no use of the spin-flip symmetry."""
        a = np.triu(np.random.default_rng(p).uniform(-0.5, 0.5, (p, p)), 1)
        theta = a + a.T
        states = 1.0 - 2.0 * ((np.arange(2 ** p)[:, None] >> np.arange(p)) & 1)
        energy = np.einsum("si,ij,sj->s", states, theta, states)
        weights = np.exp(energy - energy.max())
        ref_logz = energy.max() + np.log(weights.sum())
        ref_moment = (states * (weights / weights.sum())[:, None]).T @ states
        logz, moment = ising_logpartition(SymMatrix.wrap(theta))
        assert abs(logz - ref_logz) <= 1e-12 * abs(ref_logz)
        assert np.max(np.abs(moment.dense() - ref_moment)) <= 1e-12
        assert np.array_equal(np.diag(moment.dense()), np.ones(p))

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
            # the solver scores its own point as the independent check does
            assert kkt_residual(spec, x, rep.theta) == rep.kkt_residual
            assert objective_at(spec, x, rep.theta) == rep.objective

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

    # weights: the seed of a random weight matrix, or None for the scalar
    # 0.2; at_start: whether the solve is certified before any iteration
    @pytest.mark.parametrize("weights, at_start", [
        ("matrix", True), ("iterating_matrix", False), ("scalar", True),
    ])
    def test_glasso_penalized_diagonal_check_matches_report(self, weights, at_start):
        """kkt_residual and objective_at of a glasso spec with a penalized
        diagonal reproduce the solver's own certificate and objective, at a
        closed-form start and at an ADMM point."""
        x = random_instance(np.random.default_rng(4), 8)
        lam = 0.2
        if weights != "scalar":
            seed = {"matrix": 5, "iterating_matrix": 7}[weights]
            w = np.abs(np.random.default_rng(seed).standard_normal((8, 8)))
            lam = 0.2 * (w + w.T)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             penalize_diagonal=True, opts=OPTS)
        rep = solve(spec, x)
        # with scalar weights this input is solved by its start w0^-1, with
        # the weights of seed 5 by the closed form on a chordal graph
        assert rep.converged and (rep.iterations == 0) == at_start
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
    fantope_spca still stops on its ADMM residuals and is not checked here;
    the duality-gap certificate of ROADMAP item 1 will add it."""

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
    def test_planted_lambdas(self, way):
        """glasso and sparse_cov at the eight lambdas of the planted benchmark
        path, on a p = 200 input with ten blocks: where a solve reports
        converged, the certificate holds; a ConvergenceError is a failed
        solve, not a false certificate."""
        x = random_instance(np.random.default_rng(20240817), 200, n_blocks=10,
                            within=0.6, cross=0.05)
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        opts = SolverOptions(tol=1e-7)
        for lam in np.linspace(0.30, 0.66, 8):
            l1 = PenaltySpec(PenaltyKind.SYMMETRIC_L1, float(lam))
            for spec in (EstimatorSpec(Family.GLASSO, l1, opts=opts),
                         EstimatorSpec(Family.SPARSE_COV, l1, eps=0.01, opts=opts)):
                try:
                    rep = way(spec, x)
                except ConvergenceError:
                    continue
                if rep.converged:
                    assert kkt_residual(spec, x, rep.theta) <= opts.tol * scale

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
        kkt, objective = _separable_check(spec, x, theta, _size_groups(partition))
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
        assert _separable_check(spec, x, SymMatrix.wrap(theta), _size_groups(partition))[0] == np.inf

    def test_blockwise_certificate_rejects_nan(self, rng, monkeypatch):
        spec, x, partition, theta = self._glasso_solution(rng)
        groups = _size_groups(partition)
        first, last = partition.blocks[0], partition.blocks[groups[-1][0][-1]]
        # theta: a NaN at (0, 0) and an inf in the last member of the last stack
        for (i, j), v in (((0, 0), np.nan), ((last[0], last[-1]), np.inf)):
            t = theta.copy()
            t[i, j] = t[j, i] = v
            kkt, objective = _separable_check(spec, x, t, groups)
            assert kkt == np.inf and np.isnan(objective)
        # x: a NaN off the blocks, then on a block's diagonal; the solver is
        # given the clean stack, so only the certificate sees the NaN
        xd, k = x.dense(), first[0]
        real = _FAMILIES[Family.GLASSO].stack
        monkeypatch.setitem(_FAMILIES, Family.GLASSO, dataclasses.replace(
            _FAMILIES[Family.GLASSO],
            stack=lambda spec, xs: real(spec, np.nan_to_num(xs, nan=xd[k, k]))))
        for i, j in ((k, last[0]), (k, k)):
            xn = xd.copy()
            xn[i, j] = xn[j, i] = np.nan
            assert _separable_check(spec, SymMatrix(xn), theta, groups)[0] == np.inf
            rep = solve_decomposed(spec, SymMatrix(xn.copy()))
            assert rep.kkt_residual == np.inf and not rep.converged

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
        kkt, objective = _separable_check(spec, x, theta, _size_groups(partition))
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
        kkt, _ = _separable_check(spec, x, theta, _size_groups(finer))
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


class TestFlatPlumbing:
    """solve_decomposed symmetrizes theta per stack and finds its support
    per stack; both must give the bits of doing it on the p x p theta."""

    @staticmethod
    def _planted(draw, sizes):
        # blocks of several sizes, 1x1 ones among them, interleaved by a
        # fixed permutation so that no block is a contiguous range
        rng = np.random.default_rng(11)
        a = block_diag(*[draw(rng, n).dense() for n in sizes])
        order = np.random.default_rng(12).permutation(len(a))
        return SymMatrix.wrap(a[np.ix_(order, order)])

    SIZES = (6, 1, 5, 6, 1, 4, 5, 1)

    @pytest.mark.parametrize("family, diag", [
        (Family.GLASSO, False), (Family.GLASSO, True),
        (Family.POSITIVE_INVCOV, False), (Family.ISING_PMLE, False),
    ])
    def test_theta_and_support_match_the_dense_route(self, family, diag):
        if family is Family.ISING_PMLE:
            x = self._planted(sign_instance, self.SIZES)
            spec = EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                                 opts=SolverOptions(tol=1e-10))
        else:
            x = self._planted(lambda rng, n: random_instance(rng, n, n_blocks=1), self.SIZES)
            penalty = (PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3) if family is Family.GLASSO
                       else PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY))
            spec = EstimatorSpec(family, penalty, penalize_diagonal=diag, opts=OPTS)
        rep = solve_decomposed(spec, x)
        sizes = [len(b.indices) for b in rep.blocks]
        assert rep.converged and 1 in sizes and len(set(sizes)) >= 3
        assert any(sizes.count(n) > 1 for n in set(sizes) - {1})
        theta = rep.theta.values
        assert theta.tobytes() == theta.T.tobytes()
        assert theta.tobytes() == SymMatrix.wrap(rep.theta).values.tobytes()
        assert np.array_equal(rep.support, _support(np.asarray(rep.theta)))
        assert rep.support.any() and not rep.support.all()

    def test_stack_output_is_symmetrized_and_classified_as_a_whole(self, monkeypatch):
        """A stack solver whose members are not exactly symmetric, and whose
        4x4 member is 1e-9 times the others: theta is wrap() of the raw
        scatter, and that member falls below the whole-matrix cutoff though
        it clears its own."""
        def fake(spec, xs):
            n = xs.shape[-1]
            t = xs * (1.0 + 1e-3 * np.triu(np.ones((n, n)), 1)) * (1e-9 if n == 4 else 1.0)
            return [(t_b, 0, 0) for t_b in t]

        monkeypatch.setitem(_FAMILIES, Family.GLASSO,
                            dataclasses.replace(_FAMILIES[Family.GLASSO], stack=fake))
        x = self._planted(lambda rng, n: random_instance(rng, n, n_blocks=1), self.SIZES)
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS)
        rep = solve_decomposed(spec, x)
        raw = np.zeros((x.p, x.p))
        for stat in rep.blocks:
            ix = np.ix_(stat.indices, stat.indices)
            [(raw[ix], _, _)] = fake(spec, x.dense()[ix][None])
        assert not np.array_equal(raw, raw.T)
        want = SymMatrix.wrap(raw).values
        assert rep.theta.values.tobytes() == want.tobytes()
        assert np.array_equal(rep.support, _support(want))
        [small] = [np.ix_(b.indices, b.indices) for b in rep.blocks if len(b.indices) == 4]
        assert _support(want[small]).any() and not rep.support[small].any()


class TestStackCertificate:
    """solve_decomposed certifies the stacks it reports, reusing its
    read-only input stacks, instead of the p x p theta it scatters them
    into; that must be the p x p check of the reported theta, bit for bit."""

    CASES = [(Family.GLASSO, False), (Family.GLASSO, True), (Family.SPARSE_COV, False),
             (Family.POSITIVE_INVCOV, False), (Family.ISING_PMLE, False)]

    @staticmethod
    def _case(family, diag=False):
        """A spec and an input whose screening gives blocks of several sizes."""
        if family is Family.ISING_PMLE:
            return (EstimatorSpec(family, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                                  opts=SolverOptions(tol=1e-10)),
                    TestFlatPlumbing._planted(sign_instance, TestFlatPlumbing.SIZES))
        penalty = (PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY) if family is Family.POSITIVE_INVCOV
                   else PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3))
        spec = EstimatorSpec(family, penalty, penalize_diagonal=diag, opts=OPTS,
                             eps=0.05 if family is Family.SPARSE_COV else None)
        x = TestFlatPlumbing._planted(lambda rng, n: random_instance(rng, n, n_blocks=1),
                                      TestFlatPlumbing.SIZES)
        return spec, x

    @pytest.mark.parametrize("family, diag", CASES)
    def test_report_is_the_check_of_its_theta(self, family, diag):
        spec, x = self._case(family, diag)
        rep = solve_decomposed(spec, x)
        partition = reduce_input(*reduction_for(spec), x).partition
        assert len({len(b) for b in partition.blocks}) >= 3
        kkt, objective = _separable_check(spec, x, rep.theta, _size_groups(partition))
        assert rep.kkt_residual.hex() == kkt.hex()
        assert rep.objective.hex() == objective.hex()
        assert rep.converged == (kkt <= spec.opts.tol * (1.0 + np.max(np.abs(x.dense()))))
        assert rep.converged

    @pytest.mark.parametrize("family, diag", CASES)
    def test_stack_solvers_accept_read_only_input(self, family, diag):
        spec, x = self._case(family, diag)
        stack = _FAMILIES[family].stack
        s = x.dense()
        for _, ix in _size_groups(reduce_input(*reduction_for(spec), x).partition):
            xs = s[ix]
            xs.flags.writeable = False
            for (t, kkt, it), (tw, kktw, itw) in zip(stack(spec, xs), stack(spec, xs.copy()),
                                                     strict=True):
                assert t.tobytes() == tw.tobytes() and kkt == kktw and it == itw

    def test_solver_gets_read_only_stacks_and_a_non_finite_member_fails(self, monkeypatch):
        """Every stack reaches the solver read-only; a NaN or inf in the last
        member of any one stack gives (inf, nan), whichever stack it is."""
        spec, x = self._case(Family.GLASSO)
        real = _FAMILIES[Family.GLASSO].stack
        seen, poison = [], {}

        def solver(spec, xs):
            seen.append(xs.flags.writeable)
            out = real(spec, xs)
            if xs.shape[-1] in poison:
                t = out[-1][0].copy()
                t[0, -1] = t[-1, 0] = poison[xs.shape[-1]]
                out[-1] = (t,) + out[-1][1:]
            return out

        monkeypatch.setitem(_FAMILIES, Family.GLASSO,
                            dataclasses.replace(_FAMILIES[Family.GLASSO], stack=solver))
        assert solve_decomposed(spec, x).converged
        assert seen and not any(seen)
        for n in sorted(set(TestFlatPlumbing.SIZES)):
            for v in (np.nan, np.inf, -np.inf):
                poison.clear()
                poison[n] = v
                rep = solve_decomposed(spec, x)
                assert rep.kkt_residual == np.inf and np.isnan(rep.objective)
                assert not rep.converged


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

    @classmethod
    def _hooks(cls, rec, spec, s, t, top=None):
        """The objective pieces and residuals a check takes from the record
        for the stack (s, t)."""
        shared = rec.share(spec, s, t)
        return (rec.piece(spec, s, t, shared),
                rec.residual(spec, s, t, cls.TOP if top is None else top, shared))

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
        pieces, stacked = self._hooks(rec, spec, s, t)
        for i in range(len(self.D)):
            piece, alone = self._hooks(rec, spec, s[i:i + 1], t[i:i + 1])
            assert stacked[i] == alone[0]
            assert np.array_equal(pieces[i], piece[0])
        assert np.all(np.isinf(stacked[self.T <= 0.0]))
        assert np.all(np.isfinite(stacked[self.T > 0.0]))

    def test_ising_stacked_residual_and_piece_are_the_member_ones(self):
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.2))
        rec = _FAMILIES[Family.ISING_PMLE]
        s, t = self.D[:, None, None], np.zeros((len(self.D), 1, 1))
        pieces, stacked = self._hooks(rec, spec, s, t)
        for i in range(len(self.D)):
            [(logz, moment)], alone = self._hooks(rec, spec, s[i:i + 1], t[i:i + 1])
            assert stacked[i] == alone[0]
            assert pieces[i][0] == logz and pieces[i][1] == moment
        # a nonzero diagonal is refused as the enumeration refuses it
        with pytest.raises(ValueError, match="zero diagonal"):
            rec.share(spec, np.eye(1)[None], np.eye(1)[None])
        with pytest.raises(ValueError, match="zero diagonal"):
            rec.share(spec, s, self.T[:, None, None])

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
            piece, resid = self._hooks(rec, spec, x[ix][None], theta[ix][None], top)
            residuals.append(float(resid[0]))
            pieces.append(piece[0])
        kkt, objective = _separable_check(spec, x, theta, _size_groups(partition))
        assert kkt == max(residuals) > 0.0
        assert objective == rec.objective(spec, x, theta, pieces)
        # the pieces as the objective receives them
        monkeypatch.setitem(_FAMILIES, family, dataclasses.replace(
            rec, objective=lambda spec, s, t, got: got))
        got = _separable_check(spec, x, theta, _size_groups(partition), residual=False)[1]
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
        kkt, _ = _separable_check(spec, x, theta, _size_groups(partition))
        scale = 1.0 + float(np.max(np.abs(x.dense())))
        assert kkt > spec.opts.tol * scale
        assert abs(kkt - kkt_residual(spec, x, theta)) <= 1e-12 * scale

    def test_penalized_diagonal_singletons_take_the_solver(self):
        x, lam = self._all_singletons()
        spec = EstimatorSpec(Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam),
                             penalize_diagonal=True, opts=OPTS)
        rep = solve_decomposed(spec, x)
        # each block is solved by its start 1 / (x_ii + lam)
        assert rep.converged and rep.iterations == 0
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

    def test_ising_size_group_members_match_ising_pmle(self):
        """Every member of a size group of several Ising blocks gets exactly
        the theta and the iteration count that ising_pmle gives it alone,
        and the stacked residual and objective pieces are the member ones."""
        rng = np.random.default_rng(3)
        sizes = (4, 3, 4, 2, 3, 4, 2)
        pieces = [sign_instance(rng, n, n_blocks=1).dense() for n in sizes]
        x = SymMatrix.wrap(block_diag(*pieces))
        spec = EstimatorSpec(Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05),
                             opts=SolverOptions(tol=1e-10))
        rep = solve_decomposed(spec, x)
        assert [len(b.indices) for b in rep.blocks] == list(sizes)
        assert rep.converged
        theta = rep.theta.dense()
        start = 0
        for piece, stat in zip(pieces, rep.blocks):
            direct = ising_pmle(SymMatrix.wrap(piece), 0.05, spec.opts)
            idx = slice(start, start + len(piece))
            assert np.array_equal(theta[idx, idx], direct.theta.dense())
            assert stat.iterations == direct.iterations > 0
            start += len(piece)
        rec = _FAMILIES[Family.ISING_PMLE]
        s = x.dense()
        top = float(np.max(np.abs(theta)))
        for members, ix in _size_groups(reduce_input(*reduction_for(spec), x).partition):
            assert len(members) >= 2
            stacked_pieces, stacked = self._hooks(rec, spec, s[ix], theta[ix], top)
            for b in range(len(members)):
                piece, alone = self._hooks(rec, spec, s[ix][b:b + 1], theta[ix][b:b + 1], top)
                assert stacked[b] == alone[0]
                assert stacked_pieces[b] == piece[0]


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
