import numpy as np
import pytest

from suffreduce.estimators import EstimatorSpec, Family, SolverOptions
from suffreduce.instances import random_instance, sign_instance
from suffreduce.linkage import Partition
from suffreduce.orbit import MaskProjection
from suffreduce.penalty import GroupId, PenaltyKind, PenaltySpec
from suffreduce.symmat import SymMatrix
from suffreduce.verify import (
    check_minimality_slc,
    check_sufficiency,
    check_support_containment,
    enumerate_feasible_ultrametrics,
    run_suite,
)

OPTS = SolverOptions(tol=1e-8)

X3 = SymMatrix.from_dense(
    np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])
)


class TestCheckSufficiency:
    def test_glasso_passes(self, rng):
        x = random_instance(rng, 8)
        spec = EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.4), opts=OPTS
        )
        rep = check_sufficiency(spec, x, tol=1e-5)
        assert rep.passed
        assert rep.deviation <= 1e-5
        assert rep.averaging and rep.dual_feasibility and rep.dual_invariance

    def test_ising_passes(self, rng):
        x = sign_instance(rng, 5)
        spec = EstimatorSpec(
            Family.ISING_PMLE, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), opts=OPTS
        )
        assert check_sufficiency(spec, x, tol=1e-4).passed

    def test_corrupted_mask_detected(self, rng):
        """Dropping a kept edge from the mask must fail dual feasibility."""
        spec = EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.4), opts=OPTS
        )
        bad = MaskProjection(GroupId.DIAGONAL_CONJUGATION, matrix=SymMatrix.from_dense(np.eye(3)))
        for x in (X3, X3.dense()):  # a plain array input is coerced too
            rep = check_sufficiency(spec, x, tol=1e-5, mask_override=bad)
            assert not rep.dual_feasibility
            assert not rep.passed

    def test_non_ultrametric_mask_detected(self):
        spec = EstimatorSpec(
            Family.GLASSO, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05), opts=OPTS
        )
        chain = SymMatrix.from_dense(
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        )
        rep = check_sufficiency(
            spec, X3, tol=1e-5,
            mask_override=MaskProjection(GroupId.DIAGONAL_CONJUGATION, matrix=chain),
        )
        assert not rep.averaging
        assert not rep.passed


class TestSupportContainment:
    def test_clean(self):
        theta = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        part = Partition.from_blocks([(0, 1), (2,)], 3)
        assert check_support_containment(theta, part) == []

    def test_violation_reported(self):
        theta = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 1.0]])
        part = Partition.from_blocks([(0, 1), (2,)], 3)
        assert check_support_containment(theta, part) == [(0, 2)]

    def test_relative_tolerance(self):
        theta = np.array([[100.0, 0.0], [0.0, 100.0]])
        theta[0, 1] = theta[1, 0] = 1e-7
        part = Partition.from_blocks([(0,), (1,)], 2)
        # 1e-7 is below 1e-6 * 100, so it does not count
        assert check_support_containment(theta, part) == []


class TestEnumeration:
    def test_free_case_counts_ultrametrics(self):
        """With nothing forced, the feasible set is every binary ultrametric
        pattern: 5 of the 8 symmetric 3x3 patterns (the two-edge chains
        fail)."""
        x = SymMatrix.from_dense(np.eye(3))
        got = enumerate_feasible_ultrametrics(x, 0.5)
        assert len(got) == 5

    def test_forced_edge_filters(self):
        got = enumerate_feasible_ultrametrics(X3, 0.6)
        # edge (0,1) is forced; of the 4 patterns containing it only the
        # pair block and the full block survive transitivity
        assert len(got) == 2
        sums = sorted(float(np.sum(b.dense())) for b in got)
        assert sums == [5.0, 9.0]

    def test_p_cap(self):
        with pytest.raises(ValueError):
            enumerate_feasible_ultrametrics(SymMatrix.from_dense(np.eye(6)), 0.1)

    def test_minimality_hand_case(self):
        assert check_minimality_slc(X3, 0.6)

    def test_minimality_random(self, rng):
        for _ in range(5):
            x = random_instance(rng, 4)
            off = np.abs(x.dense()[~np.eye(4, dtype=bool)])
            lam = float(np.quantile(off, 0.5))
            assert check_minimality_slc(x, lam)


class TestRunSuite:
    def test_all_checks_pass(self):
        summary = run_suite(seed=3, sizes=(4, 6))
        assert summary.failures == []
        assert summary.trials
        d = summary.to_dict()
        assert d["passed"] == d["trials"]
        assert set(d) == {
            "seed", "trials", "passed", "failures", "worst_deviation", "elapsed_seconds",
        }

    def test_deterministic_for_fixed_seed(self):
        a = run_suite(seed=7, sizes=(4, 5), suites=("clustering", "minimality")).to_dict()
        b = run_suite(seed=7, sizes=(4, 5), suites=("clustering", "minimality")).to_dict()
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(seed=0, suites=("nonsense",))

    def test_family_filter(self):
        summary = run_suite(seed=1, sizes=(4,), families=("glasso",), suites=("sufficiency",))
        fams = {
            t.params.get("family")
            for t in summary.trials
            if t.check == "sufficiency"
        }
        assert fams == {"glasso"}

    def test_failures_recorded_not_raised(self):
        from suffreduce.verify import SuiteSummary

        s = SuiteSummary(seed=0)
        s.record("demo", {"p": 3}, False, 0.5, "boom")
        s.record("demo", {"p": 4}, True, 0.0)
        assert len(s.failures) == 1
        assert s.to_dict()["failures"][0]["message"] == "boom"
        assert s.to_dict()["worst_deviation"]["demo"] == 0.5
