import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from suffreduce.estimators import lasso, nnls
from suffreduce.linkage import Partition, components, slc, slt, slt_plus, threshold_components
from suffreduce.orbit import check_projection_conditions
from suffreduce.penalty import GroupId, PenaltyKind, PenaltySpec
from suffreduce.reductions import (
    group_hard_threshold,
    hard_threshold,
    positive_part,
    reconstruct_from_soft,
    reduce_input,
    screening_partition,
)
from suffreduce.symmat import SymMatrix

finite_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=30),
    elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
)

# dyadic levels: exactly representable and coarse enough that adding and
# subtracting them round-trips in floating point
DYADIC = (0.25, 0.5, 1.0, 1.5)

X3 = SymMatrix.from_dense(
    np.array([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])
)


class TestVectorReductions:
    def test_hard_threshold_strict(self):
        x = np.array([0.5, -0.5, 0.6, -0.7, 0.0])
        assert np.array_equal(hard_threshold(x, 0.5), [0.0, 0.0, 0.6, -0.7, 0.0])

    def test_hard_threshold_negative_lam(self):
        with pytest.raises(ValueError):
            hard_threshold(np.ones(2), -1.0)

    def test_positive_part(self):
        assert np.array_equal(positive_part(np.array([1.0, -2.0, 0.0])), [1.0, 0.0, 0.0])

    def test_group_hard_threshold(self):
        x = np.array([3.0, 4.0, 0.1, 0.1])
        blocks = Partition.from_blocks([(0, 1), (2, 3)], 4)
        got = group_hard_threshold(x, blocks, 1.0)
        assert np.array_equal(got, [3.0, 4.0, 0.0, 0.0])
        # block norm exactly at the level is dropped (strict comparison)
        got = group_hard_threshold(x, blocks, 5.0)
        assert np.array_equal(got, np.zeros(4))

    def test_reconstruct_from_soft(self):
        t = np.array([1.5, -0.25, 0.0])
        assert np.array_equal(reconstruct_from_soft(t, 0.5), [2.0, -0.75, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(finite_vectors, st.sampled_from(DYADIC))
    def test_lasso_round_trip_bitwise(self, x, lam):
        """Soft thresholding loses exactly lam of magnitude, recoverable to
        the bit at dyadic levels."""
        assert np.array_equal(reconstruct_from_soft(lasso(x, lam), lam), hard_threshold(x, lam))

    @settings(max_examples=100, deadline=None)
    @given(finite_vectors, st.sampled_from(DYADIC))
    def test_lasso_of_reduction_bitwise(self, x, lam):
        assert np.array_equal(lasso(x, lam), lasso(hard_threshold(x, lam), lam))

    @settings(max_examples=100, deadline=None)
    @given(finite_vectors)
    def test_nnls_chain_bitwise(self, x):
        assert np.array_equal(nnls(x), positive_part(x))
        assert np.array_equal(nnls(positive_part(x)), positive_part(x))


class TestReduceInput:
    def test_entrywise_l1(self):
        x = np.array([2.0, 0.3, -1.5])
        rp = reduce_input(
            PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5), GroupId.SIGN_FLIP_VECTOR, x
        )
        assert np.array_equal(rp.reduced, hard_threshold(x, 0.5))
        assert np.array_equal(rp.mask.vector, [1.0, 0.0, 1.0])

    def test_group_l2(self):
        x = np.array([3.0, 4.0, 0.1, 0.1])
        blocks = Partition.from_blocks([(0, 1), (2, 3)], 4)
        rp = reduce_input(
            PenaltySpec(PenaltyKind.GROUP_L2, (1.0, 1.0), blocks=blocks),
            GroupId.SIGN_FLIP_VECTOR,
            x,
        )
        assert np.array_equal(rp.reduced, [3.0, 4.0, 0.0, 0.0])
        assert np.array_equal(rp.mask.vector, [1.0, 1.0, 0.0, 0.0])

    def test_group_l2_matches_group_hard_threshold(self, rng):
        x = rng.standard_normal(9)
        blocks = Partition.from_blocks([(0, 4), (1, 2, 3), (5,), (6, 7, 8)], 9)
        lam = (0.5, 1.5, 0.1, 10.0)
        rp = reduce_input(PenaltySpec(PenaltyKind.GROUP_L2, lam, blocks=blocks),
                          GroupId.SIGN_FLIP_VECTOR, x)
        want = group_hard_threshold(x, blocks, lam)
        assert rp.reduced.tobytes() == want.tobytes()  # killed entries are +0.0
        assert np.array_equal(rp.mask.vector, (want != 0.0).astype(float))

    def test_positive_cone(self):
        x = np.array([1.0, -2.0])
        rp = reduce_input(
            PenaltySpec(PenaltyKind.POSITIVE_CONE), GroupId.SIGN_FLIP_VECTOR, x
        )
        assert np.array_equal(rp.reduced, [1.0, 0.0])

    def test_symmetric_l1_hand_example(self):
        rp = reduce_input(
            PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.6), GroupId.DIAGONAL_CONJUGATION, X3
        )
        assert np.array_equal(
            rp.mask.matrix.dense(), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        )
        assert np.allclose(
            rp.reduced.dense(), [[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert rp.partition.blocks == ((0, 1), (2,))

    def test_offdiag_positivity_all_negative(self):
        x = SymMatrix.from_dense(np.array([[2.0, -0.5], [-0.5, 3.0]]))
        rp = reduce_input(
            PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), GroupId.DIAGONAL_CONJUGATION, x
        )
        assert np.array_equal(rp.reduced.dense(), np.diag([2.0, 3.0]))
        assert np.array_equal(rp.mask.matrix.dense(), np.eye(2))

    def test_offdiag_positivity_positive_edges(self):
        # positive edges 0-1 and 1-2 link {0, 1, 2}; the negative 0-2 entry
        # survives inside that block, the negative 1-3 entry does not
        x = SymMatrix.from_dense(np.array([
            [2.0, 0.5, -0.3, 0.0],
            [0.5, 2.0, 0.2, -0.4],
            [-0.3, 0.2, 2.0, 0.0],
            [0.0, -0.4, 0.0, 2.0],
        ]))
        rp = reduce_input(
            PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), GroupId.DIAGONAL_CONJUGATION, x
        )
        assert rp.partition.blocks == ((0, 1, 2), (3,))
        assert np.array_equal(rp.reduced.dense(), slt_plus(x).dense())
        assert np.array_equal(rp.mask.matrix.dense(), slc(x, 0.0).dense())
        assert rp.partition == components(x.dense() > 0)
        assert rp.reduced.entry(0, 2) == -0.3 and rp.reduced.entry(1, 3) == 0.0

    def test_one_pass_matches_linkage_operators(self, rng):
        from suffreduce.instances import random_instance

        for _ in range(10):
            x = random_instance(rng, int(rng.integers(2, 12)), cross=0.1)
            lam = float(rng.uniform(0, 1.0))
            rp = reduce_input(
                PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam), GroupId.DIAGONAL_CONJUGATION, x
            )
            assert np.array_equal(rp.reduced.dense(), slt(x, lam).dense())
            assert np.array_equal(
                rp.mask.matrix.dense(), slc(SymMatrix.wrap(np.abs(x.dense())), lam).dense()
            )
            assert rp.partition == threshold_components(x, lam)
            rp = reduce_input(
                PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), GroupId.DIAGONAL_CONJUGATION, x
            )
            assert np.array_equal(rp.reduced.dense(), slt_plus(x).dense())
            assert np.array_equal(rp.mask.matrix.dense(), slc(x, 0.0).dense())
            assert rp.partition == components(x.dense() > 0)

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            reduce_input(
                PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.5), GroupId.SIGN_FLIP_VECTOR, X3
            )
        with pytest.raises(ValueError):
            reduce_input(
                PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5),
                GroupId.DIAGONAL_CONJUGATION,
                np.ones(3),
            )

    def test_non_scalar_symmetric_weights_rejected(self):
        pen = PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.full((3, 3), 0.5))
        with pytest.raises(ValueError):
            reduce_input(pen, GroupId.DIAGONAL_CONJUGATION, X3)
        with pytest.raises(ValueError, match="only scalar weights"):
            screening_partition(pen, X3)

    def test_screening_partition_routes(self, rng):
        from suffreduce.instances import random_instance

        x = random_instance(rng, 9, n_blocks=3, cross=0.1)
        assert (screening_partition(PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.3), x)
                == threshold_components(x, 0.3))
        assert (screening_partition(PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY), x)
                == components(x.dense() > 0))
        with pytest.raises(ValueError, match="entrywise_l1 has no conjugation reduction"):
            screening_partition(PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5), x)

    def test_masks_pass_condition_checks(self, rng):
        from suffreduce.instances import random_instance

        for _ in range(10):
            p = int(rng.integers(2, 9))
            x = random_instance(rng, p)
            lam = float(rng.uniform(0, 1.0))
            pen = PenaltySpec(PenaltyKind.SYMMETRIC_L1, lam)
            rp = reduce_input(pen, GroupId.DIAGONAL_CONJUGATION, x)
            assert check_projection_conditions(
                rp.mask, x, pen, GroupId.DIAGONAL_CONJUGATION
            ).all_hold
            pen_pos = PenaltySpec(PenaltyKind.OFFDIAG_POSITIVITY)
            rp = reduce_input(pen_pos, GroupId.DIAGONAL_CONJUGATION, x)
            assert check_projection_conditions(
                rp.mask, x, pen_pos, GroupId.DIAGONAL_CONJUGATION
            ).all_hold

    def test_reduction_idempotent(self, rng):
        from suffreduce.instances import random_instance

        x = random_instance(rng, 7)
        pen = PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.4)
        once = reduce_input(pen, GroupId.DIAGONAL_CONJUGATION, x)
        twice = reduce_input(pen, GroupId.DIAGONAL_CONJUGATION, once.reduced)
        assert once.reduced == twice.reduced


class TestPenaltySpec:
    @pytest.mark.parametrize("kind", [PenaltyKind.SYMMETRIC_L1, PenaltyKind.ENTRYWISE_L1])
    @pytest.mark.parametrize("weights", [np.nan, -0.1, np.array([0.5, np.nan])])
    def test_nan_or_negative_weight_rejected(self, kind, weights):
        with pytest.raises(ValueError, match="penalty weights must be nonnegative"):
            PenaltySpec(kind, weights)

    def test_group_nan_weight_rejected(self):
        blocks = Partition.from_blocks([(0, 1), (2,)], 3)
        with pytest.raises(ValueError, match="penalty weights must be nonnegative"):
            PenaltySpec(PenaltyKind.GROUP_L2, (1.0, np.nan), blocks=blocks)

    def test_infinite_weight_accepted(self):
        assert PenaltySpec(PenaltyKind.SYMMETRIC_L1, np.inf).scalar_weight() == np.inf
