import numpy as np
import pytest
from scipy.spatial import ConvexHull

from suffreduce.instances import random_instance
from suffreduce.linkage import slc
from suffreduce.orbit import (
    MaskProjection,
    arcsin_map,
    check_projection_conditions,
    conj_majorizes,
    cut_membership,
    cut_vertices,
)
from suffreduce.penalty import GroupId, PenaltyKind, PenaltySpec
from suffreduce.symmat import SymMatrix, hadamard


def sym(rows):
    return SymMatrix.from_dense(np.array(rows, dtype=float))


def in_cut_by_hull(b: SymMatrix, tol=1e-9) -> bool:
    """Independent membership oracle: facet inequalities of the hull of the
    sign outer products, in off-diagonal coordinates.  Only usable while
    scipy can afford the hull (p <= 4 here)."""
    p = b.p
    iu = np.triu_indices(p, 1)
    pts = np.array([v[:, None] @ v[None, :] for v in cut_vertices(p)])[:, iu[0], iu[1]]
    hull = ConvexHull(pts, qhull_options="QJ Pp")
    target = b.dense()[iu]
    return bool(np.all(hull.equations[:, :-1] @ target + hull.equations[:, -1] <= tol))


class TestCutVertices:
    def test_p3(self):
        v = cut_vertices(3)
        assert v.shape == (4, 3)
        assert np.all(v[:, 0] == 1.0)
        assert np.all(np.abs(v) == 1.0)
        assert len({tuple(r) for r in v}) == 4

    def test_outer_products_cover_sign_patterns(self):
        v = cut_vertices(4)
        outers = {tuple((w[:, None] @ w[None, :]).ravel()) for w in v}
        assert len(outers) == 8


class TestCutMembership:
    def test_identity_is_member(self):
        # p=2: average of the two vertices [[1,1],[1,1]] and [[1,-1],[-1,1]]
        assert cut_membership(SymMatrix.from_dense(np.eye(2)))
        assert cut_membership(SymMatrix.from_dense(np.eye(5)))

    def test_all_ones_vertex(self):
        assert cut_membership(SymMatrix.from_dense(np.ones((4, 4))))

    def test_halfway_point(self):
        assert cut_membership(sym([[1.0, 0.5], [0.5, 1.0]]))

    def test_triangle_violation_excluded(self):
        # sum of the three off-diagonal entries must be >= -1
        b = sym([[1, -0.4, -0.4], [-0.4, 1, -0.4], [-0.4, -0.4, 1]])
        assert not cut_membership(b)
        b_ok = sym([[1, -1 / 3, -1 / 3], [-1 / 3, 1, -1 / 3], [-1 / 3, -1 / 3, 1]])
        assert cut_membership(b_ok)

    def test_requires_unit_diagonal(self):
        assert not cut_membership(sym([[2.0, 0.0], [0.0, 1.0]]))

    def test_entry_magnitude_reject(self):
        assert not cut_membership(sym([[1.0, 1.5], [1.5, 1.0]]))

    def test_p_limit(self):
        with pytest.raises(ValueError):
            cut_membership(SymMatrix.from_dense(np.eye(13)))

    def test_matches_hull_oracle(self, rng):
        for p in (3, 4):
            for _ in range(12):
                raw = rng.uniform(-1, 1, size=(p, p))
                b = (raw + raw.T) / 2.0
                np.fill_diagonal(b, 1.0)
                m = SymMatrix.from_dense(b)
                assert cut_membership(m) == in_cut_by_hull(m)

    def test_correlation_of_signs_is_member(self, rng):
        v = rng.choice([-1.0, 1.0], size=(50, 6))
        from suffreduce.symmat import uncentered_covariance

        assert cut_membership(uncentered_covariance(v))


class TestConjMajorizes:
    def test_reflexive(self, rng):
        x = random_instance(rng, 5)
        assert conj_majorizes(x, x)

    def test_mask_products(self, rng):
        for _ in range(8):
            x = random_instance(rng, int(rng.integers(2, 7)))
            w = SymMatrix.wrap(np.abs(x.dense()))
            mask = slc(w, float(rng.uniform(0, 0.8)))
            assert conj_majorizes(x, hadamard(mask, x))

    def test_larger_entry_fails(self):
        u = sym([[1.0, 0.2], [0.2, 1.0]])
        v = sym([[1.0, 0.9], [0.9, 1.0]])
        assert not conj_majorizes(u, v)

    def test_zero_pattern_must_match(self):
        u = sym([[1.0, 0.0], [0.0, 1.0]])
        v = sym([[1.0, 0.1], [0.1, 1.0]])
        assert not conj_majorizes(u, v)

    def test_scaled_diagonal_fails(self):
        u = sym([[1.0, 0.2], [0.2, 1.0]])
        v = sym([[2.0, 0.2], [0.2, 2.0]])
        assert not conj_majorizes(u, v)


class TestArcsinMap:
    def test_half_maps_to_third(self):
        got = arcsin_map(sym([[1.0, 0.5], [0.5, 1.0]]))
        assert got.entry(0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert got.entry(0, 0) == 1.0

    def test_fixed_points(self):
        for c in (-1.0, 0.0, 1.0):
            got = arcsin_map(sym([[1.0, c], [c, 1.0]]))
            assert got.entry(0, 1) == pytest.approx(c, abs=1e-15)

    def test_rejects_non_correlation(self):
        with pytest.raises(ValueError):
            arcsin_map(sym([[2.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            arcsin_map(sym([[1.0, -0.9], [-0.9, -1.0]]))

    def test_rejects_indefinite(self):
        b = sym([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        with pytest.raises(ValueError):
            arcsin_map(b)

    def test_image_in_cut(self, rng):
        for p in (2, 3, 4, 5):
            x = random_instance(rng, p)
            d = x.dense()
            corr = d / np.sqrt(np.outer(np.diag(d), np.diag(d)))
            np.fill_diagonal(corr, 1.0)
            assert cut_membership(arcsin_map(SymMatrix.from_dense(corr, asym_tol=1e-8)))


class TestMaskProjection:
    def test_requires_exactly_one_payload(self):
        with pytest.raises(ValueError):
            MaskProjection(GroupId.SIGN_FLIP_VECTOR)
        with pytest.raises(ValueError):
            MaskProjection(
                GroupId.SIGN_FLIP_VECTOR,
                vector=np.ones(2),
                matrix=SymMatrix.from_dense(np.eye(2)),
            )

    def test_binary_entries_enforced(self):
        with pytest.raises(ValueError):
            MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 0.5]))

    def test_apply(self):
        m = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 0.0]))
        assert np.array_equal(m.apply(np.array([3.0, 4.0])), [3.0, 0.0])


class TestProjectionConditions:
    def test_vector_l1_mask_passes(self):
        x = np.array([2.0, 0.3, -1.5])
        mask = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 0.0, 1.0]))
        rep = check_projection_conditions(
            mask, x, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5), GroupId.SIGN_FLIP_VECTOR
        )
        assert rep.all_hold

    def test_vector_l1_kills_large_entry(self):
        x = np.array([2.0, 0.3])
        mask = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([0.0, 1.0]))
        rep = check_projection_conditions(
            mask, x, PenaltySpec(PenaltyKind.ENTRYWISE_L1, 0.5), GroupId.SIGN_FLIP_VECTOR
        )
        assert not rep.dual_feasibility

    def test_positive_cone(self):
        x = np.array([1.0, -2.0])
        ok = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 0.0]))
        bad = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([0.0, 1.0]))
        pen = PenaltySpec(PenaltyKind.POSITIVE_CONE)
        assert check_projection_conditions(ok, x, pen, GroupId.SIGN_FLIP_VECTOR).all_hold
        assert not check_projection_conditions(bad, x, pen, GroupId.SIGN_FLIP_VECTOR).all_hold

    def test_matrix_mask_passes(self):
        x = sym([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])
        mask = MaskProjection(
            GroupId.DIAGONAL_CONJUGATION,
            matrix=sym([[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
        )
        rep = check_projection_conditions(
            mask, x, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.6), GroupId.DIAGONAL_CONJUGATION
        )
        assert rep.all_hold

    def test_matrix_mask_dropping_required_edge_fails(self):
        x = sym([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])
        mask = MaskProjection(GroupId.DIAGONAL_CONJUGATION, matrix=sym(np.eye(3)))
        rep = check_projection_conditions(
            mask, x, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.6), GroupId.DIAGONAL_CONJUGATION
        )
        assert not rep.dual_feasibility

    def test_non_ultrametric_mask_fails_averaging(self):
        x = sym([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])
        mask = MaskProjection(
            GroupId.DIAGONAL_CONJUGATION,
            matrix=sym([[1, 1, 0], [1, 1, 1], [0, 1, 1]]),
        )
        rep = check_projection_conditions(
            mask, x, PenaltySpec(PenaltyKind.SYMMETRIC_L1, 0.05), GroupId.DIAGONAL_CONJUGATION
        )
        assert not rep.averaging

    def test_group_l2_blockwise(self):
        from suffreduce.linkage import Partition

        x = np.array([3.0, 4.0, 0.1, 0.1])
        blocks = Partition.from_blocks([(0, 1), (2, 3)], 4)
        pen = PenaltySpec(PenaltyKind.GROUP_L2, (1.0, 1.0), blocks=blocks)
        keep = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 1.0, 0.0, 0.0]))
        rep = check_projection_conditions(keep, x, pen, GroupId.SIGN_FLIP_VECTOR)
        assert rep.all_hold
        # block norm 5 > 1 cannot be zeroed
        kill = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([0.0, 0.0, 1.0, 1.0]))
        rep = check_projection_conditions(kill, x, pen, GroupId.SIGN_FLIP_VECTOR)
        assert not rep.dual_feasibility
        # killing half a block leaves residual mass no ball element covers
        ragged = MaskProjection(GroupId.SIGN_FLIP_VECTOR, vector=np.array([1.0, 0.0, 0.0, 0.0]))
        rep = check_projection_conditions(ragged, x, pen, GroupId.SIGN_FLIP_VECTOR)
        assert not rep.all_hold
