import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from suffreduce.instances import random_instance
from suffreduce.linkage import (
    Dendrogram,
    Partition,
    cluster_matrix,
    components,
    cut_dendrogram,
    is_binary_ultrametric,
    mst_kruskal,
    slc,
    slt,
    slt_plus,
    threshold_components,
)
from suffreduce.symmat import SymMatrix


def sym(rows):
    return SymMatrix.from_dense(np.array(rows, dtype=float))


X3 = sym([[1.0, 0.8, 0.1], [0.8, 1.0, 0.5], [0.1, 0.5, 1.0]])


def components_by_closure(adj) -> Partition:
    """Reference implementation: boolean transitive closure of the edge set
    {(i, j): i != j, adj_ij}, by squaring the reachability matrix until it
    stops changing.  The 0/1 products run in float32, exact up to 2**24."""
    reach = np.asarray(adj, dtype=bool) | np.eye(len(adj), dtype=bool)
    while True:
        f = reach.astype(np.float32)
        nxt = (f @ f) > 0
        if np.array_equal(nxt, reach):
            return Partition.from_labels(reach.argmax(axis=1).tolist())
        reach = nxt


class _UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1


def kruskal_reference(x: SymMatrix) -> Dendrogram:
    """Reference implementation: Kruskal over a Python sort of every pair by
    (-|x_ij|, i, j), joining clusters in a union-find."""
    p = x.p
    a = np.abs(x.dense())
    edges = sorted(
        ((i, j) for i in range(p - 1) for j in range(i + 1, p)),
        key=lambda e: (-a[e[0], e[1]], e[0], e[1]),
    )
    uf = _UnionFind(p)
    cluster_id = list(range(p))  # current cluster id per root
    merges = []
    for i, j in edges:
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        ca, cb = cluster_id[ri], cluster_id[rj]
        merges.append((min(ca, cb), max(ca, cb), float(a[i, j])))
        uf.union(i, j)
        cluster_id[uf.find(i)] = p + len(merges) - 1
    return Dendrogram(p, tuple(merges))


def tied_instance(kind: str, p: int, rng) -> SymMatrix:
    """Inputs where Kruskal's (i, j) tie-breaking decides the merges."""
    if kind == "quarters":
        off = rng.integers(0, 4, (p, p)) / 4.0 * rng.choice([-1.0, 1.0], (p, p))
    elif kind == "equal":
        off = np.full((p, p), 0.5)
    elif kind == "zero":
        off = np.zeros((p, p))
    else:
        return random_instance(rng, p)
    off = np.triu(off, 1)
    return SymMatrix.wrap(off + off.T + np.eye(p))


class TestPartition:
    def test_from_blocks_sorts_by_min(self):
        part = Partition.from_blocks([(2,), (1, 0)], 3)
        assert part.blocks == ((0, 1), (2,))

    def test_labels_round_trip(self):
        part = Partition.from_labels([5, 5, 2, 2, 7])
        assert part.blocks == ((0, 1), (2, 3), (4,))
        assert Partition.from_blocks(part.blocks, 5) == part

    def test_cover_violations_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_blocks([(0, 1)], 3)
        with pytest.raises(ValueError):
            Partition.from_blocks([(0, 1), (1, 2)], 3)
        with pytest.raises(ValueError):
            Partition.from_blocks([(0,), (1, 3)], 3)

    def test_cluster_matrix(self):
        part = Partition.from_blocks([(0, 1), (2,)], 3)
        assert np.array_equal(
            cluster_matrix(part).dense(),
            [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )


class TestThresholdComponents:
    def test_hand_example(self):
        assert threshold_components(X3, 0.6).blocks == ((0, 1), (2,))
        assert threshold_components(X3, 0.3).blocks == ((0, 1, 2),)
        assert threshold_components(X3, 0.9).blocks == ((0,), (1,), (2,))

    def test_strict_at_boundary(self):
        # an edge exactly at the level does not connect
        assert threshold_components(X3, 0.8).blocks == ((0,), (1,), (2,))

    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_negative_or_nan_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            threshold_components(X3, lam)

    def test_matches_transitive_closure(self, rng):
        for _ in range(20):
            p = int(rng.integers(2, 12))
            x = random_instance(rng, p)
            lam = float(rng.uniform(0, 1.2))
            assert threshold_components(x, lam) == components_by_closure(
                np.abs(x.dense()) > lam)

    def test_sign_irrelevant(self):
        x = sym([[1.0, -0.8], [-0.8, 1.0]])
        assert threshold_components(x, 0.5).blocks == ((0, 1),)


class TestComponents:
    def test_non_transitive_mask_is_one_block(self):
        # path 0-1-2 with the (0, 2) entry zero: connectivity, not closure
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        assert components(mask).blocks == ((0, 1, 2),)
        assert components(mask.astype(bool)).blocks == ((0, 1, 2),)

    def test_diagonal_ignored(self):
        assert components(np.eye(3)).blocks == ((0,), (1,), (2,))
        assert components(np.zeros((2, 2))).blocks == ((0,), (1,))

    def test_permuted_path_matches_closure(self, rng):
        # a long path in random item order takes label propagation the
        # most rounds
        p = 2000
        order = rng.permutation(p)
        adj = np.zeros((p, p), dtype=bool)
        adj[order[:-1], order[1:]] = True
        adj |= adj.T
        assert components(adj) == components_by_closure(adj)
        empty = np.zeros((p, p), dtype=bool)
        assert components(empty) == components_by_closure(empty)
        assert len(components(empty)) == p


class TestDendrogram:
    def test_kruskal_hand_example(self):
        d = mst_kruskal(X3)
        assert d.leaves == 3
        assert [(m["a"], m["b"], m["height"]) for m in d.to_dict()["merges"]] == [
            (0, 1, 0.8),
            (2, 3, 0.5),
        ]

    def test_cut_heights(self):
        d = mst_kruskal(X3)
        assert cut_dendrogram(d, 0.6).blocks == ((0, 1), (2,))
        assert cut_dendrogram(d, 0.4).blocks == ((0, 1, 2),)
        # strict: cutting exactly at a merge height drops that merge
        assert cut_dendrogram(d, 0.8).blocks == ((0,), (1,), (2,))
        assert cut_dendrogram(d, 0.5).blocks == ((0, 1), (2,))

    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_or_nan_cut_rejected(self, lam):
        # a zero-height merge (a pair no positive path joins) would apply below 0
        d = mst_kruskal(SymMatrix.wrap(np.eye(3)))
        assert [h for _, _, h in d.merges] == [0.0, 0.0]
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            cut_dendrogram(d, lam)

    def test_cut_agrees_with_components(self, rng):
        for _ in range(15):
            p = int(rng.integers(2, 10))
            x = random_instance(rng, p)
            d = mst_kruskal(x)
            for lam in np.abs(x.dense()[0]) * 0.99:
                assert cut_dendrogram(d, float(lam)) == threshold_components(x, float(lam))

    @pytest.mark.parametrize("kind", ["quarters", "equal", "zero", "random"])
    def test_merges_match_reference_kruskal(self, kind, rng):
        for p in range(1, 41):
            x = tied_instance(kind, p, rng)
            assert mst_kruskal(x).merges == kruskal_reference(x).merges

    @pytest.mark.parametrize("kind", ["quarters", "equal", "zero", "random"])
    def test_cut_at_every_merge_height(self, kind, rng):
        # the cut is strict, so at a merge height that merge is not applied
        for p in (2, 7, 16, 40):
            x = tied_instance(kind, p, rng)
            d = mst_kruskal(x)
            for lam in sorted({h for _, _, h in d.merges}):
                assert cut_dendrogram(d, lam) == threshold_components(x, lam)

    def test_always_full_merge_chain(self, rng):
        # zero-weight edges still merge, so every dendrogram has p-1 merges
        x = random_instance(rng, 7)
        assert len(mst_kruskal(x).to_dict()["merges"]) == 6

    def test_heights_non_increasing(self, rng):
        x = random_instance(rng, 9)
        h = [m["height"] for m in mst_kruskal(x).to_dict()["merges"]]
        assert h == sorted(h, reverse=True)

    def test_serialization_round_trip(self):
        d = mst_kruskal(X3)
        assert Dendrogram.from_dict(d.to_dict()) == d

    def test_increasing_heights_rejected(self):
        with pytest.raises(ValueError):
            Dendrogram.from_dict(
                {"leaves": 3, "merges": [{"a": 0, "b": 1, "height": 0.2},
                                         {"a": 2, "b": 3, "height": 0.9}]}
            )

    def test_single_leaf(self):
        d = mst_kruskal(sym([[2.0]]))
        assert d.leaves == 1 and d.to_dict()["merges"] == []
        assert cut_dendrogram(d, 0.0).blocks == ((0,),)


class TestSlc:
    def test_hand_example(self):
        assert np.array_equal(
            slc(X3, 0.6).dense(), [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )
        assert np.array_equal(slc(X3, 0.3).dense(), np.ones((3, 3)))

    def test_signed_weights(self):
        # slc runs on signed weights: a negative entry is below tau=0
        x = sym([[1.0, -0.5, 0.0], [-0.5, 1.0, 0.7], [0.0, 0.7, 1.0]])
        assert np.array_equal(
            slc(x, 0.0).dense(), [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )

    def test_mask_is_ultrametric_and_psd(self, rng):
        for _ in range(10):
            x = random_instance(rng, int(rng.integers(2, 12)))
            w = SymMatrix.wrap(np.abs(x.dense()))
            lam = float(rng.uniform(0, 1.0))
            mask = slc(w, lam)
            assert is_binary_ultrametric(mask)
            assert np.linalg.eigvalsh(mask.dense())[0] >= -1e-10

    def test_slt_hand_example(self):
        assert np.allclose(
            slt(X3, 0.6).dense(), [[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 1.0]]
        )

    def test_slt_identity_when_all_connected(self):
        assert slt(X3, 0.0).allclose(X3)

    def test_slt_idempotent(self, rng):
        x = random_instance(rng, 8)
        lam = 0.4
        once = slt(x, lam)
        assert slt(once, lam).allclose(once, tol=0.0)

    def test_slt_keeps_within_block_entries(self):
        got = slt(X3, 0.6)
        # entry (1,2)=0.5 is below lam but (1,2) are not in the same block
        # here; with lam=0.2 all three chain together and 0.1 survives
        assert got.entry(0, 2) == 0.0
        assert slt(X3, 0.2).entry(0, 2) == 0.1

    def test_slt_plus(self):
        x = sym([[1.0, -0.5, 0.0], [-0.5, 1.0, 0.7], [0.0, 0.7, 1.0]])
        got = slt_plus(x)
        assert np.allclose(
            got.dense(), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.7], [0.0, 0.7, 1.0]]
        )

    def test_slt_plus_no_positive_offdiag(self):
        x = sym([[2.0, -0.5], [-0.5, 3.0]])
        assert np.array_equal(slt_plus(x).dense(), np.diag([2.0, 3.0]))

    def test_routes_agree(self, rng):
        """Dendrogram cut, direct components, and mask blocks coincide."""
        for _ in range(10):
            p = int(rng.integers(2, 10))
            x = random_instance(rng, p)
            lam = float(rng.uniform(0, 1.0))
            part = threshold_components(x, lam)
            w = SymMatrix.wrap(np.abs(x.dense()))
            assert np.array_equal(slc(w, lam).dense(), cluster_matrix(part).dense())
            assert cut_dendrogram(mst_kruskal(x), lam) == part


class TestBinaryUltrametric:
    def test_witness_pattern_fails(self):
        # chain pattern: 1-2 and 2-3 linked but not 1-3
        b = sym([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        assert not is_binary_ultrametric(b)
        assert np.linalg.eigvalsh(b.dense())[0] < -1e-10

    def test_block_pattern_passes(self):
        assert is_binary_ultrametric(sym([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        assert is_binary_ultrametric(SymMatrix.from_dense(np.ones((4, 4))))
        assert is_binary_ultrametric(SymMatrix.from_dense(np.eye(4)))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            is_binary_ultrametric(sym([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError):
            is_binary_ultrametric(sym([[0.0, 0.0], [0.0, 1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=63))
    def test_equivalent_to_psd_p4(self, code):
        """Over all 64 binary 4x4 patterns, ultrametric iff PSD."""
        b = np.eye(4)
        pairs = [(i, j) for i in range(3) for j in range(i + 1, 4)]
        for bit, (i, j) in enumerate(pairs):
            b[i, j] = b[j, i] = float((code >> bit) & 1)
        ultra = is_binary_ultrametric(SymMatrix.wrap(b))
        psd = np.linalg.eigvalsh(b)[0] >= -1e-10
        assert ultra == psd
