import numpy as np
import pytest

from suffreduce.symmat import SymMatrix, hadamard, uncentered_covariance


def random_symmetric(rng, p, scale=1.0):
    a = rng.standard_normal((p, p)) * scale
    return (a + a.T) / 2.0


class TestSymMatrix:
    def test_round_trip_dense(self, rng):
        a = random_symmetric(rng, 7)
        m = SymMatrix.from_dense(a)
        assert np.array_equal(m.dense(), m.dense().T)
        assert np.allclose(m.dense(), a)
        assert np.array_equal(SymMatrix.wrap(a).dense(), a)  # same bits
        assert np.array_equal(np.asarray(m, dtype=float), m.dense())

    def test_entry_matches_dense(self, rng):
        a = random_symmetric(rng, 6)
        m = SymMatrix.from_dense(a)
        d = m.dense()
        for i in range(6):
            for j in range(6):
                assert m.entry(i, j) == d[i, j]

    def test_mirror_averaging(self, rng):
        a = np.array([[1.0, 0.5 + 4e-9], [0.5, 1.0]])
        m = SymMatrix.from_dense(a)
        assert m.entry(0, 1) == pytest.approx(0.5 + 2e-9, abs=1e-15)
        raw = rng.standard_normal((9, 9))
        assert np.array_equal(SymMatrix.wrap(raw).dense(), (raw + raw.T) / 2.0)

    def test_asymmetry_rejected(self):
        a = np.array([[1.0, 0.5], [0.6, 1.0]])
        with pytest.raises(ValueError):
            SymMatrix.from_dense(a)
        SymMatrix.from_dense(a, asym_tol=0.2)  # widened tolerance accepts it

    def test_non_square_rejected(self):
        for bad in (np.zeros((2, 3)), np.zeros((1, 3)), np.zeros(3), np.zeros((0, 0))):
            for build in (SymMatrix, SymMatrix.wrap, SymMatrix.from_dense):
                with pytest.raises(ValueError):
                    build(bad)

    def test_stored_array_read_only_dense_writable(self, rng):
        a = random_symmetric(rng, 4)
        m = SymMatrix.wrap(a)
        with pytest.raises(ValueError):
            np.asarray(m)[0, 1] = 7.0
        with pytest.raises(ValueError):
            np.asarray(m, dtype=float)[1, 0] = 7.0
        d = m.dense()
        d[0, 1] = 7.0
        assert np.array_equal(m.dense(), a)

    def test_value_equality_and_hash(self, rng):
        a = random_symmetric(rng, 4)
        m = SymMatrix.wrap(a)
        same = SymMatrix.wrap(a.copy())
        assert m == same and not m != same
        assert hash(m) == hash(same)
        changed = a.copy()
        changed[0, 1] = changed[1, 0] = a[0, 1] + 1.0
        assert m != SymMatrix.wrap(changed)
        assert m != SymMatrix.wrap(a[:3, :3])
        assert m != "m" and m != None and m != [[0.0]]  # noqa: E711
        assert m.__eq__(np.asarray(m)) is NotImplemented
        zero, negative_zero = SymMatrix.wrap(np.zeros((2, 2))), SymMatrix.wrap(-np.zeros((2, 2)))
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        table = {m: "m", SymMatrix.wrap(changed): "changed"}
        assert table[same] == "m" and len(table) == 2

    def test_non_finite_rejected(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError):
            SymMatrix.from_dense(a)

    def test_p1(self):
        m = SymMatrix.from_dense(np.array([[3.0]]))
        assert m.p == 1
        assert m.dense().tolist() == [[3.0]]


class TestCovariance:
    def test_hand_example(self):
        # V = [[1,1],[-1,-1],[1,0]]: V'V = [[3,2],[2,2]], /3 below
        v = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]])
        got = uncentered_covariance(v).dense()
        assert np.allclose(got, [[1.0, 2.0 / 3.0], [2.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_agreement_minus_disagreement(self, rng):
        """For +-1 data, n * cov(i,j) counts agreements minus disagreements."""
        v = rng.choice([-1.0, 1.0], size=(40, 5))
        c = uncentered_covariance(v).dense()
        n = v.shape[0]
        for i in range(5):
            for j in range(5):
                agree = int(np.sum(v[:, i] == v[:, j]))
                assert n * c[i, j] == pytest.approx(agree - (n - agree), abs=1e-10)

    def test_identity_votes(self):
        got = uncentered_covariance(np.array([[1.0, 1.0], [1.0, -1.0]])).dense()
        assert np.array_equal(got, np.eye(2))

    def test_single_row_rank_one(self):
        v = np.array([[1.0, -1.0, 1.0]])
        got = uncentered_covariance(v).dense()
        assert np.array_equal(got, np.outer(v[0], v[0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uncentered_covariance(np.zeros((0, 3)))


def test_hadamard():
    a = SymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 3.0]]))
    b = SymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert np.array_equal(hadamard(a, b).dense(), [[0.0, 2.0], [2.0, 6.0]])
    with pytest.raises(ValueError):
        hadamard(a, SymMatrix.from_dense(np.eye(3)))
