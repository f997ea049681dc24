"""Single-linkage machinery: threshold graphs, maximum-weight spanning
forests, dendrogram cuts, and the cluster-masking operators built on them.

All comparisons against a threshold are strict (``> lam``): an entry exactly
equal to the threshold does not create an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import SymMatrix, hadamard

__all__ = [
    "UnionFind",
    "Dendrogram",
    "Partition",
    "components",
    "threshold_components",
    "mst_kruskal",
    "cut_dendrogram",
    "slc",
    "slt",
    "slt_plus",
    "is_binary_ultrametric",
    "cluster_matrix",
]


class UnionFind:
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

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        if self.rank[ri] < self.rank[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        if self.rank[ri] == self.rank[rj]:
            self.rank[ri] += 1
        return True


@dataclass(frozen=True)
class Partition:
    """Canonical partition of {0, .., p-1}.

    Blocks are sorted internally and ordered by smallest member; labels[i]
    gives the block index of item i.  Equality is structural.
    """

    blocks: tuple[tuple[int, ...], ...]
    labels: tuple[int, ...]

    @classmethod
    def from_blocks(cls, blocks, p: int) -> "Partition":
        seen = sorted(i for b in blocks for i in b)
        if seen != list(range(p)):
            raise ValueError("blocks must partition 0..p-1 exactly once each")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        labels = [0] * p
        for k, b in enumerate(canon):
            for i in b:
                labels[i] = k
        return cls(canon, tuple(labels))

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        labels = list(labels)
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        return cls.from_blocks(list(groups.values()), len(labels))

    @property
    def p(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.blocks)


def cluster_matrix(part: Partition) -> SymMatrix:
    """Binary block-membership matrix: entry (i, j) = 1 iff same block."""
    lab = np.asarray(part.labels)
    return SymMatrix.wrap((lab[:, None] == lab[None, :]).astype(float))


def components(adj) -> Partition:
    """Connected components of the graph {(i, j): i != j, adj_ij != 0}.

    ``adj`` is a symmetric (p, p) array, typically a boolean graph or a 0/1
    mask; only its upper triangle is read and the diagonal is ignored.  The
    relation need not be transitive: a path 0-1-2 gives one block even when
    entry (0, 2) is zero.
    """
    adj = np.asarray(adj)
    p = adj.shape[0]
    uf = UnionFind(p)
    ii, jj = np.nonzero(np.triu(adj, k=1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        uf.union(i, j)
    return Partition.from_labels([uf.find(i) for i in range(p)])


def threshold_components(x: SymMatrix, lam: float) -> Partition:
    """Connected components of the graph {(i, j): i != j, |x_ij| > lam}."""
    if not lam >= 0:  # also rejects NaN, which no comparison would select
        raise ValueError(f"threshold must be >= 0, got {lam}")
    return components(np.abs(x.dense()) > lam)


@dataclass(frozen=True)
class Dendrogram:
    """Single-linkage merge tree.

    Cluster ids: leaf i is i; the m-th merge (0-indexed) creates id
    ``leaves + m``.  Heights are non-increasing.  A merge at height 0 records
    a pair never joined by a positive-weight path.
    """

    leaves: int
    merges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        heights = [h for _, _, h in self.merges]
        if any(b < a for a, b in zip(heights[1:], heights[:-1])):
            raise ValueError("merge heights must be non-increasing")
        if len(self.merges) > self.leaves - 1:
            raise ValueError("too many merges for the leaf count")

    def to_dict(self) -> dict:
        return {
            "leaves": self.leaves,
            "merges": [
                {"a": a, "b": b, "height": h} for a, b, h in self.merges
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Dendrogram":
        merges = tuple(
            (int(m["a"]), int(m["b"]), float(m["height"])) for m in d["merges"]
        )
        return cls(int(d["leaves"]), merges)


def mst_kruskal(x: SymMatrix) -> Dendrogram:
    """Maximum-weight spanning tree of the similarity graph |x|.

    Kruskal order: edges sorted by descending |x_ij| with lexicographic
    (i, j) tie-breaking.  Zero-weight edges participate, so the tree always
    completes with exactly p - 1 merges.
    """
    p = x.p
    a = np.abs(x.dense())
    edges = sorted(
        ((i, j) for i in range(p - 1) for j in range(i + 1, p)),
        key=lambda e: (-a[e[0], e[1]], e[0], e[1]),
    )
    uf = UnionFind(p)
    cluster_id = list(range(p))  # current cluster id per root
    merges = []
    next_id = p
    for i, j in edges:
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        ca, cb = cluster_id[ri], cluster_id[rj]
        merges.append((min(ca, cb), max(ca, cb), float(a[i, j])))
        uf.union(i, j)
        cluster_id[uf.find(i)] = next_id
        next_id += 1
        if len(merges) == p - 1:
            break
    return Dendrogram(p, tuple(merges))


def cut_dendrogram(dend: Dendrogram, lam: float) -> Partition:
    """Partition obtained by applying every merge with height > lam."""
    if not lam >= 0:  # also rejects NaN, which no comparison would select
        raise ValueError(f"threshold must be >= 0, got {lam}")
    p = dend.leaves
    uf = UnionFind(p)
    members: dict[int, int] = {i: i for i in range(p)}  # cluster id -> any leaf
    next_id = p
    for a, b, h in dend.merges:
        if h > lam:
            uf.union(members[a], members[b])
        # ids keep advancing even when the merge is not applied, so later
        # merges referring to this cluster id still resolve to a leaf
        members[next_id] = members[a]
        next_id += 1
    return Partition.from_labels([uf.find(i) for i in range(p)])


def slc(w: SymMatrix, tau: float) -> SymMatrix:
    """Single-linkage cluster matrix at level tau.

    Entry (i, j) is 1 iff i == j or some path from i to j uses only edges
    with weight strictly above tau.  Weights are used as given (signed); pass
    |x| for magnitude-based linking.  The result is a binary ultrametric
    matrix with unit diagonal.
    """
    return cluster_matrix(components(w.dense() > tau))


def slt(x: SymMatrix, lam: float) -> SymMatrix:
    """Mask x with its own magnitude-linkage clusters: slc(|x|, lam) o x."""
    return hadamard(cluster_matrix(threshold_components(x, lam)), x)


def slt_plus(x: SymMatrix) -> SymMatrix:
    """Positive-path variant: slc(x, 0) o x.

    Linking uses the signed entries at level 0, so only strictly positive
    edges join clusters; negative entries survive only inside a cluster
    already connected through positive paths.
    """
    return hadamard(slc(x, 0.0), x)


def is_binary_ultrametric(b: SymMatrix) -> bool:
    """Check b_ij >= min(b_ik, b_jk) for all triples of a 0/1 matrix.

    Input must have entries exactly in {0, 1} with unit diagonal, otherwise
    ValueError.  For binary matrices the condition says: whenever i and j
    are both linked to some k they must be linked to each other, i.e. the
    relation is transitive and b is a block-membership matrix.
    """
    a = b.dense()
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("entries must be exactly 0 or 1")
    if not np.all(np.diag(a) == 1.0):
        raise ValueError("diagonal must be all ones")
    adj = a.astype(bool)
    two_step = adj @ adj
    return bool(np.all(adj | ~two_step))
