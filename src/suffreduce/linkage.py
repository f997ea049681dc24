"""Single-linkage machinery: threshold graphs, maximum-weight spanning
forests, dendrogram cuts, and the cluster-masking operators built on them;
also the clique tree of a chordal graph, from which glasso builds a
closed-form start.

All comparisons against a threshold are strict (``> lam``): an entry exactly
equal to the threshold does not create an edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import SymMatrix, hadamard

__all__ = [
    "Dendrogram",
    "Partition",
    "components",
    "chordal_cliques",
    "threshold_components",
    "mst_kruskal",
    "cut_dendrogram",
    "slc",
    "slt",
    "slt_plus",
    "is_binary_ultrametric",
    "cluster_matrix",
]


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
        """The partition whose blocks are the items sharing a label.  Items
        are visited in increasing order, so each block comes out sorted and
        the blocks ordered by smallest member: already canonical."""
        labels = list(labels)
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        index = {lab: k for k, lab in enumerate(groups)}
        return cls(tuple(map(tuple, groups.values())), tuple(index[lab] for lab in labels))

    @property
    def p(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.blocks)


def cluster_matrix(part: Partition) -> SymMatrix:
    """Binary block-membership matrix: entry (i, j) = 1 iff same block."""
    lab = np.asarray(part.labels)
    return SymMatrix.wrap((lab[:, None] == lab[None, :]).astype(float))


def _labels(p: int, ii, jj) -> np.ndarray:
    """Label of each item 0..p-1 under the edges (ii[k], jj[k]): the
    smallest item of its component.

    Each round maps every edge onto the roots of its ends, drops the edges
    whose ends share a root, and hooks each larger end onto the smallest
    root it shares an edge with.  Only roots are hooked, so a dropped edge
    stays inside one tree.  Labels only decrease, so no cycle forms and no
    path to a root is longer than p - 1: p.bit_length() pointer jumps point
    every item straight at its root before the next round reads it.
    """
    lab = np.arange(p)
    while True:
        ii, jj = lab[ii], lab[jj]
        cross = (ii != jj).nonzero()[0]
        if not cross.size:
            return lab
        ii, jj = ii[cross], jj[cross]
        np.minimum.at(lab, np.maximum(ii, jj), np.minimum(ii, jj))
        for _ in range(p.bit_length()):
            lab = lab[lab]


def components(adj) -> Partition:
    """Connected components of the graph {(i, j): i < j, adj_ij != 0}.

    ``adj`` is a symmetric (p, p) array, typically a boolean graph or a 0/1
    mask; only its upper triangle is read, so an entry below the diagonal
    or on it makes no edge.  The relation need not be transitive: a path
    0-1-2 gives one block even when entry (0, 2) is zero.  The edges come
    from one flat pass: the flat positions of the nonzero entries, split
    into (row, column) by divmod, keeping row < column.
    """
    adj = np.asarray(adj)
    p = adj.shape[0]
    ii, jj = np.divmod(np.flatnonzero(adj), p)
    upper = ii < jj
    return Partition.from_labels(_labels(p, ii[upper], jj[upper]).tolist())


def chordal_cliques(adj) -> tuple[list, list] | None:
    """The maximal cliques and the clique-tree separators of the graph
    {(i, j): i != j, adj_ij}, or None if that graph is not chordal.

    ``adj`` is a symmetric boolean (n, n) array; its diagonal is ignored.
    Maximum cardinality search (Tarjan & Yannakakis 1984) numbers the
    vertices, always next one with the most numbered neighbours (the
    lowest index on a tie).  The graph is chordal exactly when the reverse
    order has zero fill-in: the numbered neighbours of each vertex, less
    the last numbered of them, u, are all neighbours of u.  That test runs
    as each vertex is numbered, so a graph that is not chordal is rejected
    at its first violation.  A vertex with no more numbered neighbours
    than its predecessor had opens a new maximal clique, itself and those
    neighbours, which are its separator from the cliques before it (none
    when it starts a component); any other vertex joins the last clique
    (Blair & Peyton 1993).  Each clique and separator is a sorted list of
    vertices, and every vertex is in some clique.

    Vertex sets are Python-int bitsets; ``level[c]`` holds the vertices not
    yet numbered that have c numbered neighbours, so a numbered vertex
    moves its neighbours up one level with one mask per level.
    """
    n = len(adj)
    rows = np.packbits(np.asarray(adj, dtype=bool), axis=1, bitorder="little")
    width = 8 * rows.shape[1]
    whole = int.from_bytes(rows.tobytes(), "little")
    row = (1 << width) - 1
    nbr = [(whole >> (width * v)) & row & ~(1 << v) for v in range(n)]
    level = [(1 << n) - 1]
    order = []
    numbered = 0
    top = prev = 0
    cliques, seps = [], []
    for _ in range(n):
        while not level[top]:
            top -= 1
        bit = level[top] & -level[top]
        v = bit.bit_length() - 1
        level[top] ^= bit
        below = nbr[v] & numbered
        if below:
            for u in reversed(order):
                if below >> u & 1:
                    break
            if below & ~nbr[u] != 1 << u:
                return None
        if top <= prev:
            cliques.append(below | bit)
            if below:
                seps.append(below)
        else:
            cliques[-1] |= bit
        prev = top
        numbered |= bit
        order.append(v)
        rest = nbr[v] & ~numbered
        if rest:
            level.append(0)
            for c in range(top, -1, -1):
                moved = level[c] & rest
                level[c] ^= moved
                level[c + 1] |= moved
                rest ^= moved
                if not rest:
                    break
            top += 1

    def members(bits):
        return [i for i in range(bits.bit_length()) if bits >> i & 1]

    return [members(c) for c in cliques], [members(s) for s in seps]


def threshold_components(x: SymMatrix, lam: float) -> Partition:
    """Connected components of the graph {(i, j): i < j, |x_ij| > lam}.

    x is read in place, not copied; it is left untouched.  The graph is
    (x > lam) | (x < -lam): |x| > lam with no float temporary."""
    if not lam >= 0:  # also rejects NaN, which no comparison would select
        raise ValueError(f"threshold must be >= 0, got {lam}")
    a = np.asarray(x)
    return components((a > lam) | (a < -lam))


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


def mst_kruskal(x: SymMatrix) -> Dendrogram:
    """Maximum-weight spanning tree of the similarity graph |x|.

    Kruskal order: edges sorted by descending |x_ij| with lexicographic
    (i, j) tie-breaking.  Zero-weight edges participate, so the tree always
    completes with exactly p - 1 merges.
    """
    p = x.p
    ii, jj = np.triu_indices(p, k=1)
    w = np.abs(x.dense())[ii, jj]
    order = np.lexsort((jj, ii, -w))
    head = list(range(p))  # the leaf that heads each leaf's cluster
    members = [[i] for i in range(p)]  # leaves of the cluster a leaf heads
    cluster = list(range(p))  # cluster id of the cluster a leaf heads
    merges = []
    for i, j, h in zip(ii[order].tolist(), jj[order].tolist(), w[order].tolist()):
        hi, hj = head[i], head[j]
        if hi == hj:
            continue
        ca, cb = cluster[hi], cluster[hj]
        merges.append((min(ca, cb), max(ca, cb), h))
        if len(members[hi]) < len(members[hj]):
            hi, hj = hj, hi
        for leaf in members[hj]:  # the smaller cluster joins the larger
            head[leaf] = hi
        members[hi] += members[hj]
        cluster[hi] = p + len(merges) - 1
        if len(merges) == p - 1:
            break
    return Dendrogram(p, tuple(merges))


def cut_dendrogram(dend: Dendrogram, lam: float) -> Partition:
    """Partition obtained by applying every merge with height > lam."""
    if not lam >= 0:  # also rejects NaN, which no comparison would select
        raise ValueError(f"threshold must be >= 0, got {lam}")
    p = dend.leaves
    leaf = list(range(p))  # one leaf of each cluster id, applied or not
    ii, jj = [], []
    for a, b, h in dend.merges:
        if h > lam:
            ii.append(leaf[a])
            jj.append(leaf[b])
        leaf.append(leaf[a])
    ii, jj = np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp)
    return Partition.from_labels(_labels(p, ii, jj).tolist())


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
