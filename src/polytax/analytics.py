"""Trait analytics: boolean matrix, correlations, distances, and the MST.

Each policy category gets a 0/1 signal series over the trait columns.
Pearson correlation and Euclidean distance are both computed from the
integer co-occurrence counts of those series, so every value is a
correctly rounded function of exact integers and does not depend on the
BLAS build. Pearson correlation is undefined (NaN) for pairs involving a
constant series. The minimum-spanning tree takes the edges (i, j), i < j,
in one order: by weight, then by sorted label pair, then by (i, j). That
order is strict and total, so the tree is unique and does not depend on
the algorithm that finds it. A dense Prim finds it without sorting the
edges, in O(n) memory beside the distance matrix; only the n - 1 tree
edges are sorted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NULL_MODES, PolicyError, TaxonomyModel

NULL_POLICY_LABEL = "Null Policy"


@dataclass(frozen=True)
class TraitMatrix:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray  # bool, shape (rows, cols)


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    cells: np.ndarray  # float, shape (n, n); NaN = undefined


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    cells: np.ndarray  # float, shape (n, n)


@dataclass(frozen=True)
class MstResult:
    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]  # (i, j, weight) with i < j

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def build_trait_matrix(model: TaxonomyModel, null_mode: str = "include") -> TraitMatrix:
    """Boolean (category x trait) matrix in document order.

    include keeps every category as a row, collapse replaces all-zero rows
    with a single "Null Policy" row, exclude drops them.
    """
    if null_mode not in NULL_MODES:
        raise PolicyError("E_BAD_FILTER", f"unknown null mode {null_mode!r}")
    col_labels = tuple(t.id for t in model.traits)
    col_index = {t: i for i, t in enumerate(col_labels)}

    labels: list[str] = []
    hit_rows: list[int] = []
    hit_cols: list[int] = []
    saw_null = False
    for category in model.categories:
        hits = [col_index[t] for t in model.implementable_trait_ids(category.id) if t in col_index]
        if not hits:
            saw_null = True
            if null_mode != "include":
                continue
        hit_rows += [len(labels)] * len(hits)
        hit_cols += hits
        labels.append(category.id)
    if null_mode == "collapse" and saw_null:
        labels.append(NULL_POLICY_LABEL)

    cells = np.zeros((len(labels), len(col_labels)), dtype=bool)
    cells[hit_rows, hit_cols] = True
    return TraitMatrix(tuple(labels), col_labels, cells)


def _cooccurrence(matrix: TraitMatrix, what: str) -> tuple[np.ndarray, np.ndarray, int]:
    """(n11, n1, k): pairwise co-occurrence counts, row trait counts, columns.

    The 0/1 rows are multiplied as floats, so every count is an exact
    integer whatever order the BLAS sums in.
    """
    if len(matrix.row_labels) < 2:
        raise PolicyError("E_BAD_FILTER", f"{what} needs at least two rows")
    x = matrix.cells.astype(float)
    return x @ x.T, x.sum(axis=1), x.shape[1]


def pearson_correlation(matrix: TraitMatrix) -> CorrelationMatrix:
    """Pairwise Pearson r over the 0/1 rows.

    r = (k*n11 - n1*n2) / sqrt(n1*(k - n1) * n2*(k - n2)). A cell is NaN
    whenever either row is constant (zero standard deviation), including
    the diagonal of a constant row: both terms of the ratio are then 0.
    The ratio is computed in place in the co-occurrence counts, with one
    n x n temporary, in the order the formula reads.
    """
    cells, n1, k = _cooccurrence(matrix, "correlation")
    spread = n1 * (k - n1)
    part = np.multiply.outer(n1, n1)
    cells *= k
    cells -= part
    np.multiply.outer(spread, spread, out=part)
    np.sqrt(part, out=part)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells /= part
    return CorrelationMatrix(matrix.row_labels, cells)


def euclidean_distance(matrix: TraitMatrix) -> DistanceMatrix:
    """d(i, j) = sqrt(sum_k (x_ik - x_jk)^2) = sqrt(n1 + n2 - 2*n11) for 0/1 rows.

    Computed in place in the co-occurrence counts, with one n x n temporary.
    """
    cells, n1, _ = _cooccurrence(matrix, "distance")
    cells *= 2
    np.subtract(np.add.outer(n1, n1), cells, out=cells)
    np.sqrt(cells, out=cells)
    return DistanceMatrix(matrix.row_labels, cells)


_NEVER = np.iinfo(np.int64).max  # above every weight key and tie key
_NAN_KEY = int(np.float64(np.nan).view(np.int64))


def kruskal_mst(dist: DistanceMatrix) -> MstResult:
    """Minimum-spanning tree over a complete distance matrix.

    Returns the tree Kruskal's algorithm returns under the module's edge
    order (weight cells[i, j] with i < j, then sorted label pair, then
    (i, j)), with its edges in that order. A dense Prim finds it without
    sorting the edges: each vertex outside the tree keeps its least edge
    into the tree as a weight key and the int64 tie key
    ((lo_rank * n + hi_rank) * n + i) * n + j, which holds the rest of the
    order and fits while n**4 < 2**63, i.e. n < ~55,000. Only the n - 1
    tree edges are sorted.
    """
    labels = dist.labels
    cells = dist.cells
    n = len(labels)
    if n == 0:
        raise PolicyError("E_EMPTY", "distance matrix has no nodes")
    # Labels are ranked in Python's string order: numpy "<U" strings would
    # drop trailing NULs.
    rank_of = {label: r for r, label in enumerate(sorted(set(labels)))}
    rank = np.array([rank_of[label] for label in labels], dtype=np.int64)
    vertex = np.arange(n)

    outside = np.ones(n, dtype=bool)
    # Each vertex's least edge into the tree: weight key, tie key, tree end.
    # A vertex in the tree reads _NEVER, which no edge's weight key reaches.
    best_w = np.full(n, _NEVER)
    best_k = np.full(n, _NEVER)
    best_u = np.zeros(n, dtype=np.int64)
    # One step's rows, reused, so that the loop allocates no arrays: ~30
    # new arrays per step made the loop slower and raised the peak RSS of
    # the CSV exports that follow it by ~5 MB at n=1000.
    row = np.empty(n)
    w = np.empty(n, dtype=np.int64)
    k = np.empty(n, dtype=np.int64)
    part = np.empty(n, dtype=np.int64)
    gain = np.empty(n, dtype=bool)
    test = np.empty(n, dtype=bool)
    taken = np.empty((4, n - 1), dtype=np.int64)  # weight key, tie key, u, v
    v = 0
    for t in range(n - 1):
        outside[v] = False
        best_w[v] = _NEVER
        # v's edge weights, each read from the upper triangle.
        row[:v] = cells[:v, v]
        row[v:] = cells[v, v:]
        # Their weight keys, in np.sort's order: -0.0 + 0.0 is 0.0; the bits
        # of a non-negative float order it, a negative one's once its 63 low
        # bits are flipped; every NaN goes one key above +inf.
        row += 0.0
        bits = row.view(np.int64)
        np.right_shift(bits, 63, out=w)
        w &= _NEVER
        w ^= bits
        np.copyto(w, _NAN_KEY, where=np.isnan(row, out=test))
        # Their tie keys.
        np.minimum(rank, rank[v], out=k)
        k *= n
        k += np.maximum(rank, rank[v], out=part)
        k *= n
        k += np.minimum(vertex, v, out=part)
        k *= n
        k += np.maximum(vertex, v, out=part)
        # An outside vertex gains where v's edge comes first in the order.
        np.less(k, best_k, out=gain)
        gain &= np.equal(w, best_w, out=test)
        gain |= np.less(w, best_w, out=test)
        gain &= outside
        np.copyto(best_w, w, where=gain)
        np.copyto(best_k, k, where=gain)
        np.copyto(best_u, v, where=gain)
        # The next vertex: least weight key, then least tie key.
        np.equal(best_w, best_w.min(), out=test)
        part.fill(_NEVER)
        np.copyto(part, best_k, where=test)
        v = int(part.argmin())
        taken[:, t] = best_w[v], best_k[v], best_u[v], v
    order = np.lexsort((taken[1], taken[0]))
    lo = np.minimum(taken[2], taken[3])[order].tolist()
    hi = np.maximum(taken[2], taken[3])[order].tolist()
    return MstResult(labels, tuple((a, b, float(cells[a, b])) for a, b in zip(lo, hi)))


def trait_less_category_ids(model: TaxonomyModel) -> list[str]:
    return [c.id for c in model.categories if not model.implementable_trait_ids(c.id)]


__all__ = [
    "NULL_MODES",
    "NULL_POLICY_LABEL",
    "TraitMatrix",
    "CorrelationMatrix",
    "DistanceMatrix",
    "MstResult",
    "build_trait_matrix",
    "pearson_correlation",
    "euclidean_distance",
    "kruskal_mst",
    "trait_less_category_ids",
]
