"""Trait analytics: boolean matrix, correlations, distances, and the MST.

Each policy category gets a 0/1 signal series over the trait columns.
Pearson correlation and Euclidean distance are both computed from the
integer co-occurrence counts of those series, so every value is a
correctly rounded function of exact integers and does not depend on the
BLAS build. Pearson correlation is undefined (NaN) for pairs involving a
constant series. The minimum-spanning tree takes the edges (i, j), i < j,
in one order: by weight, then by sorted label pair, then by (i, j). That
order is strict and total, so the tree is unique and does not depend on
the algorithm that finds it. Its pruned distance matrix and adjacency
matrix are computed on access from the edge list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PolicyError, TaxonomyModel

NULL_MODES = ("include", "collapse", "exclude")

NULL_POLICY_LABEL = "Null Policy"


@dataclass(frozen=True)
class TraitMatrix:
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray  # bool, shape (rows, cols)

    def row(self, label: str) -> np.ndarray:
        try:
            i = self.row_labels.index(label)
        except ValueError:
            raise PolicyError("E_NOT_FOUND", f"no matrix row {label!r}") from None
        return self.cells[i]


@dataclass(frozen=True)
class SignalSeries:
    category_id: str
    values: tuple[int, ...]


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

    @property
    def pruned(self) -> DistanceMatrix:
        """Tree edge weights, 0 on the diagonal and NaN off the tree."""
        n = len(self.labels)
        cells = np.full((n, n), np.nan)
        np.fill_diagonal(cells, 0.0)
        for i, j, weight in self.edges:
            cells[i, j] = cells[j, i] = weight
        return DistanceMatrix(self.labels, cells)

    @property
    def adjacency(self) -> np.ndarray:
        """int 0/1 matrix of shape (n, n) with a 1 for each tree edge."""
        n = len(self.labels)
        adjacency = np.zeros((n, n), dtype=int)
        for i, j, _ in self.edges:
            adjacency[i, j] = adjacency[j, i] = 1
        return adjacency

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

    rows: list[np.ndarray] = []
    labels: list[str] = []
    saw_null = False
    for category in model.categories:
        cells = np.zeros(len(col_labels), dtype=bool)
        for trait_id in category.implementable_trait_ids:
            if trait_id in col_index:
                cells[col_index[trait_id]] = True
        if not cells.any():
            saw_null = True
            if null_mode != "include":
                continue
        labels.append(category.id)
        rows.append(cells)
    if null_mode == "collapse" and saw_null:
        labels.append(NULL_POLICY_LABEL)
        rows.append(np.zeros(len(col_labels), dtype=bool))

    cells = np.array(rows, dtype=bool) if rows else np.zeros((0, len(col_labels)), dtype=bool)
    return TraitMatrix(tuple(labels), col_labels, cells)


def signal_series(matrix: TraitMatrix, category_id: str) -> SignalSeries:
    """The 0/1 vector of one matrix row, in column order."""
    row = matrix.row(category_id)
    return SignalSeries(category_id, tuple(int(v) for v in row))


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
    """
    n11, n1, k = _cooccurrence(matrix, "correlation")
    spread = n1 * (k - n1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = (k * n11 - np.outer(n1, n1)) / np.sqrt(np.outer(spread, spread))
    return CorrelationMatrix(matrix.row_labels, cells)


def euclidean_distance(matrix: TraitMatrix) -> DistanceMatrix:
    """d(i, j) = sqrt(sum_k (x_ik - x_jk)^2) = sqrt(n1 + n2 - 2*n11) for 0/1 rows."""
    n11, n1, _ = _cooccurrence(matrix, "distance")
    return DistanceMatrix(matrix.row_labels, np.sqrt(n1[:, None] + n1[None, :] - 2 * n11))


def kruskal_mst(dist: DistanceMatrix) -> MstResult:
    """Minimum-spanning tree over a complete distance matrix.

    Returns the tree Kruskal's algorithm returns under the module's edge
    order (weight cells[i, j] with i < j, then sorted label pair, then
    (i, j)), with its edges in that order.
    """
    labels = dist.labels
    n = len(labels)
    if n == 0:
        raise PolicyError("E_EMPTY", "distance matrix has no nodes")
    # Each edge's position in that order. Labels are ranked in Python's
    # string order: numpy "<U" strings would drop trailing NULs.
    rank_of = {label: r for r, label in enumerate(sorted(set(labels)))}
    rank = np.array([rank_of[label] for label in labels], dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    order = np.lexsort(
        (np.maximum(rank[i], rank[j]), np.minimum(rank[i], rank[j]), dist.cells[i, j])
    )
    position = np.zeros((n, n), dtype=np.int64)
    position[i[order], j[order]] = position[j[order], i[order]] = np.arange(len(order))

    # Dense Prim over the positions finds the one tree of that strict order.
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = position[0].copy()
    taken = np.empty(n - 1, dtype=np.int64)
    never = np.iinfo(np.int64).max
    for t in range(n - 1):
        v = int(np.argmin(np.where(in_tree, never, best)))
        taken[t] = best[v]
        in_tree[v] = True
        best = np.minimum(best, position[v])
    chosen = order[np.sort(taken)]
    edges = tuple(
        (int(a), int(b), float(dist.cells[a, b])) for a, b in zip(i[chosen], j[chosen])
    )
    return MstResult(labels, edges)


def trait_less_category_ids(model: TaxonomyModel) -> list[str]:
    return [c.id for c in model.categories if not c.implementable_trait_ids]


__all__ = [
    "NULL_MODES",
    "NULL_POLICY_LABEL",
    "TraitMatrix",
    "SignalSeries",
    "CorrelationMatrix",
    "DistanceMatrix",
    "MstResult",
    "build_trait_matrix",
    "signal_series",
    "pearson_correlation",
    "euclidean_distance",
    "kruskal_mst",
    "trait_less_category_ids",
]
