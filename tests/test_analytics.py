import dataclasses
import itertools
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from polytax.analytics import (
    NULL_POLICY_LABEL,
    DistanceMatrix,
    MstResult,
    TraitMatrix,
    build_trait_matrix,
    euclidean_distance,
    kruskal_mst,
    pearson_correlation,
    trait_less_category_ids,
)
from polytax.model import PolicyError


# ---------------------------------------------------------------------------
# brute-force oracle: minimum spanning-tree weight by full enumeration
# ---------------------------------------------------------------------------

def brute_force_mst_weight(cells):
    """Minimum total weight over every spanning tree (n small)."""
    n = cells.shape[0]
    if n == 1:
        return 0.0
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = math.inf
    for subset in itertools.combinations(all_edges, n - 1):
        # connectivity check: union of n-1 edges spans iff all reachable
        adj = {i: [] for i in range(n)}
        for i, j in subset:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) == n:
            best = min(best, sum(cells[i, j] for i, j in subset))
    return best


class UnionFind:
    """Disjoint sets over range(n) with path halving."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return ra != rb


def reference_kruskal(dist):
    """Kruskal over the pairs i < j sorted by (weight, sorted label pair).

    The sort is stable, so pairs with equal keys keep their (i, j) order.
    """
    labels = dist.labels
    n = len(labels)
    candidates = sorted(
        (
            (float(dist.cells[i, j]), tuple(sorted((labels[i], labels[j]))), i, j)
            for i in range(n)
            for j in range(i + 1, n)
        ),
        key=lambda e: e[:2],
    )
    uf = UnionFind(n)
    return MstResult(labels, tuple((i, j, w) for w, _, i, j in candidates if uf.union(i, j)))


def lexsort_kruskal(dist):
    """The MST under the module's edge order, from one np.lexsort of every edge.

    Each edge (i, j), i < j, gets its position in the order weight, then
    sorted label ranks, then (i, j); a dense Prim over those positions finds
    the tree, whose positions sorted give its edges in order. np.lexsort
    orders -0.0 equal to 0.0 and NaN after +inf.
    """
    labels = dist.labels
    n = len(labels)
    rank_of = {label: r for r, label in enumerate(sorted(set(labels)))}
    rank = np.array([rank_of[label] for label in labels], dtype=np.int64)
    i, j = np.triu_indices(n, 1)
    order = np.lexsort(
        (np.maximum(rank[i], rank[j]), np.minimum(rank[i], rank[j]), dist.cells[i, j])
    )
    position = np.zeros((n, n), dtype=np.int64)
    position[i[order], j[order]] = position[j[order], i[order]] = np.arange(len(order))

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


def pruned_grid(mst):
    """The dense pruned matrix: tree edge weights, 0 on the diagonal, NaN off the tree."""
    n = len(mst.labels)
    cells = np.full((n, n), np.nan)
    np.fill_diagonal(cells, 0.0)
    for i, j, weight in mst.edges:
        cells[i, j] = cells[j, i] = weight
    return DistanceMatrix(mst.labels, cells)


def edge_bits(edges):
    """Edges with each weight as its float64 bits, so NaN equals NaN and -0.0 is not 0.0."""
    return tuple((i, j, struct.pack("d", w)) for i, j, w in edges)


def assert_spanning_tree(edges, n):
    """n - 1 edges that never close a cycle span all n nodes."""
    assert len(edges) == n - 1
    uf = UnionFind(n)
    assert all(uf.union(i, j) for i, j, _ in edges)


def random_binary_matrix(rng, n, width=5):
    labels = tuple(f"row-{i}" for i in range(n))
    cells = np.array(
        [[rng.randint(0, 1) for _ in range(width)] for _ in range(n)], dtype=bool
    )
    return TraitMatrix(labels, tuple(f"c{i}" for i in range(width)), cells)


# ---------------------------------------------------------------------------
# trait matrix / null modes
# ---------------------------------------------------------------------------

def test_include_mode_shape(model):
    tm = build_trait_matrix(model, "include")
    assert tm.cells.shape == (len(model.categories), 23)
    assert tm.col_labels == tuple(t.id for t in model.traits)


def test_tax_amnesty_row_is_all_false(model):
    tm = build_trait_matrix(model, "include")
    assert not tm.cells[tm.row_labels.index("tax-amnesty")].any()


def test_collapse_mode_has_single_null_row(model):
    tm = build_trait_matrix(model, "collapse")
    zero_rows = [
        label for label, row in zip(tm.row_labels, tm.cells) if not row.any()
    ]
    assert zero_rows == [NULL_POLICY_LABEL]


def test_exclude_mode_has_no_zero_rows(model):
    tm = build_trait_matrix(model, "exclude")
    assert all(row.any() for row in tm.cells)


def test_null_mode_node_count_algebra(model):
    include = len(build_trait_matrix(model, "include").row_labels)
    collapse = len(build_trait_matrix(model, "collapse").row_labels)
    exclude = len(build_trait_matrix(model, "exclude").row_labels)
    trait_less = len(trait_less_category_ids(model))
    assert exclude < collapse < include
    assert collapse == include - trait_less + 1


def test_bad_null_mode(model):
    with pytest.raises(PolicyError):
        build_trait_matrix(model, "drop")


# ---------------------------------------------------------------------------
# signal series
# ---------------------------------------------------------------------------

def test_inheritance_tax_signal(model):
    tm = build_trait_matrix(model)
    series = tm.cells[tm.row_labels.index("inheritance-tax")]
    on = {t for t, v in zip(tm.col_labels, series) if v}
    assert on == {
        "tax-calculation-type", "tax-base", "tax-payment-type",
        "tax-evasion-penalty", "allowance", "abatement", "exemption",
        "tax-credit",
    }


def test_helicopter_money_signal_is_zero(model):
    tm = build_trait_matrix(model)
    assert not tm.cells[tm.row_labels.index("helicopter-money")].any()


def test_signal_sums_equal_checkmark_total(model):
    tm = build_trait_matrix(model, "include")
    assert int(tm.cells.sum()) == 262


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_identical_rows_correlate_fully(model):
    tm = build_trait_matrix(model)
    corr = pearson_correlation(tm)
    i = corr.labels.index("inheritance-tax")
    j = corr.labels.index("estate-tax")
    assert corr.cells[i][j] == pytest.approx(1.0, abs=1e-9)


def test_constant_row_pairs_are_undefined(model):
    tm = build_trait_matrix(model)
    corr = pearson_correlation(tm)
    k = corr.labels.index("tax-amnesty")
    assert all(np.isnan(corr.cells[k][j]) for j in range(len(corr.labels)))
    assert all(np.isnan(corr.cells[j][k]) for j in range(len(corr.labels)))


def test_correlation_symmetry_and_diagonal(model):
    tm = build_trait_matrix(model)
    corr = pearson_correlation(tm)
    constant = {
        i for i, row in enumerate(tm.cells) if len(set(row.tolist())) == 1
    }
    n = len(corr.labels)
    for i in range(n):
        if i in constant:
            assert np.isnan(corr.cells[i][i])
        else:
            assert corr.cells[i][i] == pytest.approx(1.0, abs=1e-9)
        for j in range(n):
            a, b = corr.cells[i][j], corr.cells[j][i]
            if i in constant or j in constant:
                assert np.isnan(a) and np.isnan(b)
            else:
                assert a == pytest.approx(b, abs=1e-9)
                assert -1.0 - 1e-9 <= a <= 1.0 + 1e-9


def integer_pearson(rows):
    """Pearson r from Python-integer counts: one rounding per float operation."""
    k = len(rows[0])
    out = np.empty((len(rows), len(rows)))
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            a, b = sum(x), sum(y)
            n11 = sum(p * q for p, q in zip(x, y))
            den = a * (k - a) * b * (k - b)
            out[i, j] = (k * n11 - a * b) / math.sqrt(den) if den else math.nan
    return out


def integer_hamming_sqrt(rows):
    return np.array(
        [[math.sqrt(sum(p != q for p, q in zip(x, y))) for y in rows] for x in rows]
    )


def small_matrices_with_constant_rows():
    rng = random.Random(20261017)
    for width in (1, 2, 3, 7, 23, 64):
        for _ in range(5):
            tm = random_binary_matrix(rng, rng.randint(2, 9), width)
            cells = tm.cells.copy()
            cells[0] = False
            cells[-1] = True
            yield TraitMatrix(tm.row_labels, tm.col_labels, cells)


def assert_same_bits(got, want):
    """Equal NaN masks and equal float64 bits elsewhere, so -0.0 is not 0.0."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view("u8"), want[~nan].view("u8"))


def assert_exact_analytics(tm):
    rows = tm.cells.astype(int).tolist()
    assert_same_bits(pearson_correlation(tm).cells, integer_pearson(rows))
    assert_same_bits(euclidean_distance(tm).cells, integer_hamming_sqrt(rows))


@pytest.mark.parametrize("null_mode", ["include", "collapse", "exclude"])
def test_analytics_equal_integer_reference_on_bundled_dataset(model, null_mode):
    assert_exact_analytics(build_trait_matrix(model, null_mode))


def test_analytics_equal_integer_reference_on_small_matrices():
    for tm in small_matrices_with_constant_rows():
        assert_exact_analytics(tm)


@pytest.mark.parametrize("kernel", [pearson_correlation, euclidean_distance])
def test_kernel_peak_memory_at_n1000(kernel):
    # Computed in place in the co-occurrence counts: those and one n x n
    # temporary, where Pearson used to hold six n x n arrays (30.5 MiB).
    n = 1000
    rng = np.random.default_rng(n)
    tm = TraitMatrix(
        tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(64)),
        rng.random((n, 64)) < 0.3,
    )
    tracemalloc.start()
    try:
        kernel(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n * 8 + 2**20, peak / 2**20


def test_complement_rows_anticorrelate():
    x = np.array([[1, 0, 1, 0, 1], [0, 1, 0, 1, 0]], dtype=bool)
    tm = TraitMatrix(("a", "b"), ("c0", "c1", "c2", "c3", "c4"), x)
    corr = pearson_correlation(tm)
    assert corr.cells[0][1] == pytest.approx(-1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_identical_rows_at_distance_zero(model):
    tm = build_trait_matrix(model)
    dist = euclidean_distance(tm)
    i = dist.labels.index("inheritance-tax")
    j = dist.labels.index("estate-tax")
    assert dist.cells[i, j] == 0.0


def test_wealth_vs_inheritance_distance_one(model):
    tm = build_trait_matrix(model)
    dist = euclidean_distance(tm)
    i = dist.labels.index("wealth-tax")
    j = dist.labels.index("inheritance-tax")
    assert dist.cells[i, j] == pytest.approx(1.0, abs=1e-9)


def test_distance_metric_properties(model):
    dist = euclidean_distance(build_trait_matrix(model))
    cells = dist.cells
    assert np.allclose(cells, cells.T)
    assert np.allclose(np.diag(cells), 0.0)
    # triangle inequality over all triples
    via = cells[:, :, None] + cells[None, :, :]  # via[i, k, j] = d(i,k) + d(k,j)
    assert (cells <= via.min(axis=1) + 1e-9).all()


def test_distance_is_sqrt_hamming(model):
    tm = build_trait_matrix(model)
    dist = euclidean_distance(tm)
    i = dist.labels.index("value-added-tax")
    j = dist.labels.index("turnover-tax")
    hamming = int((tm.cells[i] ^ tm.cells[j]).sum())
    assert dist.cells[i, j] == pytest.approx(math.sqrt(hamming), abs=1e-9)


def test_trait_less_categories_cluster_at_zero(model):
    tm = build_trait_matrix(model, "include")
    dist = euclidean_distance(tm)
    null_ids = trait_less_category_ids(model)
    idx = [dist.labels.index(c) for c in null_ids]
    assert "tax-free-investment-accounts" in null_ids
    for a in idx:
        for b in idx:
            assert dist.cells[a, b] == 0.0


# ---------------------------------------------------------------------------
# Kruskal MST
# ---------------------------------------------------------------------------

def make_distance(labels, entries):
    n = len(labels)
    cells = np.zeros((n, n))
    for (i, j), w in entries.items():
        cells[i, j] = cells[j, i] = w
    return DistanceMatrix(tuple(labels), cells)


def test_simple_unique_mst():
    dist = make_distance("ABC", {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 2.0})
    mst = kruskal_mst(dist)
    assert [(i, j) for i, j, _ in mst.edges] == [(0, 1), (1, 2)]
    assert mst.total_weight() == pytest.approx(2.0)


def test_tie_break_is_lexicographic():
    dist = make_distance("ABC", {(0, 1): 0.0, (1, 2): 0.0, (0, 2): 0.0})
    mst = kruskal_mst(dist)
    assert [(i, j) for i, j, _ in mst.edges] == [(0, 1), (0, 2)]


def test_single_node():
    dist = DistanceMatrix(("only",), np.zeros((1, 1)))
    assert kruskal_mst(dist).edges == lexsort_kruskal(dist).edges == ()


def test_empty_matrix_rejected():
    with pytest.raises(PolicyError) as exc:
        kruskal_mst(DistanceMatrix((), np.zeros((0, 0))))
    assert exc.value.code == "E_EMPTY"


def test_mst_matches_brute_force_on_random_instances():
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(2, 6)
        tm = random_binary_matrix(rng, n)
        dist = euclidean_distance(tm)
        mst = kruskal_mst(dist)
        assert len(mst.edges) == n - 1
        oracle = brute_force_mst_weight(dist.cells)
        assert mst.total_weight() == pytest.approx(oracle, abs=1e-9)


def test_mst_weight_invariant_under_row_permutation():
    rng = random.Random(7)
    tm = random_binary_matrix(rng, 6)
    order = list(range(6))
    rng.shuffle(order)
    permuted = TraitMatrix(
        tuple(tm.row_labels[i] for i in order),
        tm.col_labels,
        tm.cells[order],
    )
    w1 = kruskal_mst(euclidean_distance(tm)).total_weight()
    w2 = kruskal_mst(euclidean_distance(permuted)).total_weight()
    assert w1 == pytest.approx(w2, abs=1e-9)


@pytest.mark.parametrize("null_mode", ["include", "collapse", "exclude"])
def test_mst_on_bundled_dataset(model, null_mode):
    tm = build_trait_matrix(model, null_mode)
    dist = euclidean_distance(tm)
    mst = kruskal_mst(dist)
    n = len(tm.row_labels)
    assert_spanning_tree(mst.edges, n)


def tie_heavy_distances(rng, n, duplicate_labels, asymmetric):
    """A DistanceMatrix with many equal weights.

    Duplicate labels come from a small alphabet that has "A" and "A\\0",
    which numpy's fixed-width strings would not tell apart.

    Symmetric cases are Euclidean distances of 0/1 rows; asymmetric ones are
    random cells rounded to 0.1, of which only the upper triangle counts.
    """
    if duplicate_labels:
        labels = tuple(rng.choice(["A", "A\0", "B", "C"]) for _ in range(n))
    else:
        labels = tuple(rng.sample([f"L{k:02d}" for k in range(n)], n))
    if asymmetric:
        cells = np.array([[round(rng.random() / 2, 1) for _ in range(n)] for _ in range(n)])
        return DistanceMatrix(labels, cells)
    tm = random_binary_matrix(rng, n, rng.randint(1, 5))
    return DistanceMatrix(labels, euclidean_distance(tm).cells if n > 1 else np.zeros((1, 1)))


def test_mst_edges_equal_reference_kruskal():
    rng = random.Random(20261018)
    for case in range(800):
        dist = tie_heavy_distances(rng, rng.randint(1, 25), case % 2 == 1, case % 4 >= 2)
        edges = kruskal_mst(dist).edges
        assert edges == reference_kruskal(dist).edges, dist
        assert edge_bits(edges) == edge_bits(lexsort_kruskal(dist).edges), dist


SPECIAL_WEIGHTS = (0.0, -0.0, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan, -math.nan)


def special_distances(rng, n, labels=("A", "B", "B\0", "C")):
    """Asymmetric cells drawn from SPECIAL_WEIGHTS, labels drawn with repeats."""
    cells = np.array([[rng.choice(SPECIAL_WEIGHTS) for _ in range(n)] for _ in range(n)])
    return DistanceMatrix(tuple(rng.choice(labels) for _ in range(n)), cells)


@pytest.mark.parametrize("upper", [
    # +inf on every edge out of vertex 0: a Prim that masks the tree with
    # +inf can take a tree vertex next and emit a self-loop.
    pytest.param([[0, math.inf, math.inf], [0, 0, 1.0], [0, 0, 0]], id="inf"),
    # Only +inf edges: a tree vertex that keeps its tie key can win again.
    pytest.param([[0, math.inf, math.inf, math.inf], [0, 0, math.inf, math.inf],
                  [0, 0, 0, math.inf], [0, 0, 0, 0]], id="inf-only"),
    # NaN sorts after +inf; a float comparison never takes a NaN edge.
    pytest.param([[0, math.nan, 1.0], [0, 0, math.nan], [0, 0, 0]], id="nan"),
    pytest.param([[0, math.nan, math.nan], [0, 0, math.nan], [0, 0, 0]], id="nan-only"),
    pytest.param([[0, math.nan, math.inf, 1.0], [0, 0, math.inf, math.nan],
                  [0, 0, 0, math.nan], [0, 0, 0, 0]], id="inf-and-nan"),
    # -0.0 ties with 0.0 and loses on the label pair.
    pytest.param([[0, 0.0, -0.0], [0, 0, -0.0], [0, 0, 0]], id="negative-zero"),
])
def test_mst_orders_special_weights_as_lexsort(upper):
    n = len(upper)
    # The lower triangle disagrees everywhere: only the upper one counts.
    cells = np.triu(np.array(upper, dtype=float), 1) + np.tril(np.full((n, n), -5.0), -1)
    dist = DistanceMatrix(tuple("CBAD"[:n]), cells)
    edges = kruskal_mst(dist).edges
    assert_spanning_tree(edges, n)
    assert edge_bits(edges) == edge_bits(lexsort_kruskal(dist).edges)


def test_mst_edges_equal_lexsort_kruskal_on_special_weights():
    rng = random.Random(20261019)
    for _ in range(400):
        dist = special_distances(rng, rng.randint(1, 8))
        edges = kruskal_mst(dist).edges
        assert_spanning_tree(edges, len(dist.labels))
        assert edge_bits(edges) == edge_bits(lexsort_kruskal(dist).edges), dist


def test_mst_memory_is_linear_at_n2000():
    rng = np.random.default_rng(2000)
    cells = rng.random((2000, 64)) < 0.3
    tm = TraitMatrix(tuple(f"r{i}" for i in range(2000)), tuple(f"c{k}" for k in range(64)), cells)
    dist = euclidean_distance(tm)
    tracemalloc.start()
    try:
        mst = kruskal_mst(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_spanning_tree(mst.edges, 2000)
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("null_mode", ["include", "collapse", "exclude"])
def test_mst_edges_equal_reference_kruskal_on_bundled_dataset(model, null_mode):
    # A category with traits whose id is "Null Policy" gives two rows of that
    # label under collapse; its table row is renamed along with it.
    named = next(c for c in model.categories if model.implementable_trait_ids(c.id))
    categories = tuple(
        dataclasses.replace(c, id=NULL_POLICY_LABEL) if c is named else c
        for c in model.categories
    )
    tables = tuple(
        dataclasses.replace(t, rows=tuple(
            dataclasses.replace(r, category_id=NULL_POLICY_LABEL) if r.category_id == named.id
            else r for r in t.rows
        ))
        for t in model.tables
    )
    renamed = dataclasses.replace(model, categories=categories, tables=tables)
    tm = build_trait_matrix(renamed, null_mode)
    assert tm.row_labels.count(NULL_POLICY_LABEL) == (2 if null_mode == "collapse" else 1)
    dist = euclidean_distance(tm)
    assert kruskal_mst(dist).edges == reference_kruskal(dist).edges
