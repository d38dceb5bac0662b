"""Correctness oracles, independent of the polytax code they check.

The trait matrix is rebuilt from the raw document's table rows, Pearson is
checked against `numpy.corrcoef`, distances against the exact integer
Hamming square root, and the MST against a dense Prim under the strict key
(weight, sorted label pair), whose tree is unique. Every check returns a
list of error strings; an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

NULL_MODES = ("include", "collapse", "exclude")
NULL_LABEL = "Null Policy"
PEARSON_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """What analytics must produce for one document and null mode."""

    labels: tuple[str, ...]
    cols: tuple[str, ...]
    x: np.ndarray  # uint8 (rows, cols)
    corr: np.ndarray  # float, NaN where a row is constant
    hamming: np.ndarray  # int64 (rows, rows)
    mst_pairs: frozenset  # frozensets of two labels
    mst_weight: float


def trait_rows(doc: dict, mode: str) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Category x trait 0/1 rows in document order under a null mode."""
    cols = tuple(t["id"] for t in doc["traits"])
    col_index = {c: i for i, c in enumerate(cols)}
    marks: dict[str, set] = {}
    for table in doc.get("tables", []):
        for row in table["rows"]:
            marks.setdefault(row["category"], set()).update(row["marks"])
    labels, rows, saw_null = [], [], False
    for category in doc["categories"]:
        row = np.zeros(len(cols), dtype=np.uint8)
        for mark in marks.get(category["id"], ()):
            row[col_index[mark]] = 1
        if not row.any():
            saw_null = True
            if mode != "include":
                continue
        labels.append(category["id"])
        rows.append(row)
    if mode == "collapse" and saw_null:
        labels.append(NULL_LABEL)
        rows.append(np.zeros(len(cols), dtype=np.uint8))
    return tuple(labels), cols, np.array(rows, dtype=np.uint8).reshape(len(rows), len(cols))


def hamming(x: np.ndarray) -> np.ndarray:
    xi = x.astype(np.int64)
    ones = xi.sum(axis=1)
    return ones[:, None] + ones[None, :] - 2 * (xi @ xi.T)


def corr_oracle(x: np.ndarray) -> np.ndarray:
    constant = x.min(axis=1) == x.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(x.astype(float))
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    return corr


def prim_mst(labels: tuple[str, ...], ham: np.ndarray) -> list[tuple[int, int]]:
    """Dense Prim under the strict key (hamming, lower label rank, upper rank)."""
    n = len(labels)
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=labels.__getitem__)] = np.arange(n)
    never = np.iinfo(np.int64).max

    def keys_from(u):
        return ham[u] * n * n + np.minimum(rank[u], rank) * n + np.maximum(rank[u], rank)

    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = keys_from(0)
    parent = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(np.where(in_tree, never, best)))
        edges.append((int(parent[v]), v))
        in_tree[v] = True
        keys = keys_from(v)
        better = ~in_tree & (keys < best)
        best[better] = keys[better]
        parent[better] = v
    return edges


def expected_analytics(doc: dict, mode: str) -> Expected:
    labels, cols, x = trait_rows(doc, mode)
    ham = hamming(x)
    edges = prim_mst(labels, ham)
    return Expected(
        labels=labels,
        cols=cols,
        x=x,
        corr=corr_oracle(x),
        hamming=ham,
        mst_pairs=frozenset(frozenset((labels[i], labels[j])) for i, j in edges),
        mst_weight=float(sum(np.sqrt(float(ham[i, j])) for i, j in edges)),
    )


# ---------------------------------------------------------------------------
# Checks on result objects and on exported text
# ---------------------------------------------------------------------------

def check_trait_matrix(labels, cols, cells, exp: Expected) -> list[str]:
    if tuple(labels) != exp.labels or tuple(cols) != exp.cols:
        return ["trait matrix labels differ from the document"]
    if not np.array_equal(np.asarray(cells, dtype=np.uint8), exp.x):
        return ["trait matrix cells differ from the document's checkmarks"]
    return []


def check_corr(labels, cells: np.ndarray, exp: Expected) -> list[str]:
    if tuple(labels) != exp.labels:
        return ["correlation labels differ"]
    undefined = np.isnan(cells)
    if not np.array_equal(undefined, np.isnan(exp.corr)):
        return ["undefined correlation cells do not match the constant rows"]
    worst = float(np.max(np.abs(cells[~undefined] - exp.corr[~undefined]), initial=0.0))
    if worst > PEARSON_TOL:
        return [f"pearson differs from numpy.corrcoef by {worst:.3g}"]
    return []


def check_dist(labels, cells: np.ndarray, exp: Expected) -> list[str]:
    if tuple(labels) != exp.labels:
        return ["distance labels differ"]
    if not np.array_equal(cells, np.sqrt(exp.hamming.astype(float))):
        return ["distance is not the exact sqrt of the Hamming distance"]
    return []


def check_mst(pairs: list[tuple[str, str]], weight: float, exp: Expected, tol: float) -> list[str]:
    errors = []
    if len(pairs) != len(exp.labels) - 1:
        errors.append(f"MST has {len(pairs)} edges for {len(exp.labels)} nodes")
    if frozenset(frozenset(p) for p in pairs) != exp.mst_pairs:
        errors.append("MST edge set differs from the Prim oracle")
    if abs(weight - exp.mst_weight) > tol:
        errors.append(f"MST weight {weight} differs from the oracle's {exp.mst_weight}")
    return errors


def parse_csv_matrix(text: str) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text)))
    cols = tuple(rows[0][1:])
    labels = tuple(r[0] for r in rows[1:])
    cells = np.array(
        [[float(v) if v else np.nan for v in r[1:]] for r in rows[1:]], dtype=float
    ).reshape(len(labels), len(cols))
    return labels, cols, cells


_DOT_NODE = re.compile(r'^  (\w+) \[label="((?:[^"\\]|\\.)*)"\];$')
_DOT_EDGE = re.compile(r'^  (\w+) -- (\w+) \[label="([0-9.]+)"\];$')


def parse_mst_dot(text: str) -> tuple[list[tuple[str, str]], float]:
    names, pairs, weight = {}, [], 0.0
    for line in text.splitlines():
        if m := _DOT_NODE.match(line):
            names[m[1]] = m[2].replace('\\"', '"').replace("\\\\", "\\")
        elif m := _DOT_EDGE.match(line):
            pairs.append((names[m[1]], names[m[2]]))
            weight += float(m[3])
    return pairs, weight


def pruned_csv_edges(text: str) -> tuple[list[tuple[str, str]], float]:
    labels, _, cells = parse_csv_matrix(text)
    i, j = np.nonzero(np.triu(~np.isnan(cells), k=1))
    pairs = [(labels[a], labels[b]) for a, b in zip(i, j)]
    return pairs, float(np.nansum(cells[i, j]))
