"""Exporters: DOT for trees and MSTs, CSV for matrices, markdown tables.

All exporters are pure functions of (model, options) and emit byte-stable
UTF-8 payloads, so repeated exports diff clean. Matrix cells are written
as the shortest repr of their float64 value; since analytics computes
them from exact integer counts, the CSV bytes do not depend on the BLAS,
and few values are distinct. One sort of the cells' bit patterns gives
the distinct ones, each formatted once with its separator; a cell finds
its text through a multiplicative hash of its bits, checked against the
sorted patterns, and a block of rows is one gather into a list of shared
texts, joined once at the end, so no per-cell work runs in Python.
Undefined cells (NaN: correlations of constant rows, non-tree cells of the
MST-pruned distances) become empty fields. The pruned CSV is written from
the tree's edge list, each row as runs of commas between its few cells,
never from an n x n grid. Labels are quoted per RFC 4180 when they hold a
comma, quote, CR or LF.
"""
from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .model import PolicyError, TaxonomyModel, iter_tree

if TYPE_CHECKING:  # analytics imports numpy; the exporters only read its results
    from .analytics import MstResult, SquareMatrix, TraitMatrix


class ExportArtifact(NamedTuple):
    text: str


_NOT_SLUG = re.compile(r"[^a-z0-9]+")


def slugify(label: str) -> str:
    slug = _NOT_SLUG.sub("_", label.lower()).strip("_")
    return slug or "node"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _slugs(labels: Iterable[str]) -> list[str]:
    """One DOT identifier per label, made unique by a suffix: the first
    repeat of a slug gets "_", and the k-th, for k >= 2, gets "__<k>". A
    keyword or a slug that starts with a digit gets a leading underscore.
    slugify never writes "__" and strips underscores from both ends, so no
    slug ends in "_" or holds "__": a suffixed name meets no other."""
    repeats: dict[str, int] = {}
    out = []
    for label in labels:
        slug = slugify(label)
        if slug in ("node", "edge", "graph", "digraph", "subgraph", "strict") or slug[0].isdigit():
            slug = "_" + slug
        k = repeats.get(slug, 0)
        repeats[slug] = k + 1
        out.append(slug if k == 0 else slug + "_" if k == 1 else f"{slug}__{k}")
    return out


def export_tree_dot(model: TaxonomyModel) -> ExportArtifact:
    """DOT digraph of the taxonomy: boxed groups, plain category leaves, and
    one edge to each child that resolves, however often it is listed."""
    nodes = [node for node, _ in iter_tree(model)]
    node_slugs = _slugs(node.label for node in nodes)
    slugs = dict(zip((node.id for node in nodes), node_slugs))
    lines = ["digraph taxonomy {", "  rankdir=LR;"]
    for node, slug in zip(nodes, node_slugs):
        shape = "box" if node.kind == "group" else "plaintext"
        lines.append(f"  {slug} [label={_quote(node.label)}, shape={shape}];")
    for node in nodes:
        for child_id in dict.fromkeys(node.children):
            if child_id in slugs:
                lines.append(f"  {slugs[node.id]} -> {slugs[child_id]};")
    lines.append("}")
    return ExportArtifact("\n".join(lines) + "\n")


def export_tree_text(model: TaxonomyModel) -> ExportArtifact:
    """Two-space indented text tree with node kind suffixes."""
    lines = [
        f"{'  ' * depth}{node.label} [{node.kind}]"
        for node, depth in iter_tree(model)
    ]
    return ExportArtifact("\n".join(lines) + "\n")


def export_mst_dot(mst: MstResult) -> ExportArtifact:
    """Undirected DOT graph; edge labels carry weights to 6 decimals."""
    slugs = _slugs(mst.labels)
    lines = ["graph mst {", "  layout=neato;"]
    for label, slug in zip(mst.labels, slugs):
        lines.append(f"  {slug} [label={_quote(label)}];")
    for i, j, weight in mst.edges:
        lines.append(f"  {slugs[i]} -- {slugs[j]} [label={_quote(f'{weight:.6f}')}];")
    lines.append("}")
    return ExportArtifact("\n".join(lines) + "\n")


def _float_text(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """RFC 4180: a field holding a comma, quote, CR or LF is quoted."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(fields: list[str]) -> str:
    # As in csv.writer, a row of one empty field is "" so it still reads as a row.
    return '""' if fields == [""] else ",".join(fields)


def _csv_header(cols: Iterable[str]) -> str:
    """The header line: an empty corner field, then the column labels."""
    return _csv_line([_csv_field(label) for label in ("", *cols)]) + "\n"


# Rows of cells coded, gathered and joined at once: at 1000 columns a
# block's code and object arrays are ~128 KB each, and no n x n code array
# is ever held.
_BLOCK_ROWS = 16

# Fibonacci hashing: the top bits of bits * 2**64/phi spread the keys.
_GOLDEN = 0x9E3779B97F4A7C15


def export_matrix_csv(matrix: TraitMatrix | SquareMatrix) -> ExportArtifact:
    """RFC-4180-style CSV: header row of column labels, label column first.

    Booleans become 0/1, floats the repr of their float64 value, and
    undefined (NaN) cells empty fields. A cell's key is its float64 bit
    pattern, or its value in a bool or int matrix, so -0.0 and 0.0 stay
    apart and NaNs of one payload share a key. One sort gives the distinct
    keys, and each is formatted once, its text kept ending in a comma and
    ending a row in a newline. A block of rows at a time, each cell's
    index into the keys comes from a multiplicative hash of its key; the
    key at that index is compared with the cell's, and where they differ a
    binary search finds the index, so the bytes never depend on the hash.
    The block's row labels and cell texts are then one gather, added to
    one list of pieces that is joined once, so only the text and that list
    of references are held at the peak.
    """
    import numpy as np

    if hasattr(matrix, "labels"):
        rows = cols = matrix.labels
    else:
        rows, cols = matrix.row_labels, matrix.col_labels

    cells = matrix.cells
    dtype = {"f": "f8", "i": "i8"}.get(cells.dtype.kind, "u8")  # bool and uint: u8
    ordered = np.sort(cells.astype(dtype, copy=False).view("u8"), axis=None)
    distinct = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    keys = ordered[distinct]
    counts = np.diff(np.flatnonzero(distinct), append=ordered.size)
    del ordered, distinct  # an n x n copy, not to be held while writing
    text = _float_text if dtype == "f8" else str
    texts = [text(v) for v in keys.view(dtype).tolist()]
    # With m keys, piece c is key c's text and a comma, piece m + c its text
    # ending a row, and piece 2m + i row i's label field and its separator.
    # A row of one empty field is written "".
    if cols:
        labels = [_csv_field(label) + "," for label in rows]
    else:
        labels = [_csv_line([_csv_field(label)]) + "\n" for label in rows]
    pieces = np.array(
        [t + "," for t in texts] + [t + "\n" for t in texts] + labels, dtype=object
    )

    # 16-32 slots per key. Keys are written rarest first, so where keys
    # share a slot the most frequent one, written last, keeps it: at n=1000
    # ~0.5% of correlation and ~2.5% of distance cells miss. NumPy does not
    # promise which write to a repeated index lands; a miss only costs a
    # search.
    slot_bits = (16 * len(keys) - 1).bit_length()
    shift, golden = np.uint64(64 - slot_bits), np.uint64(_GOLDEN)
    table = np.zeros(1 << slot_bits, dtype=np.intp)
    by_count = np.argsort(counts)
    table[((keys[by_count] * golden) >> shift).view(np.intp)] = by_count

    out = [_csv_header(cols)]
    codes = np.empty((_BLOCK_ROWS, len(cols) + 1), dtype=np.intp)
    for start in range(0, len(cells), _BLOCK_ROWS):
        block = cells[start : start + _BLOCK_ROWS].astype(dtype, copy=False).view("u8")
        slot = block * golden
        slot >>= shift
        found = table[slot.view(np.intp)]
        missed = keys[found] != block
        found[missed] = np.searchsorted(keys, block[missed])
        found[:, -1:] += len(keys)  # the last column ends its row; none if no columns
        code = codes[: len(block)]
        code[:, 1:] = found
        code[:, 0] = range(2 * len(keys) + start, 2 * len(keys) + start + len(block))
        out += pieces[code].ravel().tolist()
    return ExportArtifact("".join(out))


def export_pruned_csv(mst: MstResult) -> ExportArtifact:
    """The MST-pruned distance matrix as CSV: 0.0 on the diagonal, the tree
    edge weights, and empty fields off the tree. Each row is written as runs
    of commas between its few non-empty cells, into one list of pieces
    that is joined once."""
    n = len(mst.labels)
    tree: list[list[tuple[int, str]]] = [[(i, "0.0")] for i in range(n)]
    for i, j, weight in mst.edges:
        text = _float_text(weight)
        tree[i].append((j, text))
        tree[j].append((i, text))

    out = [_csv_header(mst.labels)]
    for label, row in zip(mst.labels, tree):
        out.append(_csv_field(label))
        before = -1
        row.sort()
        for j, text in row:
            out.append("," * (j - before) + text)
            before = j
        out.append("," * (n - 1 - before) + "\n")
    return ExportArtifact("".join(out))


def _md_cell(text: str) -> str:
    """Escape pipes and write CR, LF or CRLF as <br>: a cell keeps its column and row."""
    return re.sub(r"\r\n?|\n", "<br>", text.replace("|", "\\|"))


def export_table_markdown(model: TaxonomyModel, table_name: str) -> ExportArtifact:
    """Markdown pipe table mirroring one checkmark table, plus a tags column."""
    table = model._table_by_name.get(table_name)
    if table is None:
        raise PolicyError("E_NOT_FOUND", f"unknown table {table_name!r}")
    traits = model._trait_by_id
    trait_names = [_md_cell(traits[t].name if t in traits else t) for t in table.trait_columns]
    lines = [
        "| Category | " + " | ".join(trait_names) + " | tags |",
        "|" + " --- |" * (len(trait_names) + 2),
    ]
    for row in table.rows:
        category = model._category_by_id.get(row.category_id)
        name = category.name if category else row.category_id
        marks = set(row.marks)
        cells = ["x" if t in marks else "" for t in table.trait_columns]
        tags = ", ".join(sorted(category.cross_tags)) if category else ""
        lines.append("| " + " | ".join([_md_cell(name)] + cells + [_md_cell(tags)]) + " |")
    return ExportArtifact("\n".join(lines) + "\n")


def export_schema_list(schemas) -> ExportArtifact:
    """One schema per line: category/trait[/subtrait], from one list of ids
    and separators joined once; an id that is not a str raises TypeError."""
    pieces = []
    for category_id, trait_id, subtrait_id in schemas:
        if subtrait_id is None:
            pieces += (category_id, "/", trait_id, "\n")
        else:
            pieces += (category_id, "/", trait_id, "/", subtrait_id, "\n")
    return ExportArtifact("".join(pieces))


__all__ = [
    "ExportArtifact",
    "slugify",
    "export_tree_dot",
    "export_tree_text",
    "export_mst_dot",
    "export_matrix_csv",
    "export_pruned_csv",
    "export_table_markdown",
    "export_schema_list",
]
