"""Exporters: DOT for trees and MSTs, CSV for matrices, markdown tables.

All exporters are pure functions of (model, options) and emit byte-stable
UTF-8 payloads, so repeated exports diff clean. Matrix cells are written
as the shortest repr of their float64 value; since analytics computes
them from exact integer counts, the CSV bytes do not depend on the BLAS.
Undefined cells (NaN: correlations of constant rows, non-tree cells of
the MST-pruned distances) become empty fields.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Union

from .analytics import CorrelationMatrix, DistanceMatrix, MstResult, TraitMatrix
from .enumeration import iter_tree
from .model import TaxonomyModel

Matrix = Union[TraitMatrix, CorrelationMatrix, DistanceMatrix]


@dataclass(frozen=True)
class ExportArtifact:
    kind: str
    text: str

    @property
    def data(self) -> bytes:
        return self.text.encode("utf-8")


def slugify(label: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")
    return slug or "node"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _slugs(labels: Iterable[str]) -> list[str]:
    """One DOT identifier per label, made unique by appending underscores."""
    used: set[str] = set()
    out = []
    for label in labels:
        slug = slugify(label)
        while slug in used:
            slug += "_"
        used.add(slug)
        out.append(slug)
    return out


def export_tree_dot(model: TaxonomyModel) -> ExportArtifact:
    """DOT digraph of the taxonomy: boxed groups, plain category leaves."""
    nodes = [node for node, _ in iter_tree(model)]
    node_slugs = _slugs(node.label for node in nodes)
    slugs = dict(zip((node.id for node in nodes), node_slugs))
    lines = ["digraph taxonomy {", "  rankdir=LR;"]
    for node, slug in zip(nodes, node_slugs):
        shape = "box" if node.kind == "group" else "plaintext"
        lines.append(f"  {slug} [label={_quote(node.label)}, shape={shape}];")
    for node in nodes:
        for child_id in node.children:
            lines.append(f"  {slugs[node.id]} -> {slugs[child_id]};")
    lines.append("}")
    return ExportArtifact("dot-tree", "\n".join(lines) + "\n")


def export_tree_text(model: TaxonomyModel) -> ExportArtifact:
    """Two-space indented text tree with node kind suffixes."""
    lines = [
        f"{'  ' * depth}{node.label} [{node.kind}]"
        for node, depth in iter_tree(model)
    ]
    return ExportArtifact("text-tree", "\n".join(lines) + "\n")


def export_mst_dot(mst: MstResult) -> ExportArtifact:
    """Undirected DOT graph; edge labels carry weights to 6 decimals."""
    slugs = _slugs(mst.labels)
    lines = ["graph mst {", "  layout=neato;"]
    for label, slug in zip(mst.labels, slugs):
        lines.append(f"  {slug} [label={_quote(label)}];")
    for i, j, weight in mst.edges:
        lines.append(f"  {slugs[i]} -- {slugs[j]} [label={_quote(f'{weight:.6f}')}];")
    lines.append("}")
    return ExportArtifact("dot-mst", "\n".join(lines) + "\n")


def _format_cell(value: Union[bool, float]) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return "" if math.isnan(value) else repr(value)


def export_matrix_csv(matrix: Matrix) -> ExportArtifact:
    """RFC-4180-style CSV: header row of column labels, label column first.

    Booleans become 0/1 and undefined (NaN) cells become empty fields.
    """
    if isinstance(matrix, TraitMatrix):
        kind, rows, cols = "csv-matrix", matrix.row_labels, matrix.col_labels
    else:
        kind = "csv-correlation" if isinstance(matrix, CorrelationMatrix) else "csv-distance"
        rows = cols = matrix.labels

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *cols])
    for label, row in zip(rows, matrix.cells):
        writer.writerow([label, *map(_format_cell, row.tolist())])
    return ExportArtifact(kind, buf.getvalue())


def export_pruned_csv(mst: MstResult) -> ExportArtifact:
    """The MST-pruned distance matrix as CSV; non-tree cells are empty."""
    return export_matrix_csv(mst.pruned)


def export_table_markdown(model: TaxonomyModel, table_name: str) -> ExportArtifact:
    """Markdown pipe table mirroring one checkmark table, plus a tags column."""
    table = model.table(table_name)
    if table is None:
        raise KeyError(table_name)
    trait_names = [
        model.trait(t).name if model.trait(t) else t for t in table.trait_columns
    ]
    lines = [
        "| Category | " + " | ".join(trait_names) + " | tags |",
        "|" + " --- |" * (len(trait_names) + 2),
    ]
    for row in table.rows:
        category = model.category(row.category_id)
        name = category.name if category else row.category_id
        marks = [
            "x" if t in row.marks else "" for t in table.trait_columns
        ]
        tags = ", ".join(sorted(category.cross_tags)) if category else ""
        lines.append("| " + " | ".join([name] + marks + [tags]) + " |")
    return ExportArtifact("markdown-table", "\n".join(lines) + "\n")


def export_schema_list(schemas) -> ExportArtifact:
    """One schema per line: category/trait[/subtrait]."""
    lines = []
    for schema in schemas:
        parts = [schema.category_id, schema.trait_id]
        if schema.subtrait_id is not None:
            parts.append(schema.subtrait_id)
        lines.append("/".join(parts))
    return ExportArtifact("schema-list", "\n".join(lines) + ("\n" if lines else ""))


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
