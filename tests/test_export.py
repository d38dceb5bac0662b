import csv
import io

import numpy as np

from polytax.analytics import (
    CorrelationMatrix,
    DistanceMatrix,
    TraitMatrix,
    build_trait_matrix,
    euclidean_distance,
    kruskal_mst,
    pearson_correlation,
)
from polytax.enumeration import enumerate_schemas, iter_tree
from polytax.export import (
    export_matrix_csv,
    export_mst_dot,
    export_pruned_csv,
    export_schema_list,
    export_table_markdown,
    export_tree_dot,
    export_tree_text,
    slugify,
)


# Test-only CSV importer used to round-trip exported matrices.
def import_matrix_csv(text, kind):
    rows = list(csv.reader(io.StringIO(text)))
    cols = tuple(rows[0][1:])
    labels = tuple(r[0] for r in rows[1:])
    body = [r[1:] for r in rows[1:]]
    if kind == "trait":
        cells = np.array([[c == "1" for c in row] for row in body], dtype=bool)
        return TraitMatrix(labels, cols, cells)
    if kind == "corr":
        cells = np.array([[np.nan if c == "" else float(c) for c in row] for row in body])
        return CorrelationMatrix(labels, cells)
    cells = np.array([[float(c) for c in row] for row in body])
    return DistanceMatrix(labels, cells)


def test_tree_dot_contains_root_edge(model):
    dot = export_tree_dot(model).text
    assert "economic_policy -> stabilization_policy" in dot
    assert "economic_policy -> international_trade_policy" in dot


def test_tree_dot_node_count(model):
    dot = export_tree_dot(model).text
    node_lines = [l for l in dot.splitlines() if "[label=" in l]
    assert len(node_lines) == len(model.nodes)


def test_tree_exports_are_deterministic(model):
    assert export_tree_dot(model).text == export_tree_dot(model).text
    assert export_tree_text(model).text == export_tree_text(model).text


def test_tree_text_indents_by_depth(model):
    lines = export_tree_text(model).text.splitlines()
    assert lines[0] == "Economic Policy [group]"
    depths = [d for _, d in iter_tree(model)]
    for line, depth in zip(lines, depths):
        assert line.startswith("  " * depth)
        assert line.endswith("]")


def test_mst_dot_degenerate_single_node():
    mst = kruskal_mst(DistanceMatrix(("solo",), np.zeros((1, 1))))
    dot = export_mst_dot(mst).text
    assert "solo" in dot
    assert " -- " not in dot


def test_collapse_mode_mst_dot_has_null_policy_node(model):
    tm = build_trait_matrix(model, "collapse")
    mst = kruskal_mst(euclidean_distance(tm))
    dot = export_mst_dot(mst).text
    assert "null_policy" in dot


def test_mst_dot_edge_count_and_weight_format(model):
    tm = build_trait_matrix(model, "exclude")
    mst = kruskal_mst(euclidean_distance(tm))
    dot = export_mst_dot(mst).text
    edges = [l for l in dot.splitlines() if " -- " in l]
    assert len(edges) == len(tm.row_labels) - 1
    assert all('label="' in e and "." in e.split('label="')[1][:9] for e in edges)
    weight_text = edges[0].split('label="')[1].split('"')[0]
    assert len(weight_text.split(".")[1]) == 6


def test_small_boolean_matrix_csv_shape():
    tm = TraitMatrix(("r1", "r2"), ("c1", "c2"), np.array([[True, False], [False, True]]))
    text = export_matrix_csv(tm).text
    assert text.splitlines() == [",c1,c2", "r1,1,0", "r2,0,1"]


def test_undefined_correlation_is_empty_field():
    corr = CorrelationMatrix(("a", "b"), np.array([[1.0, np.nan], [np.nan, np.nan]]))
    text = export_matrix_csv(corr).text
    assert text.splitlines()[1] == "a,1.0,"
    assert text.splitlines()[2] == "b,,"


def test_labels_with_commas_are_quoted():
    tm = TraitMatrix(("x,y",), ("c,1",), np.array([[True]]))
    text = export_matrix_csv(tm).text
    assert '"x,y"' in text and '"c,1"' in text
    again = import_matrix_csv(text, "trait")
    assert again == tm


def test_trait_matrix_csv_roundtrip(model):
    tm = build_trait_matrix(model)
    again = import_matrix_csv(export_matrix_csv(tm).text, "trait")
    assert again.row_labels == tm.row_labels
    assert again.col_labels == tm.col_labels
    assert (again.cells == tm.cells).all()


def test_correlation_csv_roundtrip(model):
    corr = pearson_correlation(build_trait_matrix(model))
    again = import_matrix_csv(export_matrix_csv(corr).text, "corr")
    assert again.labels == corr.labels
    assert np.array_equal(again.cells, corr.cells, equal_nan=True)


def test_distance_csv_roundtrip(model):
    dist = euclidean_distance(build_trait_matrix(model))
    again = import_matrix_csv(export_matrix_csv(dist).text, "dist")
    assert again.labels == dist.labels
    assert (again.cells == dist.cells).all()


def test_exports_use_lf_only(model):
    for text in (
        export_matrix_csv(build_trait_matrix(model)).text,
        export_tree_dot(model).text,
    ):
        assert "\r" not in text


def test_pruned_csv_has_empty_non_tree_cells(model):
    tm = build_trait_matrix(model, "exclude")
    mst = kruskal_mst(euclidean_distance(tm))
    rows = list(csv.reader(io.StringIO(export_pruned_csv(mst).text)))
    n = len(tm.row_labels)
    empty = sum(1 for r in rows[1:] for c in r[1:] if c == "")
    assert empty == n * n - n - 2 * len(mst.edges)


def test_markdown_table_mirrors_rows(model):
    md = export_table_markdown(model, "other-expenses").text
    lines = md.splitlines()
    assert lines[0].startswith("| Category |")
    assert lines[0].endswith("| tags |")
    assert len(lines) == 2 + len(model.table("other-expenses").rows)
    yellow = [l for l in lines if "international-trade" in l]
    assert len(yellow) == 2


def test_schema_list_lines(model):
    schemas = enumerate_schemas(model)
    text = export_schema_list(schemas).text
    assert len(text.splitlines()) == len(schemas)
    assert text.splitlines()[0] == "personal-income-tax/tax-calculation-type"


def test_slugify():
    assert slugify("Null Policy") == "null_policy"
    assert slugify("Manufacturers' Sale Tax") == "manufacturers_sale_tax"
    assert slugify("--") == "node"
