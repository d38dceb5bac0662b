import csv
import io
import math
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest

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
    _BLOCK_ROWS,
    _slugs,
    export_matrix_csv,
    export_mst_dot,
    export_pruned_csv,
    export_schema_list,
    export_table_markdown,
    export_tree_dot,
    export_tree_text,
    slugify,
)
from polytax.model import PolicyError, TaxonomyModel, TaxonomyNode

from .test_analytics import pruned_grid, special_distances


# The per-cell writer that export_matrix_csv replaced, kept as its byte oracle.
def _format_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    return "" if math.isnan(value) else repr(value)


def reference_matrix_csv(rows, cols, cells):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *cols])
    for label, row in zip(rows, cells):
        writer.writerow([label, *map(_format_cell, row.tolist())])
    return buf.getvalue()


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


def test_tree_dot_skips_dangling_and_repeated_children():
    model = TaxonomyModel(
        nodes=(TaxonomyNode("r", "R", "group", ("x", "missing", "x")),
               TaxonomyNode("x", "X", "group")),
        root_id="r",
    )
    assert export_tree_dot(model).text == (
        "digraph taxonomy {\n  rankdir=LR;\n"
        '  r [label="R", shape=box];\n  x [label="X", shape=box];\n'
        "  r -> x;\n}\n"
    )


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


DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}
DOT_STATEMENT = re.compile(r"  (\S+)(?: (?:->|--) (\S+?))?(?:;| \[)")


def dot_identifiers(text):
    ids = []
    for line in text.splitlines()[2:-1]:
        match = DOT_STATEMENT.match(line)
        assert match, line
        ids.extend(i for i in match.groups() if i is not None)
    return ids


def test_dot_identifiers_are_never_keywords_or_numerals():
    labels = ["Node", "税", "2nd Tax", "Edge", "GRAPH", "Strict", "subgraph", "Di-graph", "3"]
    nodes = [TaxonomyNode("root", "Economic Policy", "group", tuple(labels))]
    nodes += [TaxonomyNode(label, label, "group") for label in labels]
    mst = kruskal_mst(DistanceMatrix(tuple(labels), np.ones((len(labels),) * 2)))
    for text in (export_tree_dot(TaxonomyModel(nodes=nodes, root_id="root")).text,
                 export_mst_dot(mst).text):
        ids = dot_identifiers(text)
        assert len(set(ids)) == len(labels) + text.startswith("digraph")
        for identifier in ids:
            assert re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", identifier), identifier
            assert identifier.lower() not in DOT_KEYWORDS, identifier


# The underscore search that _slugs replaced, kept as its oracle: it costs
# about k**3 character work for k nodes that share one label.
def reference_slugs(labels):
    used, out = set(), []
    for label in labels:
        slug = slugify(label)
        if slug in DOT_KEYWORDS or slug[0].isdigit():
            slug = "_" + slug
        while slug in used:
            slug += "_"
        used.add(slug)
        out.append(slug)
    return out


SLUG_LABELS = [
    "Other", "Other_", "other", "node", "_node", "Node_", "1x", "_1x", "", "!!", "Di-graph",
]


def test_dot_slugs_match_the_underscore_search():
    rng = random.Random(7)
    labels = ["Other"] * 300 + SLUG_LABELS * 3
    rng.shuffle(labels)
    nodes = [TaxonomyNode("root", "Economic Policy", "group", tuple(map(str, range(len(labels)))))]
    nodes += [TaxonomyNode(str(i), label, "group") for i, label in enumerate(labels)]
    text = export_tree_dot(TaxonomyModel(nodes=nodes, root_id="root")).text
    declared = [line.split()[0] for line in text.splitlines() if "[label=" in line]
    assert declared == reference_slugs(["Economic Policy", *labels])
    for _ in range(200):
        labels = rng.choices(SLUG_LABELS, k=rng.randrange(1, 40))
        mst = kruskal_mst(DistanceMatrix(tuple(labels), np.ones((len(labels),) * 2)))
        declared = [line.split()[0] for line in export_mst_dot(mst).text.splitlines()
                    if "[label=" in line and " -- " not in line]
        assert declared == reference_slugs(labels)
    # The search's names for one label repeated are its slug with 0, 1, 2, ...
    # underscores; it would take about a minute to hand out these 8,000.
    assert _slugs(["Other"] * 8000) == ["other" + "_" * k for k in range(8000)]


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


@pytest.mark.parametrize("null_mode", ["include", "collapse", "exclude"])
def test_pruned_csv_equals_dense_grid_csv_on_bundled_dataset(model, null_mode):
    mst = kruskal_mst(euclidean_distance(build_trait_matrix(model, null_mode)))
    assert export_pruned_csv(mst).text == export_matrix_csv(pruned_grid(mst)).text


def test_pruned_csv_equals_dense_grid_csv():
    # Labels that need quoting, repeated; weights with NaN and -0.0.
    labels = ("a,b", 'say "hi"', "bare\rCR", "line\nfeed", "a,b", "plain", "")
    rng = random.Random(20261020)
    weights = set()
    for n in [1, 1] + [rng.randint(2, 7) for _ in range(300)]:
        dist = special_distances(rng, n, labels)
        mst = kruskal_mst(dist)
        assert export_pruned_csv(mst).text == export_matrix_csv(pruned_grid(mst)).text, dist
        weights.update(struct.pack("d", w) for _, _, w in mst.edges)
    assert struct.pack("d", -0.0) in weights
    assert any(math.isnan(struct.unpack("d", w)[0]) for w in weights)


def test_markdown_table_mirrors_rows(model):
    md = export_table_markdown(model, "other-expenses").text
    lines = md.splitlines()
    assert lines[0].startswith("| Category |")
    assert lines[0].endswith("| tags |")
    assert len(lines) == 2 + len(model.table("other-expenses").rows)
    yellow = [l for l in lines if "international-trade" in l]
    assert len(yellow) == 2


def test_markdown_table_unknown_table_is_not_found(model):
    with pytest.raises(PolicyError) as exc:
        export_table_markdown(model, "no-such-table")
    assert exc.value.code == "E_NOT_FOUND"


def test_schema_list_lines(model):
    schemas = enumerate_schemas(model)
    text = export_schema_list(schemas).text
    assert len(text.splitlines()) == len(schemas)
    assert text.splitlines()[0] == "personal-income-tax/tax-calculation-type"


def test_slugify():
    assert slugify("Null Policy") == "null_policy"
    assert slugify("Manufacturers' Sale Tax") == "manufacturers_sale_tax"
    assert slugify("--") == "node"


ODD_LABELS = ("", " lead", "trail ", "a,b", 'say "hi"', "two\nlines", "Zolltarif €", "ü,\"\n")
PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0BAD], dtype=np.uint64).view(np.float64)[0]
SPECIAL = (-0.0, 0.0, np.nan, PAYLOAD_NAN, np.inf, -np.inf, 5e-324, 1e300, 1 / 3, -2 / 3)


def _oracle_cases():
    rng = np.random.default_rng(20251018)
    for n in (1, 2, 5, 8, 17):
        labels = tuple(ODD_LABELS[i % len(ODD_LABELS)] for i in range(n))
        thirds = rng.integers(-9, 10, size=(n, n)) / 3
        floats = np.where(rng.random((n, n)) < 0.3, thirds, rng.choice(SPECIAL, size=(n, n)))
        yield CorrelationMatrix(labels, floats)
        yield DistanceMatrix(labels, np.sqrt(rng.integers(0, 65, size=(n, n)).astype(float)))
        cols = tuple(reversed(labels))
        yield TraitMatrix(labels, cols, rng.random((n, n)) < 0.4)
    yield TraitMatrix(ODD_LABELS, (), np.zeros((len(ODD_LABELS), 0), dtype=bool))
    yield TraitMatrix(("solo",), ODD_LABELS, np.ones((1, len(ODD_LABELS)), dtype=bool))
    yield DistanceMatrix(("", "x"), np.array([[-0.0, PAYLOAD_NAN], [np.nan, 0.0]]))
    yield CorrelationMatrix((), np.zeros((0, 0)))
    yield TraitMatrix((), (), np.zeros((0, 0), dtype=bool))
    # Thousands of distinct values share 16-32 hash slots per key, so slot
    # collisions are certain; row counts straddle the block size.
    for n in (101, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1):
        labels = tuple(f"r{i}" for i in range(n))
        distinct = rng.standard_normal((n, n))
        yield CorrelationMatrix(labels, distinct)
        specials = rng.choice((-0.0, 0.0, np.nan, PAYLOAD_NAN, np.inf, -np.inf, 5e-324), (n, n))
        yield DistanceMatrix(labels, np.where(rng.random((n, n)) < 0.2, specials, distinct))
        yield TraitMatrix(labels, labels[:7], rng.random((n, 7)) < 0.5)
    # Layouts and dtypes the writer converts block by block.
    labels = tuple(f"r{i}" for i in range(9))
    normal = rng.standard_normal((18, 18))
    floats = np.where(rng.random((18, 18)) < 0.5, rng.choice(SPECIAL, (18, 18)), normal)
    yield CorrelationMatrix(labels, floats[:9, :9].T)
    yield CorrelationMatrix(labels, floats[::2, ::2])
    yield DistanceMatrix(labels, np.asfortranarray(floats[:9, :9]))
    # SPECIAL without 1e300, which float32 cannot hold.
    narrow = np.where(floats == 1e300, normal, floats)
    yield DistanceMatrix(labels, narrow[:9, :9].astype(np.float32))
    yield TraitMatrix(labels, labels[:4], rng.integers(-2**31, 2**31, size=(9, 4), dtype=np.int32))
    # Few distinct keys, as in a distance matrix (sqrt of 0..35), with row
    # counts that straddle the block size.
    for n in (15, 16, 17, 33):
        labels = tuple(f"r{i}" for i in range(n))
        yield DistanceMatrix(labels, np.sqrt(rng.integers(0, 36, size=(n, n)).astype(float)))
    yield TraitMatrix(("a", "b"), ("x", "y", "z"), rng.integers(-3, 4, size=(2, 3)))
    yield TraitMatrix(("a",), ("x", "y"), np.array([[2**64 - 1, 5]], dtype=np.uint64))


@pytest.mark.parametrize("matrix", list(_oracle_cases()))
def test_matrix_csv_matches_per_cell_writer(matrix):
    if isinstance(matrix, TraitMatrix):
        rows, cols = matrix.row_labels, matrix.col_labels
    else:
        rows = cols = matrix.labels
    assert export_matrix_csv(matrix).text == reference_matrix_csv(rows, cols, matrix.cells)


def test_matrix_csv_peak_memory_at_n1000():
    # Rows are coded a block at a time, so the peak is nearly all the output
    # text: the per-cell writer this replaced peaked at 39.3 MiB here, and an
    # n x n code or object array would add 4-8 MiB.
    rng = np.random.default_rng(1000)
    tm = TraitMatrix(
        tuple(f"r{i}" for i in range(1000)), tuple(f"c{k}" for k in range(64)),
        rng.random((1000, 64)) < 0.3,
    )
    corr = pearson_correlation(tm)
    tracemalloc.start()
    try:
        export_matrix_csv(corr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (39.3 + 2) * 2**20, peak / 2**20


def test_zero_column_matrix_csv_bytes():
    tm = TraitMatrix(("a", "", 'q"x', "c,d"), (), np.zeros((4, 0), dtype=bool))
    assert export_matrix_csv(tm).text == '""\na\n""\n"q""x"\n"c,d"\n'


def test_carriage_return_labels_are_quoted_and_round_trip():
    labels = ("", " s", "l\r")
    dist = DistanceMatrix(labels, np.array([[0.0, 0.1, 2.0], [0.1, 0.0, 1.5], [2.0, 1.5, 0.0]]))
    text = export_matrix_csv(dist).text
    assert text == ',, s,"l\r"\n,0.0,0.1,2.0\n s,0.1,0.0,1.5\n"l\r",2.0,1.5,0.0\n'
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert tuple(rows[0][1:]) == labels
    assert tuple(r[0] for r in rows[1:]) == labels


def test_markdown_table_escapes_pipes_in_cells(model):
    table = model.table("other-expenses")
    cat_id, trait_id = table.rows[0].category_id, table.trait_columns[0]
    piped = model._replace(
        categories=[
            c._replace(name="Tax | levy", cross_tags=c.cross_tags | {"a|b"})
            if c.id == cat_id else c
            for c in model.categories
        ],
        traits=[
            t._replace(name="rate|base") if t.id == trait_id else t
            for t in model.traits
        ],
    )
    lines = export_table_markdown(piped, "other-expenses").text.splitlines()
    assert "Tax \\| levy" in lines[2] and "a\\|b" in lines[2] and "rate\\|base" in lines[0]
    pipes = [len(re.findall(r"(?<!\\)\|", line)) for line in lines]
    assert pipes == [pipes[0]] * len(lines)


def test_markdown_table_writes_line_breaks_in_cells_as_br(model):
    table = model.table("other-expenses")
    cat_id, trait_id = table.rows[0].category_id, table.trait_columns[0]
    broken = model._replace(
        categories=[
            c._replace(name="Tax\nlevy", cross_tags=c.cross_tags | {"a\r\nb", "c\rd"})
            if c.id == cat_id else c
            for c in model.categories
        ],
        traits=[
            t._replace(name="rate\r\nbase") if t.id == trait_id else t
            for t in model.traits
        ],
    )
    text = export_table_markdown(broken, "other-expenses").text
    lines = text.split("\n")[:-1]
    assert "\r" not in text and len(lines) == len(table.rows) + 2
    assert "| Tax<br>levy |" in lines[2] and "a<br>b, c<br>d" in lines[2]
    assert "rate<br>base" in lines[0]
