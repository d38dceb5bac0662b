import gc
import hashlib
import json
import random
import sys
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytax import enumeration, ingest
from polytax.enumeration import enumerate_schemas
from polytax.export import export_tree_text
from polytax import model as M
from polytax.model import iter_tree

from .strategies import taxonomy_models


# Golden checkmark counts, recounted from the bundled tables.
GOLDEN_TABLE_COUNTS = {
    "income-tax": 37,
    "property-tax": 73,
    "sales-tax": 59,
    "other-tax-categories": 44,
    "government-goods-and-services": 4,
    "other-expenses": 7,
    "open-market-operations": 10,
    "debt-and-credit": 22,
    "financial-markets": 6,
}
GOLDEN_TOTAL = 262


def table_checkmark_multiset(model, name):
    table = model._table_by_name.get(name)
    return sorted(
        (row.category_id, mark) for row in table.rows for mark in row.marks
    )


def test_bundled_dataset_loads_with_23_traits(model):
    assert len(model.traits) == 23


def test_bundled_per_table_counts(model):
    counts = {
        t.name: sum(len(r.marks) for r in t.rows) for t in model.tables
    }
    assert counts == GOLDEN_TABLE_COUNTS
    assert sum(counts.values()) == GOLDEN_TOTAL


def test_income_tax_checkmark_multiset_golden(model):
    marks = table_checkmark_multiset(model, "income-tax")
    # Four full-width rows plus the reduced Excess Profit Tax row.
    full = [
        "abatement", "allowance", "exemption", "negative-tax",
        "tax-calculation-type", "tax-credit", "tax-evasion-penalty",
        "tax-payment-type",
    ]
    expected = sorted(
        [(c, m) for c in ("capital-gains-tax", "corporate-tax",
                          "dividend-tax", "personal-income-tax") for m in full]
        + [("excess-profit-tax", m) for m in (
            "abatement", "exemption", "tax-calculation-type",
            "tax-evasion-penalty", "tax-payment-type")]
    )
    assert marks == expected


def test_empty_document_is_schema_error():
    model, diags = ingest.parse_taxonomy_document("{}")
    assert any(d.code == "E_SCHEMA" for d in diags)


def test_malformed_json_is_syntax_error():
    model, diags = ingest.parse_taxonomy_document("{not json")
    assert model is None
    assert diags[0].code == "E_SYNTAX"


def test_dangling_table_category_reported(model):
    doc = model_to_document(model)
    doc["tables"][0]["rows"].append({"category": "windows-tax", "marks": []})
    _, diags = ingest.parse_document_dict(doc)
    assert any(d.code == "E_UNKNOWN_CATEGORY" for d in diags)


def test_inline_trait_set_conflicting_with_tables_is_error(model):
    doc = model_to_document(model)
    doc["categories"][0]["implementable_trait_ids"] = ["allowance"]
    _, diags = ingest.parse_document_dict(doc)
    assert any(d.code == "E_TABLE_MISMATCH" for d in diags)


def test_marks_are_gathered_only_for_an_inline_trait_key(model, monkeypatch):
    """Parse and merge build no trait-set view, and walk the marks for the
    inline-key check only once a category has that key."""
    calls = []
    monkeypatch.setattr(
        ingest, "table_marks", lambda tables: calls.append(1) or M.table_marks(tables)
    )
    doc = model_to_document(model)
    parsed, diags = ingest.parse_document_dict(doc)
    merged = ingest.merge_extension(parsed, payment_rail_extension())
    assert diags == [] and calls == []
    assert "_marks_by_category" not in vars(parsed) and "_marks_by_category" not in vars(merged)
    doc["categories"][0]["implementable_trait_ids"] = ["allowance"]
    doc["categories"][1]["implementable_trait_ids"] = ["allowance"]
    _, diags = ingest.parse_document_dict(doc)
    assert [d.code for d in diags] == ["E_TABLE_MISMATCH"] * 2 and calls == [1]


def test_roundtrip_identity_on_bundled_model(model):
    text = ingest.serialize_taxonomy_document(model)
    again, diags = ingest.parse_taxonomy_document(text)
    assert diags == []
    assert again == model


def test_serialize_is_deterministic(model):
    assert ingest.serialize_taxonomy_document(model) == ingest.serialize_taxonomy_document(model)


def test_empty_sections_are_valid():
    doc = {"schema_version": "1", "traits": [], "categories": []}
    model, diags = ingest.parse_document_dict(doc)
    assert diags == []
    assert model.categories == ()
    text = ingest.serialize_taxonomy_document(model)
    again, _ = ingest.parse_taxonomy_document(text)
    assert again == model


@settings(max_examples=100, deadline=None)
@given(taxonomy_models())
def test_roundtrip_identity_property(m):
    text = ingest.serialize_taxonomy_document(m)
    again, diags = ingest.parse_taxonomy_document(text)
    assert diags == []
    assert again == m


def _dump_value(value, kind, cls):
    """A field's value as the oracle's document holds it: a list field as a
    list (a frozenset's sorted), each record in it as a dict."""
    if kind == "string":
        return value
    if kind == "strings":
        return sorted(value) if cls is frozenset else list(value)
    return [_dump_record(item, kind) for item in value]


def _dump_record(obj, record):
    return {key: _dump_value(value, kind, cls)
            for (key, _, kind, cls), value in zip(record.plan, record.values(obj))}


def model_to_document(model):
    """The canonical document as a dict: stable key order, document list
    order. Each node iter_tree visits is dumped once, as a child of the last
    one a level up; a node's fields that are None and its empty children
    are left out. With stdlib_dumps, the serializer's byte oracle."""
    doc = {"schema_version": ingest.SCHEMA_VERSION, "meta": dict(model.metadata)}
    for key, record in ingest._SECTIONS.items():
        doc[key] = [_dump_record(item, record) for item in getattr(model, key)]
    if model.tree is not None:
        levels = []
        for node, depth in iter_tree(model):
            out = {k: v for k, v in _dump_record(node, ingest._NODE).items()
                   if v is not None}
            if depth:
                levels[depth - 1].setdefault("children", []).append(out)
            del levels[depth:]
            levels.append(out)
        doc["tree"] = levels[0]
    return doc


def stdlib_dumps(value):
    """The serializer's byte oracle."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


@settings(max_examples=100, deadline=None)
@given(taxonomy_models())
def test_serializer_writes_the_bytes_of_json_dumps(m):
    assert ingest.serialize_taxonomy_document(m) == stdlib_dumps(model_to_document(m))


# Text without surrogates: json.dumps leaves a lone one unescaped, and the
# serializer escapes it.
JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_emitter_writes_the_bytes_of_json_dumps_on_any_json_value(value):
    assert ingest._dumps(value) + "\n" == stdlib_dumps(value)
    assert ingest._dumps(value, "\n    ") == stdlib_dumps(value)[:-1].replace("\n", "\n    ")


def test_emitter_rejects_what_json_dumps_rejects():
    loop = []
    loop.append(loop)
    for value, error in (({"a": loop}, ValueError), ([object()], TypeError), ({(1,): 1}, TypeError)):
        with pytest.raises(error):
            stdlib_dumps(value)
        with pytest.raises(error):
            ingest._dumps(value)


def test_lone_surrogates_serialize_as_escapes(model):
    category = model.categories[0]._replace(name="a\ud800b\udc80")
    odd = model._replace(categories=(category,) + model.categories[1:])
    text = ingest.serialize_taxonomy_document(odd)
    assert '"name": "a\\ud800b\\udc80"' in text
    again, diags = ingest.parse_taxonomy_document(text.encode("utf-8"))
    assert diags == [] and again == odd


def text_model(odd):
    """A model with odd in every string-bearing field kind: strings, tuples
    of strings, a frozenset, parameter and subtrait records, tree labels,
    and meta keys and values."""
    param = M.ParameterSpec(f"p{odd}", f"rate{odd}")
    sub = M.SubtraitDef(f"s{odd}", f"S{odd}", (param,), odd)
    return M.TaxonomyModel(
        traits=(M.TraitDef(f"t{odd}", f"T{odd}", (param,), (sub,), odd),),
        categories=(M.PolicyCategory(f"c{odd}", f"C{odd}", odd, (param,), (odd, f"G{odd}"),
                                     frozenset({f"b{odd}", f"a{odd}"}), f"ch{odd}"),),
        channels=(M.TransactionChannel(f"ch{odd}", f"gov{odd}", (f"Op{odd}", odd), f"Ch{odd}", odd),),
        tables=(M.CheckTable(f"m{odd}", f"M{odd}", (f"t{odd}",),
                             (M.TableRow(f"c{odd}", (f"t{odd}", odd)),)),),
        nodes=(M.TaxonomyNode(f"n{odd}", f"N{odd}", "category", (), f"c{odd}"),
               M.TaxonomyNode(f"r{odd}", f"R{odd}", "group", (f"n{odd}",))),
        root_id=f"r{odd}",
        metadata={f"k{odd}": [odd, {odd: [odd]}]},
    )


# Non-ASCII text, a line separator json.dumps leaves raw, and text that
# needs escapes: a control character, a quote and a backslash.
ODD_TEXTS = ["é", "€", "\u2028", "\x01", '"', "\\", 'é€\u2028\x01"\\']


@pytest.mark.parametrize("odd", ODD_TEXTS)
def test_serializer_writes_the_bytes_of_json_dumps_on_odd_text(odd):
    m = text_model(odd)
    text = ingest.serialize_taxonomy_document(m)
    assert text == stdlib_dumps(model_to_document(m))
    assert ingest.parse_taxonomy_document(text.encode("utf-8"))[0] == m


def test_lone_surrogates_in_every_field_kind_encode_and_parse_back():
    m = text_model('é\ud800"\udc80')
    text = ingest.serialize_taxonomy_document(m)
    assert "\ud800" not in text and "\\ud800" in text
    assert ingest.parse_taxonomy_document(text.encode("utf-8"))[0] == m


@pytest.mark.parametrize("children", [(), ("y",)])
def test_values_of_another_type_serialize_as_json_dumps_writes_them(children):
    """A model built in code may hold values no document gives: an int id, a
    tuple where a frozenset belongs, a list of records, a None label, a node
    with no fields at all, and a tuple inside meta; a set, a str or ints in
    a list-of-strings field, and records nested in lists."""
    param = M.ParameterSpec("p", 2)
    subtrait = M.SubtraitDef("s", "S", [M.ParameterSpec("q", 3)])
    m = M.TaxonomyModel(
        traits=(M.TraitDef(7, "Seven", [param]), M.TraitDef("t", "T", (param,), (), None),
                M.TraitDef("u", "U", (), [subtrait])),
        categories=(M.PolicyCategory("c", "C", group_path=("G", 3), cross_tags=("b", "a")),
                    M.PolicyCategory("d", "D", group_path="GP", cross_tags=[2, 1])),
        tables=(M.CheckTable("m", "M", ["t"], (M.TableRow("c", ("t", 1.5)),)),
                M.CheckTable("n", "N", {"t"}, [M.TableRow("d", ["t"])])),
        nodes=(M.TaxonomyNode("r", None, "group", ("x", None)), M.TaxonomyNode("x", "X", 5),
               M.TaxonomyNode(None, None, None, children), M.TaxonomyNode("y", "Y", "group")),
        root_id="r",
        metadata={"pair": (1, 2.5), "none": None, "flag": True},
    )
    assert ingest.serialize_taxonomy_document(m) == stdlib_dumps(model_to_document(m))


@pytest.mark.parametrize("m", [
    M.TaxonomyModel(categories=(M.PolicyCategory("c", "C", group_path=None),)),
    M.TaxonomyModel(categories=(M.PolicyCategory("c", "C", cross_tags=None),)),
    M.TaxonomyModel(traits=(M.TraitDef("t", "T", None),)),
], ids=["group_path", "cross_tags", "parameters"])
def test_none_in_a_list_field_does_not_serialize(m):
    with pytest.raises(TypeError):
        ingest.serialize_taxonomy_document(m)


# Every kind of dict key json.dumps takes, NaN and the infinities among the
# floats, and tuples beside lists.
META_KEYS = (JSON_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
             | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]))
META_VALUES = st.recursive(
    JSON_VALUES,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(META_KEYS, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(META_VALUES)
def test_meta_of_any_json_value_serializes_as_json_dumps_writes_it(value):
    m = M.TaxonomyModel(metadata={"v": value})
    assert ingest.serialize_taxonomy_document(m) == stdlib_dumps(model_to_document(m))


def test_deep_meta_serializes_without_recursion_limit():
    depth = 2000
    value = "x"
    for _ in range(depth):
        value = [value]
    m = M.TaxonomyModel(metadata={"v": value})
    with pytest.raises(RecursionError):
        stdlib_dumps(model_to_document(m))
    lines = ingest.serialize_taxonomy_document(m).splitlines()
    # meta's keys sit at level 2, and each list indents its item one more.
    assert lines[3] == '    "v": ['
    assert lines[3 + depth] == "  " * (2 + depth) + '"x"'
    assert lines[4 + depth] == "  " * (1 + depth) + "]"


def large_model():
    """About 1,500 categories, every list field both empty and not, and a
    150-deep chain of groups that branches at each level and ends in a
    child id that resolves to no node."""
    params = (M.ParameterSpec("rate", "rate"), M.ParameterSpec("cap", "amount"))
    traits = tuple(
        M.TraitDef(f"t{i}", f"T{i}", params[:i % 3], tuple(
            M.SubtraitDef(f"t{i}-{j}", f"T{i} {j}", params[:j % 3], "d" * (j % 2))
            for j in range(i % 3)), "about" * (i % 2))
        for i in range(12)
    )
    categories = tuple(
        M.PolicyCategory(f"c{i}", f"C{i}", "x" * (i % 2), params[:i % 3],
                         tuple(f"G{k}" for k in range(i % 4)),
                         frozenset(f"tag{k}" for k in range(i % 3)),
                         f"ch{i % 3}" if i % 2 else None)
        for i in range(1500)
    )
    channels = tuple(M.TransactionChannel(f"ch{i}", "government", ("Operating Income", "Revenue")[:i],
                                          f"Ch{i}") for i in range(3))
    tables = (
        M.CheckTable("empty", "Empty", (), ()),
        M.CheckTable("main", "Main", tuple(t.id for t in traits), tuple(
            M.TableRow(c.id, tuple(t.id for t in traits[:i % 4])) for i, c in enumerate(categories))),
    )
    depth = 150
    # Even levels list their leaf first, odd levels last, so the walk climbs
    # one level at a time in some places and several at once in others.
    groups = tuple(
        M.TaxonomyNode(f"g{d}", f"G{d}", "group",
                       ("missing",) if d + 1 == depth
                       else (f"leaf{d}", f"g{d + 1}") if d % 2 == 0 else (f"g{d + 1}", f"leaf{d}"))
        for d in range(depth)
    )
    leaves = tuple(M.TaxonomyNode(f"leaf{d}", f"C{d}", "category", (), f"c{d}") for d in range(depth))
    return M.TaxonomyModel(traits=traits, categories=categories, nodes=groups + leaves,
                           root_id="g0", channels=channels, tables=tables)


def test_serializer_writes_the_bytes_of_json_dumps_on_a_large_model():
    m = large_model()
    assert ingest.serialize_taxonomy_document(m) == stdlib_dumps(model_to_document(m))


def test_lists_written_once_per_call_keep_the_bytes_of_json_dumps():
    """The serializer writes a list of its field's class once per call and
    level. Lists and sets, which it copies, equal but distinct tuples, one
    tuple held by records at two levels (a category's group path and a
    row's marks), and the tuples of rows that tables yield anew keep the
    bytes of json.dumps."""
    shared = ("Economic Policy", "Shared")
    categories = tuple(
        M.PolicyCategory(
            f"c{i}", f"C{i}",
            group_path=([f"G{i}", "x"], shared, tuple(list(shared)), (f"H{i}",))[i % 4],
            cross_tags=({f"t{i}", "a"}, frozenset({"a", "b"}), [f"u{i}"], frozenset())[i % 4],
        )
        for i in range(64)
    )
    rows = tuple(
        M.TableRow(f"c{i}", ([f"m{i}", "n"], shared, ("n",))[i % 3]) for i in range(64)
    )
    m = M.TaxonomyModel(
        categories=categories,
        channels=(M.TransactionChannel("ch", "government", shared, "Ch"),),
        tables=(M.CheckTable("main", "Main", shared, rows),),
    )
    assert ingest.serialize_taxonomy_document(m) == stdlib_dumps(model_to_document(m))

    # Rows a table yields anew hold new tuples, freed once their table is
    # written; the writer keeps each list it wrote, so none takes its id.
    def yielded_rows(table):
        return map(lambda i: M.TableRow(f"c{i}", (f"{table}{i}",)), range(3))

    yielded = M.TaxonomyModel(tables=tuple(M.CheckTable(t, t, (), yielded_rows(t)) for t in "ab"))
    held = M.TaxonomyModel(
        tables=tuple(M.CheckTable(t, t, (), tuple(yielded_rows(t))) for t in "ab"))
    assert ingest.serialize_taxonomy_document(yielded) == stdlib_dumps(model_to_document(held))


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def payment_rail_extension():
    income_rows = [
        "personal-income-tax", "capital-gains-tax", "dividend-tax",
        "corporate-tax", "excess-profit-tax",
    ]
    return {
        "traits": [
            {
                "id": "payment-rail",
                "name": "Payment Rail",
                "parameters": [{"name": "rail", "kind": "reference"}],
            }
        ],
        "tables": [
            {
                "name": "income-tax",
                "trait_columns": ["payment-rail"],
                "rows": [{"category": c, "marks": ["payment-rail"]} for c in income_rows],
            }
        ],
    }


def total_marks(model):
    return sum(len(r.marks) for t in model.tables for r in t.rows)


def test_merge_adds_trait_and_checkmarks(model):
    merged = ingest.merge_extension(model, payment_rail_extension())
    assert len(merged.traits) == len(model.traits) + 1
    assert total_marks(merged) == total_marks(model) + 5
    assert "payment-rail" in merged.implementable_trait_ids("personal-income-tax")


def test_merge_identical_category_with_new_mark_is_not_a_conflict(model):
    # The category compares on its own content; its new trait comes from the
    # merged table row alone.
    extension = payment_rail_extension()
    category = next(c for c in model_to_document(model)["categories"]
                    if c["id"] == "personal-income-tax")
    extension["categories"] = [category]
    merged = ingest.merge_extension(model, extension)
    assert merged.categories == model.categories
    assert merged.implementable_trait_ids("personal-income-tax") == (
        model.implementable_trait_ids("personal-income-tax") | {"payment-rail"}
    )


def test_merge_conflicting_redefinition_rejected(model):
    extension = {
        "traits": [
            {
                "id": "tax-base",
                "name": "Tax Base",
                "subtraits": [{"id": "flat-base", "name": "Flat Base"}],
            }
        ]
    }
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(model, extension)
    assert exc.value.diagnostics[0].code == "E_CONFLICT"


@pytest.mark.parametrize("section", ["traits", "channels", "categories", "tables"])
def test_merge_identical_redefinition_is_noop(model, section):
    doc = model_to_document(model)
    extension = {section: [doc[section][0]]}
    merged = ingest.merge_extension(model, extension)
    assert merged == model


def test_merge_conflict_path_names_the_section(model):
    category = dict(model_to_document(model)["categories"][0], name="Renamed")
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(model, {"categories": [category]})
    assert [d.path for d in exc.value.diagnostics] == [f"/categories/{category['id']}"]
    assert str(exc.value) == (
        f"E_CONFLICT at /categories/{category['id']}: "
        f"{category['id']!r} is already defined with different content"
    )


def test_merge_diagnostics_are_sorted(model):
    # Parse errors in three sections, which the merge reads tables first.
    bad_parse = {
        "tables": ["not a table"],
        "traits": [{"id": "new-trait", "description": 1, "parameters": "x"}],
        "categories": [{"id": "new-category", "name": 2}],
    }
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(model, bad_parse)
    paths = [d.path for d in exc.value.diagnostics]
    assert paths == sorted(paths) == [
        "/categories/0/name", "/tables/0", "/traits/0/description", "/traits/0/parameters",
    ]
    # Conflicts in two sections, which the merge compares traits first.
    doc = model_to_document(model)
    conflicting = {
        "traits": [dict(doc["traits"][0], name="Renamed")],
        "categories": [dict(doc["categories"][0], name="Renamed")],
    }
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(model, conflicting)
    assert [d.path for d in exc.value.diagnostics] == [
        f"/categories/{doc['categories'][0]['id']}", f"/traits/{doc['traits'][0]['id']}",
    ]


def test_merge_empty_extension_is_identity(model):
    assert ingest.merge_extension(model, {}) == model


def test_merge_rejects_an_unknown_top_level_key(model):
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(model, {"categores": [], **payment_rail_extension()})
    assert [(d.code, d.path) for d in exc.value.diagnostics] == [("E_SCHEMA", "/categores")]
    assert exc.value.diagnostics == ingest.parse_document_dict(
        {**model_to_document(model), "categores": []}
    )[1]
    # A whole document merges: its schema_version, meta and tree are ignored.
    assert ingest.merge_extension(model, model_to_document(model)) == model


def models_equivalent(a, b):
    """Order-insensitive model comparison (used for merge algebra)."""

    def key(model):
        return (
            frozenset(model.traits),
            frozenset(model.categories),
            frozenset(model.nodes),
            model.root_id,
            frozenset(model.channels),
            frozenset(
                (t.name, t.title, t.trait_columns, frozenset(t.rows))
                for t in model.tables
            ),
        )

    return key(a) == key(b)


def test_merge_disjoint_extensions_commute(model):
    ext_a = payment_rail_extension()
    ext_b = {
        "categories": [
            {
                "id": "window-tax",
                "name": "Window Tax",
                "group_path": ["Economic Policy", "Stabilization Policy",
                               "Fiscal Policy", "Revenue Policy",
                               "Tax Revenue Policy"],
            }
        ]
    }
    ab = ingest.merge_extension(ingest.merge_extension(model, ext_a), ext_b)
    ba = ingest.merge_extension(ingest.merge_extension(model, ext_b), ext_a)
    assert models_equivalent(ab, ba)


def test_merge_validates_result(model):
    bad = {
        "tables": [
            {
                "name": "income-tax",
                "trait_columns": ["no-such-trait"],
                "rows": [{"category": "personal-income-tax", "marks": ["no-such-trait"]}],
            }
        ]
    }
    with pytest.raises(ingest.IngestError):
        ingest.merge_extension(model, bad)


def test_env_var_overrides_bundled_dataset(model, tmp_path, monkeypatch):
    alt = tmp_path / "alt.taxonomy.json"
    doc = {"schema_version": "1", "meta": {"version": "alt"}, "traits": [], "categories": []}
    alt.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv(ingest.DATA_ENV_VAR, str(alt))
    loaded = ingest.load_bundled_dataset()
    assert loaded.metadata["version"] == "alt"


# ---------------------------------------------------------------------------
# totality
# ---------------------------------------------------------------------------

SMALL = {
    "schema_version": "1",
    "meta": {"version": "small"},
    "traits": [
        {"id": "rate", "name": "Rate", "parameters": [{"name": "r", "kind": "rate"}]},
        {"id": "mode", "name": "Mode", "subtraits": [
            {"id": "flat", "name": "Flat", "parameters": [{"name": "f", "kind": "amount"}]},
            {"id": "ladder", "name": "Ladder"},
        ]},
    ],
    "channels": [
        {"id": "ch", "authority": "government", "name": "Channel",
         "statement_path": ["Operating Income", "Taxes"]},
    ],
    "categories": [
        {"id": "a", "name": "A", "group_path": ["Economic Policy", "G"],
         "cross_tags": ["x"], "channel_ref": "ch",
         "own_parameters": [{"name": "base", "kind": "reference"}],
         "implementable_trait_ids": ["rate", "mode"]},
        {"id": "b", "name": "B", "group_path": ["Economic Policy", "G"]},
    ],
    "tables": [
        {"name": "t", "title": "T", "trait_columns": ["rate", "mode"], "rows": [
            {"category": "a", "marks": ["rate", "mode"]},
            {"category": "b", "marks": ["rate"]},
        ]},
    ],
    "tree": {"id": "root", "label": "Economic Policy", "children": [
        {"id": "g", "label": "G", "children": [
            {"id": "na", "label": "A", "kind": "category", "category_ref": "a"},
            {"id": "nb", "label": "B", "kind": "category", "category_ref": "b"},
        ]},
    ]},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def value_paths(value, path=()):
    """The key path of every value inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from value_paths(child, path + (key,))


SMALL_PATHS = list(value_paths(SMALL))
SMALL_MODEL, _ = ingest.parse_document_dict(SMALL)


def substitute(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_small_document_is_clean():
    _, diags = ingest.parse_document_dict(SMALL)
    assert diags == []


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(SMALL_PATHS), value=json_values)
def test_parsing_is_total(path, value):
    doc = substitute(SMALL, path, value)
    for parse in (ingest.parse_document_dict,
                  lambda d: ingest.parse_taxonomy_document(json.dumps(d))):
        _, diags = parse(doc)
        assert {d.code for d in diags} <= ingest.DIAGNOSTIC_CODES
    try:
        ingest.merge_extension(SMALL_MODEL, doc)
    except ingest.IngestError as exc:
        assert {d.code for d in exc.diagnostics} <= ingest.DIAGNOSTIC_CODES


def test_parsing_is_total_on_an_overlong_integer_literal():
    # json.loads raises a plain ValueError past int()'s digit limit (4,300).
    text = '{"schema_version": "1", "meta": {"n": ' + "1" * 5000 + '}}'
    model, diags = ingest.parse_taxonomy_document(text)
    assert model is None
    assert [(d.code, d.path) for d in diags] == [("E_SYNTAX", "/")]


def test_wrong_kinds_are_schema_errors_at_their_path():
    doc = substitute(SMALL, ("categories", 0, "id"), [1])
    doc = substitute(doc, ("traits", 1, "subtraits", 0, "parameters", 0), "p")
    doc = substitute(doc, ("tables", 0, "rows", 1, "marks"), 5)
    model, diags = ingest.parse_document_dict(doc)
    schema = sorted(d.path for d in diags if d.code == "E_SCHEMA")
    assert schema == [
        "/categories/0",
        "/tables/0/rows/1/marks",
        "/traits/1/subtraits/0/parameters/0",
    ]
    assert [c.id for c in model.categories] == ["b"]


def test_string_section_is_one_schema_error():
    _, diags = ingest.parse_document_dict(substitute(SMALL, ("categories",), "abc"))
    assert [d.path for d in diags if d.code == "E_SCHEMA"] == ["/categories"]


# Values substituted at every path of SMALL for the outcome pin below.
PIN_VALUES = [None, True, 0, 1.5, "", "x", [], ["x"], [1], {}, {"id": "x"}, {"id": 1}]
# The sha256 of pinned_outcomes(): a parser change that alters a model, a
# diagnostic or a merge outcome for any of these documents changes it.
PINNED_OUTCOMES_SHA256 = "9bca1f98a5afca09b81357758ee474bf9974117378f34a2eac88bccd96dff167"


def pinned_documents():
    for path in SMALL_PATHS:
        for value in PIN_VALUES:
            yield path, value, substitute(SMALL, path, value)


def pinned_outcomes():
    """For each pinned document: the parsed model's repr, the full sorted
    diagnostics, and what merge_extension(SMALL_MODEL, doc) returns or raises."""
    for path, value, doc in pinned_documents():
        model, diags = ingest.parse_document_dict(doc)
        try:
            merged = repr(ingest.merge_extension(SMALL_MODEL, doc))
        except ingest.IngestError as exc:
            merged = repr(sorted(exc.diagnostics))
        yield repr((path, value, repr(model), sorted(diags), merged))


def test_parse_and_merge_outcomes_are_pinned():
    digest = hashlib.sha256()
    for outcome in pinned_outcomes():
        digest.update(outcome.encode("utf-8", "surrogatepass") + b"\n")
    assert digest.hexdigest() == PINNED_OUTCOMES_SHA256


def random_extension(rng, doc):
    """A seeded extension of the base document doc. Each choice that can
    break the merge is taken with one probability drawn per extension:
    ids repeated within the extension, redefinitions with other content,
    bad kinds and duplicate parameters, kind clashes within a trait and
    against an owner category (new, or of the base gaining a row), a bad
    group_path, channel_ref, authority or statement path, unknown columns
    and row categories, marks outside the columns, a row or column
    repeated, and two new tables of one name. The others add clean
    records, mark them in base and new tables, and redefine base records
    identically."""
    pick = rng.choice
    bad = pick([0.0, 0.02, 0.1, 0.4])

    def flaw():
        return rng.random() < bad

    owners = [c for c in doc["categories"] if c["own_parameters"]]
    shared = ["p", "q"] + [p["name"] for c in owners[:3] for p in c["own_parameters"]]

    def parameters(prefix):
        params = []
        for k in range(pick([0, 0, 1, 2])):
            if flaw():
                params.append({"name": pick(shared), "kind": pick(["rate", "amount", "bogus"])})
            else:
                params.append({"name": f"{prefix}{k}", "kind": pick(["rate", "amount"])})
        return params

    used = set()

    def new_id(prefix):
        if used and flaw():
            return pick(sorted(i for i in used if i.startswith(prefix)) or [prefix + "0"])
        ident = f"{prefix}{len(used)}"
        used.add(ident)
        return ident

    ext = {"traits": [], "categories": [], "channels": [], "tables": []}
    for _ in range(rng.randrange(3)):
        ext["channels"].append({
            "id": new_id("nch"), "name": "New",
            "authority": "bank" if flaw() else pick(["government", "monetary-authority"]),
            "statement_path": pick([["Elsewhere"], []]) if flaw() else ["Irregular Items"],
        })
    channels = [c["id"] for c in doc["channels"] + ext["channels"]]
    for _ in range(rng.randrange(4)):
        trait = new_id("nt")
        subtraits = [{"id": f"{trait}-s{k}", "name": "Sub", "parameters": parameters(f"{trait}-s")}
                     for k in range(pick([0, 0, 1, 2]))]
        ext["traits"].append({"id": trait, "name": "New", "parameters": parameters(trait),
                              "subtraits": subtraits})
    for _ in range(rng.randrange(4)):
        category = new_id("nc")
        channel = "no-channel" if flaw() else pick([None, None, *channels])
        ext["categories"].append({
            "id": category, "name": "New", "own_parameters": parameters(category),
            "group_path": pick([["Elsewhere"], []]) if flaw() else ["Economic Policy", "New"],
            "channel_ref": channel,
        })
    for section in ("traits", "categories", "channels", "tables"):
        if doc[section] and rng.random() < 0.2:
            record = dict(pick(doc[section]))
            if flaw():
                record["name" if section != "tables" else "title"] = "Other content"
            ext[section].append(record)
    if owners and flaw():
        owner = pick(owners)
        clash = pick(owner["own_parameters"])
        kind = pick([k for k in ("rate", "amount", "reference") if k != clash["kind"]])
        ext["traits"].append({"id": "nt-owner", "name": "Owner clash",
                              "parameters": [{"name": clash["name"], "kind": kind}]})
        table = pick(doc["tables"])["name"] if doc["tables"] else "new-table"
        ext["tables"].append({"name": table, "trait_columns": ["nt-owner"],
                              "rows": [{"category": owner["id"], "marks": ["nt-owner"]}]})
    trait_ids = [t["id"] for t in doc["traits"] + ext["traits"]]
    category_ids = [c["id"] for c in doc["categories"] + ext["categories"]]
    table_names = [t["name"] for t in doc["tables"]]
    for _ in range(rng.randrange(4)):
        if not table_names or rng.random() < 0.4:
            table_names.append(pick(table_names) if table_names and flaw() else new_id("tab"))
        columns = rng.sample(trait_ids, min(len(trait_ids), rng.randrange(1, 4)))
        if flaw():
            columns.append(pick(["no-trait", *columns]))
        rows = []
        for category in rng.sample(category_ids, min(len(category_ids), rng.randrange(4))):
            if flaw():
                category = "no-category"
            marks = [c for c in columns if rng.random() < 0.6]
            if flaw():
                marks.append(pick(trait_ids))
            rows.append({"category": category, "marks": marks})
        if rows and flaw():
            rows.append(dict(rows[0]))
        ext["tables"].append({"name": pick(table_names), "trait_columns": columns,
                              "rows": rows})
    return ext


def merge_outcomes(base, seed, count):
    """repr(merge_extension(base, ext)), or the sorted diagnostics it
    raises, for count seeded extensions of base."""
    rng = random.Random(seed)
    doc = model_to_document(base)
    for _ in range(count):
        ext = random_extension(rng, doc)
        try:
            outcome = repr(ingest.merge_extension(base, ext))
        except ingest.IngestError as exc:
            outcome = repr(sorted(exc.diagnostics))
        yield repr((ext, outcome))


# The sha256 of merge_outcomes over the bases of test_merge_outcomes_are_pinned:
# a merge or validation change that alters any outcome changes it.
PINNED_MERGE_SHA256 = "23ec0b2c468a787e35588e93efdf4aa693f83c19395d61b3cd11c09b8f5e7925"


def test_merge_outcomes_are_pinned(model, monkeypatch):
    findings = substitute(SMALL, ("categories", 1, "group_path"), ["Elsewhere"])
    findings = substitute(findings, ("traits", 1, "parameters"), [{"name": "f", "kind": "rate"}])
    findings_model, diags = ingest.parse_document_dict(findings)
    assert [d.code for d in diags] == ["E_BAD_GROUP_PATH", "E_DUP_PARAM"]
    # Each merge into a clean base that reaches validation checks only what
    # it adds; that check must give the whole merged model's findings.
    started = []

    def oracle(merged, base=None, _findings=M._findings):
        if base is not None:
            started.append(base)
            assert sorted(_findings(merged, base)) == sorted(_findings(merged))
        return _findings(merged, base)

    monkeypatch.setattr(ingest, "_findings", oracle)
    digest = hashlib.sha256()
    for seed, base, count in ((1, SMALL_MODEL, 600), (2, model, 300), (3, findings_model, 100)):
        for outcome in merge_outcomes(base, seed, count):
            digest.update(outcome.encode("utf-8") + b"\n")
    assert digest.hexdigest() == PINNED_MERGE_SHA256
    assert len(started) == 835 and not any(b is findings_model for b in started)


def test_subclass_containers_parse_as_their_plain_values():
    for _, _, doc in pinned_documents():
        text = json.dumps(doc)
        plain = ingest.parse_document_dict(json.loads(text))
        assert ingest.parse_document_dict(json.loads(text, object_pairs_hook=OrderedDict)) == plain


class Text(str):
    pass


class Strings(list):
    pass


def test_subclass_values_parse_as_their_plain_values():
    doc = json.loads(json.dumps(SMALL))
    category = doc["categories"][0]
    category["id"] = Text(category["id"])
    category["group_path"] = Strings(category["group_path"])
    doc["traits"][0]["parameters"] = Strings(doc["traits"][0]["parameters"])
    doc["tables"][0]["rows"][1]["marks"] = Strings([Text("rate")])
    doc["tree"]["children"] = Strings(doc["tree"]["children"])
    doc["tree"]["label"] = Text(doc["tree"]["label"])
    assert ingest.parse_document_dict(doc) == ingest.parse_document_dict(SMALL)
    # A list subclass with a value of another kind gives the plain list's E_SCHEMA.
    path = ("categories", 1, "group_path")
    assert (ingest.parse_document_dict(substitute(doc, path, Strings([1])))
            == ingest.parse_document_dict(substitute(SMALL, path, [1])))


def deep_chain(depth):
    """A tree of `depth` nested groups, built without recursion."""
    node = {"id": f"g{depth}"}
    for i in reversed(range(depth)):
        node = {"id": f"g{i}", "children": [node]}
    return {"schema_version": "1", "traits": [], "categories": [], "tree": node}


def test_deep_tree_parses_validates_walks_and_exports():
    # parse_document_dict runs validate_model; its diagnostics are included.
    model, diags = ingest.parse_document_dict(deep_chain(5000))
    assert diags == []
    depths = [depth for _, depth in iter_tree(model)]
    assert depths == list(range(5001))
    assert export_tree_text(model).text.count("\n") == 5001


def test_wrong_kind_deep_node_is_reported_at_its_full_path():
    doc = deep_chain(300)
    node = doc["tree"]
    for _ in range(300):
        node = node["children"][0]
    node["children"] = [{"id": "ok", "label": 5}, 7]
    _, diags = ingest.parse_document_dict(doc)
    path = "/tree" + "/children/0" * 300
    assert [(d.code, d.path) for d in diags if d.code == "E_SCHEMA"] == [
        ("E_SCHEMA", path + "/children/0/label"),
        ("E_SCHEMA", path + "/children/1"),
    ]


def test_wrong_kind_subtrait_parameter_is_reported_at_its_full_path():
    doc = substitute(SMALL, ("traits", 1, "subtraits", 1, "parameters"),
                     [{"name": "a", "kind": "amount"}, {"name": "b"}, {"name": "c", "kind": "x"}])
    doc = substitute(doc, ("traits", 1, "subtraits", 1, "description"), 3)
    model, diags = ingest.parse_document_dict(doc)
    assert sorted(d.path for d in diags if d.code == "E_SCHEMA") == [
        "/traits/1/subtraits/1/description",
        "/traits/1/subtraits/1/parameters/1",
    ]
    assert model.traits[1].subtraits[1].parameters == (
        M.ParameterSpec("a", "amount"), M.ParameterSpec("c", "x"))


def test_validate_model_runs_once_per_parse_and_per_merge(monkeypatch):
    """A parse validates its model whole once. A merge asks validate_model
    for its base's result, which a parsed base keeps, and then checks only
    what the extension adds, with one _findings call started from the base:
    it validates no model whole."""
    calls, whole, started = [], [], []

    def spy(model, _validate=ingest.validate_model):
        calls.append(model)
        return _validate(model)

    def findings(model, base=None, _findings=M._findings):
        if base is None:
            whole.append(model)
        else:
            started.append((model, base))
        return _findings(model, base)

    monkeypatch.setattr(ingest, "validate_model", spy)
    # model's validate_model and merge_extension each call _findings by
    # their own module's name.
    monkeypatch.setattr(M, "_findings", findings)
    monkeypatch.setattr(ingest, "_findings", findings)
    model, _ = ingest.parse_document_dict(SMALL)
    assert calls == whole == [model] and started == []
    calls.clear(), whole.clear()
    merged = ingest.merge_extension(model, {"traits": [{"id": "new", "name": "New"}]})
    assert len(calls) == 1 and calls[0] is model and whole == []
    assert len(started) == 1 and started[0][0] is merged and started[0][1] is model
    # A base built in code is validated whole once, and the merged model is not.
    calls.clear(), started.clear()
    built = model._replace()
    again = ingest.merge_extension(built, {"traits": [{"id": "new", "name": "New"}]})
    assert len(calls) == len(whole) == 1 and calls[0] is whole[0] is built
    assert len(started) == 1 and started[0][0] is again and started[0][1] is built
    assert merged.traits[-1].id == "new"


def test_merge_repairs_a_base_with_findings(model, monkeypatch):
    """A merge into a base with findings checks the merged model whole, so
    an extension that defines what the base lacks gives a clean model."""
    doc = model_to_document(model)
    doc["tables"][0]["rows"].append({"category": "ghost", "marks": []})
    base, diags = ingest.parse_document_dict(doc)
    assert [d.code for d in diags] == ["E_UNKNOWN_CATEGORY"]
    bases = []

    def findings(merged, base=None, _findings=M._findings):
        bases.append(base)
        return _findings(merged, base)

    monkeypatch.setattr(ingest, "_findings", findings)
    ghost = {"id": "ghost", "name": "Ghost", "group_path": ["Economic Policy"]}
    merged = ingest.merge_extension(base, {"categories": [ghost]})
    assert bases == [None]
    assert M.validate_model(merged) == []
    assert len(merged.categories) == len(model.categories) + 1 == 98
    assert merged.categories[-1].id == "ghost"


def test_deep_tree_serializes_without_recursion_limit():
    depth = 2000
    chain = tuple(M.TaxonomyNode(f"g{i}", f"g{i}", "group", (f"g{i + 1}",) if i + 1 < depth else ())
                  for i in range(depth))
    deep = M.TaxonomyModel()._replace(nodes=chain, root_id="g0")
    with pytest.raises(RecursionError):
        stdlib_dumps(model_to_document(deep))
    lines = ingest.serialize_taxonomy_document(deep).splitlines()
    id_lines = [line for line in lines if line.lstrip().startswith('"id": ')]
    assert len(id_lines) == depth
    # Node i's keys sit at nesting level 2 + 2i: the tree object, then a
    # children list and a node object per level.
    assert id_lines[-1] == "  " * (2 + 2 * (depth - 1)) + f'"id": "g{depth - 1}",'


def test_cyclic_tree_serializes_each_node_once():
    # The inner "a" repeats the root's id, so the parsed "b" lists "a" as a child.
    doc = {"tree": {"id": "a", "children": [{"id": "b", "children": [{"id": "a"}]}]}}
    cyclic, _ = ingest.parse_document_dict(doc)
    tree = json.loads(ingest.serialize_taxonomy_document(cyclic))["tree"]
    assert tree == {"id": "a", "label": "a", "kind": "group",
                    "children": [{"id": "b", "label": "b", "kind": "group"}]}


def test_invalid_tree_serializes_resolvable_children_once():
    model = M.TaxonomyModel(
        nodes=(M.TaxonomyNode("r", "R", "group", ("x", "missing", "x")),
               M.TaxonomyNode("x", "X", "group")),
        root_id="r",
    )
    tree = model_to_document(model)["tree"]
    assert tree == {"id": "r", "label": "R", "kind": "group",
                    "children": [{"id": "x", "label": "X", "kind": "group"}]}
    text = ingest.serialize_taxonomy_document(model)
    assert json.loads(text)["tree"] == tree
    assert text == stdlib_dumps(model_to_document(model))


# Model attributes that parsing fills but no field table dumps: a node's
# children come from the tree walk.
PARSE_ONLY = {M.TaxonomyNode: {"children"}}
RECORD_CLASSES = {
    M.ParameterSpec, M.SubtraitDef, M.TraitDef, M.TransactionChannel,
    M.PolicyCategory, M.CheckTable, M.TableRow, M.TaxonomyNode,
}


def test_field_tables_name_every_model_field():
    """A model field added without a document key fails here instead of
    being dropped silently on serialize."""
    records = [v for v in vars(ingest).values() if isinstance(v, ingest._Record)]
    assert {r.cls for r in records} == RECORD_CLASSES and len(records) == len(RECORD_CLASSES)
    for record in records:
        attrs = [attr for _, _, _, attr in record.fields] + sorted(PARSE_ONLY.get(record.cls, ()))
        assert sorted(attrs) == sorted(record.cls._fields)
    top_level = {"nodes", "root_id", "metadata", *ingest._SECTIONS}
    assert top_level == set(M.TaxonomyModel._fields)


# ---------------------------------------------------------------------------
# the collection pause
# ---------------------------------------------------------------------------

# Each entry point that pauses the cyclic collector, called on small inputs;
# each takes the path of the shipped dataset file.
PAUSED_CALLS = {
    "parse_taxonomy_document": lambda path: ingest.parse_taxonomy_document(json.dumps(SMALL)),
    "parse_document_dict": lambda path: ingest.parse_document_dict(SMALL),
    "load_model_from_path": ingest.load_model_from_path,
    "merge_extension": lambda path: ingest.merge_extension(SMALL_MODEL, SMALL),
    "enumerate_schemas": lambda path: enumerate_schemas(SMALL_MODEL, expand_subtraits=True),
}


@pytest.fixture()
def collector():
    """Sets the collector back to its state before the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(PAUSED_CALLS))
def test_paused_call_leaves_the_collector_as_it_found_it(
    collector, dataset_file, monkeypatch, name, enabled
):
    # The collector's state inside the call, as each bulk step sees it.
    inside = []
    for module, attr in ((ingest, "validate_model"), (enumeration, "_rows")):
        def spy(*args, _step=getattr(module, attr)):
            inside.append(gc.isenabled())
            return _step(*args)
        monkeypatch.setattr(module, attr, spy)
    (gc.enable if enabled else gc.disable)()
    PAUSED_CALLS[name](dataset_file)
    assert inside and not any(inside)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", sorted(PAUSED_CALLS))
def test_nested_paused_call_keeps_the_outer_pause(collector, dataset_file, name):
    gc.enable()
    with M._collection_paused():
        PAUSED_CALLS[name](dataset_file)
        assert not gc.isenabled()
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_raising_paused_call_leaves_the_collector_as_it_found_it(collector, enabled):
    conflicting = {"traits": [{"id": "rate", "name": "Another Rate"}]}
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(ingest.IngestError) as exc:
        ingest.merge_extension(SMALL_MODEL, conflicting)
    assert [d.code for d in exc.value.diagnostics] == ["E_CONFLICT"]
    assert gc.isenabled() is enabled


def generated_document(categories):
    """A clean document: each category in one of ten groups' subtrees,
    marked in one table for a third of the 20 traits, each of which has two
    subtraits."""
    groups = 10
    trait_ids = [f"t{j}" for j in range(20)]
    return {
        "schema_version": "1",
        "traits": [
            {"id": t, "name": t.upper(),
             "subtraits": [{"id": f"{t}-{k}", "name": f"{t} {k}"} for k in range(2)]}
            for t in trait_ids
        ],
        "categories": [
            {"id": f"c{i}", "name": f"C{i}", "group_path": ["Economic Policy", f"G{i % groups}"]}
            for i in range(categories)
        ],
        "tables": [{"name": "main", "trait_columns": trait_ids, "rows": [
            {"category": f"c{i}", "marks": trait_ids[i % 3::3]} for i in range(categories)
        ]}],
        "tree": {"id": "root", "label": "Economic Policy", "children": [
            {"id": f"g{g}", "label": f"G{g}", "children": [
                {"id": f"n{i}", "label": f"C{i}", "kind": "category", "category_ref": f"c{i}"}
                for i in range(g, categories, groups)
            ]}
            for g in range(groups)
        ]},
    }


def test_bulk_builders_start_no_collection_while_they_run(collector):
    """No cyclic collection starts while polytax code runs in a parse, a
    serialize or an expanded enumeration of 2,000 categories. The pause
    ends in contextlib's exit, where the first allocation may start one
    collection of what the call leaves alive; that one is not counted."""
    text = json.dumps(generated_document(2000))
    started_in = []

    def record(phase, info):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_globals.get("__name__", "").startswith("polytax."):
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started_in.append(frame.f_code.co_name)

    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        model, diags = ingest.parse_taxonomy_document(text)
        ingest.serialize_taxonomy_document(model)
        schemas = enumerate_schemas(model, expand_subtraits=True)
    finally:
        gc.callbacks.remove(record)
    assert diags == []
    assert len(schemas) == sum(2 * len(range(i % 3, 20, 3)) for i in range(2000))
    assert started_in == []


def shared_path_document(categories, depth):
    """generated_document with every category under one group path `depth`
    names long, and a cross tag on every other one."""
    doc = generated_document(categories)
    for i, category in enumerate(doc["categories"]):
        category["group_path"] = ["Economic Policy", *(f"Level {d}" for d in range(depth))]
        category["cross_tags"] = ["fiscal"] if i % 2 else []
    return doc


def test_equal_strings_and_string_lists_parse_into_one_object():
    text = json.dumps(shared_path_document(1000, 100))
    tracemalloc.start()
    try:
        model, diags = ingest.parse_taxonomy_document(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert diags == []
    categories = model.categories
    assert all(c.group_path is categories[0].group_path for c in categories)
    assert all(c.cross_tags is categories[i % 2].cross_tags for i, c in enumerate(categories))
    rows = model.tables[0].rows
    assert all(r.marks is rows[i % 3].marks for i, r in enumerate(rows))
    # A mark and the table column of the same trait are one string.
    columns = {t: t for t in model.tables[0].trait_columns}
    assert all(m is columns[m] for r in rows for m in r.marks)
    # Python 3.11 measures 0.7 MiB; with a str and a tuple per occurrence
    # the model held 7.6 MiB, and the bound is under a quarter of that.
    assert retained <= 1.5 * 2**20, retained / 2**20


def test_sharing_keeps_a_str_subclass_in_a_list_as_its_own_object():
    doc = shared_path_document(3, 2)
    doc["categories"][1]["group_path"][1] = Text("Level 0")
    model, diags = ingest.parse_document_dict(doc)
    assert diags == []
    a, b, c = (category.group_path for category in model.categories)
    assert a == b == c and a is c and b is not a
    assert b[1].__class__ is Text and a[1].__class__ is str
    assert b[0].__class__ is str
