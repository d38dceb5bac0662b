from collections import Counter

import pytest
from hypothesis import given, settings

from polytax import ingest
from polytax import model as M
from polytax.enumeration import (
    EnumerationFilter,
    _resolve_filter,
    _rows,
    count_checkmarks,
    enumerate_schemas,
    lookup,
)
from polytax.export import export_schema_list
from polytax.model import PolicyError, iter_tree

from .strategies import taxonomy_models
from .test_ingest import SMALL, SMALL_MODEL, merge_outcomes, substitute


def test_income_tax_table_has_37_schemas(model):
    schemas = enumerate_schemas(model, EnumerationFilter(table="income-tax"))
    assert len(schemas) == 37


def test_open_market_operations_has_10_schemas(model):
    schemas = enumerate_schemas(model, EnumerationFilter(table="open-market-operations"))
    assert len(schemas) == 10


def test_trade_tagged_expense_rows(model):
    schemas = enumerate_schemas(
        model,
        EnumerationFilter(cross_tag="international-trade", table="other-expenses"),
    )
    assert [(s.category_id, s.trait_id) for s in schemas] == [
        ("import-subsidization", "payment-size"),
        ("export-subsidization", "payment-size"),
    ]


def test_total_equals_sum_of_table_counts(model):
    by_table = count_checkmarks(model, "table")
    assert len(enumerate_schemas(model)) == sum(by_table.values())


def filters_of(model):
    """No filter, then one filter for each value each filter field can take."""
    yield None
    yield from (EnumerationFilter(table=t.name) for t in model.tables)
    yield from (EnumerationFilter(trait_id=t.id) for t in model.traits)
    tags = set().union(*(c.cross_tags for c in model.categories))
    yield from (EnumerationFilter(cross_tag=tag) for tag in sorted(tags))
    prefixes = {
        c.group_path[:i] for c in model.categories for i in range(1, len(c.group_path) + 1)
    }
    yield from (EnumerationFilter(group_prefix=p) for p in sorted(prefixes))


def reference_checkmarks(model, flt, expand_subtraits):
    """The reference walk: resolve the filter, then yield (table name,
    category id, trait id, subtrait id or None) for each checkmark that
    survives it, in document order; with expand_subtraits, one per subtrait
    of its trait."""
    flt = flt or EnumerationFilter()
    _resolve_filter(model, flt)
    prefix = None if flt.group_prefix is None else tuple(flt.group_prefix)
    for table in model.tables:
        if flt.table is not None and table.name != flt.table:
            continue
        for row in table.rows:
            category = model.category(row.category_id)
            if category is None:
                continue
            if flt.cross_tag is not None and flt.cross_tag not in category.cross_tags:
                continue
            if prefix is not None and category.group_path[: len(prefix)] != prefix:
                continue
            marks = set(row.marks)
            for trait_id in table.trait_columns:
                if trait_id not in marks:
                    continue
                if flt.trait_id is not None and trait_id != flt.trait_id:
                    continue
                trait = model.trait(trait_id) if expand_subtraits else None
                if trait is not None and trait.subtraits:
                    for sub in trait.subtraits:
                        yield table.name, row.category_id, trait_id, sub.id
                else:
                    yield table.name, row.category_id, trait_id, None


def assert_enumeration_matches_the_reference(model):
    """Schemas and counts, in order, equal the reference walk's for every
    filter, both expansions and every grouping."""
    for flt in filters_of(model):
        for expand in (False, True):
            marks = list(reference_checkmarks(model, flt, expand))
            schemas = enumerate_schemas(model, flt, expand)
            assert schemas == [M.AtomicPolicySchema(*mark[1:]) for mark in marks], (flt, expand)
            for field, by in enumerate(("table", "category", "trait")):
                counts = count_checkmarks(model, by, flt, expand)
                expected = Counter(mark[field] for mark in marks)
                assert list(counts.items()) == list(expected.items()), (flt, expand, by)
                assert sum(counts.values()) == len(schemas)


def test_grouped_counts_sum_to_filtered_schemas(model):
    assert_enumeration_matches_the_reference(model)


@settings(max_examples=50, deadline=None)
@given(taxonomy_models())
def test_grouped_counts_sum_to_filtered_schemas_property(m):
    assert_enumeration_matches_the_reference(m)


def test_invalid_tables_enumerate_as_the_reference_walk(model):
    """A duplicated column counts twice, a row of an unknown category is
    skipped, a mark outside the columns is not listed, a repeated row is
    listed twice, and a trait id defined twice expands as its last
    definition."""
    first, *rest = model.traits
    twice = first._replace(subtraits=first.subtraits[:1] or (M.SubtraitDef("only", "Only"),))
    table = model.tables[0]
    rows = table.rows
    bad = table._replace(
        trait_columns=(*table.trait_columns, table.trait_columns[0], first.id),
        rows=(*rows, rows[0], M.TableRow("no-category", (first.id,)),
              rows[1]._replace(marks=(*rows[1].marks, "no-column", first.id))),
    )
    invalid = model._replace(traits=(first, *rest, twice), tables=(bad, *model.tables[1:]))
    assert {d.code for d in M.validate_model(invalid)} == {
        "E_DUP_ID", "E_UNKNOWN_CATEGORY", "E_BAD_MARK"}
    assert_enumeration_matches_the_reference(invalid)
    schemas = enumerate_schemas(invalid, expand_subtraits=True)
    assert M.AtomicPolicySchema(rows[0].category_id, first.id, twice.subtraits[0].id) in schemas
    assert not any(s.subtrait_id == first.subtraits[-1].id for s in schemas)


def test_grouped_counts_follow_the_filter(model):
    flt = EnumerationFilter(table="income-tax", trait_id="tax-base")
    by_category = count_checkmarks(model, "category", flt)
    assert by_category == {s.category_id: 1 for s in enumerate_schemas(model, flt)}


def test_count_by_table_entry(model):
    assert count_checkmarks(model, "table")["government-goods-and-services"] == 4


def test_count_by_trait_recount(model):
    by_trait = count_checkmarks(model, "trait")
    expected = sum(
        1
        for c in model.categories
        if "tax-evasion-penalty" in model.implementable_trait_ids(c.id)
    )
    assert by_trait["tax-evasion-penalty"] == expected
    assert sum(by_trait.values()) == sum(count_checkmarks(model, "table").values())
    assert sum(count_checkmarks(model, "category").values()) == sum(by_trait.values())


def test_subtrait_expansion_counts(model):
    plain = enumerate_schemas(model)
    expanded = enumerate_schemas(model, expand_subtraits=True)
    subtrait_count = {t.id: len(t.subtraits) for t in model.traits}
    expected = sum(max(1, subtrait_count[s.trait_id]) for s in plain)
    assert len(expanded) == expected
    assert all(
        (s.subtrait_id is not None) == bool(subtrait_count[s.trait_id])
        for s in expanded
    )


def test_filters_compose_conjunctively(model):
    both = enumerate_schemas(
        model, EnumerationFilter(table="property-tax", trait_id="tax-base")
    )
    by_table = enumerate_schemas(model, EnumerationFilter(table="property-tax"))
    by_trait = enumerate_schemas(model, EnumerationFilter(trait_id="tax-base"))
    assert set(both) == set(by_table) & set(by_trait)


def test_group_prefix_filter(model):
    monetary = enumerate_schemas(
        model,
        EnumerationFilter(
            group_prefix=("Economic Policy", "Stabilization Policy", "Monetary Policy")
        ),
    )
    assert len(monetary) == 10 + 22 + 6


def test_bad_filter_values(model):
    for flt in (
        EnumerationFilter(table="no-such-table"),
        EnumerationFilter(trait_id="no-such-trait"),
        EnumerationFilter(cross_tag="no-such-tag"),
        EnumerationFilter(group_prefix=("Elsewhere",)),
    ):
        for run in (enumerate_schemas, lambda m, f: count_checkmarks(m, "trait", f)):
            with pytest.raises(PolicyError) as exc:
                run(model, flt)
            assert exc.value.code == "E_BAD_FILTER"


def test_count_by_an_unknown_grouping_is_bad_filter(model):
    with pytest.raises(PolicyError) as exc:
        count_checkmarks(model, "bogus")
    assert exc.value.code == "E_BAD_FILTER"


def test_deterministic_order(model):
    first = enumerate_schemas(model)
    assert first == enumerate_schemas(model)
    # first table, first row, first marked column
    assert first[0].category_id == "personal-income-tax"
    assert first[0].trait_id == "tax-calculation-type"


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------

def test_root_has_trade_and_stabilization_children(model):
    root = model.tree
    assert root.label == "Economic Policy"
    labels = [model.node(c).label for c in root.children]
    assert labels == ["International Trade Policy", "Stabilization Policy"]


def test_stabilization_splits_into_fiscal_and_monetary(model):
    root = model.tree
    stab = next(
        model.node(c) for c in root.children
        if model.node(c).label == "Stabilization Policy"
    )
    assert [model.node(c).label for c in stab.children] == [
        "Fiscal Policy", "Monetary Policy",
    ]


def test_forward_guidance_path(model):
    path = [
        "Stabilization Policy", "Monetary Policy",
        "Communications Policy", "Forward Guidance",
    ]
    node = model.tree
    for label in path:
        node = next(
            model.node(c) for c in node.children if model.node(c).label == label
        )
    leaves = [model.node(c).label for c in node.children]
    assert leaves == ["Odyssean Forward Guidance", "Delphic Forward Guidance"]


def test_every_category_is_exactly_one_leaf(model):
    leaves = [node.category_ref for node, _ in iter_tree(model) if node.category_ref is not None]
    assert sorted(leaves) == sorted(c.id for c in model.categories)


def test_leaf_group_paths_match_tree(model):
    # Walking to a category leaf reproduces that category's group path.
    for node, depth in iter_tree(model):
        if node.category_ref is not None:
            category = model.category(node.category_ref)
            assert len(category.group_path) == depth


def test_iter_tree_visits_each_node_of_a_cyclic_model_once():
    # The inner "a" repeats its parent's id, so "a" lists itself as a child.
    doc = {"schema_version": "1", "traits": [], "categories": [],
           "tree": {"id": "r", "children": [{"id": "a", "children": [{"id": "a"}]}]}}
    cyclic, _ = ingest.parse_document_dict(doc)
    assert [(node.id, depth) for node, depth in iter_tree(cyclic)] == [("r", 0), ("a", 1)]


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------

def test_lookup_carucage(model):
    found = lookup(model, "Carucage")
    assert found.id == "carucage"
    assert sorted(model.implementable_trait_ids(found.id)) == [
        "exemption", "tax-calculation-type", "tax-credit", "tax-evasion-penalty",
    ]


def test_lookup_is_case_insensitive(model):
    assert lookup(model, "carucage") is lookup(model, "CARUCAGE")


def test_lookup_prefix_ambiguity(model):
    with pytest.raises(PolicyError) as exc:
        lookup(model, "Tax")
    assert exc.value.code == "E_AMBIGUOUS"


def test_lookup_unique_prefix(model):
    assert lookup(model, "Caruc").id == "carucage"


def test_lookup_group_node(model):
    found = lookup(model, "Auxiliary Policy")
    assert found.kind == "group"


def test_lookup_node_by_exact_id(model):
    assert lookup(model, "quantity-control") is model.node("quantity-control")


def test_lookup_name_of_several_categories_is_ambiguous(model):
    # The repurchase-agreement and repurchase-agreement-market categories
    # share the name.
    with pytest.raises(PolicyError) as exc:
        lookup(model, "repurchase agreement")
    assert exc.value.code == "E_AMBIGUOUS"
    assert "names several elements" in str(exc.value)


def test_lookup_miss(model):
    with pytest.raises(PolicyError) as exc:
        lookup(model, "Window Tax")
    assert exc.value.code == "E_NOT_FOUND"


# ---------------------------------------------------------------------------
# The rewritten queries against the code they replaced
# ---------------------------------------------------------------------------

def reference_lookup(model, name_or_id):
    """lookup as it was: one (name, item) list of every category and group
    node, scanned for an exact name, then for a prefix."""
    category = model.category(name_or_id)
    if category is not None:
        return category
    node = model.node(name_or_id)
    if node is not None:
        return node
    needle = name_or_id.strip().lower()
    named = [(c.name, c) for c in model.categories] + [
        (n.label, n) for n in model.nodes if n.category_ref is None]
    exact = [item for name, item in named if name.lower() == needle]
    if len(exact) == 1:
        return exact[0]
    if len(exact) > 1:
        raise PolicyError("E_AMBIGUOUS", f"{name_or_id!r} names several elements")
    prefixed = [item for name, item in named if name.lower().startswith(needle)]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        raise PolicyError("E_AMBIGUOUS", f"{name_or_id!r} is a prefix of several names")
    raise PolicyError("E_NOT_FOUND", f"no category or node matches {name_or_id!r}")


def reference_schema_list(schemas):
    """export_schema_list's text as it was: a "/".join per schema."""
    lines = []
    for schema in schemas:
        parts = [schema.category_id, schema.trait_id]
        if schema.subtrait_id is not None:
            parts.append(schema.subtrait_id)
        lines.append("/".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def reference_table_marks(tables):
    """A set per category over every row, then a frozenset copy of each."""
    marks = {}
    for table in tables:
        for row in table.rows:
            marks.setdefault(row.category_id, set()).update(row.marks)
    return {c: frozenset(m) for c, m in marks.items()}


def reference_counts(model, by, flt=None, expand_subtraits=False):
    """count_checkmarks as it was: a list of a row's weights, summed."""
    rows = _rows(model, flt, expand_subtraits)
    if by == "trait":
        return Counter(trait for _, _, marks, columns, _ in rows
                       for trait_id, pairs in columns if trait_id in marks
                       for trait, _ in pairs)
    key = 0 if by == "table" else 1
    counts = Counter()
    for row in rows:
        marks, weights = row[2], row[4]
        schemas = sum([weights[mark] for mark in marks if mark in weights])
        if schemas:
            counts[row[key]] += schemas
    return counts


def reference_iter_tree(model):
    """iter_tree as it was, resolving each child with model.node."""
    root = model.tree
    if root is None:
        raise PolicyError("E_NOT_FOUND", "model has no taxonomy tree")
    seen = set()
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            yield node, depth
            for child_id in reversed(node.children):
                child = model.node(child_id)
                if child is not None:
                    stack.append((child, depth + 1))


def outcome(query, *args):
    """The value of query(*args), or the class and text of what it raises."""
    try:
        return "value", query(*args)
    except Exception as exc:  # what it raises is the outcome
        return "raised", type(exc), str(exc)


def assert_queries_match_the_references(model, names):
    marks = reference_table_marks(model.tables)
    built = M.table_marks(model.tables)
    assert built == marks and {type(v) for v in built.values()} <= {frozenset}
    assert model._marks_by_category == marks
    for category in model.categories:
        assert model.implementable_trait_ids(category.id) == marks.get(category.id, frozenset())
    for expand in (False, True):
        schemas = enumerate_schemas(model, expand_subtraits=expand)
        assert export_schema_list(schemas).text == reference_schema_list(schemas)
        for by in ("table", "category", "trait"):
            counts = count_checkmarks(model, by, None, expand)
            assert list(counts.items()) == list(reference_counts(model, by, None, expand).items())
    assert outcome(lambda: list(iter_tree(model))) == outcome(
        lambda: list(reference_iter_tree(model)))
    for name in names:
        new, old = outcome(lookup, model, name), outcome(reference_lookup, model, name)
        assert new == old, name
        assert new[0] == "raised" or new[1] is old[1], name


def test_queries_match_the_references_on_the_bundled_dataset(model):
    names = ["Carucage", "carucage", "CARUCAGE", "Caruc", "Tax", "repurchase agreement",
             "Window Tax", "Auxiliary Policy", "auxiliary", "quantity-control",
             "  Forward Guidance ", "", "Economic Policy"]
    cases = {name: outcome(lookup, model, name) for name in names}
    assert cases["Carucage"][1].id == "carucage"  # exact name
    assert cases["Caruc"][1].id == "carucage"  # prefix
    assert cases["Tax"][1:] == (PolicyError, "E_AMBIGUOUS: 'Tax' is a prefix of several names")
    assert cases["repurchase agreement"][2].endswith("names several elements")
    assert cases["Window Tax"][2].startswith("E_NOT_FOUND")  # miss
    assert cases["Auxiliary Policy"][1].kind == "group"  # group node
    assert_queries_match_the_references(model, names)


def merged_models(monkeypatch, model):
    """The merged models of the seeded merges of test_merge_outcomes_are_pinned
    that reach their check, whatever it finds."""
    models = []

    def keep(merged, base=None, _findings=M._findings):
        models.append(merged)
        return _findings(merged, base)

    findings = substitute(SMALL, ("categories", 1, "group_path"), ["Elsewhere"])
    findings = substitute(findings, ("traits", 1, "parameters"), [{"name": "f", "kind": "rate"}])
    findings, diags = ingest.parse_document_dict(findings)
    assert diags
    monkeypatch.setattr(ingest, "_findings", keep)
    for seed, base, count in ((1, SMALL_MODEL, 600), (2, model, 300), (3, findings, 100)):
        for _ in merge_outcomes(base, seed, count):
            pass
    monkeypatch.undo()
    return models


def test_queries_match_the_references_on_merged_models(model, monkeypatch):
    models = merged_models(monkeypatch, model)
    # What the rewritten code must get right beyond a clean model: a
    # category with rows in several tables, a row repeating a mark, and a
    # row of an unknown category.
    def in_several_tables(m):
        tables = {}
        for i, table in enumerate(m.tables):
            for row in table.rows:
                tables.setdefault(row.category_id, set()).add(i)
        return any(len(found) > 1 for found in tables.values())

    rows = [(m, row) for m in models for table in m.tables for row in table.rows]
    assert any(map(in_several_tables, models))
    assert any(len(set(row.marks)) < len(row.marks) for _, row in rows)
    assert any(m.category(row.category_id) is None for m, row in rows)
    for m in models:
        names = [c.name for c in m.categories[-3:]] + [c.id for c in m.categories[-2:]]
        names += [n.label for n in m.nodes if n.category_ref is None][-2:]
        names += [name[:2] for name in names] + ["no such name"]
        assert_queries_match_the_references(m, names)


def test_schema_list_of_a_non_str_id_raises_type_error():
    for schema in (M.AtomicPolicySchema(1, "t"), M.AtomicPolicySchema("c", 2),
                   M.AtomicPolicySchema("c", "t", 3)):
        for schemas in ([schema], [M.AtomicPolicySchema("a", "b", "c"), schema]):
            with pytest.raises(TypeError):
                reference_schema_list(schemas)
            with pytest.raises(TypeError):
                export_schema_list(schemas)
