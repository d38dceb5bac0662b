import pytest
from hypothesis import given, settings

from polytax import ingest
from polytax.enumeration import (
    EnumerationFilter,
    count_checkmarks,
    enumerate_schemas,
    lookup,
)
from polytax.model import PolicyError, iter_tree

from .strategies import taxonomy_models


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


def assert_counts_sum_to_schemas(model):
    for flt in filters_of(model):
        for expand in (False, True):
            schemas = enumerate_schemas(model, flt, expand)
            for by in ("table", "category", "trait"):
                counts = count_checkmarks(model, by, flt, expand)
                assert sum(counts.values()) == len(schemas), (flt, expand, by)


def test_grouped_counts_sum_to_filtered_schemas(model):
    assert_counts_sum_to_schemas(model)


@settings(max_examples=50, deadline=None)
@given(taxonomy_models())
def test_grouped_counts_sum_to_filtered_schemas_property(m):
    assert_counts_sum_to_schemas(m)


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
