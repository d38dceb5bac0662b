import inspect
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from polytax import ingest
from polytax import model as M
from polytax.analytics import CorrelationMatrix, DistanceMatrix, MstResult, TraitMatrix
from polytax.enumeration import EnumerationFilter
from polytax.export import ExportArtifact
from polytax.model import (
    CheckTable,
    ParameterSpec,
    PolicyCategory,
    PolicyError,
    SubtraitDef,
    TableRow,
    TaxonomyModel,
    TaxonomyNode,
    TraitDef,
    TransactionChannel,
    _first_kinds,
    _kind_clashes,
    _validate_parameter_kinds,
    instantiate_atomic_policy,
    table_marks,
    validate_model,
)

from .strategies import taxonomy_models


def test_bundled_dataset_validates_clean(model):
    assert validate_model(model) == []


def test_unknown_trait_reference_is_reported():
    bad = TaxonomyModel(
        traits=(),
        categories=(
            PolicyCategory(
                id="personal-income-tax",
                name="Personal Income Tax",
                group_path=("Economic Policy",),
            ),
        ),
        tables=(
            CheckTable(
                name="main",
                title="Main",
                trait_columns=("tax-base",),
                rows=(TableRow("personal-income-tax", ("tax-base",)),),
            ),
        ),
    )
    codes = [d.code for d in validate_model(bad)]
    assert codes == ["E_UNKNOWN_TRAIT"]


def test_implementable_trait_ids_is_the_union_of_table_marks():
    model = TaxonomyModel(
        traits=(TraitDef("t", "T"), TraitDef("u", "U")),
        categories=(PolicyCategory("c", "C"), PolicyCategory("d", "D")),
        tables=(
            CheckTable("one", "One", ("t",), (TableRow("c", ("t",)),)),
            CheckTable("two", "Two", ("u",), (TableRow("c", ("u",)),)),
        ),
    )
    assert validate_model(model) == []
    assert "_marks_by_category" not in vars(model)  # validation does not build it
    assert model.implementable_trait_ids("c") == frozenset({"t", "u"})
    # A category without a row and an unknown id both have no traits.
    for category_id in ("d", "nobody"):
        found = model.implementable_trait_ids(category_id)
        assert found == frozenset() and isinstance(found, frozenset)
    # The view is built on the first read; a replaced model builds its own.
    assert "_marks_by_category" in vars(model)
    rebuilt = model._replace(tables=model.tables[1:])
    assert "_marks_by_category" not in vars(rebuilt)
    assert rebuilt.implementable_trait_ids("c") == frozenset({"u"})
    assert model.implementable_trait_ids("c") == frozenset({"t", "u"})


def test_node_with_two_parents_is_not_a_tree():
    nodes = (
        TaxonomyNode("root", "Economic Policy", "group", children=("a", "b")),
        TaxonomyNode("a", "A", "group", children=("shared",)),
        TaxonomyNode("b", "B", "group", children=("shared",)),
        TaxonomyNode("shared", "Shared", "group"),
    )
    bad = TaxonomyModel(nodes=nodes, root_id="root")
    codes = [d.code for d in validate_model(bad)]
    assert codes == ["E_NOT_A_TREE"]


def test_duplicate_ids_and_params_flagged():
    bad = TaxonomyModel(
        traits=(
            TraitDef(id="t", name="T"),
            TraitDef(
                id="t",
                name="T again",
                parameters=(
                    ParameterSpec("x", "rate"),
                    ParameterSpec("x", "amount"),
                ),
            ),
        ),
    )
    codes = sorted(d.code for d in validate_model(bad))
    assert codes == ["E_DUP_ID", "E_DUP_PARAM"]


def test_repeated_table_column_or_row_is_dup_id():
    """A column or a row listed twice in one table would list its schemas
    twice; each repeat is an E_DUP_ID at its path in the table."""
    doc = {
        "schema_version": "1",
        "traits": [{"id": "t", "name": "T"}],
        "categories": [{"id": "c", "name": "C", "group_path": ["Economic Policy"]}],
        "tables": [
            {"name": "cols", "trait_columns": ["t", "t"],
             "rows": [{"category": "c", "marks": ["t"]}]},
            {"name": "rows", "trait_columns": ["t"],
             "rows": [{"category": "c", "marks": ["t"]}, {"category": "c", "marks": []}]},
        ],
    }
    _, diags = ingest.parse_document_dict(doc)
    assert triples(diags) == [
        ("E_DUP_ID", "/tables/cols/columns/t", "duplicate column 't'"),
        ("E_DUP_ID", "/tables/rows/rows/c", "duplicate row 'c'"),
    ]


def triples(diags):
    return [(d.code, d.path, d.message) for d in diags]


def test_every_finding_site_is_pinned():
    """Each finding site in validation, parsing and merge, code, path and
    message exactly, in sorted order; together they emit every documented code."""
    def param(name, kind="rate"):
        return ParameterSpec(name, kind)

    broken = TaxonomyModel(
        traits=(
            TraitDef(
                "t", "T", parameters=(param("x"), param("x", "colour")),
                subtraits=(SubtraitDef("s", "S"), SubtraitDef("s", "S", (param("y", "size"),))),
            ),
            TraitDef("t", "T again"),
        ),
        categories=(
            PolicyCategory(
                "c", "C", own_parameters=(param("z"), param("z")), group_path=("Elsewhere",),
                channel_ref="nowhere",
            ),
            PolicyCategory("d", "D"),
            PolicyCategory("d", "D"),
        ),
        nodes=(
            TaxonomyNode("r", "Economic Policy", "group", ("g", "leaf", "missing", "leaf")),
            TaxonomyNode("g", "G", "folder", category_ref="nope"),
            TaxonomyNode("leaf", "Leaf", "category", children=("x",)),
            TaxonomyNode("x", "X", "group"),
            TaxonomyNode("x", "X", "group"),
            TaxonomyNode("orphan", "Orphan", "group"),
        ),
        root_id="r",
        channels=(
            TransactionChannel("ch", "mint", ("Elsewhere",), "Ch"),
            TransactionChannel("ch", "government", ("Operating Income",), "Ch"),
        ),
        tables=(
            CheckTable(
                "main", "Main", ("t", "ghost-col"),
                (TableRow("c", ("t", "bogus")), TableRow("nobody", ())),
            ),
            CheckTable("main", "Main again", (), ()),
        ),
    )
    # A tree without a root, or with a root that does not resolve, ends the
    # tree checks, so each needs a model of its own.
    rootless = TaxonomyModel(nodes=(TaxonomyNode("n", "N", "group"),))
    # One name that a category, the trait it is marked with and that trait's
    # subtrait declare with three kinds: each later declaration is flagged.
    clashing = TaxonomyModel(
        traits=(TraitDef("t", "T", (param("x", "condition"),),
                         (SubtraitDef("s", "S", (param("x", "amount"),)),)),),
        categories=(PolicyCategory("c", "C", own_parameters=(param("x"),)),),
        tables=(CheckTable("main", "Main", ("t",), (TableRow("c", ("t",)),)),),
    )
    dangling_root = TaxonomyModel(nodes=(TaxonomyNode("n", "N", "group"),), root_id="gone")
    doc = {
        "schema_version": "1",
        "traits": [{"id": "t", "name": "T"}],
        "categories": [
            {"id": "c", "name": "C", "group_path": ["Economic Policy"],
             "implementable_trait_ids": ["t"]},
        ],
    }
    base, inline_mismatch = ingest.parse_document_dict(doc)
    with pytest.raises(ingest.IngestError) as conflict:
        ingest.merge_extension(base, {"traits": [{"id": "t", "name": "Other"}]})
    with pytest.raises(ingest.IngestError) as merge_mismatch:
        ingest.merge_extension(base, {"categories": [
            {"id": "e", "name": "E", "group_path": ["Economic Policy"],
             "implementable_trait_ids": ["t"]},
        ]})
    cases = [
        (validate_model(broken), [
            ("E_BAD_GROUP_PATH", "/categories/c", "group_path must start at 'Economic Policy'"),
            ("E_BAD_KIND", "/channels/ch", "unknown authority 'mint'"),
            ("E_BAD_KIND", "/traits/t/parameters/x", "unknown parameter kind 'colour'"),
            ("E_BAD_KIND", "/traits/t/subtraits/s/parameters/y", "unknown parameter kind 'size'"),
            ("E_BAD_KIND", "/tree/g", "unknown node kind 'folder'"),
            ("E_BAD_LEAF", "/tree/leaf", "category node 'leaf' must not have children"),
            ("E_BAD_MARK", "/tables/main/rows/c", "mark 'bogus' is not a column of table 'main'"),
            ("E_BAD_STATEMENT_PATH", "/channels/ch",
             "statement_path must start with an income-statement section"),
            ("E_DANGLING_NODE_REF", "/tree/r", "child id 'missing' does not resolve"),
            ("E_DUP_ID", "/categories/d", "duplicate id 'd'"),
            ("E_DUP_ID", "/channels/ch", "duplicate id 'ch'"),
            ("E_DUP_ID", "/tables/main", "duplicate table 'main'"),
            ("E_DUP_ID", "/traits/t", "duplicate id 't'"),
            ("E_DUP_ID", "/traits/t/subtraits/s", "duplicate id 's'"),
            ("E_DUP_ID", "/tree/x", "duplicate id 'x'"),
            ("E_DUP_PARAM", "/categories/c/parameters/z", "duplicate parameter name 'z'"),
            ("E_DUP_PARAM", "/traits/t/parameters/x", "duplicate parameter name 'x'"),
            ("E_NOT_A_TREE", "/tree/leaf", "node 'leaf' has more than one parent"),
            ("E_NOT_A_TREE", "/tree/orphan", "node 'orphan' is not reachable from the root"),
            ("E_UNKNOWN_CATEGORY", "/tables/main/rows/nobody",
             "row references unknown category 'nobody'"),
            ("E_UNKNOWN_CATEGORY", "/tree/g", "node 'g' references unknown category"),
            ("E_UNKNOWN_CATEGORY", "/tree/leaf",
             "category node 'leaf' has no resolvable category_ref"),
            ("E_UNKNOWN_CHANNEL", "/categories/c", "channel_ref 'nowhere' does not resolve"),
            ("E_UNKNOWN_TRAIT", "/tables/main/columns/ghost-col",
             "table column 'ghost-col' is not a trait"),
        ]),
        (validate_model(clashing), [
            ("E_DUP_PARAM", "/traits/t/parameters/x",
             "parameter 'x' is 'condition' here but 'rate' at /categories/c/parameters/x"),
            ("E_DUP_PARAM", "/traits/t/subtraits/s/parameters/x",
             "parameter 'x' is 'amount' here but 'condition' at /traits/t/parameters/x"),
            ("E_DUP_PARAM", "/traits/t/subtraits/s/parameters/x",
             "parameter 'x' is 'amount' here but 'rate' at /categories/c/parameters/x"),
        ]),
        (validate_model(rootless), [("E_NOT_A_TREE", "/tree", "nodes without a root")]),
        (validate_model(dangling_root), [
            ("E_DANGLING_NODE_REF", "/tree", "root id 'gone' does not resolve"),
        ]),
        (ingest.parse_taxonomy_document("{")[1], [
            ("E_SYNTAX", "/line/1",
             "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ]),
        (ingest.parse_document_dict(dict(doc, extra=1))[1], [
            ("E_SCHEMA", "/extra", "unknown top-level key 'extra'"),
            ("E_TABLE_MISMATCH", "/categories/c",
             "inline implementable_trait_ids disagree with table rows for 'c'"),
        ]),
        (inline_mismatch, [
            ("E_TABLE_MISMATCH", "/categories/c",
             "inline implementable_trait_ids disagree with table rows for 'c'"),
        ]),
        (conflict.value.diagnostics, [
            ("E_CONFLICT", "/traits/t", "'t' is already defined with different content"),
        ]),
        (merge_mismatch.value.diagnostics, [
            ("E_TABLE_MISMATCH", "/categories/e",
             "inline implementable_trait_ids disagree with table rows for 'e'"),
        ]),
    ]
    for diags, expected in cases:
        assert triples(diags) == expected
    assert {code for _, expected in cases for code, _, _ in expected} == ingest.DIAGNOSTIC_CODES


@settings(max_examples=50, deadline=None)
@given(taxonomy_models())
def test_validation_is_permutation_insensitive(m):
    diags = validate_model(m)
    shuffled = TaxonomyModel(
        traits=tuple(random.sample(m.traits, len(m.traits))),
        categories=tuple(random.sample(m.categories, len(m.categories))),
        nodes=tuple(random.sample(m.nodes, len(m.nodes))),
        root_id=m.root_id,
        channels=tuple(random.sample(m.channels, len(m.channels))),
        tables=m.tables,
        metadata=m.metadata,
    )
    assert sorted((d.code, d.path) for d in diags) == sorted(
        (d.code, d.path) for d in validate_model(shuffled)
    )
    # idempotent
    assert validate_model(m) == diags


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def test_flat_rate_personal_income_tax(model):
    policy = instantiate_atomic_policy(
        model,
        "personal-income-tax",
        "tax-calculation-type",
        "proportional-tax",
        {"tax rate": 0.2},
    )
    assert policy.schema.subtrait_id == "proportional-tax"
    assert policy.bindings == {"tax rate": 0.2}


def test_unmarked_pair_is_not_implementable(model):
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(
            model, "personal-income-tax", "tax-base", "ad-valorem-tax",
            {"good or service": "widgets"},
        )
    assert exc.value.code == "E_NOT_IMPLEMENTABLE"


def test_categorical_trait_requires_subtrait(model):
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(model, "personal-income-tax", "tax-calculation-type")
    assert exc.value.code == "E_EXCLUSIVITY"


def test_subtrait_on_plain_trait_rejected(model):
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(
            model, "personal-income-tax", "allowance", "proportional-tax",
            {"amount": 100.0},
        )
    assert exc.value.code == "E_EXCLUSIVITY"


def test_foreign_subtrait_rejected(model):
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(
            model, "personal-income-tax", "tax-calculation-type", "period-payment", {}
        )
    assert exc.value.code == "E_EXCLUSIVITY"


def test_category_own_parameters_are_required(model):
    # Excess Profit Tax carries its own excess-amount parameter.
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(
            model, "excess-profit-tax", "tax-calculation-type", "proportional-tax",
            {"tax rate": 0.5},
        )
    assert exc.value.code == "E_BINDING"
    policy = instantiate_atomic_policy(
        model, "excess-profit-tax", "tax-calculation-type", "proportional-tax",
        {"tax rate": 0.5, "excess amount": 1_000_000},
    )
    assert policy.bindings["excess amount"] == 1_000_000


@pytest.mark.parametrize(
    "bindings",
    [
        {},  # missing
        {"tax rate": 0.2, "extra": 1},  # extra
        {"tax rate": "high"},  # ill-typed
        {"tax rate": True},  # bool is not a number
    ],
)
def test_bad_bindings_rejected(model, bindings):
    with pytest.raises(PolicyError) as exc:
        instantiate_atomic_policy(
            model, "personal-income-tax", "tax-calculation-type",
            "proportional-tax", bindings,
        )
    assert exc.value.code == "E_BINDING"


def test_ladder_bindings_checked(model):
    ok = instantiate_atomic_policy(
        model, "personal-income-tax", "tax-calculation-type", "progressive-tax",
        {"tax rate ladder": [(0, 0.1), (10000, 0.2), (50000, 0.4)]},
    )
    assert len(ok.bindings["tax rate ladder"]) == 3
    for bad in ([], [(10, 0.2), (10, 0.3)], [(50, 0.2), (10, 0.3)], "ladder"):
        with pytest.raises(PolicyError) as exc:
            instantiate_atomic_policy(
                model, "personal-income-tax", "tax-calculation-type",
                "progressive-tax", {"tax rate ladder": bad},
            )
        assert exc.value.code == "E_BINDING"


def one_schema_model(*parameters: ParameterSpec, trait_parameters=()) -> TaxonomyModel:
    """Category "c" with the given own parameters, checkmarked for trait "t"."""
    return TaxonomyModel(
        traits=(TraitDef(id="t", name="T", parameters=tuple(trait_parameters)),),
        categories=(PolicyCategory(id="c", name="C", own_parameters=parameters),),
        tables=(CheckTable("main", "Main", ("t",), (TableRow("c", ("t",)),)),),
    )


NAN = float("nan")
INF = float("inf")
HUGE = 10**400  # an int beyond the float range is still a finite number
# Each kind (and one unknown kind) with values a binding accepts and rejects.
KIND_CASES = {
    "rate": (
        [0, 1, -2, 0.2, HUGE, -1e308],
        [True, False, "0.2", "", None, [], (0.2,), NAN, INF, -INF],
    ),
    "amount": ([0, 1_000_000, 12.5, HUGE], [True, "100", None, [], {}, NAN, INF]),
    "period": (
        ["monthly", " ", 12, 0.5, HUGE],
        ["", True, False, None, [], ("monthly",), NAN, -INF],
    ),
    "condition": (["resident", " x "], ["", " ", "\t\n", 1, True, None, []]),
    "reference": (["section 12"], ["", "   ", 0, False, None, ["a"]]),
    "ladder": (
        [
            [(0, 0.1)],
            [[0, 0.1], [10, 0.2]],
            ((0, 0.1), (10.5, 0.2), (HUGE, 0.5)),
        ],
        [
            [], (), "ladder", None, 0.1,
            [(10, 0.2), (10, 0.3)],  # thresholds must rise strictly
            [(50, 0.2), (10, 0.3)],
            [(NAN, 0.1), (1, 0.2)],
            [(0, 0.1, 2)], [(0,)], [0.1], ["0 0.1"],
            [(True, 0.1)], [(0, False)], [("0", 0.1)], [(0, None)],
            ((0, 0.1), (10.5, 0.2), (50, NAN)),
            [(0, 0.1), (INF, 0.2)],
        ],
    ),
    "bounds": (
        [(0, 1), [None, 5], [0.5, None], (None, None), (1, 1), [-1, HUGE]],
        [[], [1], [None], (1, 2, 3), "0,1", None, [True, 1], [1, "2"], 1,
         (5, 1), [NAN, 1], [0, INF], (None, NAN)],
    ),
    "percent": ([], [0.2, 1, "x", [(0, 0.1)], (0, 1), None]),
}
KIND_BINDINGS = [
    pytest.param(kind, value, accepted, id=f"{kind}-{'ok' if accepted else 'bad'}-{i}")
    for kind, (good, bad) in KIND_CASES.items()
    for accepted, values in ((True, good), (False, bad))
    for i, value in enumerate(values)
]


@pytest.mark.parametrize("kind, value, accepted", KIND_BINDINGS)
def test_binding_accepts_each_kinds_values(kind, value, accepted):
    m = one_schema_model(ParameterSpec("x", kind))
    if accepted:
        assert instantiate_atomic_policy(m, "c", "t", None, {"x": value}).bindings == {"x": value}
    else:
        with pytest.raises(PolicyError) as exc:
            instantiate_atomic_policy(m, "c", "t", None, {"x": value})
        assert exc.value.code == "E_BINDING"
        assert f"parameter 'x' is not a valid {kind!r} value" in str(exc.value)


def test_same_named_parameters_each_check_the_value():
    # The category's x is a rate and the trait's x a condition: a value must
    # be both, so no value binds, and validation flags the trait's x.
    m = one_schema_model(
        ParameterSpec("x", "rate"), trait_parameters=(ParameterSpec("x", "condition"),)
    )
    assert triples(validate_model(m)) == [(
        "E_DUP_PARAM", "/traits/t/parameters/x",
        "parameter 'x' is 'condition' here but 'rate' at /categories/c/parameters/x",
    )]
    # The same kind at two levels binds one value, which passes both checks.
    same = one_schema_model(
        ParameterSpec("x", "rate"), trait_parameters=(ParameterSpec("x", "rate"),)
    )
    assert validate_model(same) == []
    assert instantiate_atomic_policy(same, "c", "t", None, {"x": 0.2}).bindings == {"x": 0.2}
    for value in ("not a rate", 0.2):
        with pytest.raises(PolicyError) as exc:
            instantiate_atomic_policy(m, "c", "t", None, {"x": value})
        assert exc.value.code == "E_BINDING"


def _kind_findings_from_all_marks(model):
    """The parameter-kind check as it read before: a mark set for every
    category, kept as the oracle of the one-walk version."""
    owners = {c.id: c for c in model.categories if c.own_parameters}
    marks = table_marks(model.tables)
    marked = set().union(*marks.values())
    for trait in model.traits:
        if trait.id in marked:
            path = f"/traits/{trait.id}"
            first = _first_kinds(trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")
    for category_id in marks.keys() & owners.keys():
        first = _first_kinds(owners[category_id].own_parameters, f"/categories/{category_id}")
        for trait in filter(None, map(model.trait, marks[category_id])):
            path = f"/traits/{trait.id}"
            yield from _kind_clashes(first, trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")


def clashing_model(rng: random.Random, n_categories: int) -> TaxonomyModel:
    """Parameters named from a pool of three with random kinds, so kinds
    clash often; categories sit in several tables, some twice, some not at
    all, and rows mark unknown traits and unknown categories."""
    def params():
        return tuple(
            ParameterSpec(rng.choice("xyz"), rng.choice(("rate", "amount", "condition")))
            for _ in range(rng.randint(0, 2))
        )

    traits = tuple(
        TraitDef(
            f"t{i}", f"T{i}", parameters=params(),
            subtraits=tuple(SubtraitDef(f"s{j}", f"S{j}", params()) for j in range(rng.randint(0, 3))),
        )
        for i in range(20)
    )
    ids = [f"c{i}" for i in range(n_categories)] + ["c0"]  # one duplicate id
    categories = tuple(
        PolicyCategory(c, c, own_parameters=params() if rng.random() < 0.3 else ())
        for c in ids
    )
    columns = tuple(t.id for t in traits) + ("ghost",)
    tables = tuple(
        CheckTable(name, name, columns, tuple(
            TableRow(c, tuple(rng.sample(columns, rng.randint(0, 4))))
            for c in rng.sample(ids + ["nobody"], n_categories // 2)
        ))
        for name in ("a", "b", "c")
    )
    return TaxonomyModel(traits=traits, categories=categories, tables=tables)


@pytest.mark.parametrize("seed", range(6))
def test_parameter_kind_findings_equal_the_per_category_mark_sets(seed):
    m = clashing_model(random.Random(seed), n_categories=40 * (seed + 1))
    expected = sorted(_kind_findings_from_all_marks(m))
    assert sorted(_validate_parameter_kinds(m)) == expected
    # The old body's own order followed set iteration; validate_model's is pinned.
    reported = [f for f in triples(validate_model(m)) if " here but " in f[2]]
    assert reported == expected
    assert any(" at /categories/" in message for _, _, message in expected)
    assert any(" at /traits/" in message for _, _, message in expected)


def test_checkmark_sweep_matches_tables(model):
    """instantiate succeeds iff the (category, trait) pair has a checkmark."""
    for category in model.categories:
        for trait in model.traits:
            sub = trait.subtraits[0].id if trait.subtraits else None
            try:
                instantiate_atomic_policy(model, category.id, trait.id, sub, {})
                ok = True
            except PolicyError as exc:
                if exc.code == "E_NOT_IMPLEMENTABLE":
                    ok = False
                else:
                    # Marked pair failing only on bindings still counts as
                    # implementable.
                    assert exc.code == "E_BINDING"
                    ok = True
            assert ok == (trait.id in model.implementable_trait_ids(category.id))


_CELLS = np.zeros((2, 2))
_SCHEMA = M.AtomicPolicySchema("c", "t")

# Every value type, with its fields in declaration order.
VALUE_RECORDS = [
    (M.Diagnostic, {"code": "E_SCHEMA", "path": "/x", "message": "m"}),
    (M.ParameterSpec, {"name": "rate", "kind": "rate"}),
    (M.SubtraitDef, {"id": "s", "name": "S", "parameters": (), "description": ""}),
    (M.TraitDef, {"id": "t", "name": "T", "parameters": (), "subtraits": (), "description": "d"}),
    (M.PolicyCategory, {
        "id": "c", "name": "C", "description": "", "own_parameters": (),
        "group_path": ("Economic Policy",), "cross_tags": frozenset({"a"}), "channel_ref": None,
    }),
    (M.TransactionChannel, {
        "id": "ch", "authority": "government", "statement_path": ("Operating Income",),
        "name": "Ch", "description": "",
    }),
    (M.TaxonomyNode, {"id": "n", "label": "N", "kind": "group", "children": ("m",),
                      "category_ref": None}),
    (M.TableRow, {"category_id": "c", "marks": ("t",)}),
    (M.CheckTable, {"name": "main", "title": "Main", "trait_columns": ("t",), "rows": ()}),
    (M.AtomicPolicySchema, {"category_id": "c", "trait_id": "t", "subtrait_id": None}),
    (M.AtomicPolicy, {"schema": _SCHEMA, "bindings": {"rate": 0.1}}),
    (EnumerationFilter, {"table": None, "group_prefix": ("Economic Policy",), "cross_tag": None,
                         "trait_id": None}),
    (ExportArtifact, {"text": "x\n"}),
    (TraitMatrix, {"row_labels": ("a", "b"), "col_labels": ("t", "u"), "cells": _CELLS}),
    (CorrelationMatrix, {"labels": ("a", "b"), "cells": _CELLS}),
    (DistanceMatrix, {"labels": ("a", "b"), "cells": _CELLS}),
    (MstResult, {"labels": ("a", "b"), "edges": ((0, 1, 1.5),)}),
]


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields", VALUE_RECORDS, ids=[c.__name__ for c, _ in VALUE_RECORDS])
def test_value_records_are_immutable_values(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin
    for name, value in fields.items():
        assert getattr(record, name) is value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    # A record hashes when its fields do, and equal records hash equal.
    if all(map(_hashable, fields.values())):
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    if cls is M.Diagnostic:
        shuffled = [cls("b", "a", "a"), cls("a", "b", "a"), cls("a", "a", "b"), cls("a", "a", "a")]
        in_order = sorted(shuffled, key=lambda d: (d.code, d.path, d.message))
        assert sorted(shuffled) == in_order == [shuffled[3], shuffled[2], shuffled[1], shuffled[0]]


def test_model_copies_with_replace_and_compares_field_wise():
    model = TaxonomyModel([TraitDef("t", "T")], [PolicyCategory("c", "C")], metadata={"v": 1})
    values = tuple(getattr(model, name) for name in TaxonomyModel._fields)
    assert list(inspect.signature(TaxonomyModel).parameters) == list(TaxonomyModel._fields)
    assert TaxonomyModel(*values) == model
    assert repr(TaxonomyModel()) == (
        "TaxonomyModel(traits=(), categories=(), nodes=(), root_id=None, channels=(), "
        "tables=(), metadata={})"
    )
    # _replace builds a new model with its own indexes and leaves the original as it was.
    copy = model._replace(traits=[TraitDef("u", "U")])
    assert copy.traits == (TraitDef("u", "U"),) and copy.trait("u") == TraitDef("u", "U")
    assert copy.trait("t") is None and copy.category("c") == PolicyCategory("c", "C")
    assert model.traits == (TraitDef("t", "T"),) and model.trait("u") is None
    assert model._replace() == model and model._replace() is not model
    with pytest.raises(TypeError):
        model._replace(trait=())
    with pytest.raises(TypeError):
        hash(model)

    class Subclass(TaxonomyModel):
        pass

    for other in (values, list(values), Subclass(*values), SimpleNamespace(**vars(model))):
        assert model != other and other != model
