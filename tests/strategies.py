"""Hypothesis strategies that generate small valid taxonomy models."""
from hypothesis import strategies as st

from polytax.model import (
    CheckTable,
    ParameterSpec,
    PolicyCategory,
    SubtraitDef,
    TableRow,
    TaxonomyModel,
    TaxonomyNode,
    TraitDef,
    TransactionChannel,
    ROOT_GROUP,
)

KINDS = ["rate", "amount", "ladder", "period", "condition", "reference", "bounds"]


@st.composite
def parameter_lists(draw, prefix):
    count = draw(st.integers(0, 2))
    return tuple(
        ParameterSpec(name=f"{prefix}p{i}", kind=draw(st.sampled_from(KINDS)))
        for i in range(count)
    )


@st.composite
def trait_defs(draw, index):
    tid = f"trait-{index}"
    n_subs = draw(st.integers(0, 3))
    if n_subs:
        subtraits = tuple(
            SubtraitDef(
                id=f"{tid}-sub-{j}",
                name=f"Trait {index} option {j}",
                parameters=draw(parameter_lists(f"s{j}")),
            )
            for j in range(n_subs)
        )
        return TraitDef(id=tid, name=f"Trait {index}", subtraits=subtraits)
    return TraitDef(
        id=tid, name=f"Trait {index}", parameters=draw(parameter_lists("t"))
    )


@st.composite
def taxonomy_models(draw):
    n_traits = draw(st.integers(1, 4))
    traits = tuple(draw(trait_defs(i)) for i in range(n_traits))
    trait_ids = [t.id for t in traits]

    n_cats = draw(st.integers(1, 5))
    rows = []
    categories = []
    for i in range(n_cats):
        marks = tuple(
            t for t in trait_ids if draw(st.booleans())
        )
        categories.append(
            PolicyCategory(
                id=f"cat-{i}",
                name=f"Category {i}",
                own_parameters=draw(parameter_lists(f"c{i}")),
                group_path=(ROOT_GROUP, draw(st.sampled_from(["Left", "Right"]))),
                cross_tags=frozenset(
                    tag for tag in ("alpha", "beta") if draw(st.booleans())
                ),
            )
        )
        rows.append(TableRow(category_id=f"cat-{i}", marks=marks))

    tables = (
        CheckTable(
            name="main",
            title="Main",
            trait_columns=tuple(trait_ids),
            rows=tuple(rows),
        ),
    )

    leaf_nodes = tuple(
        TaxonomyNode(
            id=f"leaf-{c.id}",
            label=c.name,
            kind="category",
            category_ref=c.id,
        )
        for c in categories
    )
    root = TaxonomyNode(
        id="root",
        label=ROOT_GROUP,
        kind="group",
        children=tuple(n.id for n in leaf_nodes),
    )

    channels = ()
    if draw(st.booleans()):
        channels = (
            TransactionChannel(
                id="ch-0",
                authority=draw(st.sampled_from(["government", "monetary-authority"])),
                statement_path=("Operating Income", "Revenue"),
                name="Channel 0",
            ),
        )

    return TaxonomyModel(
        traits=traits,
        categories=tuple(categories),
        nodes=leaf_nodes + (root,),
        root_id="root",
        channels=channels,
        tables=tables,
        metadata={"version": "test"},
    )
