"""Enumerate atomic-policy schemas from checkmark tables and query the tree.

Every checkmark is one implementable (category, trait) pair, and a
category's marks over all tables are TaxonomyModel.implementable_trait_ids.
Order is deterministic: table order, then row order, then trait-column
order, and subtrait expansion follows subtrait definition order. Listing
and counting read one walk, so a filtered count is the length of the list.
enumerate_schemas pauses the cyclic garbage collector while it builds the
list, as ingest's bulk builders do; the pause is process-wide.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Optional, Union

from .model import (
    AtomicPolicySchema,
    PolicyCategory,
    PolicyError,
    TaxonomyModel,
    TaxonomyNode,
    _collection_paused,
    iter_tree,  # re-exported: perfbench times the walk as enumeration.iter_tree
)


class EnumerationFilter(NamedTuple):
    table: Optional[str] = None
    group_prefix: Optional[tuple[str, ...]] = None
    cross_tag: Optional[str] = None
    trait_id: Optional[str] = None


def _resolve_filter(model: TaxonomyModel, flt: EnumerationFilter) -> None:
    if flt.table is not None and model.table(flt.table) is None:
        raise PolicyError("E_BAD_FILTER", f"unknown table {flt.table!r}")
    if flt.trait_id is not None and model.trait(flt.trait_id) is None:
        raise PolicyError("E_BAD_FILTER", f"unknown trait {flt.trait_id!r}")
    if flt.cross_tag is not None:
        tags = set().union(*(c.cross_tags for c in model.categories))
        if flt.cross_tag not in tags:
            raise PolicyError("E_BAD_FILTER", f"unknown cross tag {flt.cross_tag!r}")
    if flt.group_prefix is not None:
        prefixes = {
            c.group_path[: len(flt.group_prefix)] for c in model.categories
        }
        if tuple(flt.group_prefix) not in prefixes:
            raise PolicyError(
                "E_BAD_FILTER", f"no category under group prefix {flt.group_prefix!r}"
            )


_GROUP_FIELD = {"table": 0, "category": 1, "trait": 2}  # index into a _checkmarks tuple


def _checkmarks(
    model: TaxonomyModel, flt: Optional[EnumerationFilter], expand_subtraits: bool
) -> Iterator[tuple[str, str, str, Optional[str]]]:
    """Resolve the filter, then yield (table name, category id, trait id,
    subtrait id or None) for each checkmark that survives it, in document
    order; with expand_subtraits, one per subtrait of its trait."""
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


@_collection_paused()
def enumerate_schemas(
    model: TaxonomyModel,
    flt: Optional[EnumerationFilter] = None,
    expand_subtraits: bool = False,
) -> list[AtomicPolicySchema]:
    """One schema per surviving checkmark, in document order.

    With expand_subtraits, a checkmark whose trait has k subtraits yields
    k schemas (one per subtrait); otherwise one schema per checkmark.
    """
    marks = _checkmarks(model, flt, expand_subtraits)
    return [AtomicPolicySchema(category, trait, sub) for _, category, trait, sub in marks]


def count_checkmarks(
    model: TaxonomyModel,
    by: str = "table",
    flt: Optional[EnumerationFilter] = None,
    expand_subtraits: bool = False,
) -> dict[str, int]:
    """The schemas enumerate_schemas returns for the same filter and
    expansion, counted by table, category, or trait."""
    if by not in _GROUP_FIELD:
        raise PolicyError("E_BAD_FILTER", f"cannot group by {by!r}")
    group = _GROUP_FIELD[by]
    return Counter(mark[group] for mark in _checkmarks(model, flt, expand_subtraits))


def lookup(
    model: TaxonomyModel, name_or_id: str
) -> Union[PolicyCategory, TaxonomyNode]:
    """Find a category or tree node by exact id, name, or name prefix.

    Exact-id match wins; then case-insensitive exact name; then
    case-insensitive name prefix. Several matches raise E_AMBIGUOUS.
    """
    category = model.category(name_or_id)
    if category is not None:
        return category
    node = model.node(name_or_id)
    if node is not None:
        return node

    needle = name_or_id.strip().lower()
    named: list[tuple[str, Union[PolicyCategory, TaxonomyNode]]] = [
        (c.name, c) for c in model.categories
    ] + [(n.label, n) for n in model.nodes if n.category_ref is None]

    exact = [item for name, item in named if name.lower() == needle]
    if len(exact) == 1:
        return exact[0]
    if len(exact) > 1:
        raise PolicyError("E_AMBIGUOUS", f"{name_or_id!r} names several elements")

    prefixed = [item for name, item in named if name.lower().startswith(needle)]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        raise PolicyError(
            "E_AMBIGUOUS", f"{name_or_id!r} is a prefix of several names"
        )
    raise PolicyError("E_NOT_FOUND", f"no category or node matches {name_or_id!r}")


__all__ = [
    "EnumerationFilter",
    "enumerate_schemas",
    "count_checkmarks",
    "iter_tree",
    "lookup",
]
