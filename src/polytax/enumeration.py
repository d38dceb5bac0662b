"""Enumerate atomic-policy schemas from checkmark tables and query the tree.

Every checkmark is one implementable (category, trait) pair. Order is
deterministic: table order, then row order, then trait-column order, and
subtrait expansion follows subtrait definition order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .model import (
    AtomicPolicySchema,
    PolicyCategory,
    PolicyError,
    TaxonomyModel,
    TaxonomyNode,
)


@dataclass(frozen=True)
class EnumerationFilter:
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


def _row_passes(category: PolicyCategory, flt: EnumerationFilter) -> bool:
    if flt.cross_tag is not None and flt.cross_tag not in category.cross_tags:
        return False
    if flt.group_prefix is not None:
        prefix = tuple(flt.group_prefix)
        if category.group_path[: len(prefix)] != prefix:
            return False
    return True


def enumerate_schemas(
    model: TaxonomyModel,
    flt: Optional[EnumerationFilter] = None,
    expand_subtraits: bool = False,
) -> list[AtomicPolicySchema]:
    """One schema per surviving checkmark, in document order.

    With expand_subtraits, a checkmark whose trait has k subtraits yields
    k schemas (one per subtrait); otherwise one schema per checkmark.
    """
    flt = flt or EnumerationFilter()
    _resolve_filter(model, flt)
    out: list[AtomicPolicySchema] = []
    for table in model.tables:
        if flt.table is not None and table.name != flt.table:
            continue
        for row in table.rows:
            category = model.category(row.category_id)
            if category is None or not _row_passes(category, flt):
                continue
            for trait_id in table.trait_columns:
                if trait_id not in row.marks:
                    continue
                if flt.trait_id is not None and trait_id != flt.trait_id:
                    continue
                trait = model.trait(trait_id)
                if expand_subtraits and trait is not None and trait.subtraits:
                    for sub in trait.subtraits:
                        out.append(
                            AtomicPolicySchema(row.category_id, trait_id, sub.id)
                        )
                else:
                    out.append(AtomicPolicySchema(row.category_id, trait_id))
    return out


def count_checkmarks(model: TaxonomyModel, by: str = "table") -> dict[str, int]:
    """Checkmark counts grouped by table, category, or trait."""
    if by not in ("table", "category", "trait"):
        raise PolicyError("E_BAD_FILTER", f"cannot group by {by!r}")
    counts: dict[str, int] = {}
    for table in model.tables:
        for row in table.rows:
            marks = [m for m in table.trait_columns if m in row.marks]
            if by == "table":
                counts[table.name] = counts.get(table.name, 0) + len(marks)
            elif by == "category":
                counts[row.category_id] = counts.get(row.category_id, 0) + len(marks)
            else:
                for mark in marks:
                    counts[mark] = counts.get(mark, 0) + 1
    return counts


def build_tree(model: TaxonomyModel) -> TaxonomyNode:
    """Return the taxonomy root node."""
    root = model.tree
    if root is None:
        raise PolicyError("E_NOT_FOUND", "model has no taxonomy tree")
    return root


def iter_tree(model: TaxonomyModel):
    """Depth-first (node, depth) traversal in child order, with an explicit
    stack; each node id is visited once, so a cyclic model cannot loop."""
    seen = set()
    stack = [(build_tree(model), 0)]
    while stack:
        node, depth = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            yield node, depth
            children = (model.node(c) for c in reversed(node.children))
            stack.extend((child, depth + 1) for child in children if child is not None)


def tree_leaf_category_ids(model: TaxonomyModel) -> list[str]:
    return [
        node.category_ref
        for node, _ in iter_tree(model)
        if node.category_ref is not None
    ]


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
    "build_tree",
    "iter_tree",
    "tree_leaf_category_ids",
    "lookup",
]
