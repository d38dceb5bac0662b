"""Enumerate atomic-policy schemas from checkmark tables and query the tree.

Every checkmark is one implementable (category, trait) pair. Order is
deterministic: table order, then row order, then trait-column order, and
subtrait expansion follows subtrait definition order. Listing and counting
read one walk, so a filtered count is the length of the list. The walk
yields one item per table row, with the set of its marks and its table's
columns; each trait's (trait, subtrait) pairs are resolved once per call,
and a count by table or category sums a row's schema weights without a
list. lookup compares names in place and allocates only its matches.
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


def _resolve_filter(model: TaxonomyModel, flt: EnumerationFilter) -> Optional[tuple[str, ...]]:
    """E_BAD_FILTER for a value that matches nothing, else the group prefix as a tuple or None."""
    if flt.table is not None and flt.table not in model._table_by_name:
        raise PolicyError("E_BAD_FILTER", f"unknown table {flt.table!r}")
    if flt.trait_id is not None and flt.trait_id not in model._trait_by_id:
        raise PolicyError("E_BAD_FILTER", f"unknown trait {flt.trait_id!r}")
    categories = model.categories
    if flt.cross_tag is not None and not any(flt.cross_tag in c.cross_tags for c in categories):
        raise PolicyError("E_BAD_FILTER", f"unknown cross tag {flt.cross_tag!r}")
    prefix = None if flt.group_prefix is None else tuple(flt.group_prefix)
    if prefix is not None and not any(c.group_path[: len(prefix)] == prefix for c in categories):
        message = f"no category under group prefix {flt.group_prefix!r}"
        raise PolicyError("E_BAD_FILTER", message)
    return prefix


def _rows(
    model: TaxonomyModel, flt: Optional[EnumerationFilter], expand_subtraits: bool
) -> Iterator[tuple[str, str, set[str], list[tuple[str, tuple]], Counter[str]]]:
    """Resolve the filter, then yield (table name, category id, marks,
    columns, weights) for each row that survives it, in document order.
    marks is the set of the row's marks. columns and weights are built
    once per table: columns holds, for each surviving column in order, its
    trait id and the (trait id, subtrait id or None) pair of each schema a
    checkmark there gives (with expand_subtraits, one per subtrait of the
    trait's last definition); weights holds each trait id's number of
    schemas over those columns, a repeated column counting each time."""
    flt = flt or EnumerationFilter()
    prefix = _resolve_filter(model, flt)
    expansions = {}
    if expand_subtraits:
        expansions = {t.id: tuple((t.id, sub.id) for sub in t.subtraits) for t in model.traits}
    categories = model._category_by_id
    for table in model.tables:
        if flt.table is not None and table.name != flt.table:
            continue
        columns = [(trait_id, expansions.get(trait_id) or ((trait_id, None),))
                   for trait_id in table.trait_columns
                   if flt.trait_id is None or trait_id == flt.trait_id]
        weights: Counter[str] = Counter()
        for trait_id, pairs in columns:
            weights[trait_id] += len(pairs)
        for row in table.rows:
            category = categories.get(row.category_id)
            if category is None:
                continue
            if flt.cross_tag is not None and flt.cross_tag not in category.cross_tags:
                continue
            if prefix is not None and category.group_path[: len(prefix)] != prefix:
                continue
            yield table.name, row.category_id, set(row.marks), columns, weights


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
    # tuple.__new__ skips the Python-level __new__ that AtomicPolicySchema(...)
    # runs per schema: a third of an expanded enumeration's time.
    new = tuple.__new__
    return [new(AtomicPolicySchema, (category, trait, sub))
            for _, category, marks, columns, _ in _rows(model, flt, expand_subtraits)
            for trait_id, pairs in columns if trait_id in marks
            for trait, sub in pairs]


def count_checkmarks(
    model: TaxonomyModel,
    by: str = "table",
    flt: Optional[EnumerationFilter] = None,
    expand_subtraits: bool = False,
) -> dict[str, int]:
    """The schemas enumerate_schemas returns for the same filter and
    expansion, counted by table, category, or trait."""
    if by not in ("table", "category", "trait"):
        raise PolicyError("E_BAD_FILTER", f"cannot group by {by!r}")
    rows = _rows(model, flt, expand_subtraits)
    if by == "trait":  # in column order, as enumerate_schemas lists them
        return Counter(trait for _, _, marks, columns, _ in rows
                       for trait_id, pairs in columns if trait_id in marks
                       for trait, _ in pairs)
    key = 0 if by == "table" else 1
    counts: Counter[str] = Counter()
    for row in rows:
        marks, weights = row[2], row[4]
        schemas = sum(map(weights.__getitem__, marks))  # a Counter: 0 off the columns
        if schemas:
            counts[row[key]] += schemas
    return counts


def lookup(
    model: TaxonomyModel, name_or_id: str
) -> Union[PolicyCategory, TaxonomyNode]:
    """Find a category or tree node by exact id, name, or name prefix.

    Exact-id match wins; then case-insensitive exact name; then
    case-insensitive name prefix. Several matches raise E_AMBIGUOUS.
    """
    category = model._category_by_id.get(name_or_id)
    if category is not None:
        return category
    node = model._node_by_id.get(name_or_id)
    if node is not None:
        return node

    # Exact names, then name prefixes: each pass compares the categories'
    # names, then the group nodes' labels (nodes without a category_ref), in place.
    needle = name_or_id.strip().lower()
    for matches, several in ((str.__eq__, "names several elements"),
                             (str.startswith, "is a prefix of several names")):
        found = [c for c in model.categories if matches(c.name.lower(), needle)]
        found += [n for n in model.nodes
                  if n.category_ref is None and matches(n.label.lower(), needle)]
        if len(found) == 1:
            return found[0]
        if found:
            raise PolicyError("E_AMBIGUOUS", f"{name_or_id!r} {several}")
    raise PolicyError("E_NOT_FOUND", f"no category or node matches {name_or_id!r}")


__all__ = [
    "EnumerationFilter",
    "enumerate_schemas",
    "count_checkmarks",
    "iter_tree",
    "lookup",
]
