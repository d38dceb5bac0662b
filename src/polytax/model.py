"""Core domain types, constraint validation, and atomic-policy instantiation.

The model is a set of trait definitions, policy categories, transaction
channels, checkmark tables and a taxonomy tree. The tables alone say which
traits a category implements; table_marks, the one trait-set builder,
builds the view TaxonomyModel.implementable_trait_ids reads on first use.
The value types are immutable named tuples; TaxonomyModel indexes them by
id, is treated as immutable and copies as they do, with _replace.
Validation never raises; it returns diagnostics. A Diagnostic is a code, a
JSON path and a message; every diagnostic is an error, and lists of them
sort by those three fields. A model's sorted diagnostics are computed on
the first validate_model call and kept on it, as the trait-set view is; a
_replace copy starts without them. One routine, _findings, checks a whole
model, or only what a merge appended to a clean base, with the findings a
whole validation would give.
"""
from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


def _number(value: Any) -> bool:
    """A finite number, not a bool; an int is finite (isfinite overflows on big ints)."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _text(value: Any) -> bool:
    return isinstance(value, str) and bool(value.strip())


def _ladder(value: Any) -> bool:
    """Non-empty (threshold, rate) number pairs with strictly rising thresholds."""
    return (
        isinstance(value, (list, tuple)) and len(value) > 0
        and all(isinstance(b, (list, tuple)) and len(b) == 2 and all(map(_number, b))
                for b in value)
        and all(a[0] < b[0] for a, b in zip(value, value[1:]))
    )


# Each parameter kind and the check a value bound to it must pass.
_BINDING_CHECKS = {
    "rate": _number,
    "amount": _number,
    "ladder": _ladder,
    "period": lambda v: _number(v) or (isinstance(v, str) and v != ""),
    "condition": _text,
    "reference": _text,
    "bounds": lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 2
        and all(x is None or _number(x) for x in v)
        and (None in v or v[0] <= v[1])
    ),
}

PARAMETER_KINDS = frozenset(_BINDING_CHECKS)

NODE_KINDS = frozenset({"group", "category", "standalone-policy"})

AUTHORITIES = frozenset({"government", "monetary-authority"})

# How a trait matrix treats categories that implement no traits.
NULL_MODES = ("include", "collapse", "exclude")

STATEMENT_SECTIONS = frozenset(
    {"Operating Income", "Non-Operating Income", "Irregular Items"}
)

ROOT_GROUP = "Economic Policy"


class PolicyError(Exception):
    """Raised by operations that reject bad input (codes are stable)."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


class Diagnostic(NamedTuple):
    """One finding, and always an error: a stable code, the JSON path it is
    at, and a message. Diagnostics sort by these three fields in turn."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.message}"


class ParameterSpec(NamedTuple):
    name: str
    kind: str


class SubtraitDef(NamedTuple):
    id: str
    name: str
    parameters: tuple[ParameterSpec, ...] = ()
    description: str = ""


class TraitDef(NamedTuple):
    id: str
    name: str
    parameters: tuple[ParameterSpec, ...] = ()
    subtraits: tuple[SubtraitDef, ...] = ()
    description: str = ""

    def subtrait(self, subtrait_id: str) -> Optional[SubtraitDef]:
        for sub in self.subtraits:
            if sub.id == subtrait_id:
                return sub
        return None


class PolicyCategory(NamedTuple):
    id: str
    name: str
    description: str = ""
    own_parameters: tuple[ParameterSpec, ...] = ()
    group_path: tuple[str, ...] = (ROOT_GROUP,)
    cross_tags: frozenset[str] = frozenset()
    channel_ref: Optional[str] = None


class TransactionChannel(NamedTuple):
    id: str
    authority: str
    statement_path: tuple[str, ...]
    name: str
    description: str = ""


class TaxonomyNode(NamedTuple):
    id: str
    label: str
    kind: str
    children: tuple[str, ...] = ()
    category_ref: Optional[str] = None


class TableRow(NamedTuple):
    category_id: str
    marks: tuple[str, ...]


class CheckTable(NamedTuple):
    """One appendix-style table: rows are categories, columns are traits."""

    name: str
    title: str
    trait_columns: tuple[str, ...]
    rows: tuple[TableRow, ...]


class AtomicPolicySchema(NamedTuple):
    category_id: str
    trait_id: str
    subtrait_id: Optional[str] = None


class AtomicPolicy(NamedTuple):
    schema: AtomicPolicySchema
    bindings: Mapping[str, Any]


class TaxonomyModel:
    """The whole dataset. Treat as immutable once constructed; copy it with
    _replace. Models are equal when their fields are, and do not hash."""

    _fields = ("traits", "categories", "nodes", "root_id", "channels", "tables", "metadata")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, traits: Iterable[TraitDef] = (), categories: Iterable[PolicyCategory] = (),
                 nodes: Iterable[TaxonomyNode] = (), root_id: Optional[str] = None,
                 channels: Iterable[TransactionChannel] = (), tables: Iterable[CheckTable] = (),
                 metadata: Optional[dict] = None):
        self.traits = tuple(traits)
        self.categories = tuple(categories)
        self.nodes = tuple(nodes)
        self.root_id = root_id
        self.channels = tuple(channels)
        self.tables = tuple(tables)
        self.metadata = {} if metadata is None else metadata
        self._trait_by_id = {t.id: t for t in self.traits}
        self._category_by_id = {c.id: c for c in self.categories}
        self._node_by_id = {n.id: n for n in self.nodes}
        self._channel_by_id = {ch.id: ch for ch in self.channels}
        self._table_by_name = {t.name: t for t in self.tables}

    def _replace(self, **changes: Any) -> TaxonomyModel:
        """A new model with the given fields changed and its indexes rebuilt."""
        fields = {name: getattr(self, name) for name in self._fields}
        return self.__class__(**{**fields, **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    # -- lookups ---------------------------------------------------------

    def trait(self, trait_id: str) -> Optional[TraitDef]:
        return self._trait_by_id.get(trait_id)

    def category(self, category_id: str) -> Optional[PolicyCategory]:
        return self._category_by_id.get(category_id)

    def node(self, node_id: str) -> Optional[TaxonomyNode]:
        return self._node_by_id.get(node_id)

    def table(self, name: str) -> Optional[CheckTable]:
        return self._table_by_name.get(name)

    @cached_property
    def _marks_by_category(self) -> dict[str, frozenset[str]]:
        # Built on first use: parsing, validation, merge and serialization
        # never read it.
        return table_marks(self.tables)

    @cached_property
    def _diagnostics(self) -> list[Diagnostic]:
        # validate_model's sorted findings, computed on its first call. A
        # _replace copy starts without them; _fields, __eq__ and __repr__
        # never read them.
        return sorted(_findings(self))

    def implementable_trait_ids(self, category_id: str) -> frozenset[str]:
        """The trait ids marked for the category over all tables' rows."""
        return self._marks_by_category.get(category_id, frozenset())

    @property
    def tree(self) -> Optional[TaxonomyNode]:
        if self.root_id is None:
            return None
        return self._node_by_id.get(self.root_id)


def iter_tree(model: TaxonomyModel) -> Iterator[tuple[TaxonomyNode, int]]:
    """Depth-first (node, depth) traversal in child order, with an explicit
    stack; each node id is visited once, so a cyclic model cannot loop. A
    model without a tree raises PolicyError (E_NOT_FOUND) on the first next()."""
    root = model.tree
    if root is None:
        raise PolicyError("E_NOT_FOUND", "model has no taxonomy tree")
    node_by_id = model._node_by_id.get
    seen = set()
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            yield node, depth
            # A plain loop: chained generator expressions took twice as long.
            for child_id in reversed(node.children):
                child = node_by_id(child_id)
                if child is not None:
                    stack.append((child, depth + 1))


@contextmanager
def _collection_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector switched off, then
    switch it back on; if it is already off, do nothing, so a nested pause
    is a no-op. The bulk builders of ingest and enumeration, and
    table_marks, run under it: the records, lists, sets and dicts they
    build hold no reference cycles, so a collection during the build frees
    nothing, yet each full one traverses every object alive.

    The switch is process-wide. While a pause runs, no thread gets a
    cyclic collection, and a thread that disables the collector during
    another thread's pause has it switched back on when that pause ends.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@_collection_paused()
def table_marks(tables: Iterable[CheckTable]) -> dict[str, frozenset[str]]:
    """Each category's checkmarked trait ids over the rows of all tables: a
    frozenset per row, and a union only for a category with several rows."""
    marks: dict[str, frozenset[str]] = {}
    for table in tables:
        for category_id, row_marks in table.rows:
            have = marks.get(category_id)
            marks[category_id] = frozenset(row_marks) if have is None else have.union(row_marks)
    return marks


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# The checks below read the model's by-id indexes directly, and format a
# JSON path only for a finding they yield: on a clean model they build no
# string per record.

def _check_parameters(params: Iterable[ParameterSpec], path: str) -> Iterator[Diagnostic]:
    seen = set()
    for p in params:
        if p.kind not in PARAMETER_KINDS:
            message = f"unknown parameter kind {p.kind!r}"
            yield Diagnostic("E_BAD_KIND", f"{path}/parameters/{p.name}", message)
        if p.name in seen:
            message = f"duplicate parameter name {p.name!r}"
            yield Diagnostic("E_DUP_PARAM", f"{path}/parameters/{p.name}", message)
        seen.add(p.name)


def _check_unique_ids(items, path_prefix: str) -> Iterator[Diagnostic]:
    """E_DUP_ID for each item whose id repeats an earlier one's."""
    seen = set()
    for item in items:
        if item.id in seen:
            yield Diagnostic("E_DUP_ID", f"{path_prefix}/{item.id}", f"duplicate id {item.id!r}")
        seen.add(item.id)


def _check_traits(traits: Sequence[TraitDef]) -> Iterator[Diagnostic]:
    yield from _check_unique_ids(traits, "/traits")
    for trait in traits:
        if trait.parameters:
            yield from _check_parameters(trait.parameters, f"/traits/{trait.id}")
        if trait.subtraits:
            path = f"/traits/{trait.id}/subtraits"
            yield from _check_unique_ids(trait.subtraits, path)
            for sub in trait.subtraits:
                if sub.parameters:
                    yield from _check_parameters(sub.parameters, f"{path}/{sub.id}")


def _check_categories(
    model: TaxonomyModel, categories: Sequence[PolicyCategory]
) -> Iterator[Diagnostic]:
    yield from _check_unique_ids(categories, "/categories")
    channels = model._channel_by_id
    for category in categories:
        if category.own_parameters:
            yield from _check_parameters(category.own_parameters, f"/categories/{category.id}")
        if not category.group_path or category.group_path[0] != ROOT_GROUP:
            message = f"group_path must start at {ROOT_GROUP!r}"
            yield Diagnostic("E_BAD_GROUP_PATH", f"/categories/{category.id}", message)
        if category.channel_ref is not None and category.channel_ref not in channels:
            message = f"channel_ref {category.channel_ref!r} does not resolve"
            yield Diagnostic("E_UNKNOWN_CHANNEL", f"/categories/{category.id}", message)


def _check_channels(channels: Sequence[TransactionChannel]) -> Iterator[Diagnostic]:
    yield from _check_unique_ids(channels, "/channels")
    for channel in channels:
        if channel.authority not in AUTHORITIES:
            message = f"unknown authority {channel.authority!r}"
            yield Diagnostic("E_BAD_KIND", f"/channels/{channel.id}", message)
        if not channel.statement_path or channel.statement_path[0] not in STATEMENT_SECTIONS:
            yield Diagnostic(
                "E_BAD_STATEMENT_PATH", f"/channels/{channel.id}",
                "statement_path must start with an income-statement section",
            )


def _validate_tree(model: TaxonomyModel) -> Iterator[Diagnostic]:
    nodes, root_id = model._node_by_id, model.root_id
    if root_id is None:
        if model.nodes:
            yield Diagnostic("E_NOT_A_TREE", "/tree", "nodes without a root")
        return
    if root_id not in nodes:
        message = f"root id {root_id!r} does not resolve"
        yield Diagnostic("E_DANGLING_NODE_REF", "/tree", message)
        return

    has_parent: set[str] = set()
    for node in model.nodes:
        for child_id in node.children:
            if child_id not in nodes:
                yield Diagnostic(
                    "E_DANGLING_NODE_REF", f"/tree/{node.id}",
                    f"child id {child_id!r} does not resolve",
                )
            elif child_id in has_parent or child_id == root_id:
                yield Diagnostic(
                    "E_NOT_A_TREE", f"/tree/{child_id}",
                    f"node {child_id!r} has more than one parent",
                )
            else:
                has_parent.add(child_id)

    # Reachability from the root, over the ids iter_tree visits; cycles
    # leave nodes unreachable or are flagged above as repeated parents.
    reachable = {root_id}
    stack = [root_id]
    while stack:
        for child_id in nodes[stack.pop()].children:
            if child_id not in reachable and child_id in nodes:
                reachable.add(child_id)
                stack.append(child_id)
    if len(reachable) < len(nodes):
        for node in model.nodes:
            if node.id not in reachable:
                yield Diagnostic(
                    "E_NOT_A_TREE", f"/tree/{node.id}",
                    f"node {node.id!r} is not reachable from the root",
                )

    categories = model._category_by_id
    for node in model.nodes:
        if node.kind == "category":
            if node.category_ref is None or node.category_ref not in categories:
                yield Diagnostic(
                    "E_UNKNOWN_CATEGORY", f"/tree/{node.id}",
                    f"category node {node.id!r} has no resolvable category_ref",
                )
            if node.children:
                message = f"category node {node.id!r} must not have children"
                yield Diagnostic("E_BAD_LEAF", f"/tree/{node.id}", message)
            continue
        if node.kind not in NODE_KINDS:
            message = f"unknown node kind {node.kind!r}"
            yield Diagnostic("E_BAD_KIND", f"/tree/{node.id}", message)
        if node.category_ref is not None and node.category_ref not in categories:
            message = f"node {node.id!r} references unknown category"
            yield Diagnostic("E_UNKNOWN_CATEGORY", f"/tree/{node.id}", message)


def _check_table_names(tables: Iterable[CheckTable]) -> Iterator[Diagnostic]:
    seen = set()
    for table in tables:
        if table.name in seen:
            yield Diagnostic("E_DUP_ID", f"/tables/{table.name}", f"duplicate table {table.name!r}")
        seen.add(table.name)


def _check_table(model: TaxonomyModel, table: CheckTable) -> Iterator[Diagnostic]:
    traits, categories = model._trait_by_id, model._category_by_id
    path = f"/tables/{table.name}"
    seen_columns = set()
    for trait_id in table.trait_columns:
        if trait_id in seen_columns:
            message = f"duplicate column {trait_id!r}"
            yield Diagnostic("E_DUP_ID", f"{path}/columns/{trait_id}", message)
        seen_columns.add(trait_id)
        if trait_id not in traits:
            yield Diagnostic(
                "E_UNKNOWN_TRAIT", f"{path}/columns/{trait_id}",
                f"table column {trait_id!r} is not a trait",
            )
    seen_rows = set()
    for row in table.rows:
        category_id = row.category_id
        if category_id in seen_rows:
            message = f"duplicate row {category_id!r}"
            yield Diagnostic("E_DUP_ID", f"{path}/rows/{category_id}", message)
        seen_rows.add(category_id)
        if category_id not in categories:
            yield Diagnostic(
                "E_UNKNOWN_CATEGORY", f"{path}/rows/{category_id}",
                f"row references unknown category {category_id!r}",
            )
        if not seen_columns.issuperset(row.marks):
            for mark in row.marks:
                if mark not in seen_columns:
                    yield Diagnostic(
                        "E_BAD_MARK", f"{path}/rows/{category_id}",
                        f"mark {mark!r} is not a column of table {table.name!r}",
                    )


def _first_kinds(params: Iterable[ParameterSpec], path: str) -> dict[str, tuple[str, str]]:
    """Each parameter name's first kind and the path it is declared at."""
    first: dict[str, tuple[str, str]] = {}
    for p in params:
        first.setdefault(p.name, (p.kind, f"{path}/parameters/{p.name}"))
    return first


def _kind_clashes(
    earlier: dict[str, tuple[str, str]], params: Iterable[ParameterSpec], path: str
) -> Iterator[Diagnostic]:
    for p in params:
        kind, at = earlier.get(p.name, (p.kind, ""))
        if kind != p.kind:
            yield Diagnostic(
                "E_DUP_PARAM", f"{path}/parameters/{p.name}",
                f"parameter {p.name!r} is {p.kind!r} here but {kind!r} at {at}",
            )


def _validate_parameter_kinds(
    model: TaxonomyModel, tables: Iterable[CheckTable]
) -> Iterator[Diagnostic]:
    """A name that a category, a trait marked for it or one of that trait's
    subtraits declare with different kinds can bind no value; the later
    declaration is flagged. Checks each trait marked in the tables, and
    each owner (a category with own parameters, its last such definition)
    over its marks there. Reads the table marks, not the trait-set view, in
    one walk that builds a set only for the owners: a set per category cost
    most of a 10,000-category check."""
    owners = {c.id: c for c in model.categories if c.own_parameters}
    marked: set[str] = set()
    owned_marks: dict[str, set[str]] = {}
    for table in tables:
        for row in table.rows:
            marked.update(row.marks)
            if row.category_id in owners:
                owned_marks.setdefault(row.category_id, set()).update(row.marks)

    for trait in model.traits:
        if trait.subtraits and trait.id in marked:
            path = f"/traits/{trait.id}"
            first = _first_kinds(trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")

    for category_id, marks in owned_marks.items():
        first = _first_kinds(owners[category_id].own_parameters, f"/categories/{category_id}")
        for trait in filter(None, map(model._trait_by_id.get, marks)):
            path = f"/traits/{trait.id}"
            yield from _kind_clashes(first, trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")


def _findings(model: TaxonomyModel, base: Optional[TaxonomyModel] = None) -> Iterator[Diagnostic]:
    """The findings of validate_model(model), in some order. With no base,
    the whole model is checked. Given a clean base that the model extends
    as merge_extension builds it, only what the model adds is checked: the
    base's traits, categories and channels come first, and a merge drops
    each incoming record with a base id; the tree is the base's; each base
    table is kept (the same object) or replaced at its index, and new
    tables are appended.
    The tree and the kept tables reference only base ids, which resolve as
    they did, and an owner's marks in a kept table are base marks, whose
    clashes the clean base rules out."""
    start = TaxonomyModel() if base is None else base
    kept = start.tables
    tables = [table for i, table in enumerate(model.tables)
              if i >= len(kept) or table is not kept[i]]
    yield from _check_traits(model.traits[len(start.traits):])
    yield from _check_categories(model, model.categories[len(start.categories):])
    yield from _check_channels(model.channels[len(start.channels):])
    if base is None:
        yield from _check_unique_ids(model.nodes, "/tree")
        yield from _validate_tree(model)
    yield from _check_table_names(model.tables)
    for table in tables:
        yield from _check_table(model, table)
    yield from _validate_parameter_kinds(model, tables)


def validate_model(model: TaxonomyModel) -> list[Diagnostic]:
    """Check every structural invariant; returns [] iff the model is clean.

    Validation is total: it collects all findings instead of stopping at
    the first one, and the result is insensitive to list order in the model.
    The sorted findings are computed once per model and kept on it; each
    call returns a new list of them.
    """
    return list(model._diagnostics)


# ---------------------------------------------------------------------------
# Atomic-policy instantiation
# ---------------------------------------------------------------------------

def instantiate_atomic_policy(
    model: TaxonomyModel,
    category_id: str,
    trait_id: str,
    subtrait_id: Optional[str] = None,
    bindings: Optional[Mapping[str, Any]] = None,
) -> AtomicPolicy:
    """Bind parameters to a checkmarked (category, trait[, subtrait]) pair.

    Raises PolicyError with code E_NOT_IMPLEMENTABLE when the category has
    no checkmark for the trait, E_EXCLUSIVITY on subtrait selection errors,
    and E_BINDING on missing/extra/ill-typed parameters.
    """
    bindings = dict(bindings or {})
    category = model.category(category_id)
    if category is None:
        raise PolicyError("E_NOT_FOUND", f"unknown category {category_id!r}")
    trait = model.trait(trait_id)
    if trait is None:
        raise PolicyError("E_NOT_FOUND", f"unknown trait {trait_id!r}")
    if trait_id not in model.implementable_trait_ids(category_id):
        raise PolicyError(
            "E_NOT_IMPLEMENTABLE",
            f"category {category_id!r} has no checkmark for trait {trait_id!r}",
        )
    if trait.subtraits and subtrait_id is None:
        raise PolicyError(
            "E_EXCLUSIVITY",
            f"trait {trait_id!r} is categorical; exactly one subtrait is required",
        )

    params = (*category.own_parameters, *trait.parameters)
    if subtrait_id is not None:
        if not trait.subtraits:
            raise PolicyError("E_EXCLUSIVITY", f"trait {trait_id!r} has no subtraits")
        sub = trait.subtrait(subtrait_id)
        if sub is None:
            raise PolicyError(
                "E_EXCLUSIVITY", f"{subtrait_id!r} is not a subtrait of {trait_id!r}"
            )
        params += sub.parameters

    names = {p.name for p in params}
    missing = sorted(names - set(bindings))
    extra = sorted(set(bindings) - names)
    if missing or extra:
        raise PolicyError(
            "E_BINDING",
            f"missing parameters {missing}, unexpected parameters {extra}",
        )
    # A value must pass the check of every parameter that bears its name.
    for p in params:
        value = bindings[p.name]
        if p.kind not in PARAMETER_KINDS or not _BINDING_CHECKS[p.kind](value):
            raise PolicyError(
                "E_BINDING", f"parameter {p.name!r} is not a valid {p.kind!r} value: {value!r}"
            )
    return AtomicPolicy(AtomicPolicySchema(category_id, trait_id, subtrait_id), bindings)


__all__ = [
    "PARAMETER_KINDS",
    "NODE_KINDS",
    "AUTHORITIES",
    "NULL_MODES",
    "STATEMENT_SECTIONS",
    "ROOT_GROUP",
    "PolicyError",
    "Diagnostic",
    "ParameterSpec",
    "SubtraitDef",
    "TraitDef",
    "PolicyCategory",
    "TransactionChannel",
    "TaxonomyNode",
    "TableRow",
    "CheckTable",
    "AtomicPolicySchema",
    "AtomicPolicy",
    "TaxonomyModel",
    "table_marks",
    "iter_tree",
    "validate_model",
    "instantiate_atomic_policy",
]
