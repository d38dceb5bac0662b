"""Core domain types, constraint validation, and atomic-policy instantiation.

The model is a set of trait definitions, policy categories, transaction
channels, checkmark tables and a taxonomy tree. The tables alone say which
traits a category implements; TaxonomyModel.implementable_trait_ids reads
their marks, through a view built on first use. Everything is immutable
after construction; validation never raises, it returns diagnostics. A
Diagnostic is a code, a JSON path and a message; every diagnostic is an
error, and lists of them are sorted by those three fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Optional


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


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, and always an error: a stable code, the JSON path it is
    at, and a message. Diagnostics sort by these three fields in turn."""

    code: str
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.path}: {self.message}"


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    kind: str


@dataclass(frozen=True)
class SubtraitDef:
    id: str
    name: str
    parameters: tuple[ParameterSpec, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class TraitDef:
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


@dataclass(frozen=True)
class PolicyCategory:
    id: str
    name: str
    description: str = ""
    own_parameters: tuple[ParameterSpec, ...] = ()
    group_path: tuple[str, ...] = (ROOT_GROUP,)
    cross_tags: frozenset[str] = frozenset()
    channel_ref: Optional[str] = None


@dataclass(frozen=True)
class TransactionChannel:
    id: str
    authority: str
    statement_path: tuple[str, ...]
    name: str
    description: str = ""


@dataclass(frozen=True)
class TaxonomyNode:
    id: str
    label: str
    kind: str
    children: tuple[str, ...] = ()
    category_ref: Optional[str] = None


@dataclass(frozen=True)
class TableRow:
    category_id: str
    marks: tuple[str, ...]


@dataclass(frozen=True)
class CheckTable:
    """One appendix-style table: rows are categories, columns are traits."""

    name: str
    title: str
    trait_columns: tuple[str, ...]
    rows: tuple[TableRow, ...]


@dataclass(frozen=True)
class AtomicPolicySchema:
    category_id: str
    trait_id: str
    subtrait_id: Optional[str] = None


@dataclass(frozen=True)
class AtomicPolicy:
    schema: AtomicPolicySchema
    bindings: Mapping[str, Any]


@dataclass
class TaxonomyModel:
    """The whole dataset. Treat as immutable once constructed."""

    traits: tuple[TraitDef, ...] = ()
    categories: tuple[PolicyCategory, ...] = ()
    nodes: tuple[TaxonomyNode, ...] = ()
    root_id: Optional[str] = None
    channels: tuple[TransactionChannel, ...] = ()
    tables: tuple[CheckTable, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.traits = tuple(self.traits)
        self.categories = tuple(self.categories)
        self.nodes = tuple(self.nodes)
        self.channels = tuple(self.channels)
        self.tables = tuple(self.tables)
        self._trait_by_id = {t.id: t for t in self.traits}
        self._category_by_id = {c.id: c for c in self.categories}
        self._node_by_id = {n.id: n for n in self.nodes}
        self._channel_by_id = {ch.id: ch for ch in self.channels}
        self._table_by_name = {t.name: t for t in self.tables}

    # -- lookups ---------------------------------------------------------

    def trait(self, trait_id: str) -> Optional[TraitDef]:
        return self._trait_by_id.get(trait_id)

    def category(self, category_id: str) -> Optional[PolicyCategory]:
        return self._category_by_id.get(category_id)

    def node(self, node_id: str) -> Optional[TaxonomyNode]:
        return self._node_by_id.get(node_id)

    def channel(self, channel_id: str) -> Optional[TransactionChannel]:
        return self._channel_by_id.get(channel_id)

    def table(self, name: str) -> Optional[CheckTable]:
        return self._table_by_name.get(name)

    @cached_property
    def _marks_by_category(self) -> dict[str, frozenset[str]]:
        # Built on first use: parsing, validation, merge and serialization
        # never read it.
        return {c: frozenset(marks) for c, marks in table_marks(self.tables).items()}

    def implementable_trait_ids(self, category_id: str) -> frozenset[str]:
        """The trait ids marked for the category over all tables' rows."""
        return self._marks_by_category.get(category_id, frozenset())

    @property
    def tree(self) -> Optional[TaxonomyNode]:
        if self.root_id is None:
            return None
        return self._node_by_id.get(self.root_id)


def build_tree(model: TaxonomyModel) -> TaxonomyNode:
    """Return the taxonomy root node."""
    root = model.tree
    if root is None:
        raise PolicyError("E_NOT_FOUND", "model has no taxonomy tree")
    return root


def iter_tree(model: TaxonomyModel) -> Iterator[tuple[TaxonomyNode, int]]:
    """Depth-first (node, depth) traversal in child order, with an explicit
    stack; each node id is visited once, so a cyclic model cannot loop."""
    seen = set()
    stack = [(build_tree(model), 0)]
    while stack:
        node, depth = stack.pop()
        if node.id not in seen:
            seen.add(node.id)
            yield node, depth
            # A plain loop: chained generator expressions took twice as long.
            for child_id in reversed(node.children):
                child = model.node(child_id)
                if child is not None:
                    stack.append((child, depth + 1))


def table_marks(tables: Iterable[CheckTable]) -> dict[str, set[str]]:
    """Each category's checkmarked trait ids, over the rows of all tables."""
    marks: dict[str, set[str]] = {}
    for table in tables:
        for row in table.rows:
            marks.setdefault(row.category_id, set()).update(row.marks)
    return marks


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# A finding as validation yields it: (code, path, message).
Finding = tuple[str, str, str]


def _check_parameters(params: Iterable[ParameterSpec], path: str) -> Iterator[Finding]:
    seen = set()
    for p in params:
        param_path = f"{path}/parameters/{p.name}"
        if p.kind not in PARAMETER_KINDS:
            yield "E_BAD_KIND", param_path, f"unknown parameter kind {p.kind!r}"
        if p.name in seen:
            yield "E_DUP_PARAM", param_path, f"duplicate parameter name {p.name!r}"
        seen.add(p.name)


def _check_unique_ids(items, path_prefix: str) -> Iterator[Finding]:
    seen = set()
    for item in items:
        if item.id in seen:
            yield "E_DUP_ID", f"{path_prefix}/{item.id}", f"duplicate id {item.id!r}"
        seen.add(item.id)


def _validate_tree(model: TaxonomyModel) -> Iterator[Finding]:
    if model.root_id is None:
        if model.nodes:
            yield "E_NOT_A_TREE", "/tree", "nodes without a root"
        return
    if model.node(model.root_id) is None:
        yield "E_DANGLING_NODE_REF", "/tree", f"root id {model.root_id!r} does not resolve"
        return

    parent_of: dict[str, str] = {}
    for node in model.nodes:
        for child_id in node.children:
            if model.node(child_id) is None:
                yield (
                    "E_DANGLING_NODE_REF", f"/tree/{node.id}",
                    f"child id {child_id!r} does not resolve",
                )
                continue
            if child_id in parent_of or child_id == model.root_id:
                yield (
                    "E_NOT_A_TREE", f"/tree/{child_id}",
                    f"node {child_id!r} has more than one parent",
                )
                continue
            parent_of[child_id] = node.id

    # Reachability from the root; cycles leave nodes unreachable or are
    # flagged above as repeated parents.
    reachable = {node.id for node, _ in iter_tree(model)}
    for node in model.nodes:
        if node.id not in reachable:
            yield (
                "E_NOT_A_TREE", f"/tree/{node.id}",
                f"node {node.id!r} is not reachable from the root",
            )

    for node in model.nodes:
        path = f"/tree/{node.id}"
        if node.kind not in NODE_KINDS:
            yield "E_BAD_KIND", path, f"unknown node kind {node.kind!r}"
        if node.kind == "category":
            if node.category_ref is None or model.category(node.category_ref) is None:
                yield (
                    "E_UNKNOWN_CATEGORY", path,
                    f"category node {node.id!r} has no resolvable category_ref",
                )
            if node.children:
                yield "E_BAD_LEAF", path, f"category node {node.id!r} must not have children"
        elif node.category_ref is not None and model.category(node.category_ref) is None:
            yield "E_UNKNOWN_CATEGORY", path, f"node {node.id!r} references unknown category"


def _validate_tables(model: TaxonomyModel) -> Iterator[Finding]:
    seen_names = set()
    for table in model.tables:
        path = f"/tables/{table.name}"
        if table.name in seen_names:
            yield "E_DUP_ID", path, f"duplicate table {table.name!r}"
        seen_names.add(table.name)
        for trait_id in table.trait_columns:
            if model.trait(trait_id) is None:
                yield (
                    "E_UNKNOWN_TRAIT", f"{path}/columns/{trait_id}",
                    f"table column {trait_id!r} is not a trait",
                )
        for row in table.rows:
            row_path = f"{path}/rows/{row.category_id}"
            if model.category(row.category_id) is None:
                yield (
                    "E_UNKNOWN_CATEGORY", row_path,
                    f"row references unknown category {row.category_id!r}",
                )
            for mark in row.marks:
                if mark not in table.trait_columns:
                    yield (
                        "E_BAD_MARK", row_path,
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
) -> Iterator[Finding]:
    for p in params:
        kind, at = earlier.get(p.name, (p.kind, ""))
        if kind != p.kind:
            yield (
                "E_DUP_PARAM", f"{path}/parameters/{p.name}",
                f"parameter {p.name!r} is {p.kind!r} here but {kind!r} at {at}",
            )


def _validate_parameter_kinds(model: TaxonomyModel) -> Iterator[Finding]:
    """A name that a category, a trait marked for it or one of that trait's
    subtraits declare with different kinds can bind no value; the later
    declaration is flagged. Reads the table marks, not the trait-set view,
    in one walk that builds a set only for the categories that own
    parameters: a set per category cost most of a 10,000-category check."""
    owners = {c.id: c for c in model.categories if c.own_parameters}
    marked: set[str] = set()
    owned_marks: dict[str, set[str]] = {}
    for table in model.tables:
        for row in table.rows:
            marked.update(row.marks)
            if row.category_id in owners:
                owned_marks.setdefault(row.category_id, set()).update(row.marks)

    for trait in model.traits:
        if trait.id in marked:
            path = f"/traits/{trait.id}"
            first = _first_kinds(trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")

    for category_id, marks in owned_marks.items():
        first = _first_kinds(owners[category_id].own_parameters, f"/categories/{category_id}")
        for trait in filter(None, map(model.trait, marks)):
            path = f"/traits/{trait.id}"
            yield from _kind_clashes(first, trait.parameters, path)
            for sub in trait.subtraits:
                yield from _kind_clashes(first, sub.parameters, f"{path}/subtraits/{sub.id}")


def _findings(model: TaxonomyModel) -> Iterator[Finding]:
    yield from _check_unique_ids(model.traits, "/traits")
    for trait in model.traits:
        path = f"/traits/{trait.id}"
        yield from _check_parameters(trait.parameters, path)
        yield from _check_unique_ids(trait.subtraits, f"{path}/subtraits")
        for sub in trait.subtraits:
            yield from _check_parameters(sub.parameters, f"{path}/subtraits/{sub.id}")

    yield from _check_unique_ids(model.categories, "/categories")
    for category in model.categories:
        path = f"/categories/{category.id}"
        yield from _check_parameters(category.own_parameters, path)
        if not category.group_path or category.group_path[0] != ROOT_GROUP:
            yield "E_BAD_GROUP_PATH", path, f"group_path must start at {ROOT_GROUP!r}"
        if category.channel_ref is not None and model.channel(category.channel_ref) is None:
            yield (
                "E_UNKNOWN_CHANNEL", path, f"channel_ref {category.channel_ref!r} does not resolve"
            )

    yield from _check_unique_ids(model.channels, "/channels")
    for channel in model.channels:
        path = f"/channels/{channel.id}"
        if channel.authority not in AUTHORITIES:
            yield "E_BAD_KIND", path, f"unknown authority {channel.authority!r}"
        if not channel.statement_path or channel.statement_path[0] not in STATEMENT_SECTIONS:
            yield (
                "E_BAD_STATEMENT_PATH", path,
                "statement_path must start with an income-statement section",
            )

    yield from _check_unique_ids(model.nodes, "/tree")
    yield from _validate_tree(model)
    yield from _validate_tables(model)
    yield from _validate_parameter_kinds(model)


def validate_model(model: TaxonomyModel) -> list[Diagnostic]:
    """Check every structural invariant; returns [] iff the model is clean.

    Validation is total: it collects all findings instead of stopping at
    the first one, and the result is insensitive to list order in the model.
    """
    return sorted(Diagnostic(*f) for f in _findings(model))


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
    "build_tree",
    "iter_tree",
    "validate_model",
    "instantiate_atomic_policy",
]
