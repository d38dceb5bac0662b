"""Core domain types, constraint validation, and atomic-policy instantiation.

The model is a set of trait definitions, policy categories, transaction
channels, checkmark tables and a taxonomy tree. Everything is immutable
after construction; validation never raises, it returns diagnostics.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Optional

PARAMETER_KINDS = frozenset(
    {"rate", "amount", "ladder", "period", "condition", "reference", "bounds"}
)

NODE_KINDS = frozenset({"group", "category", "standalone-policy"})

AUTHORITIES = frozenset({"government", "monetary-authority"})

STATEMENT_SECTIONS = frozenset(
    {"Operating Income", "Non-Operating Income", "Irregular Items"}
)

ROOT_GROUP = "Economic Policy"


class PolicyError(Exception):
    """Raised by operations that reject bad input (codes are stable)."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a stable code, a severity, and a locator."""

    code: str
    severity: str  # "error" | "warning"
    message: str
    path: str

    def is_error(self) -> bool:
        return self.severity == "error"


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
    implementable_trait_ids: frozenset[str] = frozenset()
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

    @property
    def tree(self) -> Optional[TaxonomyNode]:
        if self.root_id is None:
            return None
        return self._node_by_id.get(self.root_id)


def models_equivalent(a: TaxonomyModel, b: TaxonomyModel) -> bool:
    """Order-insensitive model comparison (used for merge algebra)."""

    def key(model: TaxonomyModel):
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


def table_marks(tables: Iterable[CheckTable]) -> dict[str, set[str]]:
    """Each category's checkmarked trait ids, over the rows of all tables."""
    marks: dict[str, set[str]] = {}
    for table in tables:
        for row in table.rows:
            marks.setdefault(row.category_id, set()).update(row.marks)
    return marks


def materialize_trait_sets(
    categories: Iterable[PolicyCategory], tables: Iterable[CheckTable]
) -> tuple[PolicyCategory, ...]:
    """The categories with implementable_trait_ids set from the table rows.

    Tables are the source of truth; a category whose set already agrees is
    returned as the same object.
    """
    marks = table_marks(tables)
    out = []
    for category in categories:
        from_tables = marks.get(category.id, set())
        if category.implementable_trait_ids != from_tables:
            category = replace(category, implementable_trait_ids=frozenset(from_tables))
        out.append(category)
    return tuple(out)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _check_parameters(
    params: Iterable[ParameterSpec], path: str, out: list[Diagnostic]
) -> None:
    seen = set()
    for p in params:
        if p.kind not in PARAMETER_KINDS:
            out.append(
                Diagnostic(
                    "E_BAD_KIND",
                    "error",
                    f"unknown parameter kind {p.kind!r}",
                    f"{path}/parameters/{p.name}",
                )
            )
        if p.name in seen:
            out.append(
                Diagnostic(
                    "E_DUP_PARAM",
                    "error",
                    f"duplicate parameter name {p.name!r}",
                    f"{path}/parameters/{p.name}",
                )
            )
        seen.add(p.name)


def _check_unique_ids(items, path_prefix: str, out: list[Diagnostic]) -> None:
    seen = set()
    for item in items:
        if item.id in seen:
            out.append(
                Diagnostic(
                    "E_DUP_ID",
                    "error",
                    f"duplicate id {item.id!r}",
                    f"{path_prefix}/{item.id}",
                )
            )
        seen.add(item.id)


def _validate_tree(model: TaxonomyModel, out: list[Diagnostic]) -> None:
    if model.root_id is None:
        if model.nodes:
            out.append(
                Diagnostic("E_NOT_A_TREE", "error", "nodes without a root", "/tree")
            )
        return
    if model.node(model.root_id) is None:
        out.append(
            Diagnostic(
                "E_DANGLING_NODE_REF",
                "error",
                f"root id {model.root_id!r} does not resolve",
                "/tree",
            )
        )
        return

    parent_of: dict[str, str] = {}
    for node in model.nodes:
        for child_id in node.children:
            if model.node(child_id) is None:
                out.append(
                    Diagnostic(
                        "E_DANGLING_NODE_REF",
                        "error",
                        f"child id {child_id!r} does not resolve",
                        f"/tree/{node.id}",
                    )
                )
                continue
            if child_id in parent_of or child_id == model.root_id:
                out.append(
                    Diagnostic(
                        "E_NOT_A_TREE",
                        "error",
                        f"node {child_id!r} has more than one parent",
                        f"/tree/{child_id}",
                    )
                )
                continue
            parent_of[child_id] = node.id

    # Reachability from the root; cycles leave nodes unreachable or are
    # flagged above as repeated parents.
    reachable = set()
    stack = [model.root_id]
    while stack:
        node_id = stack.pop()
        if node_id in reachable:
            continue
        reachable.add(node_id)
        node = model.node(node_id)
        if node is not None:
            stack.extend(node.children)
    for node in model.nodes:
        if node.id not in reachable:
            out.append(
                Diagnostic(
                    "E_NOT_A_TREE",
                    "error",
                    f"node {node.id!r} is not reachable from the root",
                    f"/tree/{node.id}",
                )
            )

    for node in model.nodes:
        if node.kind not in NODE_KINDS:
            out.append(
                Diagnostic(
                    "E_BAD_KIND",
                    "error",
                    f"unknown node kind {node.kind!r}",
                    f"/tree/{node.id}",
                )
            )
        if node.kind == "category":
            if node.category_ref is None or model.category(node.category_ref) is None:
                out.append(
                    Diagnostic(
                        "E_UNKNOWN_CATEGORY",
                        "error",
                        f"category node {node.id!r} has no resolvable category_ref",
                        f"/tree/{node.id}",
                    )
                )
            if node.children:
                out.append(
                    Diagnostic(
                        "E_BAD_LEAF",
                        "error",
                        f"category node {node.id!r} must not have children",
                        f"/tree/{node.id}",
                    )
                )
        elif node.category_ref is not None and model.category(node.category_ref) is None:
            out.append(
                Diagnostic(
                    "E_UNKNOWN_CATEGORY",
                    "error",
                    f"node {node.id!r} references unknown category",
                    f"/tree/{node.id}",
                )
            )


def _validate_tables(model: TaxonomyModel, out: list[Diagnostic]) -> None:
    seen_names = set()
    for table in model.tables:
        path = f"/tables/{table.name}"
        if table.name in seen_names:
            out.append(
                Diagnostic("E_DUP_ID", "error", f"duplicate table {table.name!r}", path)
            )
        seen_names.add(table.name)
        for trait_id in table.trait_columns:
            if model.trait(trait_id) is None:
                out.append(
                    Diagnostic(
                        "E_UNKNOWN_TRAIT",
                        "error",
                        f"table column {trait_id!r} is not a trait",
                        f"{path}/columns/{trait_id}",
                    )
                )
        for row in table.rows:
            row_path = f"{path}/rows/{row.category_id}"
            if model.category(row.category_id) is None:
                out.append(
                    Diagnostic(
                        "E_UNKNOWN_CATEGORY",
                        "error",
                        f"row references unknown category {row.category_id!r}",
                        row_path,
                    )
                )
            for mark in row.marks:
                if mark not in table.trait_columns:
                    out.append(
                        Diagnostic(
                            "E_BAD_MARK",
                            "error",
                            f"mark {mark!r} is not a column of table {table.name!r}",
                            row_path,
                        )
                    )

    # Tables are the source of truth for implementable traits; a category
    # whose inline set disagrees with its table rows is an error.
    if model.tables:
        marks = table_marks(model.tables)
        for category in model.categories:
            if category.implementable_trait_ids != marks.get(category.id, set()):
                out.append(
                    Diagnostic(
                        "E_TABLE_MISMATCH",
                        "error",
                        "implementable_trait_ids disagree with table checkmarks "
                        f"for {category.id!r}",
                        f"/categories/{category.id}",
                    )
                )


def validate_model(model: TaxonomyModel) -> list[Diagnostic]:
    """Check every structural invariant; returns [] iff the model is clean.

    Validation is total: it collects all findings instead of stopping at
    the first one, and the result is insensitive to list order in the model.
    """
    out: list[Diagnostic] = []

    _check_unique_ids(model.traits, "/traits", out)
    for trait in model.traits:
        path = f"/traits/{trait.id}"
        _check_parameters(trait.parameters, path, out)
        _check_unique_ids(trait.subtraits, f"{path}/subtraits", out)
        for sub in trait.subtraits:
            _check_parameters(sub.parameters, f"{path}/subtraits/{sub.id}", out)

    _check_unique_ids(model.categories, "/categories", out)
    for category in model.categories:
        path = f"/categories/{category.id}"
        _check_parameters(category.own_parameters, path, out)
        for trait_id in sorted(category.implementable_trait_ids):
            if model.trait(trait_id) is None:
                out.append(
                    Diagnostic(
                        "E_UNKNOWN_TRAIT",
                        "error",
                        f"implementable trait {trait_id!r} does not resolve",
                        path,
                    )
                )
        if not category.group_path or category.group_path[0] != ROOT_GROUP:
            out.append(
                Diagnostic(
                    "E_BAD_GROUP_PATH",
                    "error",
                    f"group_path must start at {ROOT_GROUP!r}",
                    path,
                )
            )
        if category.channel_ref is not None and model.channel(category.channel_ref) is None:
            out.append(
                Diagnostic(
                    "E_UNKNOWN_CHANNEL",
                    "error",
                    f"channel_ref {category.channel_ref!r} does not resolve",
                    path,
                )
            )

    _check_unique_ids(model.channels, "/channels", out)
    for channel in model.channels:
        path = f"/channels/{channel.id}"
        if channel.authority not in AUTHORITIES:
            out.append(
                Diagnostic(
                    "E_BAD_KIND",
                    "error",
                    f"unknown authority {channel.authority!r}",
                    path,
                )
            )
        if not channel.statement_path or channel.statement_path[0] not in STATEMENT_SECTIONS:
            out.append(
                Diagnostic(
                    "E_BAD_STATEMENT_PATH",
                    "error",
                    "statement_path must start with an income-statement section",
                    path,
                )
            )

    _check_unique_ids(model.nodes, "/tree", out)
    _validate_tree(model, out)
    _validate_tables(model, out)
    return sorted(out, key=lambda d: (d.code, d.path, d.message))


# ---------------------------------------------------------------------------
# Atomic-policy instantiation
# ---------------------------------------------------------------------------

def _binding_ok(kind: str, value: Any) -> bool:
    if kind in ("rate", "amount"):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "period":
        return (
            isinstance(value, str) and bool(value)
        ) or (isinstance(value, (int, float)) and not isinstance(value, bool))
    if kind in ("condition", "reference"):
        return isinstance(value, str) and bool(value.strip())
    if kind == "ladder":
        if not isinstance(value, (list, tuple)) or len(value) < 1:
            return False
        thresholds = []
        for band in value:
            if not isinstance(band, (list, tuple)) or len(band) != 2:
                return False
            threshold, rate = band
            for num in (threshold, rate):
                if not isinstance(num, (int, float)) or isinstance(num, bool):
                    return False
            thresholds.append(threshold)
        return all(a < b for a, b in zip(thresholds, thresholds[1:]))
    if kind == "bounds":
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            return False
        return all(
            v is None or (isinstance(v, (int, float)) and not isinstance(v, bool))
            for v in value
        )
    return False


def required_parameters(
    model: TaxonomyModel, schema: AtomicPolicySchema
) -> tuple[ParameterSpec, ...]:
    """Category own parameters plus the selected trait/subtrait parameters."""
    category = model.category(schema.category_id)
    trait = model.trait(schema.trait_id)
    if category is None or trait is None:
        raise PolicyError("E_NOT_FOUND", f"unknown category or trait in {schema}")
    params = list(category.own_parameters) + list(trait.parameters)
    if schema.subtrait_id is not None:
        sub = trait.subtrait(schema.subtrait_id)
        if sub is None:
            raise PolicyError(
                "E_EXCLUSIVITY",
                f"{schema.subtrait_id!r} is not a subtrait of {trait.id!r}",
            )
        params.extend(sub.parameters)
    return tuple(params)


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
    if trait_id not in category.implementable_trait_ids:
        raise PolicyError(
            "E_NOT_IMPLEMENTABLE",
            f"category {category_id!r} has no checkmark for trait {trait_id!r}",
        )
    if trait.subtraits and subtrait_id is None:
        raise PolicyError(
            "E_EXCLUSIVITY",
            f"trait {trait_id!r} is categorical; exactly one subtrait is required",
        )
    if not trait.subtraits and subtrait_id is not None:
        raise PolicyError(
            "E_EXCLUSIVITY", f"trait {trait_id!r} has no subtraits"
        )

    schema = AtomicPolicySchema(category_id, trait_id, subtrait_id)
    params = required_parameters(model, schema)

    required = {p.name: p.kind for p in params}
    missing = sorted(set(required) - set(bindings))
    extra = sorted(set(bindings) - set(required))
    if missing or extra:
        raise PolicyError(
            "E_BINDING",
            f"missing parameters {missing}, unexpected parameters {extra}",
        )
    for name, kind in required.items():
        if not _binding_ok(kind, bindings[name]):
            raise PolicyError(
                "E_BINDING",
                f"parameter {name!r} is not a valid {kind!r} value: {bindings[name]!r}",
            )
    return AtomicPolicy(schema=schema, bindings=bindings)


__all__ = [
    "PARAMETER_KINDS",
    "NODE_KINDS",
    "AUTHORITIES",
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
    "models_equivalent",
    "table_marks",
    "materialize_trait_sets",
    "validate_model",
    "required_parameters",
    "instantiate_atomic_policy",
]
