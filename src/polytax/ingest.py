"""Parse, serialize, and merge taxonomy-definition documents.

The file format is UTF-8 JSON with sections meta, traits, channels,
categories, tables and tree (schema_version "1"). Tables are the source
of truth for which traits a category can implement; the loader
materializes each category's implementable set from its table rows.
"""
from __future__ import annotations

import copy
import json
import os
from importlib import resources
from typing import Any, Optional

from .model import (
    CheckTable,
    Diagnostic,
    ParameterSpec,
    PolicyCategory,
    SubtraitDef,
    TableRow,
    TaxonomyModel,
    TaxonomyNode,
    TraitDef,
    TransactionChannel,
    materialize_trait_sets,
    validate_model,
)

SCHEMA_VERSION = "1"

BUNDLED_DATASET = "core-dataset.taxonomy.json"

DATA_ENV_VAR = "POLYTAX_DATA"

# The closed set of diagnostic codes a document can produce.
DIAGNOSTIC_CODES = frozenset(
    {
        "E_SYNTAX",
        "E_SCHEMA",
        "E_DUP_ID",
        "E_DUP_PARAM",
        "E_BAD_KIND",
        "E_BAD_GROUP_PATH",
        "E_BAD_STATEMENT_PATH",
        "E_BAD_MARK",
        "E_BAD_LEAF",
        "E_NOT_A_TREE",
        "E_DANGLING_NODE_REF",
        "E_UNKNOWN_TRAIT",
        "E_UNKNOWN_CATEGORY",
        "E_UNKNOWN_CHANNEL",
        "E_TABLE_MISMATCH",
        "E_CONFLICT",
    }
)


class IngestError(Exception):
    """Raised when a document cannot be turned into a model at all."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        first = diagnostics[0] if diagnostics else None
        super().__init__(str(first) if first else "ingest failed")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _schema_error(message: str, path: str) -> Diagnostic:
    return Diagnostic("E_SCHEMA", "error", message, path)


def _parse_parameters(raw, path, diags) -> tuple[ParameterSpec, ...]:
    if not isinstance(raw, list):
        diags.append(_schema_error("parameters must be a list", path))
        return ()
    out = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "name" not in item or "kind" not in item:
            diags.append(_schema_error("parameter needs name and kind", f"{path}/{i}"))
            continue
        out.append(ParameterSpec(name=str(item["name"]), kind=str(item["kind"])))
    return tuple(out)


def _parse_traits(raw, diags) -> tuple[TraitDef, ...]:
    out = []
    for i, item in enumerate(raw):
        path = f"/traits/{i}"
        if not isinstance(item, dict) or "id" not in item:
            diags.append(_schema_error("trait needs an id", path))
            continue
        subtraits = []
        for j, sub in enumerate(item.get("subtraits", [])):
            if not isinstance(sub, dict) or "id" not in sub:
                diags.append(_schema_error("subtrait needs an id", f"{path}/subtraits/{j}"))
                continue
            subtraits.append(
                SubtraitDef(
                    id=str(sub["id"]),
                    name=str(sub.get("name", sub["id"])),
                    parameters=_parse_parameters(
                        sub.get("parameters", []), f"{path}/subtraits/{j}", diags
                    ),
                    description=str(sub.get("description", "")),
                )
            )
        out.append(
            TraitDef(
                id=str(item["id"]),
                name=str(item.get("name", item["id"])),
                parameters=_parse_parameters(item.get("parameters", []), path, diags),
                subtraits=tuple(subtraits),
                description=str(item.get("description", "")),
            )
        )
    return tuple(out)


def _parse_channels(raw, diags) -> tuple[TransactionChannel, ...]:
    out = []
    for i, item in enumerate(raw):
        path = f"/channels/{i}"
        if not isinstance(item, dict) or "id" not in item:
            diags.append(_schema_error("channel needs an id", path))
            continue
        out.append(
            TransactionChannel(
                id=str(item["id"]),
                authority=str(item.get("authority", "")),
                statement_path=tuple(item.get("statement_path", [])),
                name=str(item.get("name", item["id"])),
                description=str(item.get("description", "")),
            )
        )
    return tuple(out)


def _parse_categories(raw, diags) -> tuple[PolicyCategory, ...]:
    out = []
    for i, item in enumerate(raw):
        path = f"/categories/{i}"
        if not isinstance(item, dict) or "id" not in item:
            diags.append(_schema_error("category needs an id", path))
            continue
        out.append(
            PolicyCategory(
                id=str(item["id"]),
                name=str(item.get("name", item["id"])),
                description=str(item.get("description", "")),
                own_parameters=_parse_parameters(
                    item.get("own_parameters", []), path, diags
                ),
                group_path=tuple(item.get("group_path", [])),
                cross_tags=frozenset(item.get("cross_tags", [])),
                implementable_trait_ids=frozenset(
                    item.get("implementable_trait_ids", [])
                ),
                channel_ref=item.get("channel_ref"),
            )
        )
    return tuple(out)


def _parse_tables(raw, diags) -> tuple[CheckTable, ...]:
    out = []
    for i, item in enumerate(raw):
        path = f"/tables/{i}"
        if not isinstance(item, dict) or "name" not in item:
            diags.append(_schema_error("table needs a name", path))
            continue
        rows = []
        for j, row in enumerate(item.get("rows", [])):
            if not isinstance(row, dict) or "category" not in row:
                diags.append(_schema_error("row needs a category", f"{path}/rows/{j}"))
                continue
            rows.append(
                TableRow(
                    category_id=str(row["category"]),
                    marks=tuple(row.get("marks", [])),
                )
            )
        out.append(
            CheckTable(
                name=str(item["name"]),
                title=str(item.get("title", item["name"])),
                trait_columns=tuple(item.get("trait_columns", [])),
                rows=tuple(rows),
            )
        )
    return tuple(out)


def _parse_tree(raw, diags) -> tuple[tuple[TaxonomyNode, ...], Optional[str]]:
    if raw is None:
        return (), None
    nodes: list[TaxonomyNode] = []

    def walk(item, path) -> Optional[str]:
        if not isinstance(item, dict) or "id" not in item:
            diags.append(_schema_error("tree node needs an id", path))
            return None
        child_ids = []
        for j, child in enumerate(item.get("children", [])):
            child_id = walk(child, f"{path}/children/{j}")
            if child_id is not None:
                child_ids.append(child_id)
        nodes.append(
            TaxonomyNode(
                id=str(item["id"]),
                label=str(item.get("label", item["id"])),
                kind=str(item.get("kind", "group")),
                children=tuple(child_ids),
                category_ref=item.get("category_ref"),
            )
        )
        return str(item["id"])

    root_id = walk(raw, "/tree")
    return tuple(nodes), root_id


def decode_document(data: str | bytes) -> Any:
    """Decode UTF-8 JSON text; undecodable input raises IngestError (E_SYNTAX)."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise IngestError([Diagnostic("E_SYNTAX", "error", str(exc), "/")]) from None
    except json.JSONDecodeError as exc:
        raise IngestError(
            [Diagnostic("E_SYNTAX", "error", str(exc), f"/line/{exc.lineno}")]
        ) from None


def parse_taxonomy_document(
    text: str | bytes,
) -> tuple[Optional[TaxonomyModel], list[Diagnostic]]:
    """Parse a taxonomy-definition document.

    Returns (model, diagnostics). The model is None only when the input is
    unreadable; otherwise a (possibly invalid) model is returned together
    with all parse and validation diagnostics.
    """
    try:
        doc = decode_document(text)
    except IngestError as exc:
        return None, exc.diagnostics
    return parse_document_dict(doc)


def parse_document_dict(
    doc: Any,
) -> tuple[Optional[TaxonomyModel], list[Diagnostic]]:
    """Turn an already-decoded JSON document into a model plus diagnostics."""
    diags: list[Diagnostic] = []
    if not isinstance(doc, dict):
        return None, [_schema_error("document must be a JSON object", "/")]

    if doc.get("schema_version") != SCHEMA_VERSION:
        diags.append(
            _schema_error(
                f"schema_version must be {SCHEMA_VERSION!r}", "/schema_version"
            )
        )
    for section in ("traits", "categories"):
        if section not in doc:
            diags.append(_schema_error(f"missing required section {section!r}", "/"))
    known = {
        "schema_version",
        "meta",
        "traits",
        "channels",
        "categories",
        "tables",
        "tree",
    }
    for key in sorted(set(doc) - known):
        diags.append(_schema_error(f"unknown top-level key {key!r}", f"/{key}"))

    traits = _parse_traits(doc.get("traits", []), diags)
    channels = _parse_channels(doc.get("channels", []), diags)
    categories = _parse_categories(doc.get("categories", []), diags)
    tables = _parse_tables(doc.get("tables", []), diags)
    nodes, root_id = _parse_tree(doc.get("tree"), diags)
    materialized = materialize_trait_sets(categories, tables)
    # An inline implementable set that disagrees with the tables is an
    # error, never a silent union.
    for inline, category in zip(categories, materialized):
        if inline.implementable_trait_ids and inline is not category:
            diags.append(
                Diagnostic(
                    "E_TABLE_MISMATCH",
                    "error",
                    "inline implementable_trait_ids disagree with table rows "
                    f"for {category.id!r}",
                    f"/categories/{category.id}",
                )
            )

    model = TaxonomyModel(
        traits=traits,
        categories=materialized,
        nodes=nodes,
        root_id=root_id,
        channels=channels,
        tables=tables,
        metadata=dict(doc.get("meta", {})),
    )
    diags.extend(validate_model(model))
    return model, sorted(diags, key=lambda d: (d.code, d.path, d.message))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _dump_parameters(params) -> list[dict]:
    return [{"name": p.name, "kind": p.kind} for p in params]


def model_to_document(model: TaxonomyModel) -> dict:
    """Canonical document form: stable key order, document list order."""

    def dump_node(node_id: str) -> dict:
        node = model.node(node_id)
        out: dict[str, Any] = {"id": node.id, "label": node.label, "kind": node.kind}
        if node.category_ref is not None:
            out["category_ref"] = node.category_ref
        if node.children:
            out["children"] = [dump_node(c) for c in node.children]
        return out

    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "meta": dict(model.metadata),
        "traits": [
            {
                "id": t.id,
                "name": t.name,
                "description": t.description,
                "parameters": _dump_parameters(t.parameters),
                "subtraits": [
                    {
                        "id": s.id,
                        "name": s.name,
                        "description": s.description,
                        "parameters": _dump_parameters(s.parameters),
                    }
                    for s in t.subtraits
                ],
            }
            for t in model.traits
        ],
        "channels": [
            {
                "id": ch.id,
                "authority": ch.authority,
                "name": ch.name,
                "statement_path": list(ch.statement_path),
                "description": ch.description,
            }
            for ch in model.channels
        ],
        "categories": [
            {
                "id": c.id,
                "name": c.name,
                "description": c.description,
                "own_parameters": _dump_parameters(c.own_parameters),
                "group_path": list(c.group_path),
                "cross_tags": sorted(c.cross_tags),
                "channel_ref": c.channel_ref,
            }
            for c in model.categories
        ],
        "tables": [
            {
                "name": t.name,
                "title": t.title,
                "trait_columns": list(t.trait_columns),
                "rows": [
                    {"category": r.category_id, "marks": list(r.marks)}
                    for r in t.rows
                ],
            }
            for t in model.tables
        ],
    }
    if model.root_id is not None:
        doc["tree"] = dump_node(model.root_id)
    return doc


def serialize_taxonomy_document(model: TaxonomyModel) -> str:
    """Deterministic UTF-8 text such that parse(serialize(m)) == m."""
    doc = model_to_document(model)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

def merge_extension(base: TaxonomyModel, extension: dict) -> TaxonomyModel:
    """Append an extension document's traits, categories and checkmarks.

    Redefining an existing id with different content raises IngestError
    with E_CONFLICT; identical redefinitions are no-ops. The merged model
    is re-validated and must be clean.
    """
    if not isinstance(extension, dict):
        raise IngestError([_schema_error("extension must be a JSON object", "/")])
    extension = copy.deepcopy(extension)
    conflicts: list[Diagnostic] = []
    diags: list[Diagnostic] = []

    new_traits = _parse_traits(extension.get("traits", []), diags)
    new_categories = _parse_categories(extension.get("categories", []), diags)
    new_channels = _parse_channels(extension.get("channels", []), diags)
    new_tables = _parse_tables(extension.get("tables", []), diags)
    if any(d.is_error() for d in diags):
        raise IngestError(diags)

    def extend(existing, incoming, lookup, what):
        out = list(existing)
        for item in incoming:
            current = lookup(item.id)
            if current is None:
                out.append(item)
            elif current != item:
                conflicts.append(
                    Diagnostic(
                        "E_CONFLICT",
                        "error",
                        f"{what} {item.id!r} is already defined with different content",
                        f"/{what}s/{item.id}",
                    )
                )
        return tuple(out)

    traits = extend(base.traits, new_traits, base.trait, "trait")
    categories = extend(base.categories, new_categories, base.category, "category")
    channels = extend(base.channels, new_channels, base.channel, "channel")
    if conflicts:
        raise IngestError(conflicts)

    tables = list(base.tables)
    by_name = {t.name: i for i, t in enumerate(tables)}
    for table in new_tables:
        if table.name not in by_name:
            tables.append(table)
            continue
        current = tables[by_name[table.name]]
        columns = list(current.trait_columns) + [
            c for c in table.trait_columns if c not in current.trait_columns
        ]
        rows = [
            TableRow(r.category_id, tuple(dict.fromkeys(r.marks)))
            for r in current.rows
        ]
        row_index = {r.category_id: i for i, r in enumerate(rows)}
        for row in table.rows:
            if row.category_id in row_index:
                i = row_index[row.category_id]
                merged = tuple(dict.fromkeys(rows[i].marks + row.marks))
                rows[i] = TableRow(row.category_id, merged)
            else:
                rows.append(row)
        tables[by_name[table.name]] = CheckTable(
            name=current.name,
            title=current.title,
            trait_columns=tuple(columns),
            rows=tuple(rows),
        )

    merged = TaxonomyModel(
        traits=traits,
        categories=materialize_trait_sets(categories, tables),
        nodes=base.nodes,
        root_id=base.root_id,
        channels=channels,
        tables=tuple(tables),
        metadata=dict(base.metadata),
    )
    problems = [d for d in validate_model(merged) if d.is_error()]
    if problems:
        raise IngestError(problems)
    return merged


# ---------------------------------------------------------------------------
# Bundled dataset
# ---------------------------------------------------------------------------

def bundled_dataset_text() -> str:
    """Raw text of the dataset, honoring the POLYTAX_DATA override."""
    override = os.environ.get(DATA_ENV_VAR)
    if override:
        with open(override, encoding="utf-8") as f:
            return f.read()
    return (
        resources.files("polytax").joinpath("data", BUNDLED_DATASET).read_text("utf-8")
    )


def load_bundled_dataset() -> TaxonomyModel:
    """Load and validate the dataset shipped with the package."""
    model, diags = parse_taxonomy_document(bundled_dataset_text())
    errors = [d for d in diags if d.is_error()]
    if model is None or errors:
        raise IngestError(errors or diags)
    return model


def load_model_from_path(path: str) -> tuple[Optional[TaxonomyModel], list[Diagnostic]]:
    with open(path, "rb") as f:
        return parse_taxonomy_document(f.read())


__all__ = [
    "SCHEMA_VERSION",
    "BUNDLED_DATASET",
    "DATA_ENV_VAR",
    "DIAGNOSTIC_CODES",
    "IngestError",
    "decode_document",
    "parse_taxonomy_document",
    "parse_document_dict",
    "model_to_document",
    "serialize_taxonomy_document",
    "merge_extension",
    "bundled_dataset_text",
    "load_bundled_dataset",
    "load_model_from_path",
]
