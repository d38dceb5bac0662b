"""Parse, serialize, and merge taxonomy-definition documents.

A document is a UTF-8 JSON object: schema_version "1", meta (an object),
the lists traits, channels, categories and tables, and tree (one node
object). The field tables below (_TRAIT, _CATEGORY, _NODE, ...) declare
each record's keys, JSON kinds, defaults and dump order; parsing and
serialization both read them. Parsing is total: a value of another kind
is dropped with an E_SCHEMA at its JSON path (null counts as missing),
and a file that cannot be read, decoded or nested as deeply gives
E_SYNTAX. The tables alone say which traits a category can implement
(TaxonomyModel.implementable_trait_ids); a category's inline
implementable_trait_ids key is only checked against its table rows.

parse_taxonomy_document, parse_document_dict, load_model_from_path,
merge_extension and serialize_taxonomy_document pause the cyclic garbage
collector (model._collection_paused) for the whole call, JSON decoding
included: what they build holds no reference cycles, so a collection there
frees nothing. The pause is process-wide; while it runs, no thread gets a
cyclic collection.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import replace
from itertools import repeat
from json.encoder import encode_basestring
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
    _collection_paused,
    iter_tree,
    table_marks,
    validate_model,
)

SCHEMA_VERSION = "1"

BUNDLED_DATASET = "core-dataset.taxonomy.json"

# The shipped dataset, read from beside this module.
_BUNDLED_PATH = os.path.join(os.path.dirname(__file__), "data", BUNDLED_DATASET)

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
        super().__init__(str(diagnostics[0]) if diagnostics else "ingest failed")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# The JSON kinds a document value can have; "strings" is a list of strings.
_KINDS = {"string": str, "list": list, "object": dict, "strings": list}


def _schema_error(message: str, path: str) -> Diagnostic:
    return Diagnostic("E_SCHEMA", path, message)


def _field(obj: dict, key: str, kind: str, path: str, diags, default=None) -> Any:
    """obj[key] if it has the JSON kind; a missing key or null gives default,
    a value of another kind gives default and an E_SCHEMA at path/key."""
    value = obj.get(key)
    if value is None:
        return default
    if isinstance(value, _KINDS[kind]) and (
        kind != "strings" or all(map(isinstance, value, repeat(str)))
    ):
        return value
    diags.append(_schema_error(f"{key} is not of kind {kind!r}", f"{path}/{key}"))
    return default


def _records(obj: dict, key: str, required: tuple[str, ...], path: str, diags):
    """(item, item_path) for each object in the list obj[key] whose required
    keys hold strings; every other item gets one E_SCHEMA."""
    for i, item in enumerate(_field(obj, key, "list", path, diags, [])):
        item_path = f"{path}/{key}/{i}"
        if isinstance(item, dict) and all(isinstance(item.get(k), str) for k in required):
            yield item, item_path
        else:
            message = "expected an object with string " + " and ".join(required)
            diags.append(_schema_error(message, item_path))


_REQUIRED = object()  # a string the record cannot lack; items without it are skipped
_FIRST = object()  # defaults to the record's first field: name to id, title to name


class _Record:
    """A record kind of the document: its model class and its fields, each
    (key, kind, default, attribute) in dump order. The kind is "string",
    "strings" (a list of strings, held as the type of its default: a tuple,
    or a frozenset that is dumped sorted) or the _Record of a nested list.
    A field given as (key, kind, default) sets the attribute of that name."""

    def __init__(self, cls: type, *fields: tuple):
        self.cls = cls
        self.fields = tuple((key, kind, default, attr[0] if attr else key)
                            for key, kind, default, *attr in fields)
        self.required = tuple(f[0] for f in self.fields if f[2] is _REQUIRED)


_ID = ("id", "string", _REQUIRED)
_NAME = ("name", "string", _FIRST)
_DESCRIPTION = ("description", "string", "")

_PARAMETER = _Record(ParameterSpec, ("name", "string", _REQUIRED), ("kind", "string", _REQUIRED))
_PARAMETERS = ("parameters", _PARAMETER, ())
_SUBTRAIT = _Record(SubtraitDef, _ID, _NAME, _DESCRIPTION, _PARAMETERS)
_TRAIT = _Record(TraitDef, _ID, _NAME, _DESCRIPTION, _PARAMETERS, ("subtraits", _SUBTRAIT, ()))
_CHANNEL = _Record(
    TransactionChannel, _ID, ("authority", "string", ""), _NAME,
    ("statement_path", "strings", ()), _DESCRIPTION,
)
_CATEGORY = _Record(
    PolicyCategory, _ID, _NAME, _DESCRIPTION, ("own_parameters", _PARAMETER, ()),
    ("group_path", "strings", ()), ("cross_tags", "strings", frozenset()),
    ("channel_ref", "string", None),
)
_ROW = _Record(TableRow, ("category", "string", _REQUIRED, "category_id"), ("marks", "strings", ()))
_TABLE = _Record(
    CheckTable, ("name", "string", _REQUIRED), ("title", "string", _FIRST),
    ("trait_columns", "strings", ()), ("rows", _ROW, ()),
)
# children is parse-only: the tree walk reads it as a list of nodes.
_NODE = _Record(
    TaxonomyNode, _ID, ("label", "string", _FIRST), ("kind", "string", "group"),
    ("category_ref", "string", None),
)
# The document's record lists in dump order, named as their model attributes.
_SECTIONS = {"traits": _TRAIT, "channels": _CHANNEL, "categories": _CATEGORY, "tables": _TABLE}
_TOP_LEVEL_KEYS = frozenset({"schema_version", "meta", "tree", *_SECTIONS})


def _unknown_keys(doc: dict) -> list[Diagnostic]:
    return [
        _schema_error(f"unknown top-level key {key!r}", f"/{key}")
        for key in sorted(set(doc) - _TOP_LEVEL_KEYS)
    ]


def _parse_record(item: dict, path: str, record: _Record, diags, **parse_only) -> Any:
    values = parse_only
    for key, kind, default, attr in record.fields:
        if default is _REQUIRED:
            values[attr] = item[key]
        elif kind == "string":
            if default is _FIRST:
                default = item[record.required[0]]
            values[attr] = _field(item, key, kind, path, diags, default)
        elif kind == "strings":
            values[attr] = default.__class__(_field(item, key, kind, path, diags, default))
        else:
            values[attr] = _parse_list(item, key, kind, path, diags)
    return record.cls(**values)


def _parse_list(obj: dict, key: str, record: _Record, path: str, diags) -> tuple:
    return tuple(
        _parse_record(item, item_path, record, diags)
        for item, item_path in _records(obj, key, record.required, path, diags)
    )


def _categories(doc, tables, diags) -> tuple[PolicyCategory, ...]:
    """The document's categories. An inline implementable_trait_ids key that
    disagrees with the table rows is an error, never a silent union. The
    rows' marks are gathered only once a category has that key."""
    marks = None
    out = []
    for item, path in _records(doc, "categories", _CATEGORY.required, "", diags):
        inline = _field(item, "implementable_trait_ids", "strings", path, diags, [])
        if inline and marks is None:
            marks = table_marks(tables)
        if inline and set(inline) != marks.get(item["id"], set()):
            message = f"inline implementable_trait_ids disagree with table rows for {item['id']!r}"
            diags.append(Diagnostic("E_TABLE_MISMATCH", f"/categories/{item['id']}", message))
        out.append(_parse_record(item, path, _CATEGORY, diags))
    return tuple(out)


def _parse_tree(doc, diags) -> tuple[tuple[TaxonomyNode, ...], Optional[str]]:
    """The tree's nodes in post-order. The walk uses an explicit stack, so
    depth is not bounded by the recursion limit; it visits children last to
    first, and reversing that pre-order gives the post-order."""
    root = _field(doc, "tree", "object", "", diags)
    if root is None:
        return (), None
    if not isinstance(root.get("id"), str):
        diags.append(_schema_error("expected an object with string id", "/tree"))
        return (), None
    nodes: list[TaxonomyNode] = []
    stack = [(root, "/tree")]
    while stack:
        item, path = stack.pop()
        children = list(_records(item, "children", _NODE.required, path, diags))
        stack.extend(children)
        ids = tuple(child["id"] for child, _ in children)
        nodes.append(_parse_record(item, path, _NODE, diags, children=ids))
    nodes.reverse()
    return tuple(nodes), root["id"]


def _syntax_error(exc: Exception, path: str = "/") -> IngestError:
    return IngestError([Diagnostic("E_SYNTAX", path, str(exc))])


def _decode_document(data: str | bytes) -> Any:
    """Decode UTF-8 JSON text; undecodable or too deeply nested input, or an
    integer literal longer than int() converts, raises IngestError (E_SYNTAX)."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _syntax_error(exc, f"/line/{exc.lineno}") from None
    # ValueError: a UnicodeDecodeError, or int()'s digit limit (4,300 by default).
    except (ValueError, RecursionError) as exc:
        raise _syntax_error(exc) from None


def read_document(path: str) -> Any:
    """Decode the JSON file at path; a file that cannot be read or decoded
    raises IngestError (E_SYNTAX)."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise _syntax_error(exc) from None
    return _decode_document(data)


@_collection_paused()
def parse_taxonomy_document(
    text: str | bytes,
) -> tuple[Optional[TaxonomyModel], list[Diagnostic]]:
    """Parse a taxonomy-definition document.

    Returns (model, diagnostics). The model is None only when the input is
    unreadable; otherwise a (possibly invalid) model is returned together
    with all parse and validation diagnostics.
    """
    try:
        doc = _decode_document(text)
    except IngestError as exc:
        return None, exc.diagnostics
    return parse_document_dict(doc)


@_collection_paused()
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
        if doc.get(section) is None:
            diags.append(_schema_error(f"missing required section {section!r}", "/"))
    diags.extend(_unknown_keys(doc))

    tables = _parse_list(doc, "tables", _TABLE, "", diags)
    nodes, root_id = _parse_tree(doc, diags)
    model = TaxonomyModel(
        traits=_parse_list(doc, "traits", _TRAIT, "", diags),
        categories=_categories(doc, tables, diags),
        nodes=nodes,
        root_id=root_id,
        channels=_parse_list(doc, "channels", _CHANNEL, "", diags),
        tables=tables,
        metadata=dict(_field(doc, "meta", "object", "", diags, {})),
    )
    diags.extend(validate_model(model))
    return model, sorted(diags)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _dump_record(obj: Any, record: _Record) -> dict:
    out = {}
    for key, kind, default, attr in record.fields:
        value = getattr(obj, attr)
        if kind == "string":
            out[key] = value
        elif kind == "strings":
            out[key] = sorted(value) if default.__class__ is frozenset else list(value)
        else:
            out[key] = [_dump_record(item, kind) for item in value]
    return out


def model_to_document(model: TaxonomyModel) -> dict:
    """Canonical document form: stable key order, document list order. Each
    node iter_tree visits is dumped once, as a child of the last one a level
    up; a node's fields that are None and its empty children are left out."""
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "meta": dict(model.metadata)}
    for key, record in _SECTIONS.items():
        doc[key] = [_dump_record(item, record) for item in getattr(model, key)]
    if model.tree is not None:
        levels: list[dict] = []
        for node, depth in iter_tree(model):
            out = {k: v for k, v in _dump_record(node, _NODE).items() if v is not None}
            if depth:
                levels[depth - 1].setdefault("children", []).append(out)
            del levels[depth:]
            levels.append(out)
        doc["tree"] = levels[0]
    return doc


_SURROGATE = re.compile("[\ud800-\udfff]")
_INF = float("inf")


def _string_text(value: str) -> str:
    """A JSON string literal as json.encoder writes it, but with each lone
    surrogate as a \\uXXXX escape, so that the text always encodes to UTF-8."""
    text = encode_basestring(value)
    if value.isascii():
        return text
    return _SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def _scalar_text(value: Any) -> str:
    """null, a boolean or a number as json.dumps writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _dumps(value: Any) -> str:
    """json.dumps(value, indent=2, ensure_ascii=False) + "\\n", byte for
    byte, but for lone surrogates (see _string_text).

    The walk keeps one (items, is_dict, depth, id) frame per open container
    on an explicit stack, so nesting depth is not bounded by the recursion
    limit. Each item is followed by the separator of its depth; closing a
    container overwrites its last item's separator with the newline and
    indent of the level above, and the root's with the final newline. The
    newline-and-indent and separator strings of each depth, and the text of
    each string key, are built once and shared."""
    chunks: list[str] = []
    append = chunks.append
    newlines = ["\n"]
    separators = [",\n"]
    keys: dict[str, str] = {}
    open_ids: set[int] = set()
    stack = [(iter((value,)), False, 0, 0)]
    while stack:
        items, is_dict, depth, ident = stack[-1]
        separator = separators[depth]
        for item in items:
            if is_dict:
                key, item = item
                text = keys.get(key)
                if text is None:
                    text = _string_text(key if isinstance(key, str) else _scalar_text(key)) + ": "
                    if isinstance(key, str):
                        keys[key] = text
                append(text)
            if isinstance(item, str):
                append(encode_basestring(item) if item.isascii() else _string_text(item))
            elif not isinstance(item, (dict, list, tuple)):
                append(_scalar_text(item))
            elif not item:
                append("{}" if isinstance(item, dict) else "[]")
            else:
                if id(item) in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(id(item))
                if depth + 1 == len(newlines):
                    newlines.append(newlines[-1] + "  ")
                    separators.append("," + newlines[-1])
                if isinstance(item, dict):
                    append("{")
                    stack.append((iter(item.items()), True, depth + 1, id(item)))
                else:
                    append("[")
                    stack.append((iter(item), False, depth + 1, id(item)))
                append(newlines[depth + 1])
                break
            append(separator)
        else:
            stack.pop()
            if stack:
                open_ids.discard(ident)
                chunks[-1] = newlines[depth - 1]
                append("}" if is_dict else "]")
                append(separators[depth - 1])
    chunks[-1] = "\n"
    return "".join(chunks)


@_collection_paused()
def serialize_taxonomy_document(model: TaxonomyModel) -> str:
    """Deterministic text such that parse(serialize(m)) == m: the bytes of
    json.dumps(model_to_document(m), indent=2, ensure_ascii=False) and a
    newline, except that a lone surrogate is written as a \\uXXXX escape,
    so the text always encodes to UTF-8. Serializing has no depth limit;
    decoding the text still gives E_SYNTAX near 500 tree levels."""
    return _dumps(model_to_document(model))


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------

@_collection_paused()
def merge_extension(base: TaxonomyModel, extension: dict) -> TaxonomyModel:
    """Append an extension document's traits, categories and checkmarks.

    Redefining an existing id with different content raises IngestError
    with E_CONFLICT; identical redefinitions are no-ops. An unknown top-level
    key raises E_SCHEMA at /{key}, as in parsing; schema_version, meta and
    tree are ignored. The merged model is re-validated and must be clean.
    """
    if not isinstance(extension, dict):
        raise IngestError([_schema_error("extension must be a JSON object", "/")])
    diags = _unknown_keys(extension)
    tables = list(base.tables)
    by_name = {t.name: i for i, t in enumerate(tables)}
    for table in _parse_list(extension, "tables", _TABLE, "", diags):
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
            i = row_index.get(row.category_id)
            if i is None:
                rows.append(row)
            else:
                merged = tuple(dict.fromkeys(rows[i].marks + row.marks))
                rows[i] = TableRow(row.category_id, merged)
        tables[by_name[table.name]] = replace(
            current, trait_columns=tuple(columns), rows=tuple(rows)
        )

    new_traits = _parse_list(extension, "traits", _TRAIT, "", diags)
    new_categories = _categories(extension, tables, diags)
    new_channels = _parse_list(extension, "channels", _CHANNEL, "", diags)
    if diags:
        raise IngestError(sorted(diags))

    conflicts: list[Diagnostic] = []

    def extend(existing, incoming, key):
        current = {item.id: item for item in existing}
        for item in incoming:
            if current.get(item.id, item) != item:
                message = f"{item.id!r} is already defined with different content"
                conflicts.append(Diagnostic("E_CONFLICT", f"/{key}/{item.id}", message))
        return existing + tuple(item for item in incoming if item.id not in current)

    merged = TaxonomyModel(
        traits=extend(base.traits, new_traits, "traits"),
        categories=extend(base.categories, new_categories, "categories"),
        nodes=base.nodes,
        root_id=base.root_id,
        channels=extend(base.channels, new_channels, "channels"),
        tables=tuple(tables),
        metadata=dict(base.metadata),
    )
    if conflicts:
        raise IngestError(sorted(conflicts))
    problems = validate_model(merged)
    if problems:
        raise IngestError(problems)
    return merged


# ---------------------------------------------------------------------------
# Bundled dataset
# ---------------------------------------------------------------------------

def load_bundled_dataset(path: Optional[str] = None) -> TaxonomyModel:
    """The model in the file at path, else in the file POLYTAX_DATA names,
    else the shipped dataset; raises IngestError unless it is clean."""
    model, diags = load_model_from_path(path or os.environ.get(DATA_ENV_VAR) or _BUNDLED_PATH)
    if model is None or diags:
        raise IngestError(diags)
    return model


@_collection_paused()
def load_model_from_path(path: str) -> tuple[Optional[TaxonomyModel], list[Diagnostic]]:
    """Parse the file at path; see parse_taxonomy_document."""
    try:
        doc = read_document(path)
    except IngestError as exc:
        return None, exc.diagnostics
    return parse_document_dict(doc)


__all__ = [
    "SCHEMA_VERSION",
    "BUNDLED_DATASET",
    "DATA_ENV_VAR",
    "DIAGNOSTIC_CODES",
    "IngestError",
    "read_document",
    "parse_taxonomy_document",
    "parse_document_dict",
    "model_to_document",
    "serialize_taxonomy_document",
    "merge_extension",
    "load_bundled_dataset",
    "load_model_from_path",
]
