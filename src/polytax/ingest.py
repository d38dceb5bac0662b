"""Parse, serialize, and merge taxonomy-definition documents.

A document is a UTF-8 JSON object: schema_version "1", meta (an object),
the lists traits, channels, categories and tables, and tree (one node
object). The field tables below (_TRAIT, _CATEGORY, _NODE, ...) declare
each record's keys, JSON kinds, defaults and dump order; parsing and
serialization both read them. Parsing builds each record positionally,
taking a value of its kind's exact JSON class (str, or a list of str) as
is; any other goes to _field. Parsing is total: a value of another kind
is dropped with an E_SCHEMA at its JSON path (null counts as missing; the
path is formatted only then), and a file that cannot be read, decoded or
nested as deeply gives E_SYNTAX. Serialization writes each record's text
straight from its field table. The small generic emitter _dumps writes
only meta and off-type scalars, such as an int id or an int in a list of
strings, and leaves null, booleans and numbers to json.dumps; a list field
given another iterable, such as a set, goes as a list through the writer
that its field's kind already uses. The tables alone say which traits a
category can implement (TaxonomyModel.implementable_trait_ids); a
category's inline implementable_trait_ids key is only checked against its
table rows.

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
from itertools import chain
from json.encoder import encode_basestring
from operator import attrgetter
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


def _path(loc) -> str:
    """The JSON path of a location: () is the document, (parent, key, index)
    is parent[key][index], or parent[key] if index is None; see _parse_tree."""
    parts = []
    while loc:
        loc, key, index = loc[:3]
        parts.append(f"/{key}" if index is None else f"/{key}/{index}")
    return "".join(reversed(parts))


def _field(obj: dict, key: str, kind: str, loc, diags, default=None) -> Any:
    """obj[key] if it has the JSON kind; a missing key or null gives default,
    a value of another kind gives default and an E_SCHEMA at loc's path/key."""
    value = obj.get(key)
    if value is None:
        return default
    try:  # join raises TypeError on an item that is not a string
        if isinstance(value, _KINDS[kind]) and (
            kind != "strings" or isinstance("".join(value), str)
        ):
            return value
    except TypeError:
        pass
    message = f"{key} is not of kind {kind!r}"
    diags.append(Diagnostic("E_SCHEMA", _path((loc, key, None)), message))
    return default


_REQUIRED = object()  # a string the record cannot lack; items without it are skipped
_FIRST = object()  # defaults to the record's first field: name to id, title to name


class _Record:
    """A record kind of the document: its model class and its fields, each
    (key, kind, default, attribute) in dump order. The kind is "string",
    "strings" (a list of strings, held as the type of its default: a tuple,
    or a frozenset that is dumped sorted) or the _Record of a nested list.
    A field given as (key, kind, default) sets the attribute of that name.
    For serializing, values(obj) reads the fields' values in one call and
    plan holds each field's key, key text, kind and value class. slots
    holds (key, kind, default) per attribute in the class's order, for the
    positional build: the kind is str (the exact class a value must have),
    the class strings are held as, a _Record, or None for a node's children."""

    def __init__(self, cls: type, *fields: tuple):
        self.cls = cls
        self.fields = tuple((key, kind, default, attr[0] if attr else key)
                            for key, kind, default, *attr in fields)
        self.required = tuple(f[0] for f in self.fields if f[2] is _REQUIRED)
        self.malformed = "expected an object with string " + " and ".join(self.required)
        self.values = attrgetter(*(f[3] for f in self.fields))
        self.plan = tuple((key, encode_basestring(key) + ": ", kind,
                           str if kind == "string" else default.__class__)
                          for key, kind, default, _ in self.fields)
        by_attr = {attr: (key, kind if isinstance(kind, _Record) else held, default) for
                   (key, kind, default, attr), (*_, held) in zip(self.fields, self.plan)}
        self.slots = tuple(by_attr.get(attr, (attr, None, None)) for attr in cls._fields)


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
        Diagnostic("E_SCHEMA", f"/{key}", f"unknown top-level key {key!r}")
        for key in sorted(set(doc) - _TOP_LEVEL_KEYS)
    ]


def _parse_record(item: Any, loc, record: _Record, diags, children: tuple = ()) -> Any:
    """The record item at location loc, built positionally from its slots
    (required fields first), or None after one E_SCHEMA at loc unless item
    is an object whose required keys hold strings. A node's children are given."""
    item = item if isinstance(item, dict) else {}  # a non-object fails the first slot
    values = []
    for key, kind, default in record.slots:
        if kind is str:
            value = item.get(key)
            if value.__class__ is str:
                pass
            elif default is not _REQUIRED:
                default = values[0] if default is _FIRST else default
                value = _field(item, key, "string", loc, diags, default)
            elif not isinstance(value, str):
                diags.append(Diagnostic("E_SCHEMA", _path(loc), record.malformed))
                return None
        elif kind is None:
            value = children
        elif kind.__class__ is _Record:
            value = _parse_list(item, key, loc, kind, diags)
        else:
            value = kind(_field(item, key, "strings", loc, diags, ()))
        values.append(value)
    return tuple.__new__(record.cls, values)


def _parse_list(obj: dict, key: str, loc, record: _Record, diags) -> tuple:
    """The records in the list obj[key], obj at location loc; see _parse_record."""
    out = []
    for i, item in enumerate(_field(obj, key, "list", loc, diags, ())):
        value = _parse_record(item, (loc, key, i), record, diags)
        if value is not None:
            out.append(value)
    return tuple(out)


def _categories(doc, tables, diags) -> tuple[PolicyCategory, ...]:
    """The document's categories. An inline implementable_trait_ids key that
    disagrees with the table rows is an error, never a silent union. The
    rows' marks are gathered only once a category has that key."""
    marks = None
    out = []
    for i, item in enumerate(_field(doc, "categories", "list", (), diags, ())):
        loc = ((), "categories", i)
        if (category := _parse_record(item, loc, _CATEGORY, diags)) is None:
            continue
        inline = _field(item, "implementable_trait_ids", "strings", loc, diags, [])
        if inline and marks is None:
            marks = table_marks(tables)
        if inline and set(inline) != marks.get(category.id, set()):
            message = f"inline implementable_trait_ids disagree with table rows for {category.id!r}"
            diags.append(Diagnostic("E_TABLE_MISMATCH", f"/categories/{category.id}", message))
        out.append(category)
    return tuple(out)


def _parse_tree(doc, diags) -> tuple[tuple[TaxonomyNode, ...], Optional[str]]:
    """The tree's nodes in post-order. The walk uses an explicit stack, so
    depth is not bounded by the recursion limit; it visits children last to
    first, and reversing that pre-order gives the post-order. Each stack
    entry is a node's location (see _path) with the node at [3]."""
    root = _field(doc, "tree", "object", (), diags)
    if root is None:
        return (), None
    if not isinstance(root.get("id"), str):
        diags.append(Diagnostic("E_SCHEMA", "/tree", _NODE.malformed))
        return (), None
    nodes: list[TaxonomyNode] = []
    stack = [((), "tree", None, root)]
    while stack:
        entry = stack.pop()
        ids = []
        for i, child in enumerate(_field(entry[3], "children", "list", entry, diags, ())):
            child_entry = (entry, "children", i, child)
            if isinstance(child, dict) and isinstance(child.get("id"), str):
                ids.append(child["id"])
                stack.append(child_entry)
            else:
                diags.append(Diagnostic("E_SCHEMA", _path(child_entry), _NODE.malformed))
        nodes.append(_parse_record(entry[3], entry, _NODE, diags, tuple(ids)))
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
        return None, [Diagnostic("E_SCHEMA", "/", "document must be a JSON object")]

    if doc.get("schema_version") != SCHEMA_VERSION:
        message = f"schema_version must be {SCHEMA_VERSION!r}"
        diags.append(Diagnostic("E_SCHEMA", "/schema_version", message))
    for section in ("traits", "categories"):
        if doc.get(section) is None:
            diags.append(Diagnostic("E_SCHEMA", "/", f"missing required section {section!r}"))
    diags.extend(_unknown_keys(doc))

    tables = _parse_list(doc, "tables", (), _TABLE, diags)
    nodes, root_id = _parse_tree(doc, diags)
    model = TaxonomyModel(
        traits=_parse_list(doc, "traits", (), _TRAIT, diags),
        categories=_categories(doc, tables, diags),
        nodes=nodes,
        root_id=root_id,
        channels=_parse_list(doc, "channels", (), _CHANNEL, diags),
        tables=tables,
        metadata=dict(_field(doc, "meta", "object", (), diags, {})),
    )
    diags.extend(validate_model(model))
    return model, sorted(diags)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_SURROGATE = re.compile("[\ud800-\udfff]")


def _string_text(value: str) -> str:
    """A JSON string literal as json.encoder writes it, but with each lone
    surrogate as a \\uXXXX escape, so that the text always encodes to UTF-8."""
    text = encode_basestring(value)
    if value.isascii():
        return text
    return _SURROGATE.sub(lambda m: f"\\u{ord(m.group()):04x}", text)


def _dumps(value: Any, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, ensure_ascii=False) with each line break
    written as newline and no final newline, byte for byte but for lone
    surrogates (see _string_text). Null, booleans and numbers, and keys
    that are not strings, are written by json.dumps itself.

    The walk keeps one (items, is_dict, id, newline of its items) frame per
    open container on an explicit stack, so nesting depth is not bounded by
    the recursion limit. Each item is followed by "," and its frame's
    newline; closing a container overwrites its last item's separator with
    the parent frame's newline, and the root's separator is dropped."""
    out: list[str] = []
    open_ids: set[int] = set()
    stack = [(iter((value,)), False, None, newline)]
    while stack:
        items, is_dict, ident, inner = stack[-1]
        separator = "," + inner
        for item in items:
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    if key is not None and not isinstance(key, (int, float)):
                        raise TypeError(f"keys must be str, int, float, bool or None, "
                                        f"not {key.__class__.__name__}")
                    key = json.dumps(key)
                out += (_string_text(key), ": ")
            if isinstance(item, str):
                out.append(_string_text(item))
            elif not isinstance(item, (dict, list, tuple)):
                out.append(json.dumps(item))
            elif not item:
                out.append("{}" if isinstance(item, dict) else "[]")
            else:
                if id(item) in open_ids:
                    raise ValueError("Circular reference detected")
                open_ids.add(id(item))
                nested = inner + "  "
                is_object = isinstance(item, dict)
                out += ("{" if is_object else "[", nested)
                stack.append((iter(item.items() if is_object else item), is_object, id(item), nested))
                break
            out.append(separator)
        else:
            stack.pop()
            open_ids.discard(ident)
            if stack:
                outer = stack[-1][3]
                out[-1] = outer
                out += ("}" if is_dict else "]", "," + outer)
    return "".join(out[:-1])


# The newline-and-indent text of each level a record reaches (a subtrait's
# parameters sit at level 7), and the separators that follow an item.
_NEWLINES = tuple("\n" + "  " * level for level in range(8))
_SEPARATORS = tuple("," + newline for newline in _NEWLINES)
_QUOTED_SEPARATORS = tuple(f'"{separator}"' for separator in _SEPARATORS)


# The writers below append pieces to one list: each item and then the
# separator of its level, the last separator overwritten on closing, as in
# _dumps, and the newline and indent of each level shared from _NEWLINES
# and _SEPARATORS.

def _put_strings(out: list, items: Any, level: int) -> None:
    """The JSON list of items, its key at indent level `level`. ASCII
    strings that need no escape are quoted by one join, other strings one
    at a time; a list that holds another value is written by _dumps."""
    if not items:
        out.append("[]")
        return
    try:
        joined = "".join(items)
    except TypeError:
        out.append(_dumps(items, _NEWLINES[level]))
        return
    if joined.isascii() and len(encode_basestring(joined)) == len(joined) + 2:
        text = '"' + _QUOTED_SEPARATORS[level + 1].join(items) + '"'
    else:
        text = _SEPARATORS[level + 1].join(map(_string_text, items))
    out += ("[", _NEWLINES[level + 1], text, _NEWLINES[level], "]")


def _put_records(out: list, items: Any, record: _Record, level: int) -> None:
    """The JSON list of the records items, its key at indent level `level`.
    A value whose class is not the one its field declares, as a model built
    in code may hold, goes to the writer of its field's kind: in a string
    field (say an int id) to _dumps, in a list field (say a set) as a list."""
    if not items:
        out.append("[]")
        return
    append = out.append
    newline, separator = _NEWLINES[level + 2], _SEPARATORS[level + 2]
    out += ("[", _NEWLINES[level + 1])
    for obj in items:
        out += ("{", newline)
        for (_, key_text, kind, cls), value in zip(record.plan, record.values(obj)):
            append(key_text)
            if cls is str:
                if value.__class__ is str:
                    append(encode_basestring(value) if value.isascii() else _string_text(value))
                else:
                    append("null" if value is None else _dumps(value, newline))
            else:
                listed = value if value.__class__ is cls else list(value)
                if kind == "strings":
                    _put_strings(out, sorted(listed) if cls is frozenset else listed, level + 2)
                else:
                    _put_records(out, listed, kind, level + 2)
            append(separator)
        out[-1] = _NEWLINES[level + 1]
        out += ("}", _SEPARATORS[level + 1])
    out[-1] = _NEWLINES[level]
    append("]")


def _put_tree(out: list, model: TaxonomyModel) -> None:
    """The tree's JSON object, opened at indent level 1, from one iter_tree
    walk. A node at depth d has its keys at level 2d + 2. When the depth
    grows, the node opens the children list of the node before it. When it
    stays or falls from p to d (the end of the walk counts as d = 0), the
    objects and lists in between close; their brackets sit at levels 2p + 1
    down to 2d + 1, "}" at odd levels and "]" at even ones."""
    append = out.append
    newlines, separators = list(_NEWLINES), list(_SEPARATORS)
    previous = -1
    for node, depth in chain(iter_tree(model), ((None, 0),)):
        level = 2 * depth + 2
        while len(newlines) <= level:
            newlines.append(newlines[-1] + "  ")
            separators.append("," + newlines[-1])
        if depth > previous:
            if depth:
                out += ('"children": [', newlines[level - 1])
        else:
            for bracket in range(2 * previous + 1, 2 * depth, -1):
                if out[-1] is newlines[bracket + 1]:  # a node with no fields
                    out[-1] = "}"
                else:
                    out[-1] = newlines[bracket]
                    append("]}"[bracket % 2])
                append(separators[bracket])
            if node is None:
                return
        newline, separator = newlines[level], separators[level]
        out += ("{", newline)
        for (_, key_text, _, _), value in zip(_NODE.plan, _NODE.values(node)):
            if value.__class__ is str:
                append(key_text)
                append(encode_basestring(value) if value.isascii() else _string_text(value))
                append(separator)
            elif value is not None:
                out += (key_text, _dumps(value, newline), separator)
        previous = depth


@_collection_paused()
def serialize_taxonomy_document(model: TaxonomyModel) -> str:
    """Deterministic text such that parse(serialize(m)) == m, in the
    canonical document form: keys in field-table order, lists in document
    order, and each node that iter_tree visits written once, as a child of
    the last node a level up, without its None fields or empty children.
    The bytes are those of json.dumps(document, indent=2,
    ensure_ascii=False) and a newline, except that a lone surrogate is
    written as a \\uXXXX escape, so the text always encodes to UTF-8.
    Serializing has no depth limit; decoding the text still gives E_SYNTAX
    near 500 tree levels. Records are written straight from their field
    tables, into one list of pieces that is joined once."""
    out = ["{", _NEWLINES[1], '"schema_version": ', encode_basestring(SCHEMA_VERSION),
           _SEPARATORS[1], '"meta": ', _dumps(dict(model.metadata), _NEWLINES[1])]
    for key, record in _SECTIONS.items():
        out += (_SEPARATORS[1], f'"{key}": ')
        _put_records(out, getattr(model, key), record, 1)
    if model.tree is not None:
        out += (_SEPARATORS[1], '"tree": ')
        _put_tree(out, model)
        out.pop()
    out.append("\n}\n")
    return "".join(out)


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
        raise IngestError([Diagnostic("E_SCHEMA", "/", "extension must be a JSON object")])
    diags = _unknown_keys(extension)
    tables = list(base.tables)
    by_name = {t.name: i for i, t in enumerate(tables)}
    for table in _parse_list(extension, "tables", (), _TABLE, diags):
        if table.name not in by_name:
            tables.append(table)
            continue
        current = tables[by_name[table.name]]
        have = set(current.trait_columns)
        columns = [*current.trait_columns, *(c for c in table.trait_columns if c not in have)]
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
        tables[by_name[table.name]] = current._replace(
            trait_columns=tuple(columns), rows=tuple(rows)
        )

    new_traits = _parse_list(extension, "traits", (), _TRAIT, diags)
    new_categories = _categories(extension, tables, diags)
    new_channels = _parse_list(extension, "channels", (), _CHANNEL, diags)
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

    merged = base._replace(
        traits=extend(base.traits, new_traits, "traits"),
        categories=extend(base.categories, new_categories, "categories"),
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
    "serialize_taxonomy_document",
    "merge_extension",
    "load_bundled_dataset",
    "load_model_from_path",
]
