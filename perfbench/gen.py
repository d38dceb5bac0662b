"""Seeded synthetic taxonomy documents for the benchmark.

`make_taxonomy` builds a valid schema-version-1 document as a plain dict,
together with the facts the oracles need (checkmarks per category, schema
counts, node counts). It never imports polytax: the oracles compare the
program's outputs against what the generator emitted, not against the
program itself.

`hostile_documents` returns malformed-but-valid-JSON variants of a small
document, as text, for the parse-totality probe.
"""
from __future__ import annotations

import copy
import json
import random

ROOT_GROUP = "Economic Policy"
PARAMETER_KINDS = ("rate", "amount", "ladder", "period", "condition", "reference", "bounds")
CROSS_TAGS = ("international-trade", "green", "digital", "regional", "emergency")
WORDS = ("tax", "levy", "credit", "subsidy", "tariff", "quota", "rate", "bond",
         "reserve", "transfer", "grant", "duty", "rebate", "swap", "loan")

# A binding value of each parameter kind that `instantiate_atomic_policy`
# accepts.
SAMPLE_BINDING = {
    "rate": 0.2,
    "amount": 100,
    "ladder": [[0, 0.1], [1000, 0.2]],
    "period": "annual",
    "condition": "always",
    "reference": "benchmark",
    "bounds": [0, None],
}


def _params(rng: random.Random, prefix: str, most: int) -> list[dict]:
    return [
        {"name": f"{prefix} p{i}", "kind": rng.choice(PARAMETER_KINDS)}
        for i in range(rng.randint(0, most))
    ]


def _traits(rng: random.Random, k: int, subtrait_share: float) -> list[dict]:
    traits = []
    for i in range(k):
        tid = f"trait-{i:03d}"
        subtraits = []
        if rng.random() < subtrait_share:
            subtraits = [
                {
                    "id": f"{tid}-opt-{j}",
                    "name": f"Trait {i} option {j}",
                    "description": "",
                    "parameters": _params(rng, f"t{i}o{j}", 1),
                }
                for j in range(rng.randint(2, 4))
            ]
        traits.append({
            "id": tid,
            "name": f"Trait {i} {rng.choice(WORDS)}",
            "description": "",
            "parameters": [] if subtraits else _params(rng, f"t{i}", 2),
            "subtraits": subtraits,
        })
    return traits


CHANNELS = [
    {"id": "gov-revenue", "authority": "government", "name": "Revenue",
     "statement_path": ["Operating Income", "Revenue"], "description": ""},
    {"id": "gov-transfer", "authority": "government", "name": "Transfers",
     "statement_path": ["Non-Operating Income", "Transfers"], "description": ""},
    {"id": "ma-interest", "authority": "monetary-authority", "name": "Interest",
     "statement_path": ["Operating Income", "Interest"], "description": ""},
    {"id": "ma-valuation", "authority": "monetary-authority", "name": "Valuation",
     "statement_path": ["Irregular Items", "Valuation"], "description": ""},
]


def _group_tree(rng: random.Random, depth: int, fanout: int, chain: bool):
    """Group nodes only; returns (root, leaf groups as (node, label path))."""
    root = {"id": "economic-policy", "label": ROOT_GROUP, "kind": "group", "children": []}
    slots = []
    counter = [0]

    def group(parent, path):
        counter[0] += 1
        label = f"Group {counter[0]} {rng.choice(WORDS)}"
        node = {"id": f"g-{counter[0]}", "label": label, "kind": "group", "children": []}
        parent["children"].append(node)
        return node, path + [label]

    if chain:
        # One long chain of groups, each holding category leaves.
        node, path = root, [ROOT_GROUP]
        for _ in range(depth):
            node, path = group(node, path)
            slots.append((node, path))
        return root, slots

    frontier = [(root, [ROOT_GROUP])]
    for _ in range(depth):
        frontier = [group(node, path) for node, path in frontier for _ in range(fanout)]
    return root, frontier


def make_taxonomy(
    seed: int,
    n: int,
    k: int,
    *,
    density: float = 0.35,
    null_share: float = 0.05,
    tables: int = 8,
    depth: int = 3,
    fanout: int = 4,
    chain: bool = False,
    subtrait_share: float = 0.3,
) -> tuple[dict, dict]:
    """A valid document with n categories over k traits, and its facts.

    - density: chance that a category marks each column of its table.
    - null_share: share of categories with no checkmark at all.
    - tables / depth / fanout: checkmark tables and the group tree shape;
      with chain=True the tree is one chain `depth` groups deep.
    """
    rng = random.Random(seed)
    traits = _traits(rng, k, subtrait_share)
    trait_ids = [t["id"] for t in traits]
    n_subtraits = {t["id"]: len(t["subtraits"]) for t in traits}

    table_docs = []
    for j in range(tables):
        cols = [t for i, t in enumerate(trait_ids) if i % tables == j or rng.random() < 0.4]
        table_docs.append({"name": f"table-{j}", "title": f"Table {j}",
                           "trait_columns": cols, "rows": []})

    root, slots = _group_tree(rng, depth, fanout, chain)
    categories = []
    marks_by_category = {}
    schemas_by_table = {t["name"]: 0 for t in table_docs}
    schemas = schemas_expanded = 0
    for i in range(n):
        cid = f"cat-{i:05d}"
        node, path = slots[rng.randrange(len(slots))]
        categories.append({
            "id": cid,
            "name": f"Policy {i} {rng.choice(WORDS)}",
            "description": "",
            "own_parameters": _params(rng, f"c{i}", 1) if rng.random() < 0.1 else [],
            "group_path": path,
            "cross_tags": sorted(rng.sample(CROSS_TAGS, rng.randint(0, 2))),
            "channel_ref": rng.choice(CHANNELS)["id"] if rng.random() < 0.3 else None,
        })
        node["children"].append({"id": f"leaf-{cid}", "label": f"Policy {i}",
                                 "kind": "category", "category_ref": cid})
        table = table_docs[rng.randrange(tables)]
        if rng.random() < null_share:
            marks = []
        else:
            marks = [t for t in table["trait_columns"] if rng.random() < density]
            marks = marks or [rng.choice(table["trait_columns"])]
        if marks or rng.random() < 0.5:  # some trait-less rows, some absent rows
            table["rows"].append({"category": cid, "marks": marks})
        marks_by_category[cid] = marks
        schemas_by_table[table["name"]] += len(marks)
        schemas += len(marks)
        schemas_expanded += sum(max(1, n_subtraits[m]) for m in marks)

    doc = {
        "schema_version": "1",
        "meta": {"generator": "perfbench", "seed": seed},
        "traits": traits,
        "channels": copy.deepcopy(CHANNELS),
        "categories": categories,
        "tables": table_docs,
        "tree": root,
    }
    facts = {
        "categories": n,
        "traits": k,
        "tables": tables,
        "schemas": schemas,
        "schemas_expanded": schemas_expanded,
        "schemas_by_table": schemas_by_table,
        "tree_nodes": _count_nodes(root),
        "trait_ids": trait_ids,
        "marks": marks_by_category,
    }
    return doc, facts


def _count_nodes(root: dict) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.get("children", ()))
    return count


def make_extension(doc: dict, seed: int, n_new: int = 5) -> tuple[dict, int]:
    """A merge extension adding traits, categories and rows to the first table.

    Returns (extension, checkmarks it adds).
    """
    rng = random.Random(seed)
    traits = [{"id": f"ext-trait-{i}", "name": f"Extension trait {i}",
               "description": "", "parameters": [], "subtraits": []} for i in range(2)]
    first = doc["tables"][0]
    base_cols = first["trait_columns"]
    cols = base_cols + [t["id"] for t in traits]
    categories, rows, added = [], [], 0
    for i in range(n_new):
        cid = f"ext-cat-{i}"
        categories.append({"id": cid, "name": f"Extension policy {i}",
                           "group_path": [ROOT_GROUP, "Extension"]})
        marks = [c for c in cols if rng.random() < 0.3] or [cols[-1]]
        rows.append({"category": cid, "marks": marks})
        added += len(marks)
    table = {"name": first["name"], "trait_columns": cols, "rows": rows}
    return {"traits": traits, "categories": categories, "tables": [table]}, added


def _deep_tree_text(depth: int) -> str:
    """A document whose tree nests `depth` groups, written as text: the
    stdlib encoder cannot build one deeper than its recursion limit."""
    head = json.dumps({"schema_version": "1", "traits": [], "categories": []})[:-1]
    opens = "".join(f'{{"id": "g{i}", "kind": "group", "children": [' for i in range(depth))
    return head + ', "tree": ' + opens + '{"id": "leaf"}' + "]}" * depth + "}"


def hostile_documents(seed: int) -> list[tuple[str, str]]:
    """(name, text) pairs: each is valid JSON but breaks the document schema
    in one place, plus one tree nested beyond the recursion limit."""
    base, _ = make_taxonomy(seed, 12, 6, tables=2, depth=1, fanout=2, subtrait_share=0.0)

    def mutate(name, edit):
        doc = copy.deepcopy(base)
        edit(doc)
        return name, json.dumps(doc)

    def leaf(doc):
        return next(n for g in doc["tree"]["children"] for n in g["children"])

    return [
        mutate("traits=5", lambda d: d.update(traits=5)),
        mutate("marks=5", lambda d: d["tables"][0]["rows"][0].update(marks=5)),
        mutate("marks=[{}]", lambda d: d["tables"][0]["rows"][0].update(marks=[{}])),
        mutate("group_path=5", lambda d: d["categories"][0].update(group_path=5)),
        mutate("cross_tags=[[1]]", lambda d: d["categories"][0].update(cross_tags=[[1]])),
        mutate("meta=[1]", lambda d: d.update(meta=[1])),
        mutate("children=5", lambda d: d["tree"].update(children=5)),
        mutate("category_ref=[1]", lambda d: leaf(d).update(category_ref=[1])),
        mutate("statement_path=3", lambda d: d["channels"][0].update(statement_path=3)),
        mutate("id=[1]", lambda d: d["categories"][0].update(id=[1])),
        mutate("categories=abc", lambda d: d.update(categories="abc")),
        ("tree-depth-5000", _deep_tree_text(5000)),
    ]
