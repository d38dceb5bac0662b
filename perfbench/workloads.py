"""The three workloads: set-up, one op, and the op's correctness check.

Each workload is a closed loop with one client. `setup()` builds every
input from the seed and prepares the oracles; `op(i, rec)` is the timed
work; `check(i, result)` runs outside the timed region and returns
(errors, {artifact: sha256}). Ops are issued in cycles of `cycle` ops that
together cover the workload's whole input mix, and a run always ends on a
cycle boundary, so every run measures the same mix.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import oracles
from oracles import NULL_MODES
from passes import (IngestQueries, analytics_pass, ingest_pass, run_child,
                    run_cli_captured)
from polytax import enumeration, ingest

BUNDLED_ANCHORS = {"traits": 23, "categories": 97, "tables": 9, "schemas": 262}
OMO_SCHEMAS = 10  # `policies count --table open-market-operations`


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("POLYTAX_DATA", None)
    return env


def bundled_path(src: Path) -> Path:
    return src / "polytax" / "data" / ingest.BUNDLED_DATASET


def schema_counts(doc: dict) -> tuple[int, int]:
    """(checkmarks, schemas with subtraits expanded) of a raw document."""
    subtraits = {t["id"]: len(t.get("subtraits", [])) for t in doc["traits"]}
    plain = expanded = 0
    for table in doc["tables"]:
        for row in table["rows"]:
            marks = [c for c in table["trait_columns"] if c in row["marks"]]
            plain += len(marks)
            expanded += sum(max(1, subtraits[m]) for m in marks)
    return plain, expanded


def instantiation_sample(rng: random.Random, doc: dict, marks: dict, size: int) -> tuple:
    """(category, trait, subtrait, bindings) for `size` seeded checkmarks."""
    traits = {t["id"]: t for t in doc["traits"]}
    categories = {c["id"]: c for c in doc["categories"]}
    pairs = [(c, t) for c, ts in marks.items() for t in ts]
    out = []
    for category, trait_id in rng.sample(pairs, min(size, len(pairs))):
        trait = traits[trait_id]
        params = list(categories[category].get("own_parameters", [])) + trait["parameters"]
        subtrait = None
        if trait["subtraits"]:
            sub = rng.choice(trait["subtraits"])
            subtrait = sub["id"]
            params += sub["parameters"]
        bindings = {p["name"]: gen.SAMPLE_BINDING[p["kind"]] for p in params}
        out.append((category, trait_id, subtrait, bindings))
    return tuple(out)


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def cli_families(bundled: str, extension: str) -> dict[str, list[list[str]]]:
    """Command variants by family; each cycle runs one variant of each."""
    return {
        "validate": [["validate", bundled]],
        "tree": [["tree", "--format", f] for f in ("dot", "text")],
        "policies list": [["policies", "list"], ["policies", "list", "--expand-subtraits"],
                          ["policies", "list", "--tag", "international-trade"],
                          ["policies", "list", "--table", "open-market-operations"]],
        "policies count": [["policies", "count"],
                           ["policies", "count", "--table", "open-market-operations"],
                           ["policies", "count", "--by", "table"]],
        "matrix": [["matrix", "--null-mode", m] for m in NULL_MODES],
        "corr": [["corr", "--null-mode", m] for m in NULL_MODES],
        "dist": [["dist", "--null-mode", m] for m in NULL_MODES],
        "mst": [["mst", "--null-mode", m, "--format", f] for m in NULL_MODES for f in ("dot", "csv")],
        "show": [["show", "Forward Guidance"], ["show", "personal-income-tax"], ["show", "Tariff"]],
        "merge": [["merge", bundled, extension]],
    }


# Machine-speed probes: fixed work that involves no polytax code, timed
# between ops. A run scales its times by probe_ref_s / mean probe time; the
# references are typical probe times on a 2-vCPU x86-64 VM (Xeon, 2.1 GHz)
# and only fix the unit of the scaled times.
SPEED_PROBE_REF_S = 0.020


def speed_probe() -> float:
    """Probe for the in-process workloads: interpreter work with no
    allocation that outlives it, so it reads no state a previous op left."""
    start = time.perf_counter()
    table = {}
    for i in range(100_000):
        key = i & 511
        table[key] = table.get(key, 0) + i * i % 7
    return time.perf_counter() - start


class CliCold:
    """One op is one fresh `python -m polytax.cli ...` on the bundled dataset."""

    name = "cli-cold"
    in_process = False
    probe_ref_s = 0.165
    probes_per_op = 0.5

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed, self.src, self.out = seed, src, out
        self.env = child_env(src)
        self.peak_rss = 0.0

    def probe(self) -> float:
        """Probe for process start-up: a fresh interpreter that imports numpy."""
        seconds, status, _ = run_child([sys.executable, "-c", "import numpy"], self.env,
                                       subprocess.DEVNULL, subprocess.DEVNULL)
        if status != 0:
            raise RuntimeError(f"speed probe exited {status}")
        return seconds

    def setup(self) -> None:
        bundled = bundled_path(self.src)
        doc = json.loads(bundled.read_text("utf-8"))
        extension, _ = gen.make_extension(doc, self.seed)
        ext_path = self.out / "cli-extension.json"
        ext_path.write_text(json.dumps(extension), "utf-8")
        self.families = cli_families(str(bundled), str(ext_path))
        self.cycle = len(self.families)
        self.extension_categories = len(extension["categories"])
        self.schemas = schema_counts(doc)
        # Warm the bytecode cache the way a user's first call would.
        _, status, _ = run_child([sys.executable, "-m", "polytax.cli", "--help"], self.env,
                                 subprocess.DEVNULL, subprocess.DEVNULL)
        if status != 0:
            raise RuntimeError(f"`polytax --help` exited {status}")
        self.reference = {}
        for variants in self.families.values():
            for argv in variants:
                code, out, err = run_cli_captured(argv)
                if code != 0:
                    raise RuntimeError(f"in-process `polytax {' '.join(argv)}` exited {code}: {err}")
                self.reference[tuple(argv)] = out
        self.expected = {m: oracles.expected_analytics(doc, m) for m in NULL_MODES}
        self._commands = {}

    def command(self, i: int) -> list[str]:
        cycle, pos = divmod(i, self.cycle)
        if cycle not in self._commands:
            rng = random.Random(f"cli-cold:{self.seed}:{cycle}")
            picks = [rng.choice(v) for v in self.families.values()]
            rng.shuffle(picks)
            self._commands = {cycle: picks}
        return self._commands[cycle][pos]

    def op(self, i: int, rec):
        argv = self.command(i)
        with open(self.out / "cli.stdout", "w+b") as out, open(self.out / "cli.stderr", "w+b") as err:
            _, code, rss = run_child([sys.executable, "-m", "polytax.cli", *argv],
                                     self.env, out, err)
            out.seek(0)
            err.seek(0)
            result = (argv, code, out.read().decode("utf-8"), err.read().decode("utf-8", "replace"))
        self.peak_rss = max(self.peak_rss, rss)
        rec.count("cli.exit_unexpected", int(code != 0))
        return result

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def check(self, i: int, result) -> tuple[list[str], dict]:
        argv, code, out, err = result
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if "Traceback" in err:
            errors.append("traceback on stderr")
        if out != self.reference[tuple(argv)]:
            errors.append("stdout differs from the in-process run")
        errors += self._oracle(argv, out)
        command = " ".join(Path(a).name if os.sep in a else a for a in argv)
        return [f"polytax {command}: {e}" for e in errors], {command: sha256(out)}

    def _oracle(self, argv: list[str], out: str) -> list[str]:
        head = argv[0]
        if head == "validate":
            a = BUNDLED_ANCHORS
            want = f"OK: {a['traits']} traits, {a['categories']} categories, {a['tables']} tables\n"
            return [] if out == want else [f"printed {out!r}"]
        if argv[:2] == ["policies", "count"]:
            if "--by" in argv:
                total = sum(int(line.rsplit(": ", 1)[1]) for line in out.splitlines())
            else:
                total = int(out)
            want = OMO_SCHEMAS if "--table" in argv else BUNDLED_ANCHORS["schemas"]
            return [] if total == want else [f"counted {total}, expected {want}"]
        if argv[:2] == ["policies", "list"] and len(argv) == 2:
            lines = len(out.splitlines())
            return [] if lines == self.schemas[0] == BUNDLED_ANCHORS["schemas"] else [f"{lines} schemas"]
        if argv[:2] == ["policies", "list"] and "--expand-subtraits" in argv:
            lines = len(out.splitlines())
            return [] if lines == self.schemas[1] else [f"{lines} expanded schemas"]
        if head == "merge":
            merged = json.loads(out)
            want = BUNDLED_ANCHORS["categories"] + self.extension_categories
            return [] if len(merged["categories"]) == want else ["merged category count"]
        if head in ("matrix", "corr", "dist", "mst"):
            exp = self.expected[argv[argv.index("--null-mode") + 1]]
            if head == "mst":
                if argv[-1] == "dot":
                    pairs, weight = oracles.parse_mst_dot(out)
                    return oracles.check_mst(pairs, weight, exp, tol=1e-6 * len(pairs))
                pairs, weight = oracles.pruned_csv_edges(out)
                return oracles.check_mst(pairs, weight, exp, tol=1e-9 * len(pairs))
            labels, cols, cells = oracles.parse_csv_matrix(out)
            if head == "matrix":
                return oracles.check_trait_matrix(labels, cols, cells, exp)
            if cols != labels:
                return ["header differs from row labels"]
            check = oracles.check_corr if head == "corr" else oracles.check_dist
            return check(labels, cells, exp)
        return []  # tree, filtered lists, show: the in-process output is the oracle


# ---------------------------------------------------------------------------
# analytics-n1000
# ---------------------------------------------------------------------------

class AnalyticsN1000:
    """One op is one analytics pass over a 1000 x 64 synthetic taxonomy."""

    name = "analytics-n1000"
    in_process = True
    probe = staticmethod(speed_probe)
    probe_ref_s = SPEED_PROBE_REF_S
    probes_per_op = 20
    cycle = len(NULL_MODES)
    N, K = 1000, 64

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed, self.src, self.out = seed, src, out

    def setup(self) -> None:
        doc, _ = gen.make_taxonomy(self.seed, self.N, self.K, null_share=0.05)
        path = self.out / "analytics.taxonomy.json"
        path.write_text(json.dumps(doc), "utf-8")
        tax, diagnostics = ingest.load_model_from_path(str(path))
        if diagnostics:
            raise RuntimeError(f"generated document has diagnostics: {diagnostics[:3]}")
        self.tax = tax
        self.expected = {m: oracles.expected_analytics(doc, m) for m in NULL_MODES}

    def null_mode(self, i: int) -> str:
        return NULL_MODES[(self.seed + i) % len(NULL_MODES)]

    def op(self, i: int, rec):
        return analytics_pass(self.tax, self.null_mode(i), rec)

    def check(self, i: int, r) -> tuple[list[str], dict]:
        mode = self.null_mode(i)
        exp = self.expected[mode]
        labels = r.mst.labels
        errors = (
            oracles.check_trait_matrix(r.matrix.row_labels, r.matrix.col_labels, r.matrix.cells, exp)
            + oracles.check_corr(r.corr.labels, np.array(r.corr.cells, dtype=float), exp)
            + oracles.check_dist(r.dist.labels, np.asarray(r.dist.cells), exp)
            + oracles.check_mst([(labels[a], labels[b]) for a, b, _ in r.mst.edges],
                                sum(w for _, _, w in r.mst.edges), exp, tol=1e-9 * len(labels))
        )
        rows = len(exp.labels) + 1
        for name in ("corr.csv", "dist.csv", "pruned.csv"):
            if r.texts[name].count("\n") != rows:
                errors.append(f"{name} does not have {rows} lines")
        return ([f"{mode}: {e}" for e in errors],
                {f"{mode}/{name}": sha256(text) for name, text in r.texts.items()})


# ---------------------------------------------------------------------------
# ingest-roundtrip
# ---------------------------------------------------------------------------

# Document sizes spread log-uniformly over 300..10,000 categories on a fixed
# grid, so every seed has the same median document; two of them hang their
# categories off a chain of groups hundreds of levels deep. An odd count
# puts the median op inside one document's samples.
INGEST_SIZES = tuple(round(300 * (10000 / 300) ** (i / 8)) for i in range(9))
INGEST_CHAINS = {2: 200, 5: 400}  # size index -> chain depth
INGEST_TRAITS = 32


@dataclass
class IngestDoc:
    path: Path
    facts: dict
    queries: IngestQueries
    added_schemas: int
    lookup_ids: tuple[str, ...]


class IngestRoundtrip:
    """One op round-trips one document through ingest, model and enumeration."""

    name = "ingest-roundtrip"
    in_process = True
    probe = staticmethod(speed_probe)
    probe_ref_s = SPEED_PROBE_REF_S
    probes_per_op = 2
    cycle = len(INGEST_SIZES)

    def __init__(self, seed: int, src: Path, out: Path):
        self.seed, self.src, self.out = seed, src, out

    def setup(self) -> None:
        rng = random.Random(f"ingest:{self.seed}")
        self.docs = []
        for idx, size in enumerate(INGEST_SIZES):
            chain = idx in INGEST_CHAINS
            doc, facts = gen.make_taxonomy(
                rng.randrange(2**32), size, INGEST_TRAITS,
                depth=INGEST_CHAINS.get(idx, 3), fanout=4, chain=chain)
            path = self.out / f"ingest-{idx}.taxonomy.json"
            path.write_text(json.dumps(doc), "utf-8")
            extension, added = gen.make_extension(doc, rng.randrange(2**32))
            picks = rng.sample(doc["categories"], 2)
            queries = IngestQueries(
                table="table-1",
                lookups=(picks[0]["id"], picks[1]["name"]),
                instantiate=instantiation_sample(rng, doc, facts["marks"], 20),
                extension=extension,
            )
            del facts["marks"]
            self.docs.append(IngestDoc(path, facts, queries, added,
                                       tuple(p["id"] for p in picks)))
        self.order = rng.sample(range(len(self.docs)), len(self.docs))

    def doc(self, i: int) -> IngestDoc:
        return self.docs[self.order[i % len(self.docs)]]

    def op(self, i: int, rec):
        return ingest_pass(self.doc(i).path.read_bytes(), self.doc(i).queries, rec)

    def check(self, i: int, r) -> tuple[list[str], dict]:
        d = self.doc(i)
        f = d.facts
        errors = []

        def expect(what, got, want):
            if got != want:
                errors.append(f"{what}: got {got}, expected {want}")

        expect("diagnostics", [x.code for x in r.diagnostics], [])
        expect("categories", len(r.tax.categories), f["categories"])
        expect("traits", len(r.tax.traits), f["traits"])
        expect("tables", len(r.tax.tables), f["tables"])
        expect("filtered schemas", len(r.filtered), f["schemas_by_table"][d.queries.table])
        expect("expanded schemas", len(r.expanded), f["schemas_expanded"])
        expect("checkmarks", sum(r.counts.values()), f["schemas"])
        expect("lookups", [x.id for x in r.found], list(d.lookup_ids))
        expect("instantiated", [(p.schema.category_id, p.schema.trait_id, p.schema.subtrait_id)
                                for p in r.policies], [q[:3] for q in d.queries.instantiate])
        expect("merged categories", len(r.merged.categories),
               f["categories"] + len(d.queries.extension["categories"]))
        expect("merged checkmarks", sum(enumeration.count_checkmarks(r.merged).values()),
               f["schemas"] + d.added_schemas)
        text = r.texts["merged.taxonomy.json"]
        reparsed, diagnostics = ingest.parse_taxonomy_document(text)
        expect("re-parse diagnostics", [x.code for x in diagnostics], [])
        if reparsed != r.merged:
            errors.append("parse(serialize(merged)) differs from merged")
        expect("tree nodes", r.tree_nodes, f["tree_nodes"])
        expect("text tree lines", r.texts["tree.txt"].count("\n"), f["tree_nodes"])
        expect("dot tree edges", r.texts["tree.dot"].count(" -> "), f["tree_nodes"] - 1)
        expect("schema list lines", r.texts["schemas.txt"].count("\n"), f["schemas_expanded"])
        return ([f"{d.path.name}: {e}" for e in errors],
                {f"{d.path.name}/{name}": sha256(t) for name, t in r.texts.items()})


WORKLOADS = {w.name: w for w in (CliCold, AnalyticsN1000, IngestRoundtrip)}


# ---------------------------------------------------------------------------
# Inputs of the per-layer sweep over the bundled dataset
# ---------------------------------------------------------------------------

@dataclass
class SweepInputs:
    data: bytes
    queries: IngestQueries
    null_mode: str
    commands: list


def sweep_inputs(seed: int, src: Path, out: Path) -> SweepInputs:
    bundled = bundled_path(src)
    data = bundled.read_bytes()
    doc = json.loads(data)
    extension, _ = gen.make_extension(doc, seed)
    ext_path = out / "sweep-extension.json"
    ext_path.write_text(json.dumps(extension), "utf-8")
    rng = random.Random(f"sweep:{seed}")
    _, _, x = oracles.trait_rows(doc, "include")
    marks = {c["id"]: [t["id"] for t, v in zip(doc["traits"], row) if v]
             for c, row in zip(doc["categories"], x)}
    queries = IngestQueries(
        table="open-market-operations",
        lookups=("personal-income-tax", "Forward Guidance"),
        instantiate=instantiation_sample(rng, doc, marks, 20),
        extension=extension,
    )
    commands = [variants[0] for variants in cli_families(str(bundled), str(ext_path)).values()]
    return SweepInputs(data, queries, NULL_MODES[seed % len(NULL_MODES)], commands)
