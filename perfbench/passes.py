"""Library passes: the calls one op makes into polytax, each inside a span.

`analytics_pass` and `ingest_pass` are the ops of the analytics-n1000 and
ingest-roundtrip workloads. `layer_sweep` runs both on the bundled dataset,
plus the CLI in-process, so that a traced run can report every layer,
including those its own workload never calls.
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from polytax import analytics, cli, enumeration, export, ingest, model
from spans import Recorder, spans_inside


@dataclass
class AnalyticsResult:
    matrix: object
    corr: object
    dist: object
    mst: object
    texts: dict


def analytics_pass(tax, null_mode: str, rec: Recorder) -> AnalyticsResult:
    """Trait matrix -> Pearson -> Euclidean -> Kruskal MST -> every export."""
    with rec.span("analytics.build_trait_matrix"):
        matrix = analytics.build_trait_matrix(tax, null_mode)
    with rec.span("analytics.pearson_correlation"):
        corr = analytics.pearson_correlation(matrix)
    with rec.span("analytics.euclidean_distance"):
        dist = analytics.euclidean_distance(matrix)
    with rec.span("analytics.kruskal_mst"):
        mst = analytics.kruskal_mst(dist)
    texts = {}
    for kind, value in (("trait", matrix), ("corr", corr), ("dist", dist)):
        with rec.span(f"export.export_matrix_csv.{kind}"):
            texts[f"{kind}.csv"] = export.export_matrix_csv(value).text
    with rec.span("export.export_pruned_csv"):
        texts["pruned.csv"] = export.export_pruned_csv(mst).text
    with rec.span("export.export_mst_dot"):
        texts["mst.dot"] = export.export_mst_dot(mst).text
    if rec.enabled:
        n = len(matrix.row_labels)
        rec.count("analytics.rows", n)
        rec.count("analytics.undefined_cells",
                  int(np.isnan(np.array(corr.cells, dtype=float)).sum()))
        rec.count("analytics.euclidean_distance.bytes_computed",
                  np.asarray(matrix.cells).nbytes + np.asarray(dist.cells).nbytes)
        rec.count("analytics.kruskal_mst.candidate_edges", n * (n - 1) // 2)
        rec.count("export.bytes_out", sum(len(t.encode()) for t in texts.values()))
    return AnalyticsResult(matrix, corr, dist, mst, texts)


@dataclass(frozen=True)
class IngestQueries:
    """What one ingest op asks of its document, fixed at set-up."""

    table: str
    lookups: tuple[str, ...]
    instantiate: tuple[tuple, ...]  # (category, trait, subtrait, bindings)
    extension: dict


@dataclass
class IngestResult:
    tax: object
    diagnostics: list
    filtered: list
    expanded: list
    counts: dict
    found: list
    policies: list
    merged: object
    tree_nodes: int
    texts: dict


def ingest_pass(data: bytes, q: IngestQueries, rec: Recorder) -> IngestResult:
    """Parse -> enumerate -> count -> lookup -> instantiate -> merge ->
    serialize -> tree walk and exports."""
    with spans_inside(rec, ingest, "validate_model", "model.validate_model"):
        with rec.span("ingest.parse_taxonomy_document"):
            tax, diagnostics = ingest.parse_taxonomy_document(data)
        with rec.span("enumeration.enumerate_schemas"):
            filtered = enumeration.enumerate_schemas(
                tax, enumeration.EnumerationFilter(table=q.table))
        with rec.span("enumeration.enumerate_schemas"):
            expanded = enumeration.enumerate_schemas(tax, expand_subtraits=True)
        with rec.span("enumeration.count_checkmarks"):
            counts = enumeration.count_checkmarks(tax)
        found = []
        for name in q.lookups:
            with rec.span("enumeration.lookup"):
                found.append(enumeration.lookup(tax, name))
        policies = []
        for category, trait, subtrait, bindings in q.instantiate:
            with rec.span("model.instantiate_atomic_policy"):
                policies.append(model.instantiate_atomic_policy(
                    tax, category, trait, subtrait, bindings))
        with rec.span("ingest.merge_extension"):
            merged = ingest.merge_extension(tax, q.extension)
        texts = {}
        with rec.span("ingest.serialize_taxonomy_document"):
            texts["merged.taxonomy.json"] = ingest.serialize_taxonomy_document(merged)
        with rec.span("enumeration.iter_tree"):
            tree_nodes = sum(1 for _ in enumeration.iter_tree(tax))
        with rec.span("export.export_tree_dot"):
            texts["tree.dot"] = export.export_tree_dot(tax).text
        with rec.span("export.export_tree_text"):
            texts["tree.txt"] = export.export_tree_text(tax).text
        with rec.span("export.export_schema_list"):
            texts["schemas.txt"] = export.export_schema_list(expanded).text
    if rec.enabled:
        rec.count("ingest.bytes_in", len(data))
        rec.count("ingest.bytes_out", len(texts["merged.taxonomy.json"].encode()))
        rec.count("model.diagnostics", len(diagnostics))
        rec.count("enumeration.schemas", len(expanded))
        rec.count("enumeration.tree_nodes", tree_nodes)
        rec.count("export.bytes_out", sum(
            len(t.encode()) for name, t in texts.items() if name != "merged.taxonomy.json"))
    return IngestResult(tax, diagnostics, filtered, expanded, counts, found,
                        policies, merged, tree_nodes, texts)


def hostile_probe(documents: list[tuple[str, str]], rec: Recorder) -> dict[str, str]:
    """Parse each hostile document once. Returns {name: outcome}, where the
    outcome is "ok" when parsing returned without raising and produced only
    documented diagnostic codes."""
    outcomes = {}
    for name, text in documents:
        try:
            _, diagnostics = ingest.parse_taxonomy_document(text)
        except Exception as exc:  # the probe records any escape, by type
            outcomes[name] = f"raised {type(exc).__name__}"
            continue
        unknown = sorted({d.code for d in diagnostics} - ingest.DIAGNOSTIC_CODES)
        outcomes[name] = f"undocumented codes {unknown}" if unknown else "ok"
    rec.count("ingest.raised", sum(o.startswith("raised") for o in outcomes.values()))
    return outcomes


def run_cli_captured(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_cli(argv)
        except Exception:  # a traceback is a CLI failure, not a harness crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def layer_sweep(sweep, rec: Recorder) -> None:
    """One pass over every layer on the bundled dataset."""
    with rec.span("ingest.load_bundled_dataset"):
        ingest.load_bundled_dataset()
    result = ingest_pass(sweep.data, sweep.queries, rec)
    analytics_pass(result.tax, sweep.null_mode, rec)
    for argv in sweep.commands:
        with rec.span("cli.run_cli"):
            code, _, _ = run_cli_captured(argv)
        rec.count("cli.exit_unexpected", int(code != 0))


def run_child(argv: list[str], env: dict, stdout, stderr) -> tuple[float, int, float]:
    """Run one process to completion; returns (seconds, exit code, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def cold_start_probes(env: dict, repeats: int = 5) -> dict[str, float]:
    """Interpreter, `import numpy` and `import polytax.cli` start-up, each in
    a fresh interpreter; the imports are reported minus the bare interpreter."""
    scripts = {"interpreter": "pass", "numpy": "import numpy", "cli": "import polytax.cli"}
    medians = {}
    for name, code in scripts.items():
        times = []
        for _ in range(repeats):
            seconds, status, _ = run_child([sys.executable, "-c", code], env,
                                           subprocess.DEVNULL, subprocess.DEVNULL)
            if status != 0:
                raise RuntimeError(f"cold-start probe {code!r} exited {status}")
            times.append(seconds)
        medians[name] = statistics.median(times) * 1e3
    return {
        "cli.interpreter_ms": medians["interpreter"],
        "cli.import_numpy_ms": medians["numpy"] - medians["interpreter"],
        "cli.import_ms": medians["cli"] - medians["interpreter"],
    }
