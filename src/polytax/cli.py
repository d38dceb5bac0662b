"""Command-line interface.

Exit codes: 0 success, 1 validation or lookup errors, 2 usage errors.
Every IngestError and PolicyError ends the command with its diagnostics
on stderr and exit code 1, never with a traceback; a file that cannot be
read or decoded is an E_SYNTAX error, and an --out file that cannot be
written exits 1 with a one-line message. The bundled dataset is the
default input; POLYTAX_DATA or --input override it.
"""
from __future__ import annotations

import sys
from typing import Iterable, Optional

import click

from . import analytics, enumeration, export, ingest
from .model import Diagnostic, PolicyError, TaxonomyModel


def _report(diags: Iterable[Diagnostic]) -> None:
    for d in diags:
        click.echo(f"{d.severity}: {d.code} at {d.path}: {d.message}", err=True)


def _load_input(input_path: Optional[str]) -> TaxonomyModel:
    """The model in input_path, or the bundled dataset; raises IngestError."""
    if input_path is None:
        return ingest.load_bundled_dataset()
    model, diags = ingest.load_model_from_path(input_path)
    if model is None or any(d.is_error() for d in diags):
        raise ingest.IngestError(diags)
    return model


def _trait_matrix(input_path: Optional[str], null_mode: str) -> analytics.TraitMatrix:
    return analytics.build_trait_matrix(_load_input(input_path), null_mode)


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise click.FileError(out, hint=exc.strerror) from None


input_option = click.option(
    "--input", "input_path", default=None, type=click.Path(exists=True, dir_okay=False),
    help="Taxonomy file (defaults to the bundled dataset).",
)
null_mode_option = click.option(
    "--null-mode", default="include",
    type=click.Choice(analytics.NULL_MODES),
    help="How to treat categories that implement no traits.",
)
out_option = click.option(
    "--out", default=None, type=click.Path(dir_okay=False), help="Output file."
)


class _Main(click.Group):
    """The error boundary: IngestError and PolicyError exit 1 with a message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ingest.IngestError as exc:
            _report(exc.diagnostics)
        except PolicyError as exc:
            click.echo(str(exc), err=True)
        raise SystemExit(1)


@click.group(cls=_Main)
def main():
    """Economic-policy taxonomy engine and trait analytics."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file):
    """Validate a taxonomy-definition file."""
    model = _load_input(file)
    click.echo(
        f"OK: {len(model.traits)} traits, {len(model.categories)} categories, "
        f"{len(model.tables)} tables"
    )


@main.command()
@input_option
@click.option("--format", "fmt", default="text", type=click.Choice(["dot", "text"]))
@out_option
def tree(input_path, fmt, out):
    """Print the taxonomy tree."""
    model = _load_input(input_path)
    if fmt == "dot":
        artifact = export.export_tree_dot(model)
    else:
        artifact = export.export_tree_text(model)
    _write_out(artifact.text, out)


def _make_filter(table, tag, trait, group):
    return enumeration.EnumerationFilter(
        table=table,
        cross_tag=tag,
        trait_id=trait,
        group_prefix=tuple(group.split("/")) if group else None,
    )


@main.group()
def policies():
    """Enumerate atomic-policy schemas."""


@policies.command("list")
@input_option
@click.option("--table", default=None)
@click.option("--tag", default=None)
@click.option("--trait", default=None)
@click.option("--group", default=None, help="Group path prefix, '/'-separated.")
@click.option("--expand-subtraits", is_flag=True)
def policies_list(input_path, table, tag, trait, group, expand_subtraits):
    """List schemas, one category/trait[/subtrait] per line."""
    schemas = enumeration.enumerate_schemas(
        _load_input(input_path), _make_filter(table, tag, trait, group), expand_subtraits
    )
    click.echo(export.export_schema_list(schemas).text, nl=False)


@policies.command("count")
@input_option
@click.option("--table", default=None)
@click.option("--tag", default=None)
@click.option("--trait", default=None)
@click.option("--group", default=None)
@click.option("--expand-subtraits", is_flag=True)
@click.option("--by", default=None, type=click.Choice(["table", "category", "trait"]))
def policies_count(input_path, table, tag, trait, group, expand_subtraits, by):
    """Count schemas under a filter, or grouped counts with --by."""
    model = _load_input(input_path)
    if by is not None:
        counts = enumeration.count_checkmarks(model, by)
        for name in sorted(counts):
            click.echo(f"{name}: {counts[name]}")
        return
    schemas = enumeration.enumerate_schemas(
        model, _make_filter(table, tag, trait, group), expand_subtraits
    )
    click.echo(str(len(schemas)))


@main.command()
@input_option
@null_mode_option
@out_option
def matrix(input_path, null_mode, out):
    """Export the boolean trait matrix as CSV."""
    tm = _trait_matrix(input_path, null_mode)
    _write_out(export.export_matrix_csv(tm).text, out)


@main.command()
@input_option
@null_mode_option
@out_option
def corr(input_path, null_mode, out):
    """Export the Pearson correlation matrix as CSV."""
    tm = _trait_matrix(input_path, null_mode)
    _write_out(export.export_matrix_csv(analytics.pearson_correlation(tm)).text, out)


@main.command()
@input_option
@null_mode_option
@out_option
def dist(input_path, null_mode, out):
    """Export the Euclidean distance matrix as CSV."""
    tm = _trait_matrix(input_path, null_mode)
    _write_out(export.export_matrix_csv(analytics.euclidean_distance(tm)).text, out)


@main.command()
@input_option
@null_mode_option
@click.option("--format", "fmt", default="dot", type=click.Choice(["dot", "csv"]))
@out_option
def mst(input_path, null_mode, fmt, out):
    """Export the minimum-spanning tree (DOT) or pruned distances (CSV)."""
    tm = _trait_matrix(input_path, null_mode)
    result = analytics.kruskal_mst(analytics.euclidean_distance(tm))
    if fmt == "dot":
        artifact = export.export_mst_dot(result)
    else:
        artifact = export.export_pruned_csv(result)
    _write_out(artifact.text, out)


@main.command()
@click.argument("base", type=click.Path(exists=True, dir_okay=False))
@click.argument("ext", type=click.Path(exists=True, dir_okay=False))
@out_option
def merge(base, ext, out):
    """Merge an extension document into a base taxonomy file."""
    merged = ingest.merge_extension(_load_input(base), ingest.read_document(ext))
    _write_out(ingest.serialize_taxonomy_document(merged), out)


@main.command()
@input_option
@click.argument("name")
def show(input_path, name):
    """Look up a category or tree node by id or name."""
    found = enumeration.lookup(_load_input(input_path), name)
    if hasattr(found, "implementable_trait_ids"):
        click.echo(f"category {found.id}: {found.name}")
        click.echo("group path: " + " > ".join(found.group_path))
        if found.cross_tags:
            click.echo("tags: " + ", ".join(sorted(found.cross_tags)))
        click.echo("traits: " + (", ".join(sorted(found.implementable_trait_ids)) or "(none)"))
    else:
        click.echo(f"node {found.id} [{found.kind}]: {found.label}")


def run_cli(argv) -> int:
    """Invoke the CLI programmatically; returns the exit code."""
    try:
        main.main(args=list(argv), standalone_mode=False)
        return 0
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 2
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1


if __name__ == "__main__":
    main()
