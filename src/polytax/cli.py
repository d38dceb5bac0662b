"""Command-line interface.

Exit codes: 0 success, 1 validation or lookup errors, 2 usage errors;
run_cli takes the same exit path as the polytax script, in this process.
Every IngestError and PolicyError ends the command with its diagnostics
on stderr and exit code 1, never with a traceback; a file that cannot be
read or decoded is an E_SYNTAX error. For every command and for --help,
an --out file that cannot be written, stdout that cannot be written (a
full disk), or output that does not encode as UTF-8 (a lone surrogate in
an id, name or label) exits 1 with a one-line message; a closed pipe
exits 1 quietly. The bundled dataset is the default input; POLYTAX_DATA
or --input override it. Only the matrix, corr, dist and mst commands
import analytics, and with it numpy; the taxonomy commands, table among
them, start without it.
"""
from __future__ import annotations

import functools
from typing import Optional

import click

from . import enumeration, export, ingest
from .model import NULL_MODES, PolicyCategory, PolicyError


def _write_out(text: str, out: Optional[str] = None) -> None:
    """Write text to the --out file, or to stdout when out is None; text
    that does not encode as UTF-8 is refused whatever stdout's error handler."""
    try:
        data = text.encode("utf-8")
        if out is None:
            click.echo(text, nl=False)
            return
    except UnicodeEncodeError as exc:
        raise click.ClickException(f"cannot write {out or 'the output'}: {exc}") from None
    try:
        with open(out, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise click.FileError(out, hint=exc.strerror) from None


input_option = click.option(
    "--input", "input_path", default=None, type=click.Path(exists=True, dir_okay=False),
    help="Taxonomy file (defaults to the bundled dataset).",
)
null_mode_option = click.option(
    "--null-mode", default="include",
    type=click.Choice(NULL_MODES),
    help="How to treat categories that implement no traits.",
)
out_option = click.option(
    "--out", default=None, type=click.Path(dir_okay=False), help="Output file."
)


class _Main(click.Group):
    """The error boundary around the whole run, argument parsing and --help
    included: IngestError, PolicyError and an OSError such as a full disk
    under stdout exit 1 with a message. Click's own main has already turned
    a closed pipe (EPIPE) into a quiet exit 1."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs)
        except ingest.IngestError as exc:
            for d in exc.diagnostics:
                click.echo(f"error: {d}", err=True)
        except PolicyError as exc:
            click.echo(str(exc), err=True)
        except OSError as exc:
            click.echo(f"Error: {exc}", err=True)
        raise SystemExit(1)


@click.group(cls=_Main)
def main():
    """Economic-policy taxonomy engine and trait analytics."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
def validate(file):
    """Validate a taxonomy-definition file."""
    model = ingest.load_bundled_dataset(file)
    _write_out(
        f"OK: {len(model.traits)} traits, {len(model.categories)} categories, "
        f"{len(model.tables)} tables\n"
    )


@main.command()
@input_option
@click.option("--format", "fmt", default="text", type=click.Choice(["dot", "text"]))
@out_option
def tree(input_path, fmt, out):
    """Print the taxonomy tree."""
    model = ingest.load_bundled_dataset(input_path)
    if fmt == "dot":
        artifact = export.export_tree_dot(model)
    else:
        artifact = export.export_tree_text(model)
    _write_out(artifact.text, out)


@main.group()
def policies():
    """Enumerate atomic-policy schemas."""


def filter_options(command):
    """The schema filter options that policies list and count share; the
    command gets the input path, an EnumerationFilter as flt and the
    expand-subtraits flag."""

    @functools.wraps(command)
    def with_filter(table, tag, trait, group, **kwargs):
        prefix = tuple(group.split("/")) if group else None
        flt = enumeration.EnumerationFilter(
            table=table, group_prefix=prefix, cross_tag=tag, trait_id=trait
        )
        return command(flt=flt, **kwargs)

    for option in reversed((
        input_option,
        click.option("--table", default=None),
        click.option("--tag", default=None),
        click.option("--trait", default=None),
        click.option("--group", default=None, help="Group path prefix, '/'-separated."),
        click.option("--expand-subtraits", is_flag=True),
    )):
        with_filter = option(with_filter)
    return with_filter


@policies.command("list")
@filter_options
def policies_list(input_path, flt, expand_subtraits):
    """List schemas, one category/trait[/subtrait] per line."""
    model = ingest.load_bundled_dataset(input_path)
    schemas = enumeration.enumerate_schemas(model, flt, expand_subtraits)
    _write_out(export.export_schema_list(schemas).text)


@policies.command("count")
@filter_options
@click.option("--by", default=None, type=click.Choice(["table", "category", "trait"]))
def policies_count(input_path, flt, expand_subtraits, by):
    """Count schemas under a filter, in total or grouped with --by."""
    model = ingest.load_bundled_dataset(input_path)
    counts = enumeration.count_checkmarks(model, by or "table", flt, expand_subtraits)
    if by is None:
        _write_out(f"{sum(counts.values())}\n")
    else:
        _write_out("".join(f"{name}: {counts[name]}\n" for name in sorted(counts)))


def _matrix_command(name: str, function: Optional[str], doc: str) -> None:
    """Register a command that exports the trait matrix, or the analytics
    function of that name applied to it, as CSV."""

    @main.command(name, help=doc)
    @input_option
    @null_mode_option
    @out_option
    def command(input_path, null_mode, out):
        from . import analytics

        result = analytics.build_trait_matrix(ingest.load_bundled_dataset(input_path), null_mode)
        if function is not None:
            result = getattr(analytics, function)(result)
        _write_out(export.export_matrix_csv(result).text, out)


_matrix_command("matrix", None, "Export the boolean trait matrix as CSV.")
_matrix_command("corr", "pearson_correlation", "Export the Pearson correlation matrix as CSV.")
_matrix_command("dist", "euclidean_distance", "Export the Euclidean distance matrix as CSV.")


@main.command()
@input_option
@null_mode_option
@click.option("--format", "fmt", default="dot", type=click.Choice(["dot", "csv"]))
@out_option
def mst(input_path, null_mode, fmt, out):
    """Export the minimum-spanning tree (DOT) or pruned distances (CSV)."""
    from . import analytics

    tm = analytics.build_trait_matrix(ingest.load_bundled_dataset(input_path), null_mode)
    result = analytics.kruskal_mst(analytics.euclidean_distance(tm))
    if fmt == "dot":
        artifact = export.export_mst_dot(result)
    else:
        artifact = export.export_pruned_csv(result)
    _write_out(artifact.text, out)


@main.command()
@click.argument("name")
@input_option
@out_option
def table(name, input_path, out):
    """Print one checkmark table as markdown: a row per category, a column per trait."""
    model = ingest.load_bundled_dataset(input_path)
    _write_out(export.export_table_markdown(model, name).text, out)


@main.command()
@click.argument("base", type=click.Path(exists=True, dir_okay=False))
@click.argument("ext", type=click.Path(exists=True, dir_okay=False))
@out_option
def merge(base, ext, out):
    """Merge an extension document into a base taxonomy file."""
    merged = ingest.merge_extension(ingest.load_bundled_dataset(base), ingest.read_document(ext))
    _write_out(ingest.serialize_taxonomy_document(merged), out)


@main.command()
@input_option
@click.argument("name")
def show(input_path, name):
    """Look up a category or tree node by id or name."""
    model = ingest.load_bundled_dataset(input_path)
    found = enumeration.lookup(model, name)
    if isinstance(found, PolicyCategory):
        lines = [f"category {found.id}: {found.name}"]
        lines.append("group path: " + " > ".join(found.group_path))
        if found.cross_tags:
            lines.append("tags: " + ", ".join(sorted(found.cross_tags)))
        traits = sorted(model.implementable_trait_ids(found.id))
        lines.append("traits: " + (", ".join(traits) or "(none)"))
    else:
        lines = [f"node {found.id} [{found.kind}]: {found.label}"]
    _write_out("\n".join(lines) + "\n")


def run_cli(argv) -> int:
    """Run the CLI in this process as the polytax script does; returns the exit code."""
    try:
        main.main(args=list(argv))
    except SystemExit as exc:
        return exc.code or 0


if __name__ == "__main__":
    main()
