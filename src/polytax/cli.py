"""Command-line interface: one argparse parser built from the COMMANDS
table, and run_cli, which parses, runs the command and writes its text
inside one error boundary.

Exit codes: 0 success, 1 validation or lookup errors, 2 usage errors (a
usage line, then `polytax <cmd>: error: ...` on stderr). Every
IngestError and PolicyError ends the command with its diagnostics on
stderr and exit code 1, never with a traceback; a file that cannot be
read or decoded is an E_SYNTAX error. For every command and for --help,
an --out file that cannot be written, stdout that cannot be written (a
full disk), or output that does not encode as UTF-8 (a lone surrogate in
an id, name or label) exits 1 with a one-line message; a closed pipe
exits 1 quietly. A message that stderr cannot take is dropped, and the
exit code stays that of the error it reported. The bundled dataset is
the default input; POLYTAX_DATA or --input override it. Only the
matrix, corr, dist and mst commands import analytics, and with it
numpy; the taxonomy commands, table among them, start without it.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import enumeration, export, ingest
from .model import NULL_MODES, PolicyCategory, PolicyError


def _write_out(text: str, out: str | None = None) -> None:
    """Write text to the --out file, or to stdout when out is None; text
    that does not encode as UTF-8 is refused whatever stdout's error handler."""
    data = text.encode("utf-8")
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out, "wb") as f:
            f.write(data)


def _write_err(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


class _Parser(argparse.ArgumentParser):
    """Help goes through _write_out, so a full disk under stdout is an
    error; a usage error exits 2 even when stderr cannot take it."""

    def print_help(self, file=None) -> None:
        _write_out(self.format_help())

    def error(self, message: str):
        try:
            _write_err(f"{self.format_usage()}{self.prog}: error: {message}")
        except OSError:
            pass
        raise SystemExit(2)


def _file(path: str, must_exist: bool = True) -> str:
    """A file path; a directory, or a missing file that must exist, is a usage error."""
    if must_exist and not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File {path!r} does not exist.")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File {path!r} is a directory.")
    return path


def _format(*choices: str) -> tuple:
    return ("--format", dict(default=choices[0], choices=choices, help="Output format."))


INPUT = ("--input", dict(type=_file, metavar="FILE",
                         help="Taxonomy file (defaults to the bundled dataset)."))
OUT = ("--out", dict(type=functools.partial(_file, must_exist=False), metavar="FILE",
                     help="Output file (defaults to stdout)."))
NULL_MODE = ("--null-mode", dict(default="include", choices=NULL_MODES,
                                 help="How to treat categories that implement no traits."))
FILTERS = [
    INPUT,
    ("--table", dict(help="Only schemas of this checkmark table.")),
    ("--tag", dict(help="Only schemas of categories with this cross tag.")),
    ("--trait", dict(help="Only schemas of this trait.")),
    ("--group", dict(help="Group path prefix, '/'-separated.")),
    ("--expand-subtraits", dict(action="store_true", help="One schema per subtrait.")),
]


def validate(args) -> str:
    m = ingest.load_bundled_dataset(args.file)
    return f"OK: {len(m.traits)} traits, {len(m.categories)} categories, {len(m.tables)} tables\n"


def tree(args) -> str:
    tree_export = export.export_tree_dot if args.format == "dot" else export.export_tree_text
    return tree_export(ingest.load_bundled_dataset(args.input)).text


def _filter(args) -> enumeration.EnumerationFilter:
    prefix = tuple(args.group.split("/")) if args.group else None
    return enumeration.EnumerationFilter(
        table=args.table, group_prefix=prefix, cross_tag=args.tag, trait_id=args.trait
    )


def policies_list(args) -> str:
    model = ingest.load_bundled_dataset(args.input)
    schemas = enumeration.enumerate_schemas(model, _filter(args), args.expand_subtraits)
    return export.export_schema_list(schemas).text


def policies_count(args) -> str:
    model = ingest.load_bundled_dataset(args.input)
    flt = _filter(args)
    counts = enumeration.count_checkmarks(model, args.by or "table", flt, args.expand_subtraits)
    if args.by is None:
        return f"{sum(counts.values())}\n"
    return "".join(f"{name}: {counts[name]}\n" for name in sorted(counts))


def matrix_csv(kernel: str | None, args) -> str:
    """The trait matrix, or the analytics kernel of that name applied to it, as CSV."""
    from . import analytics

    result = analytics.build_trait_matrix(ingest.load_bundled_dataset(args.input), args.null_mode)
    if kernel is not None:
        result = getattr(analytics, kernel)(result)
    return export.export_matrix_csv(result).text


def mst(args) -> str:
    from . import analytics

    tm = analytics.build_trait_matrix(ingest.load_bundled_dataset(args.input), args.null_mode)
    mst_export = export.export_mst_dot if args.format == "dot" else export.export_pruned_csv
    return mst_export(analytics.kruskal_mst(analytics.euclidean_distance(tm))).text


def table(args) -> str:
    return export.export_table_markdown(ingest.load_bundled_dataset(args.input), args.name).text


def merge(args) -> str:
    base = ingest.load_bundled_dataset(args.base)
    merged = ingest.merge_extension(base, ingest.read_document(args.ext))
    return ingest.serialize_taxonomy_document(merged)


def show(args) -> str:
    model = ingest.load_bundled_dataset(args.input)
    found = enumeration.lookup(model, args.name)
    if isinstance(found, PolicyCategory):
        lines = [f"category {found.id}: {found.name}"]
        lines.append("group path: " + " > ".join(found.group_path))
        if found.cross_tags:
            lines.append("tags: " + ", ".join(sorted(found.cross_tags)))
        traits = sorted(model.implementable_trait_ids(found.id))
        lines.append("traits: " + (", ".join(traits) or "(none)"))
    else:
        lines = [f"node {found.id} [{found.kind}]: {found.label}"]
    return "\n".join(lines) + "\n"


# (command path, help, arguments, function from the parsed arguments to the
# text printed); a group is an entry without a function, before its commands.
COMMANDS = (
    (("validate",), "Validate a taxonomy-definition file.",
     [("file", dict(type=_file, metavar="FILE", help="Taxonomy file to validate."))], validate),
    (("tree",), "Print the taxonomy tree.", [INPUT, _format("text", "dot"), OUT], tree),
    (("policies",), "Enumerate atomic-policy schemas.", [], None),
    (("policies", "list"), "List schemas, one category/trait[/subtrait] per line.",
     FILTERS, policies_list),
    (("policies", "count"), "Count schemas under a filter, in total or grouped with --by.",
     [*FILTERS, ("--by", dict(choices=("table", "category", "trait"), help="Count per group."))],
     policies_count),
    (("matrix",), "Export the boolean trait matrix as CSV.",
     [INPUT, NULL_MODE, OUT], functools.partial(matrix_csv, None)),
    (("corr",), "Export the Pearson correlation matrix as CSV.",
     [INPUT, NULL_MODE, OUT], functools.partial(matrix_csv, "pearson_correlation")),
    (("dist",), "Export the Euclidean distance matrix as CSV.",
     [INPUT, NULL_MODE, OUT], functools.partial(matrix_csv, "euclidean_distance")),
    (("mst",), "Export the minimum-spanning tree (DOT) or pruned distances (CSV).",
     [INPUT, NULL_MODE, _format("dot", "csv"), OUT], mst),
    (("table",), "Print one checkmark table as markdown: a row per category, a column per trait.",
     [("name", dict(metavar="NAME", help="Table name.")), INPUT, OUT], table),
    (("merge",), "Merge an extension document into a base taxonomy file.", [
        ("base", dict(type=_file, metavar="BASE", help="Base taxonomy file.")),
        ("ext", dict(type=_file, metavar="EXT", help="Extension document.")),
        OUT,
    ], merge),
    (("show",), "Look up a category or tree node by id or name.",
     [INPUT, ("name", dict(metavar="NAME", help="Category or tree-node id or name."))], show),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, built on first use; parsing
    leaves it unchanged, so every run_cli call shares it."""
    about = "Economic-policy taxonomy engine and trait analytics."
    root = _Parser(prog="polytax", description=about, allow_abbrev=False)
    groups = {(): root.add_subparsers(metavar="COMMAND", required=True)}
    for path, text, arguments, run in COMMANDS:
        parser = groups[path[:-1]].add_parser(
            path[-1], help=text, description=text, allow_abbrev=False
        )
        for name, options in arguments:
            parser.add_argument(name, **options)
        if run is None:
            groups[path] = parser.add_subparsers(metavar="COMMAND", required=True)
        else:
            parser.set_defaults(run=run)
    return root


def run_cli(argv) -> int:
    """Run the CLI in this process as the polytax script does; returns the exit code."""
    try:
        try:
            args = _parser().parse_args(list(argv))
            _write_out(args.run(args), getattr(args, "out", None))
            return 0
        except SystemExit as exc:  # argparse, after --help (0) or a usage error (2)
            return exc.code
        except ingest.IngestError as exc:
            for d in exc.diagnostics:
                _write_err(f"error: {d}")
        except PolicyError as exc:
            _write_err(str(exc))
        except BrokenPipeError:
            # A closed pipe: point stdout at devnull, so that the
            # interpreter's flush at exit stays quiet too.
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
        except (OSError, UnicodeEncodeError) as exc:
            _write_err(f"Error: {exc}")
    except OSError:
        pass  # stderr cannot take the message
    return 1


def main() -> int:
    """The polytax script."""
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
