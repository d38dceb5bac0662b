import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import polytax
from polytax import ingest
from polytax.cli import main, run_cli


@pytest.fixture()
def runner():
    return CliRunner()


def test_validate_bundled_file_exits_zero(runner, dataset_file):
    result = runner.invoke(main, ["validate", dataset_file])
    assert result.exit_code == 0
    assert result.output.startswith("OK: 23 traits, 97 categories, 9 tables")


def test_validate_broken_file_exits_one(runner, tmp_path):
    bad = tmp_path / "bad.taxonomy.json"
    bad.write_text("{not json", encoding="utf-8")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1


def test_validate_missing_file_is_usage_error(runner):
    result = runner.invoke(main, ["validate", "/no/such/file.json"])
    assert result.exit_code == 2


def test_policies_count_table(runner):
    result = runner.invoke(main, ["policies", "count", "--table", "open-market-operations"])
    assert result.exit_code == 0
    assert result.output.strip() == "10"


def test_policies_count_total(runner):
    result = runner.invoke(main, ["policies", "count"])
    assert result.output.strip() == "262"


def test_policies_count_by_table(runner):
    result = runner.invoke(main, ["policies", "count", "--by", "table"])
    assert result.exit_code == 0
    counts = dict(line.split(": ") for line in result.output.splitlines())
    assert counts["income-tax"] == "37"
    assert counts["financial-markets"] == "6"


def test_policies_count_by_honours_the_filter(runner):
    argv = ["policies", "count", "--by", "table", "--table", "open-market-operations"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.output == "open-market-operations: 10\n"
    expanded = runner.invoke(main, ["policies", "count", "--by", "trait", "--expand-subtraits"])
    listed = runner.invoke(main, ["policies", "list", "--expand-subtraits"])
    total = sum(int(line.split(": ")[1]) for line in expanded.output.splitlines())
    assert total == len(listed.output.splitlines())


def test_policies_list_matches_count(runner):
    listed = runner.invoke(main, ["policies", "list", "--table", "debt-and-credit"])
    counted = runner.invoke(main, ["policies", "count", "--table", "debt-and-credit"])
    assert len(listed.output.splitlines()) == int(counted.output.strip())


def test_policies_list_bad_table_exits_one(runner):
    result = runner.invoke(main, ["policies", "list", "--table", "nope"])
    assert result.exit_code == 1


def test_tree_text_starts_at_root(runner):
    result = runner.invoke(main, ["tree"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "Economic Policy [group]"


def test_tree_dot(runner):
    result = runner.invoke(main, ["tree", "--format", "dot"])
    assert "economic_policy -> stabilization_policy" in result.output


def test_matrix_shape(runner):
    result = runner.invoke(main, ["matrix", "--null-mode", "exclude"])
    lines = result.output.splitlines()
    assert len(lines) == 1 + 55
    assert lines[0].count(",") == 23


def test_corr_has_empty_cells_in_include_mode(runner):
    result = runner.invoke(main, ["corr", "--null-mode", "include"])
    amnesty = next(l for l in result.output.splitlines() if l.startswith("tax-amnesty,"))
    assert set(amnesty.split(",")[1:]) == {""}


def test_dist_writes_file(runner, tmp_path):
    out = tmp_path / "dist.csv"
    result = runner.invoke(main, ["dist", "--out", str(out)])
    assert result.exit_code == 0
    assert result.output == ""
    assert out.read_text(encoding="utf-8").splitlines()[0].startswith(",")


def test_mst_collapse_dot_has_null_policy(runner):
    result = runner.invoke(main, ["mst", "--null-mode", "collapse", "--format", "dot"])
    assert result.exit_code == 0
    assert "null_policy" in result.output
    assert result.output.count(" -- ") == 55


def test_mst_csv(runner):
    result = runner.invoke(main, ["mst", "--null-mode", "exclude", "--format", "csv"])
    assert len(result.output.splitlines()) == 1 + 55


def test_bad_null_mode_is_usage_error(runner):
    result = runner.invoke(main, ["matrix", "--null-mode", "drop"])
    assert result.exit_code == 2


def test_merge_command(runner, dataset_file, tmp_path):
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({
        "traits": [{"id": "payment-rail", "name": "Payment Rail"}],
        "tables": [{
            "name": "income-tax",
            "trait_columns": ["payment-rail"],
            "rows": [{"category": "personal-income-tax", "marks": ["payment-rail"]}],
        }],
    }), encoding="utf-8")
    out = tmp_path / "merged.taxonomy.json"
    result = runner.invoke(main, ["merge", dataset_file, str(ext), "--out", str(out)])
    assert result.exit_code == 0
    merged, diags = ingest.parse_taxonomy_document(out.read_text(encoding="utf-8"))
    assert diags == []
    assert len(merged.traits) == 24
    assert "payment-rail" in merged.implementable_trait_ids("personal-income-tax")


@pytest.mark.parametrize("to_file", [False, True])
def test_merge_writes_a_lone_surrogate_as_an_escape(runner, dataset_file, tmp_path, to_file):
    doc = json.loads(Path(dataset_file).read_text(encoding="utf-8"))
    doc["categories"][0]["name"] = "\ud800"
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc), encoding="utf-8")
    ext = tmp_path / "ext.json"
    ext.write_text("{}", encoding="utf-8")
    out = tmp_path / "merged.taxonomy.json"
    result = runner.invoke(
        main, ["merge", str(base), str(ext)] + (["--out", str(out)] if to_file else [])
    )
    assert result.exit_code == 0
    text = out.read_text("utf-8") if to_file else result.stdout
    assert '"name": "\\ud800"' in text
    merged, diags = ingest.parse_taxonomy_document(text)
    assert diags == [] and merged.categories[0].name == "\ud800"


def test_merge_conflict_exits_one(runner, dataset_file, tmp_path):
    ext = tmp_path / "conflict.json"
    ext.write_text(json.dumps({
        "traits": [{"id": "tax-base", "name": "Tax Base Redux"}],
    }), encoding="utf-8")
    result = runner.invoke(main, ["merge", dataset_file, str(ext)])
    assert result.exit_code == 1


def test_show_category(runner):
    result = runner.invoke(main, ["show", "Carucage"])
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "category carucage: Carucage"


def test_show_ambiguous_exits_one(runner):
    result = runner.invoke(main, ["show", "Tax"])
    assert result.exit_code == 1


def test_show_miss_exits_one(runner):
    result = runner.invoke(main, ["show", "Window Tax"])
    assert result.exit_code == 1


def test_run_cli_exit_codes(capsys):
    assert run_cli(["policies", "count"]) == 0
    assert run_cli(["show", "Window Tax"]) == 1
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


ONE_CATEGORY = {
    "schema_version": "1",
    "traits": [{"id": "t", "name": "T"}],
    "categories": [{"id": "c", "name": "C", "group_path": ["Economic Policy"]}],
    "tables": [{"name": "main", "trait_columns": ["t"], "rows": [{"category": "c", "marks": ["t"]}]}],
}

ONE_CHANNEL = {
    "schema_version": "1",
    "traits": [],
    "categories": [],
    "channels": [{"id": "ch", "authority": "mint", "statement_path": ["Operating Income"]}],
}

# The first category's id and name hold a lone surrogate, which JSON text
# may hold but UTF-8 cannot; the second gives corr, dist and mst two rows.
SURROGATE_IDS = {
    "schema_version": "1",
    "traits": [{"id": "t", "name": "T"}],
    "categories": [
        {"id": "c\udc80", "name": "C\udc80", "group_path": ["Economic Policy"]},
        {"id": "d", "name": "D", "group_path": ["Economic Policy"]},
    ],
    "tables": [
        {"name": "main", "trait_columns": ["t"], "rows": [{"category": "c\udc80", "marks": ["t"]}]}
    ],
}

UNENCODABLE = "surrogates not allowed"

# "@name" stands for a file written by the test; env values may use it too.
# Each case is (argv, env, exit code, text expected on stderr).
BAD_INPUTS = {
    "merge-not-json": (["merge", "@dataset", "@not-json"], {}, 1, "E_SYNTAX"),
    "merge-json-list": (["merge", "@dataset", "@json-list"], {}, 1, "E_SCHEMA"),
    "merge-unknown-key": (
        ["merge", "@dataset", "@unknown-key"], {}, 1,
        "error: E_SCHEMA at /categores: unknown top-level key 'categores'\n",
    ),
    "corr-one-row": (["corr", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"),
    "dist-one-row": (["dist", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"),
    "mst-exclude-one-row": (
        ["mst", "--null-mode", "exclude", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"
    ),
    "tree-without-tree": (["tree", "--input", "@one-category"], {}, 1, "E_NOT_FOUND"),
    "table-unknown": (["table", "nope"], {}, 1, "E_NOT_FOUND: unknown table 'nope'"),
    "count-by-bad-table": (
        ["policies", "count", "--by", "table", "--table", "nosuch"], {}, 1, "E_BAD_FILTER"
    ),
    "count-bad-data": (["policies", "count"], {ingest.DATA_ENV_VAR: "@not-json"}, 1, "E_SYNTAX"),
    "matrix-bad-data": (["matrix"], {ingest.DATA_ENV_VAR: "@not-json"}, 1, "E_SYNTAX"),
    "count-missing-data": (
        ["policies", "count"], {ingest.DATA_ENV_VAR: "@missing"}, 1, "E_SYNTAX"
    ),
    "count-undecodable-data": (
        ["policies", "count"], {ingest.DATA_ENV_VAR: "@ff-fe"}, 1, "E_SYNTAX"
    ),
    "validate-deep-tree": (["validate", "@deep-tree"], {}, 1, "E_SYNTAX"),
    # An integer literal longer than int() converts (4,300 digits by default).
    "validate-long-integer": (
        ["validate", "@long-integer"], {}, 1, "error: E_SYNTAX at /: Exceeds the limit"
    ),
    "validate-bad-authority": (
        ["validate", "@one-channel"], {}, 1,
        "error: E_BAD_KIND at /channels/ch: unknown authority 'mint'\n",
    ),
    "validate-directory": (["validate", "@directory"], {}, 2, "is a directory"),
    "merge-directory": (["merge", "@dataset", "@directory"], {}, 2, "is a directory"),
    "corr-out-directory": (["corr", "--out", "@directory"], {}, 2, "is a directory"),
    "tree-out-missing-dir": (
        ["tree", "--out", "@missing-dir"], {}, 1, "No such file or directory"
    ),
    # A lone surrogate is valid JSON text but cannot be written as UTF-8;
    # test_surrogate_rows_cover_every_command names the commands these cover.
    "tree-lone-surrogate": (["tree", "--input", "@surrogate-label"], {}, 1, UNENCODABLE),
    "tree-out-lone-surrogate": (
        ["tree", "--input", "@surrogate-label", "--out", "@tree-out"], {}, 1, UNENCODABLE
    ),
    "list-lone-surrogate": (
        ["policies", "list", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE
    ),
    "count-by-category-lone-surrogate": (
        ["policies", "count", "--by", "category", "--input", "@surrogate-ids"], {}, 1,
        UNENCODABLE,
    ),
    "show-lone-surrogate": (["show", "C", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE),
    "matrix-lone-surrogate": (["matrix", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE),
    "corr-lone-surrogate": (["corr", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE),
    "dist-lone-surrogate": (["dist", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE),
    "mst-lone-surrogate": (["mst", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE),
    "table-lone-surrogate": (
        ["table", "main", "--input", "@surrogate-ids"], {}, 1, UNENCODABLE
    ),
}


def leaf_commands(group, prefix=()):
    """The argv prefix of every command under group that is not a group."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from leaf_commands(command, prefix + (name,))
        else:
            yield prefix + (name,)


def test_surrogate_rows_cover_every_command():
    rows = [argv for argv, _, _, expected in BAD_INPUTS.values() if expected == UNENCODABLE]
    uncovered = [
        leaf for leaf in leaf_commands(main)
        if not any(tuple(argv[:len(leaf)]) == leaf for argv in rows)
    ]
    # validate prints only counts, and merge writes a lone surrogate as a
    # JSON escape (test_merge_writes_a_lone_surrogate_as_an_escape).
    assert sorted(uncovered) == [("merge",), ("validate",)]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_without_traceback(runner, dataset_file, tmp_path, case):
    files = {
        "@dataset": dataset_file,
        "@missing": str(tmp_path / "missing.json"),
        "@directory": str(tmp_path),
        "@missing-dir": str(tmp_path / "missing" / "tree.txt"),
        "@tree-out": str(tmp_path / "tree.txt"),
    }
    surrogate_label = json.loads(Path(dataset_file).read_text(encoding="utf-8"))
    surrogate_label["tree"]["label"] = "\udc80"
    for name, data in (
        ("not-json", b"{not json"),
        ("json-list", b"[1, 2]"),
        ("one-category", json.dumps(ONE_CATEGORY).encode()),
        ("one-channel", json.dumps(ONE_CHANNEL).encode()),
        ("ff-fe", b"\xff\xfe"),
        ("deep-tree", b'{"tree": ' + b'{"id": "g", "children": [' * 5000 + b"]}" * 5000 + b"}"),
        ("long-integer", b'{"meta": {"n": ' + b"1" * 5000 + b"}}"),
        ("surrogate-label", json.dumps(surrogate_label).encode()),
        ("surrogate-ids", json.dumps(SURROGATE_IDS).encode()),
        ("unknown-key", b'{"categores": []}'),
    ):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        files[f"@{name}"] = str(path)
    argv, env, exit_code, expected = BAD_INPUTS[case]
    result = runner.invoke(
        main,
        [files.get(a, a) for a in argv],
        env={k: files.get(v, v) for k, v in env.items()},
    )
    assert result.exit_code == exit_code
    # Any other exception escaping main is printed as a traceback by
    # `python -m polytax.cli`.
    assert type(result.exception) is SystemExit
    assert expected in result.stderr
    assert "Traceback" not in result.stderr


def subprocess_env():
    """The environment for a python subprocess that imports this polytax
    and reads the bundled dataset."""
    src = str(Path(polytax.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop(ingest.DATA_ENV_VAR, None)
    return env


# Imports polytax, then runs each command of argv lists in turn; numpy must
# stay unloaded until the mst command, which must load it.
COLD_PATH_SCRIPT = """
import json, sys
import polytax
assert "numpy" not in sys.modules, "import polytax"
from polytax.cli import run_cli
for argv in json.loads(sys.argv[1]):
    assert run_cli(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert run_cli(["mst"]) == 0
assert "numpy" in sys.modules, "mst"
"""


def test_taxonomy_commands_do_not_import_numpy(dataset_file):
    extension = str(Path(__file__).parent / "golden" / "extension.json")
    argvs = [
        ["validate", dataset_file],
        ["tree"],
        ["policies", "list"],
        ["policies", "count"],
        ["show", "personal-income-tax"],
        ["merge", dataset_file, extension],
        ["table", "income-tax"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", COLD_PATH_SCRIPT, json.dumps(argvs)],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_bundled_dataset_loads_without_importlib_resources():
    # -S: without site, no .pth file can load importlib.resources first.
    script = (
        "import sys; from polytax import ingest; ingest.load_bundled_dataset(); "
        "assert 'importlib.resources' not in sys.modules"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_analytics_names_resolve_on_first_access():
    from polytax import kruskal_mst
    from polytax.analytics import NULL_MODES, kruskal_mst as defined

    assert kruskal_mst is defined
    assert NULL_MODES is polytax.model.NULL_MODES
    with pytest.raises(AttributeError, match="no_such_name"):
        polytax.no_such_name


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["tree"], ["show", "Carucage"], ["--help"], ["policies", "list"], ["validate", "@dataset"],
])
def test_unwritable_stdout_exits_one_without_traceback(argv, dataset_file):
    argv = [dataset_file if a == "@dataset" else a for a in argv]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "polytax.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, env=subprocess_env(), text=True, timeout=120,
        )
    assert result.returncode == 1
    assert result.stderr == "Error: [Errno 28] No space left on device\n"


def test_lone_surrogate_exits_one_in_utf8_mode(tmp_path):
    # In UTF-8 mode stdout's error handler is surrogateescape, which would
    # write U+DC80 as the raw byte 0x80.
    path = tmp_path / "surrogate-ids.json"
    path.write_text(json.dumps(SURROGATE_IDS), encoding="utf-8")
    env = subprocess_env()
    env.pop("PYTHONIOENCODING", None)
    result = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "polytax.cli", "policies", "list",
         "--input", str(path)],
        capture_output=True, env=env, timeout=120,
    )
    assert result.returncode == 1
    assert result.stdout == b""
    assert UNENCODABLE in result.stderr.decode() and b"Traceback" not in result.stderr


def test_closed_pipe_stays_quiet(dataset_file):
    extension = str(Path(__file__).parent / "golden" / "extension.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "polytax.cli", "merge", dataset_file, extension],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    # The merged document (~120 kB) outgrows a 64 KiB pipe buffer, so a
    # write meets the closed pipe.
    assert proc.returncode == 1
    assert err == b""


ROOT = Path(__file__).parent.parent


def referenced_names(source):
    """Names a module reads, attributes it takes and strings it holds,
    outside the __all__ and _ANALYTICS lists; definitions and imports
    are not references."""
    tree = ast.parse(source)
    listed = {
        id(node)
        for assign in ast.walk(tree)
        if isinstance(assign, ast.Assign)
        and any(getattr(t, "id", None) in ("__all__", "_ANALYTICS") for t in assign.targets)
        for node in ast.walk(assign.value)
    }
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_name_has_a_caller_or_a_readme_entry():
    """Each name in a module's __all__ and in the package's lazy analytics
    names resolves, and the package or perfbench refers to it, or README
    names it."""
    sources = [*(ROOT / "src" / "polytax").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    referenced = {
        name for path in sources for name in referenced_names(path.read_text(encoding="utf-8"))
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    public = [(polytax, name) for name in sorted(polytax._ANALYTICS)]
    for info in pkgutil.iter_modules(polytax.__path__):
        module = importlib.import_module(f"polytax.{info.name}")
        public += [(module, name) for name in getattr(module, "__all__", ())]

    orphans = []
    for module, name in public:
        getattr(module, name)
        if name not in referenced and not re.search(rf"\b{name}\b", readme):
            orphans.append(f"{module.__name__}.{name}")
    assert orphans == []
