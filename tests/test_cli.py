import json

import pytest
from click.testing import CliRunner

from polytax import ingest
from polytax.cli import main, run_cli


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bundled.taxonomy.json"
    path.write_text(ingest.bundled_dataset_text(), encoding="utf-8")
    return str(path)


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
    assert "payment-rail" in merged.category("personal-income-tax").implementable_trait_ids


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

# "@name" stands for a file written by the test; env values may use it too.
# Each case is (argv, env, exit code, text expected on stderr).
BAD_INPUTS = {
    "merge-not-json": (["merge", "@dataset", "@not-json"], {}, 1, "E_SYNTAX"),
    "merge-json-list": (["merge", "@dataset", "@json-list"], {}, 1, "E_SCHEMA"),
    "corr-one-row": (["corr", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"),
    "dist-one-row": (["dist", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"),
    "mst-exclude-one-row": (
        ["mst", "--null-mode", "exclude", "--input", "@one-category"], {}, 1, "E_BAD_FILTER"
    ),
    "tree-without-tree": (["tree", "--input", "@one-category"], {}, 1, "E_NOT_FOUND"),
    "count-bad-data": (["policies", "count"], {ingest.DATA_ENV_VAR: "@not-json"}, 1, "E_SYNTAX"),
    "matrix-bad-data": (["matrix"], {ingest.DATA_ENV_VAR: "@not-json"}, 1, "E_SYNTAX"),
    "count-missing-data": (
        ["policies", "count"], {ingest.DATA_ENV_VAR: "@missing"}, 1, "E_SYNTAX"
    ),
    "count-undecodable-data": (
        ["policies", "count"], {ingest.DATA_ENV_VAR: "@ff-fe"}, 1, "E_SYNTAX"
    ),
    "validate-deep-tree": (["validate", "@deep-tree"], {}, 1, "E_SYNTAX"),
    "validate-directory": (["validate", "@directory"], {}, 2, "is a directory"),
    "merge-directory": (["merge", "@dataset", "@directory"], {}, 2, "is a directory"),
    "corr-out-directory": (["corr", "--out", "@directory"], {}, 2, "is a directory"),
    "tree-out-missing-dir": (
        ["tree", "--out", "@missing-dir"], {}, 1, "No such file or directory"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_without_traceback(runner, dataset_file, tmp_path, case):
    files = {
        "@dataset": dataset_file,
        "@missing": str(tmp_path / "missing.json"),
        "@directory": str(tmp_path),
        "@missing-dir": str(tmp_path / "missing" / "tree.txt"),
    }
    for name, data in (
        ("not-json", b"{not json"),
        ("json-list", b"[1, 2]"),
        ("one-category", json.dumps(ONE_CATEGORY).encode()),
        ("ff-fe", b"\xff\xfe"),
        ("deep-tree", b'{"tree": ' + b'{"id": "g", "children": [' * 5000 + b"]}" * 5000 + b"}"),
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
