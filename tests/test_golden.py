"""Golden CLI artifacts: the sha256 of each command's stdout on the bundled data.

The expected hashes are in golden/hashes.json. Any change to one of them
is recorded in CHANGES.md together with its reason.
"""
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from polytax import ingest
from polytax.analytics import NULL_MODES
from polytax.cli import main

GOLDEN = Path(__file__).parent / "golden"
HASHES = json.loads((GOLDEN / "hashes.json").read_text(encoding="utf-8"))

# "{dataset}" is replaced by a file holding the bundled dataset.
ARTIFACTS = {
    "tree-text": ["tree"],
    "tree-dot": ["tree", "--format", "dot"],
    "policies-list": ["policies", "list"],
    "policies-list-expand": ["policies", "list", "--expand-subtraits"],
    "policies-count-by-trait": ["policies", "count", "--by", "trait"],
    "show": ["show", "Forward Guidance"],
    "table-income-tax": ["table", "income-tax"],
    "validate": ["validate", "{dataset}"],
    "merge": ["merge", "{dataset}", str(GOLDEN / "extension.json")],
    **{
        f"{command}-{mode}": [command, "--null-mode", mode]
        for command in ("matrix", "corr", "dist")
        for mode in NULL_MODES
    },
    **{
        f"mst-{fmt}-{mode}": ["mst", "--null-mode", mode, "--format", fmt]
        for fmt in ("dot", "csv")
        for mode in NULL_MODES
    },
}


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "bundled.taxonomy.json"
    path.write_text(ingest.bundled_dataset_text(), encoding="utf-8")
    return str(path)


def test_every_artifact_has_a_pinned_hash():
    assert sorted(ARTIFACTS) == sorted(HASHES)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_cli_artifact_hash(name, dataset_file):
    argv = [a.replace("{dataset}", dataset_file) for a in ARTIFACTS[name]]
    result = CliRunner().invoke(main, argv, env={ingest.DATA_ENV_VAR: None})
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == HASHES[name]
