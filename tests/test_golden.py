"""Golden CLI artifacts: the sha256 of each command's stdout on the bundled data.

The expected hashes are in golden/hashes.json. Any change to one of them
is recorded in CHANGES.md together with its reason.
"""
import hashlib
import json
from pathlib import Path

import pytest

from polytax import ingest
from polytax.analytics import NULL_MODES
from polytax.cli import run_cli

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


def test_every_artifact_has_a_pinned_hash():
    assert sorted(ARTIFACTS) == sorted(HASHES)


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_cli_artifact_hash(name, dataset_file, capsys, monkeypatch):
    monkeypatch.delenv(ingest.DATA_ENV_VAR, raising=False)
    argv = [a.replace("{dataset}", dataset_file) for a in ARTIFACTS[name]]
    code = run_cli(argv)
    out, err = capsys.readouterr()
    assert code == 0, out + err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HASHES[name]
