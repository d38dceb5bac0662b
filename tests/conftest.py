from pathlib import Path

import pytest
from hypothesis import settings

from polytax import ingest

# Every run draws the same examples, and no example database is written.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def model():
    """The bundled dataset, loaded once."""
    return ingest.load_bundled_dataset()


@pytest.fixture(scope="session")
def dataset_file():
    """The path of the dataset file shipped beside the package."""
    return str(Path(ingest.__file__).parent / "data" / ingest.BUNDLED_DATASET)
