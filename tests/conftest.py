import sys
from pathlib import Path

import pytest

# make sibling test modules importable (the acceptance suite reuses the
# independent block oracle defined in test_blocks)
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def corpus_tables():
    """(spec, table) for every default-corpus group, built once per session."""
    from heightzero.reports import build_table, default_corpus

    return [(spec, build_table(spec)) for spec in default_corpus()]
