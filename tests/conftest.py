from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the benchmark's Java generator and workloads, as test inputs
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

from corpusdata import write_corpus, write_corpus_with_bad_record


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory) -> Path:
    return write_corpus(tmp_path_factory.mktemp("corpus") / "corpus20.jsonl")


@pytest.fixture(scope="session")
def bad_corpus_path(tmp_path_factory) -> Path:
    return write_corpus_with_bad_record(tmp_path_factory.mktemp("corpus") / "corpus_bad.jsonl")
