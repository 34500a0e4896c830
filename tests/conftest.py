from __future__ import annotations

import functools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the benchmark's Java generator and workloads, as test inputs
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import workloads
from corpusdata import write_corpus, write_corpus_with_bad_record


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory) -> Path:
    return write_corpus(tmp_path_factory.mktemp("corpus") / "corpus20.jsonl")


@pytest.fixture(scope="session")
def bad_corpus_path(tmp_path_factory) -> Path:
    return write_corpus_with_bad_record(tmp_path_factory.mktemp("corpus") / "corpus_bad.jsonl")


@pytest.fixture(scope="session")
def benchmark_input(tmp_path_factory):
    """workloads.build(workload, seed, "full", dir) as a function of
    (workload, seed), each built once per session into its own directory,
    which the returned dict names as "dir". Callers only read it."""

    @functools.cache
    def build(workload: str, seed: int) -> dict:
        out = tmp_path_factory.mktemp(f"{workload}-{seed}")
        return dict(workloads.build(workload, seed, "full", out), dir=out)

    return build
