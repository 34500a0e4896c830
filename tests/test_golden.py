"""Whole-pipeline byte identity: the command line's outputs on the fixture
corpus, and the benchmark workloads' output digests, against the files in
tests/golden/ (rewritten by tests/golden/regen.py)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from golden import regen


def _golden(name: str) -> str:
    return (regen.GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", regen.FIXTURE_GOLDENS)
def test_fixture_outputs_match_golden(name, tmp_path):
    assert regen.render_golden(name, tmp_path) == _golden(name)


def test_workload_digests_match_golden(tmp_path):
    assert regen.workload_digests(tmp_path) == json.loads(_golden(regen.DIGESTS))


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_fixture_golden_does_not_depend_on_the_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(regen.GOLDEN / "regen.py"), "corpus-run-json.txt"],
                          capture_output=True, env=env, check=True)
    assert proc.stdout.decode("utf-8") == _golden("corpus-run-json.txt")
