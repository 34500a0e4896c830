"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -v -s tests/test_acceptance.py`).

Headline benchmark numbers from the literature need an 87k-commit corpus
and a fine-tuned 7B model, neither of which fits a development machine;
the criteria below are property-based substitutes that pin every local
behavior instead.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from condenser.changeset import classify_change_explained, diff_facts
from condenser.comments import categorize_comment, elicit_comments
from condenser.config import PipelineConfig
from condenser.corpus import (
    EndpointError,
    SftRecord,
    condense_commit,
    export_sft,
    generate_remote,
    load_corpus,
    load_sft,
    run_pipeline,
)
from condenser.identifiers import IdentifierFilter, apply_filter, split_camel
from condenser.javafacts import CommentFacts, parse_java
from condenser.metrics import TokenSeq, bleu_norm, meteor, rouge_l, tokenize_message
from condenser.templater import count_tokens

from grammar import check_template
from oracles import bleu_oracle, meteor_oracle, rouge_l_oracle
from test_changeset import (
    _mutate_model,
    _random_model,
    _render_model,
    apply_file_diff,
    identity_view,
)
from test_corpus import _ScriptedHandler  # scripted mock endpoint handler
from test_identifiers import SPLIT_GOLDEN, _random_identifier
from test_metrics import GOLDEN_PAIRS
from typefixtures import ALL_TYPE_FIXTURES


def _report(name: str) -> None:
    print(f"\nACCEPTANCE PASS: {name}")


# --- criterion: metric oracle equivalence ------------------------------------------


def test_criterion_metric_oracle_equivalence():
    """All three metrics agree with brute-force enumeration oracles to 1e-9
    on dense coverage of short token sequences, in under two minutes."""
    started = time.monotonic()
    alphabet = ["a", "b", "c", "d", "e"]

    def all_seqs(symbols, max_len):
        for length in range(1, max_len + 1):
            yield from itertools.product(symbols, repeat=length)

    pairs: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    small3 = list(all_seqs(["a", "b", "c"], 3))
    pairs.extend((c, r) for c in small3 for r in small3)  # exhaustive, 1521 pairs
    small5 = list(all_seqs(alphabet, 2))
    pairs.extend((c, r) for c in small5 for r in small5)  # exhaustive, 900 pairs
    rng = random.Random(20260808)
    for _ in range(20_000):  # dense seeded coverage up to length 8
        c = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        r = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        pairs.append((c, r))

    for c, r in pairs:
        cs, rs = TokenSeq(c), TokenSeq(r)
        assert bleu_norm(cs, rs) == pytest.approx(bleu_oracle(c, r), abs=1e-9), (c, r)
        assert rouge_l(cs, rs) == pytest.approx(rouge_l_oracle(c, r), abs=1e-9), (c, r)
        assert meteor(cs, rs) == pytest.approx(meteor_oracle(c, r), abs=1e-9), (c, r)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(f"metric oracle equivalence ({len(pairs)} pairs in {elapsed:.1f}s)")


# --- criterion: metric golden suite --------------------------------------------------


def test_criterion_metric_golden_suite():
    """25 hand-labeled pairs score exactly as the oracles computed; identical
    pairs reach 100.0 for ROUGE-L and (with >= 4 tokens) BLEU-Norm."""
    assert len(GOLDEN_PAIRS) == 25
    for candidate, reference, exp_bleu, exp_meteor, exp_rouge in GOLDEN_PAIRS:
        c, r = tokenize_message(candidate), tokenize_message(reference)
        assert bleu_norm(c, r) == pytest.approx(exp_bleu, abs=1e-9)
        assert meteor(c, r) == pytest.approx(exp_meteor, abs=1e-9)
        assert rouge_l(c, r) == pytest.approx(exp_rouge, abs=1e-9)
    identical = tokenize_message("Add LoggingListener to lucene tests")  # 5 tokens
    assert rouge_l(identical, identical) == pytest.approx(100.0, abs=1e-9)
    assert bleu_norm(identical, identical) == pytest.approx(100.0, abs=1e-9)
    _report("metric golden suite (25 pairs exact)")


# --- criterion: template grammar over the fixture corpus ------------------------------


def test_criterion_template_grammar(corpus_path):
    """Every rendered template from the 20-commit corpus matches the
    structural grammar, in under ten seconds."""
    started = time.monotonic()
    samples = load_corpus(corpus_path)
    assert len(samples) == 20
    valid = 0
    for sample, template in run_pipeline(samples):
        problems = check_template(template.full_text)
        assert problems == [], f"{sample.repo}@{sample.hash}: {problems}"
        valid += 1
    elapsed = time.monotonic() - started
    assert valid == 20
    assert elapsed < 10.0, f"grammar pass took {elapsed:.1f}s"
    _report(f"template grammar (20/20 templates in {elapsed:.1f}s)")


# --- criterion: change-type classifier fixtures ----------------------------------------


def test_criterion_change_type_fixtures():
    """Twelve synthetic commits, one per type, classify to their intended
    type, deterministically across three repeated runs."""
    assert len(ALL_TYPE_FIXTURES) == 12
    assert sorted(t for t, _o, _n in ALL_TYPE_FIXTURES) == sorted(f"Ty{i}" for i in range(12))
    for expected, old_src, new_src in ALL_TYPE_FIXTURES:
        outcomes = set()
        for _ in range(3):
            old = parse_java(old_src)
            new = parse_java(new_src)
            diff = diff_facts(old, new, "F.java", "F.java")
            change_type, rule = classify_change_explained(diff, [new])
            outcomes.add(change_type.value)
        assert outcomes == {expected}, f"wanted {expected}, got {outcomes} (rule {rule})"
    _report("change-type classifier fixtures (12/12, deterministic x3)")


# --- criterion: structural-diff reconstruction -------------------------------------------


def test_criterion_structural_diff_reconstruction():
    """On 30 synthetic declaration-level old/new pairs, applying the diff
    records to old facts reproduces new facts exactly."""
    produced = 0
    seed = 1000  # independent of the unit-test seeds
    while produced < 30:
        seed += 1
        rng = random.Random(seed)
        old_model = _random_model(rng)
        new_model = _mutate_model(rng, old_model)
        old_src, new_src = _render_model(old_model), _render_model(new_model)
        if old_src == new_src:
            continue
        try:
            old, new = parse_java(old_src), parse_java(new_src)
        except Exception:
            continue
        produced += 1
        diff = diff_facts(old, new, "F.java", "F.java")
        assert apply_file_diff(identity_view(old), diff.files[0]) == identity_view(new)
    _report("structural-diff reconstruction (30/30 pairs)")


# --- criterion: comment categorization -----------------------------------------------


def test_criterion_comment_categorization():
    """Keyword and length rules, their priority order, and elicitation of
    the motivating inline comment."""
    def fake(kind: str, text: str) -> CommentFacts:
        return CommentFacts(kind, text, len(text.split()), "file")

    assert categorize_comment(fake("line", "covered by the MIT License")) == "license"
    assert categorize_comment(fake("line", "TODO: revisit")) == "todo"
    assert categorize_comment(fake("javadoc", " ".join(["w"] * 21))) == "javadoc"
    assert categorize_comment(fake("javadoc", " ".join(["w"] * 20))) == "general"  # strict > 20
    assert categorize_comment(fake("line", "TODO check license text")) == "license"  # priority
    assert categorize_comment(fake("block", "todo " + " ".join(["w"] * 25))) == "todo"  # priority
    assert categorize_comment(fake("line", "plain remark")) == "general"

    old = parse_java("class Dialer { void display(String c) { show(c); } }")
    new = parse_java(
        "class Dialer { void display(String c) {\n"
        "    // handle callers without callerid so they display as unknown\n"
        "    show(orUnknown(c));\n"
        "} }"
    )
    elicited = elicit_comments(old, new, diff_facts(old, new, "Dialer.java", "Dialer.java"))
    texts = {(c.text, c.origin) for c in elicited}
    assert ("handle callers without callerid so they display as unknown", "added") in texts
    _report("comment categorization (rules, priority, motivating case)")


# --- criterion: identifier pipeline ----------------------------------------------------


def test_criterion_identifier_pipeline(corpus_path):
    """Splitter golden set, losslessness fuzz over 10,000 identifiers, and
    the rare-field case surviving filtering into the rendered section."""
    assert len(SPLIT_GOLDEN) >= 30
    for raw, expected in SPLIT_GOLDEN:
        assert split_camel(raw) == expected

    rng = random.Random(424242)
    for _ in range(10_000):
        raw = _random_identifier(rng)
        words = split_camel(raw)
        assert "".join(words) == raw.replace("_", "")
        assert all(words)

    samples = load_corpus(corpus_path)
    sample = next(s for s in samples if "trackstream" in s.message)
    result = condense_commit(sample.commit_input())
    assert "trackstream" in result.template.identifiers_section
    flt = IdentifierFilter(stoplist=PipelineConfig().stoplist, min_length=2)
    assert apply_filter(list(result.identifiers), flt) == list(result.identifiers)
    _report("identifier pipeline (golden split, 10k lossless fuzz, rare field kept)")


# --- criterion: corpus round-trip -------------------------------------------------------


def test_criterion_corpus_round_trip(tmp_path, corpus_path):
    """export then reload is byte-identical across 20 records, with prompts
    within 1024 tokens and targets within 128."""
    samples = load_corpus(corpus_path)
    pairs = run_pipeline(samples)
    first = tmp_path / "sft_a.jsonl"
    second = tmp_path / "sft_b.jsonl"
    count = export_sft(pairs, first)
    assert count == 20
    reloaded = load_sft(first)
    assert [r.prompt for r in reloaded] == [t.full_text for _s, t in pairs]
    assert [r.target for r in reloaded] == [
        " ".join(tokenize_message(s.message).tokens[:128]) for s, _t in pairs
    ]
    export_sft(pairs, second)
    assert first.read_bytes() == second.read_bytes()
    for record in reloaded:
        assert count_tokens(record.prompt) <= 1024
        assert len(record.target.split()) <= 128
    _report("corpus round-trip (20 records byte-identical, budgets enforced)")


# --- criterion: end-to-end determinism ---------------------------------------------------


def test_criterion_end_to_end_determinism(tmp_path, corpus_path):
    """Two full corpus-run executions produce byte-identical outputs, even
    in separate processes with different hash seeds."""
    import os
    import subprocess
    import sys

    outputs = []
    for seed, name in (("1", "r1.jsonl"), ("977", "r2.jsonl")):
        out = tmp_path / name
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "condenser.cli", "corpus", "run",
             "--corpus", str(corpus_path), "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 0
    _report("end-to-end determinism (two corpus-run processes byte-identical)")


# --- criterion: generation client contract ------------------------------------------------


def test_criterion_generation_client_contract():
    """Against a local mock endpoint: success returns the text verbatim with
    measured latency, three 5xx responses exhaust three attempts, and a slow
    endpoint raises TimeoutError."""
    import http.server
    import threading

    _ScriptedHandler.script = []
    _ScriptedHandler.calls = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    record = SftRecord(prompt="p", target="t", repo="r", hash="h")
    try:
        _ScriptedHandler.script[:] = [("sleep", 0.1, "ok")]
        response = generate_remote(record, url, PipelineConfig(backoff_base=0.01))
        assert response.text == "ok"
        assert response.latency >= 0.1

        _ScriptedHandler.script[:] = [("status", 500)] * 3
        _ScriptedHandler.calls.clear()
        with pytest.raises(EndpointError) as err:
            generate_remote(record, url, PipelineConfig(attempts=3, backoff_base=0.01))
        assert (err.value.status, err.value.attempts) == (500, 3)
        assert len(_ScriptedHandler.calls) == 3

        _ScriptedHandler.script[:] = [("sleep", 0.5, "late")]
        with pytest.raises(TimeoutError):
            generate_remote(record, url, PipelineConfig(attempts=1, timeout=0.1, backoff_base=0.01))
    finally:
        server.shutdown()
    _report("generation client contract (success, retry-then-fail, timeout)")
