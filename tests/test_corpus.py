"""Corpus loading, pipeline runs, SFT export, and the generation client."""

from __future__ import annotations

import http.server
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

import condenser
from condenser.config import PipelineConfig
from condenser.corpus import (
    CorpusFormatError,
    EndpointConfig,
    EndpointError,
    SftRecord,
    condense_commit,
    corpus_identifier_stats,
    export_sft,
    generate_remote,
    load_corpus,
    load_sft,
    run_pipeline,
)
from condenser.diffing import CommitInput, FilePair
from condenser.templater import count_tokens
from corpusdata import COMMITS


# --- load_corpus -----------------------------------------------------------------


def test_load_single_record(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(COMMITS[0]) + "\n", encoding="utf-8")
    samples = load_corpus(path)
    assert len(samples) == 1
    assert samples[0].repo == COMMITS[0]["repo"]
    assert samples[0].file_pairs[0].status == "modified"


def test_duplicate_repo_hash_skipped(tmp_path, caplog):
    path = tmp_path / "dup.jsonl"
    line = json.dumps(COMMITS[0])
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    samples = load_corpus(path)
    assert len(samples) == 1


def test_malformed_lines_skipped_with_diagnostics(tmp_path, caplog):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps(COMMITS[0]) + "\n"
        + "{not json\n"
        + json.dumps({"repo": "r", "hash": "h", "message": "  ", "files": []}) + "\n"
        + json.dumps(COMMITS[1]) + "\n",
        encoding="utf-8",
    )
    samples = load_corpus(path)
    assert len(samples) == 2


def test_ill_typed_file_entries_skipped(tmp_path):
    path = tmp_path / "typed.jsonl"
    path.write_text(
        json.dumps({"repo": "r", "hash": "h1", "message": "m", "files": ["not-an-object"]}) + "\n"
        + json.dumps({"repo": "r", "hash": "h2", "message": "m",
                      "files": [{"path_new": "A.java", "content_new": 42}]}) + "\n"
        + json.dumps(COMMITS[0]) + "\n",
        encoding="utf-8",
    )
    samples = load_corpus(path)
    assert len(samples) == 1


def test_zero_valid_records_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


def test_loaded_plus_skipped_equals_total(tmp_path):
    path = tmp_path / "mixed.jsonl"
    lines = [json.dumps(c) for c in COMMITS[:4]] + ["{oops", json.dumps(COMMITS[0])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    samples = load_corpus(path)
    total = sum(1 for l in path.read_text().splitlines() if l.strip())
    skipped = total - len(samples)
    assert (len(samples), skipped) == (4, 2)  # one malformed, one duplicate


def test_added_and_deleted_statuses_derived(corpus_path):
    samples = load_corpus(corpus_path)
    by_hash = {s.hash: s for s in samples}
    assert by_hash["a1b2c3d40011"].file_pairs[0].status == "added"
    assert by_hash["a1b2c3d40010"].file_pairs[0].status == "deleted"
    assert by_hash["a1b2c3d40009"].file_pairs[0].status == "renamed"


# --- run_pipeline -------------------------------------------------------------------


def test_sample_without_java_still_renders(corpus_path):
    samples = load_corpus(corpus_path)
    sample = next(s for s in samples if s.hash == "a1b2c3d40007")
    result = condense_commit(sample.commit_input())
    lines = result.template.full_text.split("\n")
    assert lines[0].endswith("ChangeScribeStart")
    assert "change in README.md (not summarized)" in lines
    assert "change in gradle.properties (not summarized)" in lines
    assert result.template.summarized_changes.endswith("End change part")


def test_constructor_change_identifier_section(corpus_path):
    samples = load_corpus(corpus_path)
    sample = next(s for s in samples if s.hash == "a1b2c3d40002")
    result = condense_commit(sample.commit_input())
    assert "RequestParams" in result.template.identifiers_section


def test_trackstream_survives_to_identifiers(corpus_path):
    samples = load_corpus(corpus_path)
    sample = next(s for s in samples if s.hash == "a1b2c3d40004")
    result = condense_commit(sample.commit_input())
    assert "trackstream" in result.template.identifiers_section


def _nested_classes_commit(depth: int) -> CommitInput:
    def source(field: str) -> str:
        opened = "".join(f"class C{i} {{\n" for i in range(depth))
        return f"{opened}int {field};\n" + "}\n" * depth

    pair = FilePair("src/Deep.java", "src/Deep.java", source("a"), source("b"), "modified")
    return CommitInput("deep/nesting", "d00000000001", (pair,))


def test_deep_type_nesting_is_summarised_at_file_level():
    result = condense_commit(_nested_classes_commit(400))
    assert result.parse_failures == ("src/Deep.java",)
    assert "change in src/Deep.java (not summarized)" in result.template.full_text.split("\n")


def test_moderate_type_nesting_still_parses():
    result = condense_commit(_nested_classes_commit(40))
    assert result.parse_failures == ()
    assert "Change in C39" in result.template.summarized_changes


def test_pipeline_is_deterministic(corpus_path):
    samples = load_corpus(corpus_path)
    cfg = PipelineConfig()
    first = [t.full_text for _s, t in run_pipeline(samples, cfg)]
    second = [t.full_text for _s, t in run_pipeline(samples, cfg)]
    assert first == second


def test_unparseable_java_reported_not_dropped():
    sample_dict = {
        "repo": "r",
        "hash": "h",
        "message": "broken file",
        "files": [
            {"path_old": "A.java", "path_new": "A.java",
             "content_old": "class A { }", "content_new": "class A { /* unterminated"},
        ],
    }
    from condenser.corpus import CommitSample, _file_pair

    sample = CommitSample(
        repo="r", hash="h",
        file_pairs=tuple(_file_pair(f) for f in sample_dict["files"]),
        message="broken file",
    )
    result = condense_commit(sample.commit_input())
    assert result.parse_failures == ("A.java",)
    assert "change in A.java (not summarized)" in result.template.full_text.split("\n")


# --- corpus stats ---------------------------------------------------------------------


def test_corpus_stats_counts_message_hits(corpus_path):
    samples = load_corpus(corpus_path)
    rows = corpus_identifier_stats(samples)
    by_cat = {cat: (v, s) for cat, v, s in rows}
    assert set(by_cat) == {"MethodName", "ClassName", "FieldName", "TypeName", "Other"}
    # 'stop' appears in its commit message; trackstream too
    assert by_cat["MethodName"][0] >= 1
    assert by_cat["FieldName"][0] >= 1
    # splitting can only find at least as many words as verbatim hits
    for cat, (verbatim, split_hits) in by_cat.items():
        assert split_hits >= 0 and verbatim >= 0


# --- export_sft -------------------------------------------------------------------------


def test_export_empty_writes_nothing(tmp_path):
    out = tmp_path / "sft.jsonl"
    assert export_sft([], out) == 0
    assert out.read_text() == ""


def test_export_round_trip_byte_identical(tmp_path, corpus_path):
    samples = load_corpus(corpus_path)
    pairs = run_pipeline(samples)
    out1 = tmp_path / "sft1.jsonl"
    out2 = tmp_path / "sft2.jsonl"
    count = export_sft(pairs, out1)
    assert count == len(samples) == 20
    records = load_sft(out1)
    assert [r.prompt for r in records] == [t.full_text for _s, t in pairs]
    # re-export from reloaded data is byte-identical
    export_sft(pairs, out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_export_truncates_oversized_prompts(tmp_path, corpus_path):
    # templates rendered with a looser budget still export within the
    # configured one, keeping the header and end marker intact
    samples = load_corpus(corpus_path)
    loose = PipelineConfig(budget=4096)
    pairs = run_pipeline(samples, loose)
    out = tmp_path / "sft.jsonl"
    tight = PipelineConfig(budget=64)
    export_sft(pairs, out, tight)
    for record in load_sft(out):
        assert count_tokens(record.prompt) <= 64
        lines = record.prompt.split("\n")
        assert lines[0].endswith("ChangeScribeStart")
        assert "End change part" in lines


def test_export_enforces_token_limits(tmp_path, corpus_path):
    samples = load_corpus(corpus_path)
    long_message = " ".join(f"tok{i}" for i in range(200))
    samples[0] = replace(samples[0], message=long_message)
    pairs = run_pipeline(samples)
    out = tmp_path / "sft.jsonl"
    export_sft(pairs, out)
    for record in load_sft(out):
        assert count_tokens(record.prompt) <= 1024
        assert len(record.target.split()) <= 128


# --- generation client --------------------------------------------------------------------


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    script: list = []  # mutated per test
    calls: list = []

    def do_POST(self):
        try:
            n = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(n)) if n else {}
            type(self).calls.append({"body": body, "headers": dict(self.headers)})
            action = self.script.pop(0) if self.script else ("ok", "done")
            if action[0] == "sleep":
                time.sleep(action[1])
                action = ("ok", action[2])
            if action[0] == "status":
                self.send_response(action[1])
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            payload = json.dumps({"completion": action[1]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client gave up (timeout tests); nothing to report

    def log_message(self, *args):
        pass


@pytest.fixture()
def mock_endpoint():
    _ScriptedHandler.script = []
    _ScriptedHandler.calls = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/generate"
    yield url, _ScriptedHandler
    server.shutdown()


RECORD = SftRecord(prompt="Repository: r ...", target="fix things", repo="r", hash="h")


def test_generate_success_echo(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("ok", "ok")]
    response = generate_remote(RECORD, EndpointConfig(url=url, backoff_base=0.01))
    assert response.text == "ok"
    assert response.endpoint == url
    assert handler.calls[0]["body"]["prompt"] == RECORD.prompt
    assert handler.calls[0]["body"]["max_new_tokens"] == 128


def test_generate_retries_then_fails_with_status(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("status", 500), ("status", 500), ("status", 500)]
    with pytest.raises(EndpointError) as err:
        generate_remote(RECORD, EndpointConfig(url=url, attempts=3, backoff_base=0.01))
    assert err.value.status == 500
    assert err.value.attempts == 3
    assert len(handler.calls) == 3


def test_generate_recovers_after_transient_500(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("status", 500), ("ok", "second try")]
    response = generate_remote(RECORD, EndpointConfig(url=url, attempts=3, backoff_base=0.01))
    assert response.text == "second try"
    assert len(handler.calls) == 2


def test_generate_timeout_raises_timeout_error(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("sleep", 0.5, "late"), ("sleep", 0.5, "late")]
    config = EndpointConfig(url=url, attempts=2, timeout=0.1, backoff_base=0.01)
    with pytest.raises(TimeoutError):
        generate_remote(RECORD, config)


def test_generate_latency_reflects_slow_endpoint(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("sleep", 0.1, "slow ok")]
    response = generate_remote(RECORD, EndpointConfig(url=url, timeout=5.0, backoff_base=0.01))
    assert response.text == "slow ok"
    assert response.latency >= 0.1


def test_generate_client_error_is_not_retried(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("status", 404)]
    with pytest.raises(EndpointError) as err:
        generate_remote(RECORD, EndpointConfig(url=url, attempts=3, backoff_base=0.01))
    assert err.value.status == 404
    assert len(handler.calls) == 1


def test_generate_sends_api_key_header(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("ok", "secured")]
    config = EndpointConfig(url=url, api_key="sekret", backoff_base=0.01)
    generate_remote(RECORD, config)
    assert handler.calls[0]["headers"].get("Authorization") == "Bearer sekret"


def test_generate_custom_field_names(mock_endpoint):
    url, handler = mock_endpoint
    handler.script[:] = [("ok", "ignored")]  # completion field won't match
    config = EndpointConfig(url=url, prompt_field="input_text", completion_field="missing_field", backoff_base=0.01)
    with pytest.raises(EndpointError):
        generate_remote(RECORD, config)
    assert "input_text" in handler.calls[0]["body"]


def test_import_leaves_requests_unloaded():
    # only generate_remote needs requests, and importing it costs more than
    # the rest of the package together
    src = str(Path(condenser.__file__).resolve().parents[1])
    probe = "import sys, condenser; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
