"""Corpus ingestion, pipeline orchestration, SFT export, remote generation.

A corpus is a JSONL file of self-contained commit records (no git access):

    {"repo": ..., "hash": ..., "message": ...,
     "files": [{"path_old": ..., "path_new": ...,
                "content_old": ..., "content_new": ...}, ...]}

File statuses are derived from path presence: a missing old side is an
added file, a missing new side a deleted one, differing paths a rename.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path

from condenser.changeset import (
    ChangeType,
    StructuralDiff,
    classify_change_explained,
    diff_commit_facts,
)
from condenser.comments import ElicitedAnnotation, ElicitedComment, elicit_annotations, elicit_comments
from condenser.config import PipelineConfig
from condenser.diffing import CommitInput, FilePair
from condenser.identifiers import (
    EmphasizedIdentifier,
    IdentifierFilter,
    apply_filter,
    extract_identifiers,
    identifier_corpus_stats,
)
from condenser.javafacts import ParseError, SourceFacts, parse_java
from condenser.metrics import tokenize_message
from condenser.templater import END_MARKER, CondensedTemplate, count_tokens, render

log = logging.getLogger(__name__)

__all__ = [
    "CommitSample",
    "CorpusFormatError",
    "EndpointConfig",
    "EndpointError",
    "GenerationResponse",
    "SftRecord",
    "condense_commit",
    "corpus_identifier_stats",
    "export_sft",
    "generate_remote",
    "load_corpus",
    "load_sft",
    "run_pipeline",
]


class CorpusFormatError(Exception):
    pass


class EndpointError(Exception):
    def __init__(self, status: int, attempts: int):
        super().__init__(f"endpoint failed with status {status} after {attempts} attempt(s)")
        self.status = status
        self.attempts = attempts


@dataclass(frozen=True)
class CommitSample:
    repo: str
    hash: str
    file_pairs: tuple[FilePair, ...]
    message: str

    def commit_input(self) -> CommitInput:
        return CommitInput(repo_name=self.repo, commit_hash=self.hash, file_pairs=self.file_pairs)


@dataclass(frozen=True)
class SftRecord:
    prompt: str
    target: str
    repo: str
    hash: str


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    max_new_tokens: int = 128
    temperature: float = 0.0
    attempts: int = 3
    backoff_base: float = 0.5
    timeout: float = 30.0
    prompt_field: str = "prompt"
    completion_field: str = "completion"
    api_key: str | None = None


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    latency: float  # seconds for the successful request
    endpoint: str


def _derive_status(entry: dict) -> str:
    path_old = entry.get("path_old")
    path_new = entry.get("path_new")
    if path_old is None:
        return "added"
    if path_new is None:
        return "deleted"
    if path_old != path_new:
        return "renamed"
    return "modified"


def _file_pair(entry) -> FilePair:
    if not isinstance(entry, dict):
        raise ValueError(f"file entry must be an object, got {type(entry).__name__}")
    for key in ("path_old", "path_new", "content_old", "content_new"):
        value = entry.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string or null")
    status = _derive_status(entry)
    return FilePair(
        path_old=entry.get("path_old"),
        path_new=entry.get("path_new"),
        content_old=entry.get("content_old"),
        content_new=entry.get("content_new"),
        status=status,
    )


def load_corpus(path: str | Path) -> list[CommitSample]:
    """Load a JSONL corpus; invalid records are skipped with a logged
    diagnostic, duplicates of a (repo, hash) pair keep the first occurrence.
    Raises CorpusFormatError when no record survives."""
    samples: list[CommitSample] = []
    seen: set[tuple[str, str]] = set()
    skipped = 0
    total = 0
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        total += 1
        try:
            record = json.loads(raw)
            repo = record["repo"]
            commit_hash = record["hash"]
            message = record["message"]
            if not isinstance(repo, str) or not repo:
                raise ValueError("repo must be a non-empty string")
            if not isinstance(commit_hash, str) or not commit_hash:
                raise ValueError("hash must be a non-empty string")
            if not isinstance(message, str) or not message.strip():
                raise ValueError("message must be non-empty")
            files = record["files"]
            if not isinstance(files, list) or not files:
                raise ValueError("files must be a non-empty list")
            pairs = tuple(_file_pair(entry) for entry in files)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            skipped += 1
            log.warning("%s:%d: skipping record: %s", path, lineno, exc)
            continue
        key = (repo, commit_hash)
        if key in seen:
            skipped += 1
            log.warning("%s:%d: skipping duplicate (repo, hash) %s", path, lineno, key)
            continue
        seen.add(key)
        samples.append(CommitSample(repo=repo, hash=commit_hash, file_pairs=pairs, message=message))
    log.info("loaded %d sample(s) from %s, skipped %d of %d line(s)", len(samples), path, skipped, total)
    if not samples:
        raise CorpusFormatError(f"no valid records in {path}")
    return samples


@dataclass(frozen=True)
class CondenseResult:
    template: CondensedTemplate
    change_type: ChangeType
    rule: str
    diff: StructuralDiff
    comments: tuple[ElicitedComment, ...]
    annotations: tuple[ElicitedAnnotation, ...]
    identifiers: tuple[EmphasizedIdentifier, ...]
    parse_failures: tuple[str, ...]  # paths whose Java failed to parse


def condense_commit(commit: CommitInput, config: PipelineConfig | None = None) -> CondenseResult:
    """Run the full condensation pipeline for one commit."""
    config = config or PipelineConfig()
    per_file: list[tuple[str, str, str | None, SourceFacts, SourceFacts]] = []
    skipped: list[tuple[str, str]] = []
    parse_failures: list[str] = []
    old_facts_all: list[SourceFacts] = []
    new_facts_all: list[SourceFacts] = []

    for pair in commit.file_pairs:
        if not pair.is_java:
            skipped.append((pair.path, pair.status))
            continue
        try:
            old_facts = parse_java(pair.content_old, pair.path_old or pair.path) if pair.content_old else SourceFacts.empty()
            new_facts = parse_java(pair.content_new, pair.path_new or pair.path) if pair.content_new else SourceFacts.empty()
        except ParseError as exc:
            parse_failures.append(pair.path)
            # structured diagnostic: file, line, severity, message
            log.warning("%s:%d: warning: %s", pair.path, exc.line, exc.message)
            skipped.append((pair.path, pair.status))
            continue
        old_path = pair.path_old if pair.status == "renamed" else None
        per_file.append((pair.path, pair.status, old_path, old_facts, new_facts))
        old_facts_all.append(old_facts)
        new_facts_all.append(new_facts)

    diff = diff_commit_facts(per_file, config=config, skipped=skipped)
    change_type, rule = classify_change_explained(diff, new_facts_all, config)

    comments: list[ElicitedComment] = []
    annotations: list[ElicitedAnnotation] = []
    for (path, status, _old_path, old_facts, new_facts), file_diff in zip(
        per_file, (fd for fd in diff.files if fd.is_java)
    ):
        comments.extend(elicit_comments(old_facts, new_facts, StructuralDiff(files=(file_diff,))))
        annotations.extend(elicit_annotations(old_facts, new_facts))

    identifiers = extract_identifiers(diff, old_facts_all, new_facts_all)
    identifiers = apply_filter(
        identifiers,
        IdentifierFilter(stoplist=config.stoplist, min_length=config.min_identifier_length),
    )
    template = render(
        commit,
        diff,
        change_type,
        comments,
        annotations,
        identifiers,
        budget=config.budget,
    )
    return CondenseResult(
        template=template,
        change_type=change_type,
        rule=rule,
        diff=diff,
        comments=tuple(comments),
        annotations=tuple(annotations),
        identifiers=tuple(identifiers),
        parse_failures=tuple(parse_failures),
    )


def run_pipeline(
    samples: list[CommitSample], config: PipelineConfig | None = None
) -> list[tuple[CommitSample, CondensedTemplate]]:
    """Condense every sample, in input order. Samples whose every file fails
    to parse still yield a header-plus-file-list template, and the failure is
    logged, not dropped."""
    config = config or PipelineConfig()
    pairs = []
    for sample in samples:
        result = condense_commit(sample.commit_input(), config)
        for path in result.parse_failures:
            log.warning("%s@%s: could not parse %s; summarized as file-level change", sample.repo, sample.hash, path)
        pairs.append((sample, result.template))
    return pairs


def corpus_identifier_stats(
    samples: list[CommitSample], config: PipelineConfig | None = None
) -> list[tuple[str, int, int]]:
    """Per-category identifier occurrence counts over a corpus (verbatim in
    the reference message, and split-word occurrences)."""
    config = config or PipelineConfig()
    rows = []
    for sample in samples:
        result = condense_commit(sample.commit_input(), config)
        rows.append((list(result.identifiers), sample.message))
    return identifier_corpus_stats(rows)


def _truncate_prompt(text: str, budget: int) -> str:
    """Drop trailing non-structural lines until the prompt fits the budget.

    Normal pipelines never hit this (render already enforces the budget);
    it guards exports fed templates rendered with a larger budget. The
    header and the summary end marker always survive.
    """
    lines = text.split("\n")
    while count_tokens("\n".join(lines)) > budget and len(lines) > 2:
        for idx in range(len(lines) - 1, 0, -1):
            if lines[idx] != END_MARKER:
                del lines[idx]
                break
        else:
            break
    return "\n".join(lines)


def make_sft_record(sample: CommitSample, template: CondensedTemplate, config: PipelineConfig) -> SftRecord:
    prompt = template.full_text
    if count_tokens(prompt) > config.budget:
        prompt = _truncate_prompt(prompt, config.budget)
    target_tokens = tokenize_message(sample.message).tokens[: config.target_tokens]
    return SftRecord(
        prompt=prompt,
        target=" ".join(target_tokens),
        repo=sample.repo,
        hash=sample.hash,
    )


def export_sft(
    pairs: list[tuple[CommitSample, CondensedTemplate]],
    path: str | Path,
    config: PipelineConfig | None = None,
) -> int:
    """Write prompt/target records as JSONL; returns the count written."""
    config = config or PipelineConfig()
    out_lines = []
    for sample, template in pairs:
        record = make_sft_record(sample, template, config)
        out_lines.append(
            json.dumps(
                {"repo": record.repo, "hash": record.hash, "prompt": record.prompt, "target": record.target},
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    Path(path).write_text("".join(line + "\n" for line in out_lines), encoding="utf-8")
    return len(out_lines)


def load_sft(path: str | Path) -> list[SftRecord]:
    records = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        data = json.loads(raw)
        records.append(SftRecord(prompt=data["prompt"], target=data["target"], repo=data["repo"], hash=data["hash"]))
    return records


def generate_remote(record: SftRecord, endpoint: EndpointConfig) -> GenerationResponse:
    """Request a generated message for one record from an external endpoint.

    Retries 5xx responses, connection failures and timeouts with exponential
    backoff up to endpoint.attempts total attempts, then surfaces the last
    failure (EndpointError or TimeoutError). Generated text is returned
    verbatim; nothing is ever fabricated on failure.
    """
    payload = {
        endpoint.prompt_field: record.prompt,
        "max_new_tokens": endpoint.max_new_tokens,
        "temperature": endpoint.temperature,
    }
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"

    import requests  # imported here: nothing else needs it, and it dominates import time

    last_status: int | None = None
    timed_out = False
    session = requests.Session()
    try:
        for attempt in range(1, endpoint.attempts + 1):
            if attempt > 1:
                time.sleep(endpoint.backoff_base * (2 ** (attempt - 2)))
            started = time.monotonic()
            try:
                response = session.post(
                    endpoint.url, json=payload, headers=headers, timeout=endpoint.timeout
                )
            except requests.exceptions.Timeout:
                timed_out = True
                log.warning("attempt %d/%d timed out", attempt, endpoint.attempts)
                continue
            except requests.exceptions.ConnectionError as exc:
                last_status = 0
                timed_out = False
                log.warning("attempt %d/%d failed to connect: %s", attempt, endpoint.attempts, exc)
                continue
            latency = time.monotonic() - started
            if response.status_code >= 500:
                last_status = response.status_code
                timed_out = False
                log.warning("attempt %d/%d got status %d", attempt, endpoint.attempts, response.status_code)
                continue
            if response.status_code >= 400:
                raise EndpointError(response.status_code, attempt)
            try:
                body = response.json()
            except ValueError:
                raise EndpointError(response.status_code, attempt) from None
            text = body.get(endpoint.completion_field) if isinstance(body, dict) else None
            if not isinstance(text, str):
                raise EndpointError(response.status_code, attempt)
            return GenerationResponse(text=text, latency=latency, endpoint=endpoint.url)
    finally:
        session.close()
    if timed_out:
        raise TimeoutError(f"endpoint {endpoint.url} timed out after {endpoint.attempts} attempt(s)")
    raise EndpointError(last_status or 0, endpoint.attempts)
