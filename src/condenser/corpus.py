"""Corpus ingestion, pipeline orchestration, SFT export, remote generation.

A corpus is a JSONL file of self-contained commit records (no git access):

    {"repo": ..., "hash": ..., "message": ...,
     "files": [{"path_old": ..., "path_new": ...,
                "content_old": ..., "content_new": ...}, ...]}

File statuses are derived from path presence: a missing old side is an
added file, a missing new side a deleted one, differing paths a rename.
A file entry with neither path is invalid, and its record is skipped.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

from condenser.changeset import (
    AnnotationChange,
    ChangeType,
    StructuralDiff,
    classify_change_explained,
    diff_commit_facts,
)
from condenser.comments import ElicitedComment, elicit_annotations, elicit_comments
from condenser.config import PipelineConfig
from condenser.diffing import CommitInput, FilePair
from condenser.identifiers import (
    EmphasizedIdentifier,
    apply_filter,
    extract_identifiers,
    identifier_corpus_stats,
)
from condenser.javafacts import ParseError, SourceFacts, parse_java
from condenser.metrics import tokenize_message
from condenser.sequences import split_lines
from condenser.templater import BudgetError, CondensedTemplate, render

log = logging.getLogger(__name__)

__all__ = [
    "CommitSample",
    "CorpusFormatError",
    "EndpointError",
    "GenerationResponse",
    "SftRecord",
    "condense_commit",
    "condense_corpus",
    "corpus_identifier_stats",
    "export_sft",
    "generate_remote",
    "load_corpus",
    "load_sft",
    "read_lines",
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
class GenerationResponse:
    text: str
    latency: float  # seconds for the successful request


def _file_pair(entry) -> FilePair:
    if not isinstance(entry, dict):
        raise ValueError(f"file entry must be an object, got {type(entry).__name__}")
    for key in ("path_old", "path_new", "content_old", "content_new"):
        value = entry.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string or null")
    return FilePair(
        path_old=entry.get("path_old"),
        path_new=entry.get("path_new"),
        content_old=entry.get("content_old"),
        content_new=entry.get("content_new"),
    )


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, as sequences.split_lines splits them."""
    return split_lines(Path(path).read_text(encoding="utf-8"))


def load_corpus(path: str | Path, skipped: list[tuple[int, str]] | None = None) -> list[CommitSample]:
    """Load a JSONL corpus; invalid records are skipped with a logged
    diagnostic, duplicates of a (repo, hash) pair keep the first occurrence.
    Each skipped record's (line number, reason) is appended to `skipped`
    when given. Raises CorpusFormatError when no record survives."""
    samples: list[CommitSample] = []
    seen: set[tuple[str, str]] = set()
    skipped = [] if skipped is None else skipped
    total = 0
    for lineno, raw in enumerate(read_lines(path), start=1):
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
            skipped.append((lineno, str(exc)))
            log.warning("%s:%d: skipping record: %s", path, lineno, exc)
            continue
        key = (repo, commit_hash)
        if key in seen:
            skipped.append((lineno, "duplicate (repo, hash)"))
            log.warning("%s:%d: skipping duplicate (repo, hash) %s", path, lineno, key)
            continue
        seen.add(key)
        samples.append(CommitSample(repo=repo, hash=commit_hash, file_pairs=pairs, message=message))
    log.info("loaded %d sample(s) from %s, skipped %d of %d line(s)", len(samples), path, len(skipped), total)
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
    annotations: tuple[AnnotationChange, ...]
    identifiers: tuple[EmphasizedIdentifier, ...]
    parse_failures: tuple[str, ...]  # paths whose Java failed to parse


def condense_commit(commit: CommitInput, config: PipelineConfig | None = None) -> CondenseResult:
    """Run the full condensation pipeline for one commit."""
    config = config or PipelineConfig()
    per_file: list[tuple[str | None, str | None, SourceFacts, SourceFacts]] = []
    skipped: list[tuple[str, str]] = []
    parse_failures: list[str] = []

    for pair in commit.file_pairs:
        if not pair.is_java:
            skipped.append((pair.path, pair.status))
            continue
        try:
            old_facts = parse_java(pair.content_old, pair.path_old or pair.path) if pair.content_old else SourceFacts.empty()
            # the new side takes the methods the edit left whole from the old side
            old = (pair.content_old, old_facts) if pair.content_old else None
            new_facts = parse_java(pair.content_new, pair.path_new or pair.path, old) if pair.content_new else SourceFacts.empty()
        except ParseError as exc:
            parse_failures.append(pair.path)
            # structured diagnostic: file, line, severity, message
            log.warning("%s:%d: warning: %s", pair.path, exc.line, exc.message)
            skipped.append((pair.path, pair.status))
            continue
        per_file.append((pair.path_old, pair.path_new, old_facts, new_facts))

    diff = diff_commit_facts(per_file, config=config, skipped=skipped)
    change_type, rule = classify_change_explained(diff, [new_facts for *_, new_facts in per_file], config)

    comments: list[ElicitedComment] = []
    annotations: list[AnnotationChange] = []
    for (_path_old, _path_new, old_facts, new_facts), file_diff in zip(
        per_file, (fd for fd in diff.files if fd.is_java)
    ):
        comments.extend(elicit_comments(old_facts, new_facts, StructuralDiff(files=(file_diff,))))
        annotations.extend(elicit_annotations(file_diff))

    identifiers = extract_identifiers(diff)
    identifiers = apply_filter(identifiers, config.identifier_filter)
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


def condense_corpus(
    samples: Iterable[CommitSample], config: PipelineConfig | None = None
) -> Iterator[tuple[CommitSample, CondenseResult]]:
    """Each sample with its condensation, in input order. A file that fails
    to parse is logged once and summarized as a file-level change, so a
    sample whose every file fails still yields a header-plus-file-list
    template."""
    config = config or PipelineConfig()
    for sample in samples:
        result = condense_commit(sample.commit_input(), config)
        for path in result.parse_failures:
            log.warning("%s@%s: could not parse %s; summarized as file-level change", sample.repo, sample.hash, path)
        yield sample, result
        del result  # not kept while the next sample is condensed


def run_pipeline(
    samples: list[CommitSample], config: PipelineConfig | None = None
) -> list[tuple[CommitSample, CondensedTemplate]]:
    """Each sample with its template, in input order (see condense_corpus).
    map, unlike a loop variable, holds no result while the next is made."""
    return list(map(lambda pair: (pair[0], pair[1].template), condense_corpus(samples, config)))


def corpus_identifier_stats(
    samples: list[CommitSample], config: PipelineConfig | None = None
) -> list[tuple[str, int, int]]:
    """Per-category identifier occurrence counts over a corpus (verbatim in
    the reference message, and split-word occurrences)."""
    return identifier_corpus_stats([(list(r.identifiers), s.message) for s, r in condense_corpus(samples, config)])


def make_sft_record(sample: CommitSample, template: CondensedTemplate, config: PipelineConfig) -> SftRecord:
    if template.token_count > config.budget:
        raise BudgetError(
            f"{sample.repo}@{sample.hash}: template has {template.token_count} tokens, "
            f"export budget is {config.budget}"
        )
    target_tokens = tokenize_message(sample.message).tokens[: config.target_tokens]
    return SftRecord(
        prompt=template.full_text,
        target=" ".join(target_tokens),
        repo=sample.repo,
        hash=sample.hash,
    )


def export_sft(
    pairs: list[tuple[CommitSample, CondensedTemplate]],
    path: str | Path,
    config: PipelineConfig | None = None,
) -> int:
    """Write prompt/target records as JSONL; returns the count written.

    Templates must be rendered with `config.budget`: a template over it
    raises BudgetError and no file is written.
    """
    config = config or PipelineConfig()
    out_lines = [
        json.dumps(asdict(make_sft_record(sample, template, config)), ensure_ascii=False, sort_keys=True)
        for sample, template in pairs
    ]
    Path(path).write_text("".join(line + "\n" for line in out_lines), encoding="utf-8")
    return len(out_lines)


def load_sft(path: str | Path) -> list[SftRecord]:
    """Load export-sft records. Raises CorpusFormatError, naming the line,
    for a line that is not a JSON object with all four fields as strings."""
    records = []
    for lineno, raw in enumerate(read_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
        if not isinstance(data, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        keys = ("prompt", "target", "repo", "hash")
        missing = [key for key in keys if key not in data]
        if missing:
            raise CorpusFormatError(f"{path}:{lineno}: missing {', '.join(missing)}")
        not_text = [key for key in keys if not isinstance(data[key], str)]
        if not_text:
            raise CorpusFormatError(f"{path}:{lineno}: not a string: {', '.join(not_text)}")
        records.append(SftRecord(**{key: data[key] for key in keys}))
    return records


def generate_remote(
    record: SftRecord, url: str, config: PipelineConfig | None = None, api_key: str | None = None
) -> GenerationResponse:
    """Request a generated message for one record from the endpoint at url.

    The generation settings, retry policy and JSON field names come from
    config. Retries 5xx responses, connection failures and timeouts with
    exponential backoff up to config.attempts total attempts, then surfaces
    the last failure (EndpointError or TimeoutError). Generated text is
    returned verbatim; nothing is ever fabricated on failure.
    """
    config = config or PipelineConfig()
    payload = {
        config.prompt_field: record.prompt,
        "max_new_tokens": config.max_new_tokens,
        "temperature": config.temperature,
    }
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    import requests  # imported here: nothing else needs it, and it dominates import time

    last_status: int | None = None
    timed_out = False
    session = requests.Session()
    try:
        for attempt in range(1, config.attempts + 1):
            if attempt > 1:
                time.sleep(config.backoff_base * (2 ** (attempt - 2)))
            started = time.monotonic()
            try:
                response = session.post(url, json=payload, headers=headers, timeout=config.timeout)
            except requests.exceptions.Timeout:
                timed_out = True
                log.warning("attempt %d/%d timed out", attempt, config.attempts)
                continue
            except requests.exceptions.ConnectionError as exc:
                last_status = 0
                timed_out = False
                log.warning("attempt %d/%d failed to connect: %s", attempt, config.attempts, exc)
                continue
            latency = time.monotonic() - started
            if response.status_code >= 500:
                last_status = response.status_code
                timed_out = False
                log.warning("attempt %d/%d got status %d", attempt, config.attempts, response.status_code)
                continue
            if response.status_code >= 400:
                raise EndpointError(response.status_code, attempt)
            try:
                body = response.json()
            except ValueError:
                raise EndpointError(response.status_code, attempt) from None
            text = body.get(config.completion_field) if isinstance(body, dict) else None
            if not isinstance(text, str):
                raise EndpointError(response.status_code, attempt)
            return GenerationResponse(text=text, latency=latency)
    finally:
        session.close()
    if timed_out:
        raise TimeoutError(f"endpoint {url} timed out after {config.attempts} attempt(s)")
    raise EndpointError(last_status or 0, config.attempts)
