"""Command-line front end.

Commands: condense, corpus run, corpus stats, export-sft, generate, eval.
Exit codes: 0 success; 1 per-sample failures with partial output: a skipped
corpus record, a failed `generate` request, a file `condense` cannot parse
(the corpus commands log such a file and exit 0); 2 usage or configuration
errors, with nothing written, among them a header over the budget and a
blank `eval` reference line, named by its line number. README.md states the
rule in full. Data goes to stdout (or --out); diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from condenser import corpus as corpus_mod
from condenser.config import ConfigError, PipelineConfig, load_config, parse_settings
from condenser.corpus import (
    CommitSample,
    CorpusFormatError,
    EndpointError,
    condense_commit,
    export_sft,
    generate_remote,
    load_corpus,
    load_sft,
    read_lines,
    run_pipeline,
)
from condenser.diffing import (
    CommitInput,
    DiffFormatError,
    FilePair,
    MissingSnapshot,
    SnapshotMismatch,
    parse_unified_diff,
    reconstruct_pairs,
)
from condenser.metrics import EmptyCorpus, EmptyInput, EmptyReference, score_corpus, tokenize_message
from condenser.sequences import lcs_length, split_lines
from condenser.templater import BudgetError, template_to_dict

log = logging.getLogger("condenser")

ENV_API_KEY = "CONDENSER_API_KEY"


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; the config flags go only on the
    subcommands of `command`, or on every one when it is None."""
    parser = argparse.ArgumentParser(
        prog="condenser",
        description="Condense Java code changes into compact text templates; evaluate and export.",
    )
    parser.add_argument("--verbose", action="store_true", help="chatty diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(group, name: str, run, summary: str, config: str | None = None, **defaults) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=summary)
        p.set_defaults(run=run, **defaults)
        if config is not None and command in (None, config):
            p.add_argument("--config", help="key=value config file; flags override file values")
            for f in fields(PipelineConfig):
                p.add_argument(_flag(f.name), dest=f.name, help=f.metadata.get("help"))
        return p

    p_condense = add_command(sub, "condense", _cmd_condense, "condense a single commit to a template", "condense")
    p_condense.add_argument("--repo", required=True)
    p_condense.add_argument("--hash", required=True)
    p_condense.add_argument("--diff", help="unified diff file, or '-' for stdin")
    p_condense.add_argument("--old-dir", help="directory tree of old file snapshots")
    p_condense.add_argument("--new-dir", help="directory tree of new file snapshots")
    p_condense.add_argument("--format", choices=("text", "json"), default="text")
    p_condense.add_argument("--out", help="write the template here instead of stdout")
    p_condense.add_argument("--explain-type", action="store_true", help="print the fired classification rule on stderr")

    p_corpus = sub.add_parser("corpus", help="corpus-scale operations")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_run = add_command(corpus_sub, "run", _cmd_corpus, "condense every corpus record", "corpus", write=_write_corpus_run)
    p_run.add_argument("--corpus", required=True, help="JSONL corpus file")
    p_run.add_argument("--format", choices=("text", "json"), default="json")
    p_run.add_argument("--out", help="output file (default stdout)")

    p_stats = add_command(corpus_sub, "stats", _cmd_corpus, "identifier occurrence statistics", "corpus",
                          write=_write_corpus_stats)
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--out", help="output file (default stdout)")

    p_export = add_command(sub, "export-sft", _cmd_corpus, "export prompt/target records for fine-tuning", "export-sft",
                           write=_write_export_sft)
    p_export.add_argument("--corpus", required=True)
    p_export.add_argument("--out", required=True)

    p_generate = add_command(sub, "generate", _cmd_generate, "call an external generation endpoint", "generate")
    p_generate.add_argument("--sft", required=True, help="JSONL file from export-sft")
    p_generate.add_argument("--endpoint", required=True, help="endpoint URL")
    p_generate.add_argument("--out", help="output file (default stdout)")

    p_eval = add_command(sub, "eval", _cmd_eval, "score candidates against references")
    p_eval.add_argument("--candidates", required=True, help="one message per line")
    p_eval.add_argument("--references", required=True, help="one message per line, aligned")
    p_eval.add_argument("--out", help="output file (default stdout)")
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    given = ((f.name, getattr(args, f.name)) for f in fields(PipelineConfig))
    cfg = replace(cfg, **parse_settings((_flag(key), key, text) for key, text in given if text is not None))
    cfg.validate()
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read_tree(root: str) -> dict[str, str]:
    base = Path(root)
    if not base.is_dir():
        raise ConfigError(f"not a directory: {root}")
    contents: dict[str, str] = {}
    for path in sorted(base.rglob("*")):
        if not path.is_file():
            continue
        try:
            contents[path.relative_to(base).as_posix()] = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            log.warning("%s: not UTF-8 text, skipping", path)
    return contents


def _renames(old_contents: dict[str, str], new_contents: dict[str, str]) -> dict[str, str]:
    """Each added .java path mapped to the removed .java path it renames:
    the most similar one, where similarity is 2*LCS/(|a|+|b|) over the
    stripped non-empty lines and must be at least 0.5 (git's default rename
    threshold).  The most similar pair is taken first, ties by path."""
    added = [path for path in new_contents if path not in old_contents and path.endswith(".java")]
    removed = [path for path in old_contents if path not in new_contents and path.endswith(".java")]
    if not (added and removed):
        return {}

    def lines(text: str) -> list[str]:
        return [line for line in map(str.strip, split_lines(text)) if line]

    old_lines = {path: lines(old_contents[path]) for path in removed}
    scored = []
    for new_path in added:
        new_lines = lines(new_contents[new_path])
        for old_path in removed:
            total = len(new_lines) + len(old_lines[old_path])
            common = lcs_length(old_lines[old_path], new_lines)
            if total and 4 * common >= total:
                scored.append((-2 * common / total, new_path, old_path))
    renames: dict[str, str] = {}
    for _score, new_path, old_path in sorted(scored):
        if new_path not in renames and old_path not in renames.values():
            renames[new_path] = old_path
    return renames


def _pairs_from_trees(old_contents: dict[str, str], new_contents: dict[str, str]) -> list[FilePair]:
    """The differing files of two trees, in path order, with each rename (see
    _renames) one pair at its new path."""
    renames = _renames(old_contents, new_contents)
    renamed = set(renames.values())
    pairs: list[FilePair] = []
    for path in sorted(set(old_contents) | set(new_contents)):
        if path in renamed:
            continue
        old_path = renames.get(path, path)
        old, new = old_contents.get(old_path), new_contents.get(path)
        if old != new or old_path != path:
            pairs.append(FilePair(old_path if old is not None else None, path if new is not None else None, old, new))
    return pairs


def _commit_from_args(args: argparse.Namespace) -> CommitInput:
    old_contents = _read_tree(args.old_dir) if args.old_dir else {}
    new_contents = _read_tree(args.new_dir) if args.new_dir else {}
    if args.diff:
        diff_text = sys.stdin.read() if args.diff == "-" else Path(args.diff).read_text(encoding="utf-8")
        diff = parse_unified_diff(diff_text)
        if all(section.is_binary for section in diff.file_sections):
            raise ConfigError("no differing text files in the diff")
        return reconstruct_pairs(diff, old_contents, new_contents, repo_name=args.repo, commit_hash=args.hash)
    if not args.old_dir and not args.new_dir:
        raise ConfigError("condense needs --diff and/or --old-dir/--new-dir")
    pairs = _pairs_from_trees(old_contents, new_contents)
    if not pairs:
        raise ConfigError("no differing files between the two trees")
    return CommitInput(repo_name=args.repo, commit_hash=args.hash, file_pairs=tuple(pairs))


def _cmd_condense(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    commit = _commit_from_args(args)
    result = condense_commit(commit, cfg)
    if args.explain_type:
        print(f"{result.change_type.value}: rule {result.rule}", file=sys.stderr)
    if args.format == "json":
        payload = template_to_dict(result.template, result.change_type, result.rule if args.explain_type else None)
        _emit(json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n", args.out)
    else:
        _emit(result.template.full_text + "\n", args.out)
    return 1 if result.parse_failures else 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    """corpus run, corpus stats and export-sft: load the corpus, then hand
    its samples to the command's writer."""
    cfg = _resolve_config(args)
    skipped: list[tuple[int, str]] = []
    args.write(load_corpus(args.corpus, skipped), cfg, args)
    return 1 if skipped else 0


def _write_corpus_run(samples: list[CommitSample], cfg: PipelineConfig, args: argparse.Namespace) -> None:
    chunks: list[str] = []
    for sample, template in run_pipeline(samples, cfg):
        if args.format == "json":
            record = {"repo": sample.repo, "hash": sample.hash, "full_text": template.full_text,
                      "token_count": template.token_count}
            chunks.append(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        else:
            chunks.append(template.full_text + "\n\n")
    _emit("".join(chunks), args.out)


def _write_corpus_stats(samples: list[CommitSample], cfg: PipelineConfig, args: argparse.Namespace) -> None:
    rows = corpus_mod.corpus_identifier_stats(samples, cfg)
    lines = ["category\toccurrences\toccurrences_after_splitting"]
    for category, verbatim, split_hits in rows:
        lines.append(f"{category}\t{verbatim}\t{split_hits}")
    _emit("\n".join(lines) + "\n", args.out)


def _write_export_sft(samples: list[CommitSample], cfg: PipelineConfig, args: argparse.Namespace) -> None:
    sys.stdout.write(f"{export_sft(run_pipeline(samples, cfg), args.out, cfg)}\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    records = load_sft(args.sft)
    api_key = os.environ.get(ENV_API_KEY)

    def work(record):
        try:
            return record, generate_remote(record, args.endpoint, cfg, api_key), None
        except (EndpointError, TimeoutError) as exc:
            return record, None, exc

    from concurrent.futures import ThreadPoolExecutor

    # the pool size caps in-flight requests; output keeps input order so
    # responses stay matched to their (repo, hash)
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(work, records))

    failures = 0
    chunks: list[str] = []
    for record, response, error in results:
        if error is not None:
            failures += 1
            log.error("%s@%s: %s", record.repo, record.hash, error)
            continue
        chunks.append(
            json.dumps(
                {
                    "repo": record.repo,
                    "hash": record.hash,
                    "generated": response.text,
                    "latency": round(response.latency, 4),
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            + "\n"
        )
    _emit("".join(chunks), args.out)
    return 1 if failures else 0


def _cmd_eval(args: argparse.Namespace) -> int:
    candidates = read_lines(args.candidates)
    references = read_lines(args.references)
    if len(candidates) != len(references):
        raise ConfigError(
            f"line counts differ: {len(candidates)} candidate(s) vs {len(references)} reference(s)"
        )
    pairs = [(tokenize_message(c), tokenize_message(r)) for c, r in zip(candidates, references)]
    report = score_corpus(pairs)
    if report.meteor_capped:
        print(
            f"warning: METEOR search cap hit on {report.meteor_capped} pair(s); "
            "their chunk counts are upper bounds",
            file=sys.stderr,
        )
    _emit(json.dumps(report.as_dict(), sort_keys=True) + "\n", args.out)
    return 0


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed with the config flags of its command only (the first
    argument that is not an option names it)."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return _build_parser(command).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    # force=True rebinds the handler to the current sys.stderr on every
    # invocation (repeat in-process calls would otherwise log to a stale stream)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s: %(message)s",
        force=True,
    )
    try:
        return args.run(args)
    except (ConfigError, CorpusFormatError, DiffFormatError, MissingSnapshot, SnapshotMismatch,
            EmptyCorpus, EmptyInput, EmptyReference, BudgetError,
            OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
