"""Command-line front end.

Commands: condense, corpus run, corpus stats, export-sft, generate, eval.
Exit codes: 0 success, 1 per-sample failures with partial output, 2 usage
or configuration errors. Data goes to stdout (or --out); diagnostics go to
stderr only.
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
    EndpointConfig,
    EndpointError,
    condense_commit,
    export_sft,
    generate_remote,
    load_corpus,
    load_sft,
    run_pipeline,
)
from condenser.diffing import (
    CommitInput,
    DiffFormatError,
    FilePair,
    MissingSnapshot,
    parse_unified_diff,
    reconstruct_pairs,
)
from condenser.metrics import EmptyCorpus, EmptyInput, EmptyReference, score_corpus, tokenize_message
from condenser.templater import BudgetError, template_to_dict

log = logging.getLogger("condenser")

ENV_API_KEY = "CONDENSER_API_KEY"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condenser",
        description="Condense Java code changes into compact text templates; evaluate and export.",
    )
    parser.add_argument("--verbose", action="store_true", help="chatty diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; flags override file values")
        for f in fields(PipelineConfig):
            p.add_argument(_flag(f.name), dest=f.name, help=f.metadata.get("help"))

    p_condense = sub.add_parser("condense", help="condense a single commit to a template")
    p_condense.add_argument("--repo", required=True)
    p_condense.add_argument("--hash", required=True)
    p_condense.add_argument("--diff", help="unified diff file, or '-' for stdin")
    p_condense.add_argument("--old-dir", help="directory tree of old file snapshots")
    p_condense.add_argument("--new-dir", help="directory tree of new file snapshots")
    p_condense.add_argument("--format", choices=("text", "json"), default="text")
    p_condense.add_argument("--out", help="write the template here instead of stdout")
    p_condense.add_argument("--explain-type", action="store_true", help="print the fired classification rule on stderr")
    add_config_flags(p_condense)

    p_corpus = sub.add_parser("corpus", help="corpus-scale operations")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_run = corpus_sub.add_parser("run", help="condense every corpus record")
    p_run.add_argument("--corpus", required=True, help="JSONL corpus file")
    p_run.add_argument("--format", choices=("text", "json"), default="json")
    p_run.add_argument("--out", help="output file (default stdout)")
    add_config_flags(p_run)

    p_stats = corpus_sub.add_parser("stats", help="identifier occurrence statistics")
    p_stats.add_argument("--corpus", required=True)
    p_stats.add_argument("--out", help="output file (default stdout)")
    add_config_flags(p_stats)

    p_export = sub.add_parser("export-sft", help="export prompt/target records for fine-tuning")
    p_export.add_argument("--corpus", required=True)
    p_export.add_argument("--out", required=True)
    add_config_flags(p_export)

    p_generate = sub.add_parser("generate", help="call an external generation endpoint")
    p_generate.add_argument("--sft", required=True, help="JSONL file from export-sft")
    p_generate.add_argument("--endpoint", required=True, help="endpoint URL")
    p_generate.add_argument("--out", help="output file (default stdout)")
    add_config_flags(p_generate)

    p_eval = sub.add_parser("eval", help="score candidates against references")
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


def _pairs_from_trees(old_contents: dict[str, str], new_contents: dict[str, str]) -> list[FilePair]:
    pairs: list[FilePair] = []
    for path in sorted(set(old_contents) | set(new_contents)):
        in_old = path in old_contents
        in_new = path in new_contents
        if in_old and in_new:
            if old_contents[path] == new_contents[path]:
                continue
            pairs.append(FilePair(path, path, old_contents[path], new_contents[path], "modified"))
        elif in_new:
            pairs.append(FilePair(None, path, None, new_contents[path], "added"))
        else:
            pairs.append(FilePair(path, None, old_contents[path], None, "deleted"))
    return pairs


def _commit_from_args(args: argparse.Namespace) -> CommitInput:
    old_contents = _read_tree(args.old_dir) if args.old_dir else {}
    new_contents = _read_tree(args.new_dir) if args.new_dir else {}
    if args.diff:
        diff_text = sys.stdin.read() if args.diff == "-" else Path(args.diff).read_text(encoding="utf-8")
        diff = parse_unified_diff(diff_text)
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


def _count_records(path: str) -> int:
    return sum(1 for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip())


def _cmd_corpus_run(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    samples = load_corpus(args.corpus)
    failures = _count_records(args.corpus) - len(samples)
    pairs = run_pipeline(samples, cfg)
    chunks: list[str] = []
    for sample, template in pairs:
        if args.format == "json":
            chunks.append(
                json.dumps(
                    {
                        "repo": sample.repo,
                        "hash": sample.hash,
                        "full_text": template.full_text,
                        "token_count": template.token_count,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
        else:
            chunks.append(template.full_text + "\n\n")
    _emit("".join(chunks), args.out)
    return 1 if failures else 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    samples = load_corpus(args.corpus)
    rows = corpus_mod.corpus_identifier_stats(samples, cfg)
    lines = ["category\toccurrences\toccurrences_after_splitting"]
    for category, verbatim, split_hits in rows:
        lines.append(f"{category}\t{verbatim}\t{split_hits}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export_sft(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    samples = load_corpus(args.corpus)
    pairs = run_pipeline(samples, cfg)
    count = export_sft(pairs, args.out, cfg)
    sys.stdout.write(f"{count}\n")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    records = load_sft(args.sft)
    knobs = {f.name for f in fields(PipelineConfig)}
    endpoint = EndpointConfig(
        url=args.endpoint,
        api_key=os.environ.get(ENV_API_KEY),
        **{f.name: getattr(cfg, f.name) for f in fields(EndpointConfig) if f.name in knobs},
    )
    def work(record):
        try:
            return record, generate_remote(record, endpoint), None
        except (EndpointError, TimeoutError) as exc:
            return record, None, exc

    # the pool size caps in-flight requests; output keeps input order so
    # responses stay matched to their (repo, hash)
    if cfg.jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(work, records))
    else:
        results = [work(r) for r in records]

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
    candidates = Path(args.candidates).read_text(encoding="utf-8").splitlines()
    references = Path(args.references).read_text(encoding="utf-8").splitlines()
    if len(candidates) != len(references):
        raise ConfigError(
            f"line counts differ: {len(candidates)} candidate(s) vs {len(references)} reference(s)"
        )
    pairs = [(tokenize_message(c), tokenize_message(r)) for c, r in zip(candidates, references)]
    report = score_corpus(pairs)
    _emit(json.dumps(report.as_dict(), sort_keys=True) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # force=True rebinds the handler to the current sys.stderr on every
    # invocation (repeat in-process calls would otherwise log to a stale stream)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s: %(message)s",
        force=True,
    )
    try:
        if args.command == "condense":
            return _cmd_condense(args)
        if args.command == "corpus":
            if args.corpus_command == "run":
                return _cmd_corpus_run(args)
            return _cmd_corpus_stats(args)
        if args.command == "export-sft":
            return _cmd_export_sft(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "eval":
            return _cmd_eval(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, CorpusFormatError, DiffFormatError, MissingSnapshot,
            EmptyCorpus, EmptyInput, EmptyReference, BudgetError,
            FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
