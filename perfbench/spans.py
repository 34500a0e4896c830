"""Spans at the program's layer boundaries, recorded by the benchmark's own
wrappers around public functions.

Each wrapper is bound where its caller looks the name up (for example
`condenser.corpus.parse_java`, which `condense_commit` calls), and only while
a traced pass runs: untraced passes run the program untouched.  A span is
(name, start, end, parent index); spans stay in memory until the run ends.
A layer's self time is its span's duration minus the time its child spans
cover.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


# counters called with the arguments, before the call
def _count_source(counts, args):
    counts["javafacts.source_kb"] += len(args[0]) / 1024


def _count_scored(counts, args):
    counts["metrics.tokens_scored"] += sum(len(c) + len(r) for c, r in args[0])


# counters called with the result, after a call that returned
def _count_diff(counts, result):
    for fd in result.files:
        for ic in fd.inline_changes:
            counts["changeset.touched_statements"] += len(ic.old.body_statements) + len(ic.new.body_statements)
            counts["changeset.statement_changes"] += (
                len(ic.stmt_added) + len(ic.stmt_removed) + len(ic.stmt_modified) + len(ic.stmt_moved)
            )


def _count_elicited(counts, result):
    counts["comments.elicited"] += len(result)


def _count_kept(counts, result):
    counts["identifiers.kept"] += len(result)


def _count_render(counts, result):
    counts["templater.tokens_out"] += result.token_count


# (module, attribute, span name, argument counter, result counter); the
# module is where the caller looks the name up
BOUNDARIES = (
    ("condenser.cli", "load_corpus", "corpus.load_corpus", None, None),
    ("condenser.cli", "run_pipeline", "corpus.run_pipeline", None, None),
    ("condenser.cli", "export_sft", "corpus.export_sft", None, None),
    ("condenser.cli", "tokenize_message", "metrics.tokenize_message", None, None),
    ("condenser.cli", "score_corpus", "metrics.score_corpus", _count_scored, None),
    ("condenser.corpus", "condense_commit", "corpus.condense_commit", None, None),
    ("condenser.corpus", "parse_java", "javafacts.parse_java", _count_source, None),
    ("condenser.corpus", "diff_commit_facts", "changeset.diff_commit_facts", None, _count_diff),
    ("condenser.corpus", "classify_change_explained", "changeset.classify_change_explained", None, None),
    ("condenser.corpus", "elicit_comments", "comments.elicit_comments", None, _count_elicited),
    ("condenser.corpus", "elicit_annotations", "comments.elicit_annotations", None, _count_elicited),
    ("condenser.corpus", "extract_identifiers", "identifiers.extract_identifiers", None, None),
    ("condenser.corpus", "apply_filter", "identifiers.apply_filter", None, _count_kept),
    ("condenser.corpus", "render", "templater.render", None, _count_render),
    ("condenser.metrics", "bleu_norm", "metrics.bleu_norm", None, None),
    ("condenser.metrics", "rouge_l", "metrics.rouge_l", None, None),
    ("condenser.metrics", "meteor", "metrics.meteor", None, None),
)

ROOT_SPAN = "cli.main"

# per-layer metrics: (name, unit); '<span>.ms' is the span's total time and
# '<span>.self_ms' its self time, both per traced pass; counters are per pass
PER_LAYER = (
    ("javafacts.parse_java.ms", "ms"),
    ("javafacts.parse_java.calls", "count"),
    ("javafacts.source_kb", "kB"),
    ("javafacts.parse_failures", "count"),
    ("changeset.diff_commit_facts.ms", "ms"),
    ("changeset.classify_change_explained.ms", "ms"),
    ("changeset.touched_statements", "count"),
    ("changeset.statement_changes", "count"),
    ("comments.elicit_comments.ms", "ms"),
    ("comments.elicit_annotations.ms", "ms"),
    ("comments.elicited", "count"),
    ("identifiers.extract_identifiers.ms", "ms"),
    ("identifiers.apply_filter.ms", "ms"),
    ("identifiers.kept", "count"),
    ("templater.render.ms", "ms"),
    ("templater.tokens_out", "count"),
    ("corpus.load_corpus.ms", "ms"),
    ("corpus.condense_commit.self_ms", "ms"),
    ("corpus.export_sft.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("metrics.tokenize_message.ms", "ms"),
    ("metrics.bleu_norm.ms", "ms"),
    ("metrics.rouge_l.ms", "ms"),
    ("metrics.meteor.ms", "ms"),
    ("metrics.tokens_scored", "count"),
    ("trace.overhead_pct", "%"),
)

# the layers whose shares of a pass the README reports
LAYERS = {
    "javafacts": ("javafacts.parse_java",),
    "changeset": ("changeset.diff_commit_facts", "changeset.classify_change_explained"),
    "comments": ("comments.elicit_comments", "comments.elicit_annotations"),
    "identifiers": ("identifiers.extract_identifiers", "identifiers.apply_filter"),
    "templater": ("templater.render",),
    "corpus": ("corpus.load_corpus", "corpus.condense_commit", "corpus.run_pipeline", "corpus.export_sft"),
    "metrics": ("metrics.tokenize_message", "metrics.score_corpus", "metrics.bleu_norm",
                "metrics.rouge_l", "metrics.meteor"),
    "cli": ("cli.main",),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, on_args=None, on_result=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(counts, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failures"] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, on_args, on_result in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, on_args, on_result))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name: total duration and self time."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        return total, self_time

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, passes: int, overhead_pct: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics per traced pass, and each layer's share of the
    root span's time."""
    total, self_time = tracer.totals()
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_pct":
            values[name] = overhead_pct
        elif name.endswith(".self_ms"):
            values[name] = self_time.get(name[: -len(".self_ms")], 0.0) * 1000 / passes
        elif name.endswith(".ms"):
            values[name] = total.get(name[: -len(".ms")], 0.0) * 1000 / passes
        elif name == "javafacts.parse_java.calls":
            values[name] = calls.get("javafacts.parse_java", 0) / passes
        elif name == "javafacts.parse_failures":
            values[name] = tracer.counts.get("javafacts.parse_java.failures", 0.0) / passes
        else:
            values[name] = tracer.counts.get(name, 0.0) / passes
    root = total.get(ROOT_SPAN, 0.0) or 1.0
    shares = {layer: sum(self_time.get(n, 0.0) for n in names) / root for layer, names in LAYERS.items()}
    return values, shares
