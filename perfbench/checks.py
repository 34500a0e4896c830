"""Checks of the program's outputs, made apart from the program.

Condense workloads are checked against the generator's record of what it
planted; eval is checked against independent recomputations.  Every check
returns a list of error strings, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter

BUDGET = 1024
TARGET_TOKENS = 128
END_MARKER = "End change part"
SECTION_HEADERS = ("Comments:", "Identifiers:")

_TOKEN = re.compile(r"\w+|[^\w\s]")
_METHOD_LINE = re.compile(r"^(Add|Remove) a (method|constructor) ([\w$]+)")


def tokens(text: str) -> list[str]:
    """Word runs plus standalone punctuation marks."""
    return _TOKEN.findall(text)


def commit_id(repo: str, commit_hash: str) -> str:
    return f"{repo}@{commit_hash}"


# ---------------------------------------------------------------------------
# SFT export (corpus-typical, rewrite-heavy)
# ---------------------------------------------------------------------------


def check_sft(commits: list[dict], output: str, failed: set[str]) -> list[str]:
    """Records of an export-sft run against the planted commits.

    `failed` holds the commits the program reported as failed; the planted
    methods of a Java 16+ file are expected only when its commit parsed.
    """
    errors: list[str] = []
    lines = [line for line in output.split("\n") if line]
    if len(lines) != len(commits):
        return [f"expected {len(commits)} records, found {len(lines)}"]
    for index, (raw, want) in enumerate(zip(lines, commits)):
        rec = json.loads(raw)
        cid = commit_id(want["repo"], want["hash"])
        if (rec.get("repo"), rec.get("hash")) != (want["repo"], want["hash"]):
            errors.append(f"record {index}: expected {cid}, found {rec.get('repo')}@{rec.get('hash')}")
            continue
        prompt = rec["prompt"].split("\n")
        if not prompt[0].startswith(f"Repository: {want['repo']} Change type: "):
            errors.append(f"{cid}: header does not name the repository: {prompt[0]!r}")
        if prompt.count(END_MARKER) != 1:
            errors.append(f"{cid}: expected one {END_MARKER!r} line, found {prompt.count(END_MARKER)}")
            continue
        end = prompt.index(END_MARKER)
        if end + 1 < len(prompt) and prompt[end + 1] not in SECTION_HEADERS:
            errors.append(f"{cid}: summary does not end with {END_MARKER!r}")
        n_tokens = len(tokens(rec["prompt"]))
        if n_tokens > BUDGET:
            errors.append(f"{cid}: prompt has {n_tokens} tokens, budget is {BUDGET}")
        target = " ".join(t.lower() for t in tokens(want["message"])[:TARGET_TOKENS])
        if rec["target"] != target:
            errors.append(f"{cid}: target is not the message's first {TARGET_TOKENS} lowercased tokens")
        named = Counter()
        for line in prompt[1:end]:
            m = _METHOD_LINE.match(line)
            if m:
                named[(m.group(1), m.group(2), m.group(3))] += 1
        planted = Counter(("Add", k, n) for k, n in want["added"])
        planted.update(("Remove", k, n) for k, n in want["removed"])
        if want["java16"] and cid not in failed:
            planted.update(("Add", k, n) for k, n in want["java16_added"])
            planted.update(("Remove", k, n) for k, n in want["java16_removed"])
        if named != planted:
            missing = sorted((planted - named).elements())
            extra = sorted((named - planted).elements())
            errors.append(f"{cid}: method lines differ from the planted ones: missing {missing}, extra {extra}")
    return errors


def check_failures(commits: list[dict], failed_per_pass: list[set[str]]) -> list[str]:
    """Only Java 16+ commits may be reported as failed, the same in every pass."""
    java16 = {commit_id(c["repo"], c["hash"]) for c in commits if c["java16"]}
    errors = []
    for k, failed in enumerate(failed_per_pass):
        if failed - java16:
            errors.append(f"pass {k}: commits reported as failed that parse: {sorted(failed - java16)}")
        if failed != failed_per_pass[0]:
            errors.append(f"pass {k}: failed commits differ from the first pass")
    return errors


def check_identical(digests: list[str]) -> list[str]:
    if len(set(digests)) > 1:
        return [f"output differs across passes: {len(set(digests))} distinct outputs in {len(digests)} passes"]
    return []


def check_exit(passes: list[dict], items: int, counts_on_stdout: bool) -> list[str]:
    """Exit 0, or exit 1 with complete output and at least one reported failure."""
    errors = []
    for k, p in enumerate(passes):
        if p["rc"] not in (0, 1) or (p["rc"] == 1 and not p["failed"]):
            errors.append(f"pass {k}: exit code {p['rc']}")
        if counts_on_stdout and p["stdout"].strip() != str(items):
            errors.append(f"pass {k}: stdout {p['stdout'][:40]!r}, expected the record count {items}")
    return errors


def check_rewrites(commits: list[dict], dumps: list[list[dict]]) -> list[str]:
    """Every statement the generator deleted or changed is reported as
    removed, modified or moved, and every reported statement occurs on the
    side it is reported for."""
    errors: list[str] = []
    for want, changes in zip(commits, dumps):
        cid = commit_id(want["repo"], want["hash"])
        others = [c["method"] for c in changes if c["method"] != want["method"]]
        if others:
            errors.append(f"{cid}: inline changes reported for untouched methods {others}")
        mine = [c for c in changes if c["method"] == want["method"]]
        if len(mine) != 1:
            errors.append(f"{cid}: expected one inline change of {want['method']}, found {len(mine)}")
            continue
        ch = mine[0]
        old, new = set(want["old_statements"]), set(want["new_statements"])
        reported_old = set(ch["removed"]) | {o for o, _ in ch["modified"]} | {o for o, _ in ch["moved"]}
        unreported = [s for s in want["changed"] if s not in reported_old]
        if unreported:
            errors.append(f"{cid}: {len(unreported)} changed statement(s) not reported, e.g. {unreported[0]!r}")
        sides = [("removed", s, old) for s in ch["removed"]] + [("added", s, new) for s in ch["added"]]
        for kind in ("modified", "moved"):
            for o, n in ch[kind]:
                sides += [(kind, o, old), (kind, n, new)]
        wrong = [(kind, s) for kind, s, side in sides if s not in side]
        if wrong:
            errors.append(f"{cid}: {len(wrong)} reported statement(s) not on their side, e.g. {wrong[0]}")
    return errors


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

ROUND = 5e-5 + 1e-9  # the program reports scores rounded to four decimals


def _grams(toks: list[str], n: int) -> Counter:
    return Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))


def bleu(c: list[str], r: list[str]) -> float:
    """Sentence BLEU-4, written out: BP * (p1 p2 p3 p4) ** (1/4), with +1
    smoothing of p2..p4 and BP = exp(1 - r/c) for a short candidate."""
    if not c:
        return 0.0
    precisions = []
    for n in range(1, 5):
        cg, rg = _grams(c, n), _grams(r, n)
        clipped = sum(min(k, rg[g]) for g, k in cg.items())
        total = max(len(c) - n + 1, 0)
        if n == 1:
            if clipped == 0:
                return 0.0
            precisions.append(clipped / total)
        else:
            precisions.append((clipped + 1) / (total + 1))
    bp = math.exp(1 - len(r) / len(c)) if len(c) < len(r) else 1.0
    return 100 * bp * math.prod(precisions) ** 0.25


def lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[-1][-1]


def rouge(c: list[str], r: list[str]) -> float:
    if not c:
        return 0.0
    k = lcs(c, r)
    if k == 0:
        return 0.0
    p, rec = k / len(c), k / len(r)
    beta2 = 1.2 ** 2
    return 100 * (1 + beta2) * p * rec / (rec + beta2 * p)


def meteor_score(matches: int, chunks: int, n_cand: int, n_ref: int) -> float:
    if matches == 0:
        return 0.0
    p, r = matches / n_cand, matches / n_ref
    fmean = p * r / (0.9 * p + 0.1 * r)
    return 100 * fmean * (1 - 0.5 * (chunks / matches) ** 3)


def meteor_bounds(c: list[str], r: list[str]) -> tuple[float, float]:
    """With matches equal to the multiset overlap and 1 <= chunks <= matches."""
    if not c:
        return 0.0, 0.0
    m = sum((Counter(c) & Counter(r)).values())
    return meteor_score(m, m, len(c), len(r)), meteor_score(m, 1, len(c), len(r))


def meteor_exhaustive(c: list[str], r: list[str]) -> float:
    """Every alignment enumerated: the most matches, then the fewest chunks."""
    options = [[None] + [j for j, t in enumerate(r) if t == tok] for tok in c]
    best = (0, 0)
    for choice in itertools.product(*options):
        used = [j for j in choice if j is not None]
        if len(used) != len(set(used)):
            continue
        chunks = sum(
            1 for i, j in enumerate(choice)
            if j is not None and not (i > 0 and choice[i - 1] is not None and choice[i - 1] + 1 == j)
        )
        key = (len(used), -chunks)
        if key > (best[0], -best[1]):
            best = (len(used), chunks)
    return meteor_score(best[0], best[1], len(c), len(r))


def exhaustive_sample(pairs: list[tuple[str, str]], limit: int = 40, max_alignments: int = 20000) -> list[int]:
    """Indices of short pairs whose alignments can be enumerated."""
    out = []
    for idx, (cand, ref) in enumerate(pairs):
        c, r = [t.lower() for t in tokens(cand)], [t.lower() for t in tokens(ref)]
        if not c or len(c) > 9:
            continue
        size = math.prod(1 + r.count(t) for t in c)
        if size <= max_alignments:
            out.append(idx)
        if len(out) == limit:
            break
    return out


def check_eval(pairs: list[tuple[str, str]], output: str, sample: dict[int, float]) -> list[str]:
    errors: list[str] = []
    report = json.loads(output)
    if report.get("n") != len(pairs):
        return [f"report covers {report.get('n')} pairs, expected {len(pairs)}"]
    toks = [([t.lower() for t in tokens(c)], [t.lower() for t in tokens(r)]) for c, r in pairs]
    n = len(toks)
    b = sum(bleu(c, r) for c, r in toks) / n
    rl = sum(rouge(c, r) for c, r in toks) / n
    lo = sum(meteor_bounds(c, r)[0] for c, r in toks) / n
    hi = sum(meteor_bounds(c, r)[1] for c, r in toks) / n
    if abs(report["bleu_norm"] - b) > ROUND:
        errors.append(f"BLEU-Norm mean {report['bleu_norm']} differs from the recomputed {b:.6f}")
    if abs(report["rouge_l"] - rl) > ROUND:
        errors.append(f"ROUGE-L mean {report['rouge_l']} differs from the recomputed {rl:.6f}")
    if not lo - ROUND <= report["meteor"] <= hi + ROUND:
        errors.append(f"METEOR mean {report['meteor']} outside [{lo:.6f}, {hi:.6f}]")
    for idx, value in sample.items():
        want = meteor_exhaustive(*toks[idx])
        if abs(value - want) > 1e-9:
            errors.append(f"pair {idx}: METEOR {value} differs from the exhaustive {want}")
    return errors
