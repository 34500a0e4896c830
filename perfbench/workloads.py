"""Input sets of the three workloads, written to files, with the record of
what the generator planted in them.

Each builder takes the seed and a size ('full' for measurement, 'small' for
the benchmark's own tests) and returns the program's arguments for one pass,
the number of operations in a pass and the expectations the checks use.
What is fixed across seeds and what the seed draws:

* corpus-typical: the plan (commits, files per commit, file kinds, sizes and
  which commits continue an earlier file) is fixed; the seed draws the code,
  the edits and the messages.  Two fixed commits touch a Java 16+ file.
* rewrite-heavy: the long-method sizes are fixed; the seed draws the code and
  which statements are changed, deleted, moved and inserted.
* eval-messages: the length multiset is fixed; the seed draws the words, and
  the shapes of pairs under 20 tokens.  Longer shapes, which decide the cost
  of the METEOR search, are drawn once for every seed (see msggen).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import javagen
import msggen
from javagen import JavaGen, NOUNS, VERBS, camel

WORKLOADS = ("corpus-typical", "rewrite-heavy", "eval-messages")

REPOS = ("acme/store", "acme/gateway", "example/scheduler", "demo/http-kit", "sample/batch-io",
         "acme/auth", "example/metrics", "demo/cli-tools", "sample/cache", "acme/search")

TEXT_FILES = ("README.md", "build.gradle", "src/main/resources/app.properties",
              "docs/CHANGES.md", "pom.xml", "config/logging.xml")

TARGET_TOKENS = 128


def _hash(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(12))


def _file_entry(path_old, path_new, old, new) -> dict:
    return {"path_old": path_old, "path_new": path_new, "content_old": old, "content_new": new}


def _long_body(rng: random.Random, n: int) -> str:
    words = javagen.COMMENT_WORDS + NOUNS + VERBS
    sentences = []
    left = n
    while left > 0:
        k = min(left, rng.randint(6, 16))
        sentences.append(" ".join(rng.choice(words) for _ in range(k)).capitalize() + ".")
        left -= k + 1
    return " ".join(sentences)


# ---------------------------------------------------------------------------
# corpus-typical
# ---------------------------------------------------------------------------

# Commits whose only file uses Java 16+ syntax.  They do not depend on the
# seed: the program fails to parse them today, and the benchmark counts each
# as a failed operation.
JAVA16_COMMITS = (
    {
        "repo": "acme/geometry",
        "hash": "16a0c0ffee01",
        "message": "Add area to the sealed Shape hierarchy",
        "path": "src/main/java/org/acme/geo/Shapes.java",
        "old": """package org.acme.geo;

/** Shapes the renderer knows how to draw. */
public sealed interface Shape permits Circle, Square {
    double perimeter();
}

record Circle(double radius) implements Shape {
    public double perimeter() {
        return 2 * Math.PI * radius;
    }
}

record Square(double side) implements Shape {
    public double perimeter() {
        return 4 * side;
    }
}
""",
        "new": """package org.acme.geo;

/** Shapes the renderer knows how to draw. */
public sealed interface Shape permits Circle, Square {
    double perimeter();
}

record Circle(double radius) implements Shape {
    public double perimeter() {
        return 2 * Math.PI * radius;
    }

    /** Area of the circle. */
    public double area() {
        return Math.PI * radius * radius;
    }
}

record Square(double side) implements Shape {
    public double perimeter() {
        return 4 * side;
    }
}
""",
        "added": [["method", "area"]],
        "removed": [],
    },
    {
        "repo": "acme/templates",
        "hash": "16a0c0ffee02",
        "message": "Print the usage banner from a text block",
        "path": "src/main/java/org/acme/cli/Usage.java",
        "old": """package org.acme.cli;

public class Usage {
    static String banner() {
        return \"\"\"
            usage: tool [options] <file>
              -v  verbose output
            \"\"\";
    }
}
""",
        "new": """package org.acme.cli;

public class Usage {
    static String banner() {
        return \"\"\"
            usage: tool [options] <file>
              -v  verbose output
            \"\"\";
    }

    static void printBanner() {
        System.out.println(banner());
    }
}
""",
        "added": [["method", "printBanner"]],
        "removed": [],
    },
)


def _corpus_plan(n_commits: int, small: bool, skip: set[int]) -> list[list[dict]]:
    """Files of every commit: kind, size in lines and, for a continued file,
    the id of the file it continues.  Drawn from a fixed stream; commits in
    `skip` get no files."""
    rng = random.Random("corpus-typical plan")
    plan: list[list[dict]] = []
    live: list[int] = []  # ids of files whose latest version still exists
    next_id = 0
    sized: list[dict] = []
    for index in range(n_commits):
        files: list[dict] = []
        if index in skip:
            plan.append(files)
            continue
        for _ in range(rng.choices((1, 2, 3, 4), (50, 30, 15, 5))[0]):
            kind = rng.choices(("modified", "added", "deleted", "renamed", "text"), (62, 10, 6, 8, 14))[0]
            entry = {"kind": kind, "id": next_id}
            next_id += 1
            if kind == "modified" and live and rng.random() < 0.35:
                entry = {"kind": "continued", "id": rng.choice(live)}
            elif kind == "added":
                entry["lines"] = rng.randint(20, 60 if small else 150)
            elif kind != "text":
                sized.append(entry)
            if entry["kind"] in ("modified", "added", "renamed"):
                live.append(entry["id"])
            if any(f["id"] == entry["id"] for f in files):
                continue  # one commit touches a file once
            files.append(entry)
        plan.append(files)
    # heavy-tailed sizes: log-normal quantiles, the largest replaced by the
    # 200 KB file, assigned to the sized files in a fixed shuffled order
    lengths = msggen.stratified_lengths(len(sized), 60 if small else 80, 0.6 if small else 1.0,
                                        cap=200 if small else 4000, floor=20)
    order = list(range(len(sized)))
    rng.shuffle(order)
    for rank, idx in enumerate(order):
        sized[idx]["lines"] = lengths[rank]
    if not small:
        sized[order[-1]]["lines"] = "roadmap"
    return plan


def build_corpus_typical(seed: int, size: str, out: Path) -> dict:
    small = size == "small"
    n_commits = 10 if small else 40
    java16_at = {n_commits // 4: JAVA16_COMMITS[0], (3 * n_commits) // 4: JAVA16_COMMITS[1]}
    plan = _corpus_plan(n_commits, small, set(java16_at))
    rng = random.Random(f"{seed}:corpus-typical")
    gen = JavaGen(rng)
    latest: dict[int, tuple[str, javagen.JFile]] = {}  # file id -> (path, model)
    records: list[dict] = []
    expect: list[dict] = []
    hashes: set[str] = set()
    for index, files in enumerate(plan):
        if index in java16_at:
            fixed = java16_at[index]
            records.append({"repo": fixed["repo"], "hash": fixed["hash"], "message": fixed["message"],
                            "files": [_file_entry(fixed["path"], fixed["path"], fixed["old"], fixed["new"])]})
            expect.append({"repo": fixed["repo"], "hash": fixed["hash"], "message": fixed["message"],
                           "added": [], "removed": [], "java16": True,
                           "java16_added": fixed["added"], "java16_removed": fixed["removed"]})
            hashes.add(fixed["hash"])
            continue
        entries: list[dict] = []
        added: list[tuple[str, str]] = []
        removed: list[tuple[str, str]] = []
        notes: list[str] = []
        for f in files:
            kind = f["kind"]
            if kind == "text":
                path = rng.choice(TEXT_FILES)
                if any(e["path_new"] == path or e["path_old"] == path for e in entries):
                    continue
                old = "\n".join(f"{rng.choice(NOUNS)} = {rng.randint(0, 99)}" for _ in range(rng.randint(3, 30)))
                new = old + f"\n{rng.choice(NOUNS)} = {rng.randint(100, 999)}\n"
                entries.append(_file_entry(path, path, old + "\n", new))
                notes.append(f"update {path.rsplit('/', 1)[-1]}")
                continue
            if kind == "continued":
                if f["id"] not in latest:
                    continue  # the commit that was to write the file skipped it
                path, model = latest[f["id"]]
            elif kind == "added":
                model = javagen.sized_file(gen, f["lines"])
            elif f["lines"] == "roadmap":
                model = javagen.roadmap_file(gen)
            else:
                model = javagen.sized_file(gen, f["lines"])
            name = model.classes[0].name
            if kind != "continued":
                path = f"src/main/java/{model.package.replace('.', '/')}/{name}.java"
            if any(e["path_new"] == path or e["path_old"] == path for e in entries):
                continue
            if kind == "added":
                entries.append(_file_entry(None, path, None, javagen.render(model)))
                added.extend(javagen.method_entries(model))
                notes.append(f"add {name}")
                latest[f["id"]] = (path, model)
            elif kind == "deleted":
                entries.append(_file_entry(path, None, javagen.render(model), None))
                removed.extend(javagen.method_entries(model))
                notes.append(f"remove obsolete {name}")
            elif kind == "renamed":
                new_model, planted = javagen.edit_file(gen, model, rng.randint(0, 1))
                new_model.package = rng.choice([p for p in javagen.PACKAGES if p != model.package])
                new_path = f"src/main/java/{new_model.package.replace('.', '/')}/{name}.java"
                entries.append(_file_entry(path, new_path, javagen.render(model), javagen.render(new_model)))
                added.extend(planted.added)
                removed.extend(planted.removed)
                notes.append(f"move {name} to {new_model.package}")
                notes.extend(planted.notes)
                latest[f["id"]] = (new_path, new_model)
            else:  # modified or continued
                new_model, planted = javagen.edit_file(gen, model, rng.randint(1, 3))
                old_text, new_text = javagen.render(model), javagen.render(new_model)
                if old_text == new_text:
                    new_model.classes[0].methods[0].body.append(javagen.Stmt(f"this.{gen.var()}();"))
                    new_text = javagen.render(new_model)
                entries.append(_file_entry(path, path, old_text, new_text))
                added.extend(planted.added)
                removed.extend(planted.removed)
                notes.extend(f"{n} in {name}" for n in planted.notes[:1])
                notes.extend(planted.notes[1:])
                latest[f["id"]] = (path, new_model)
        if not entries:
            path = rng.choice(TEXT_FILES)
            entries.append(_file_entry(path, path, "a = 1\n", "a = 2\n"))
            notes.append("bump a")
        while (h := _hash(rng)) in hashes:
            pass
        hashes.add(h)
        repo = rng.choice(REPOS)
        message = "; ".join(notes[:3])
        message = message[:1].upper() + message[1:]
        if rng.random() < 0.25:
            message += "\n\n" + _long_body(rng, rng.choice((12, 30, 60, 180)))
        records.append({"repo": repo, "hash": h, "message": message, "files": entries})
        expect.append({"repo": repo, "hash": h, "message": message, "added": sorted(map(list, added)),
                       "removed": sorted(map(list, removed)), "java16": False,
                       "java16_added": [], "java16_removed": []})
    corpus = out / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")
    return {
        "workload": "corpus-typical",
        "argv": ["export-sft", "--corpus", str(corpus), "--out", str(out / "sft.jsonl")],
        "output": str(out / "sft.jsonl"),
        "items": len(records),
        "commits": expect,
        "stats": _corpus_stats(records),
    }


def _corpus_stats(records: list[dict]) -> dict:
    sizes = []
    seen_new: set[str] = set()
    old_snapshots = reused = 0
    for r in records:
        for f in r["files"]:
            for side in ("content_old", "content_new"):
                if f[side] is not None and (f["path_new"] or f["path_old"]).endswith(".java"):
                    sizes.append(len(f[side]))
            if f["content_old"] is not None:
                old_snapshots += 1
                reused += f["content_old"] in seen_new
            if f["content_new"] is not None:
                seen_new.add(f["content_new"])
    sizes.sort()
    return {"commits": len(records), "java_snapshots": len(sizes),
            "snapshot_bytes_p50": sizes[len(sizes) // 2], "snapshot_bytes_max": sizes[-1],
            "snapshot_bytes_total": sum(sizes), "old_snapshots_reused": reused,
            "old_snapshots": old_snapshots}


# ---------------------------------------------------------------------------
# rewrite-heavy
# ---------------------------------------------------------------------------

REWRITE_SIZES = {"full": (200, 500, 1000, 2000), "small": (40, 90)}


def build_rewrite_heavy(seed: int, size: str, out: Path) -> dict:
    rng = random.Random(f"{seed}:rewrite-heavy")
    gen = JavaGen(rng)
    records: list[dict] = []
    expect: list[dict] = []
    for n in REWRITE_SIZES[size]:
        rw = javagen.rewrite_file(gen, n)
        name = rw.old.classes[0].name
        path = f"src/main/java/{rw.old.package.replace('.', '/')}/{name}.java"
        repo = rng.choice(REPOS)
        h = _hash(rng)
        message = f"Rewrite {rw.method} in {name} to {camel(rng.choice(VERBS), rng.choice(NOUNS))} once per batch"
        records.append({"repo": repo, "hash": h, "message": message,
                        "files": [_file_entry(path, path, javagen.render(rw.old), javagen.render(rw.new))]})
        expect.append({"repo": repo, "hash": h, "message": message, "added": [], "removed": [],
                       "java16": False, "java16_added": [], "java16_removed": [],
                       "method": rw.method, "old_statements": rw.old_statements,
                       "new_statements": rw.new_statements, "changed": rw.changed})
    corpus = out / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")
    return {
        "workload": "rewrite-heavy",
        "argv": ["export-sft", "--corpus", str(corpus), "--out", str(out / "sft.jsonl")],
        "output": str(out / "sft.jsonl"),
        "items": len(records),
        "commits": expect,
        "stats": _corpus_stats(records),
    }


# ---------------------------------------------------------------------------
# eval-messages
# ---------------------------------------------------------------------------

EVAL_PAIRS = {"full": 600, "small": 60}
FIXED_SHAPE_TOKENS = 20


def build_eval_messages(seed: int, size: str, out: Path) -> dict:
    n = EVAL_PAIRS[size]
    lengths = msggen.stratified_lengths(n, 9, 0.7, TARGET_TOKENS)
    body = msggen.MessageGen(random.Random(f"{seed}:eval-messages words"), random.Random(f"{seed}:eval-messages"))
    tail = msggen.MessageGen(random.Random(f"{seed}:eval-messages words"), random.Random("eval-messages long shapes"))
    pairs = []
    for length in lengths:
        gen = tail if length >= FIXED_SHAPE_TOKENS else body
        ref = gen.reference(length)
        pairs.append((msggen.text(gen.candidate(ref)), msggen.text(ref)))
    random.Random(f"{seed}:eval-messages order").shuffle(pairs)
    cands, refs = out / "candidates.txt", out / "references.txt"
    cands.write_text("".join(c + "\n" for c, _ in pairs), encoding="utf-8")
    refs.write_text("".join(r + "\n" for _, r in pairs), encoding="utf-8")
    return {
        "workload": "eval-messages",
        "argv": ["eval", "--candidates", str(cands), "--references", str(refs), "--out", str(out / "scores.json")],
        "output": str(out / "scores.json"),
        "items": len(pairs),
        "pairs": pairs,
        "stats": {"pairs": n, "reference_tokens": _length_summary(lengths)},
    }


def _length_summary(lengths: list[int]) -> dict:
    s = sorted(lengths)
    return {"p50": s[len(s) // 2], "p90": s[len(s) * 9 // 10], "p99": s[len(s) * 99 // 100], "max": s[-1],
            "under_20": sum(x < 20 for x in s) / len(s)}


BUILDERS = {
    "corpus-typical": build_corpus_typical,
    "rewrite-heavy": build_rewrite_heavy,
    "eval-messages": build_eval_messages,
}


def build(workload: str, seed: int, size: str, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, size, out)
