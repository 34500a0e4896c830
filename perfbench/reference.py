"""Reference figures for the ROADMAP Baseline, made with the benchmark's
generators: the 200 KB parse, a diff with two edits on that file, the
3,000-statement rewrite, and METEOR per pair at 15/25/40/100 tokens.

    python3 perfbench/reference.py

Inputs come from seed 1.  Each figure is the median of five timings in this
process (two for the 3,000-statement rewrite, one per METEOR pair).
"""

from __future__ import annotations

import copy
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import javagen  # noqa: E402
import msggen  # noqa: E402

from condenser.changeset import diff_facts  # noqa: E402
from condenser.javafacts import _lex, parse_java  # noqa: E402
from condenser.metrics import meteor, tokenize_message  # noqa: E402

SEED = 1
REPEAT = 5


def timed(fn, repeat: int = REPEAT) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> int:
    gen = javagen.JavaGen(random.Random(SEED))

    big = javagen.roadmap_file(gen)
    source = javagen.render(big)
    facts = parse_java(source)
    tokens, comments = _lex(source)
    n_stmts = sum(len(m.body_statements) for m in facts.classes[0].methods)
    print(f"200 KB file: {len(source) / 1024:.0f} KiB, {source.count(chr(10))} lines, "
          f"{len(facts.classes[0].methods)} methods, {n_stmts} statements, {len(tokens)} tokens, "
          f"{len(comments)} comments")
    print(f"  _lex        {timed(lambda: _lex(source)) * 1000:8.1f} ms")
    print(f"  parse_java  {timed(lambda: parse_java(source)) * 1000:8.1f} ms")

    edited = copy.deepcopy(big)
    methods = edited.classes[0].methods
    methods[10].body[3] = gen.simple_stmt()
    methods[150].body.insert(5, gen.simple_stmt())
    edited_facts = parse_java(javagen.render(edited))
    print(f"  diff_facts, two edits  {timed(lambda: diff_facts(facts, edited_facts)) * 1000:8.1f} ms")

    rw = javagen.rewrite_file(gen, 3000)
    complete = copy.deepcopy(rw.old)
    long_method = complete.classes[0].methods[1]
    for k, stmt in enumerate(long_method.body):  # every statement modified
        stmt.text = stmt.text.replace(";", " + 1;", 1)
    old_f, new_f = parse_java(javagen.render(rw.old)), parse_java(javagen.render(complete))
    part_f = parse_java(javagen.render(rw.new))
    print("3,000-statement method:")
    print(f"  diff_facts, complete rewrite   {timed(lambda: diff_facts(old_f, new_f), REPEAT // 2) * 1000:8.1f} ms")
    print(f"  diff_facts, rewrite-heavy mix  {timed(lambda: diff_facts(old_f, part_f), REPEAT // 2) * 1000:8.1f} ms")

    mg = msggen.MessageGen(random.Random(f"{SEED}:words"), random.Random(SEED))
    rng = random.Random(SEED)
    vocab = (msggen.FUNCTION_WORDS + msggen.VERBS)[:17]

    def derived(length):
        ref = mg.reference(length)
        return mg.candidate(ref), ref

    def unrelated(length):  # the ROADMAP's test messages
        return [rng.choice(vocab) for _ in range(length)], [rng.choice(vocab) for _ in range(length)]

    for title, make, sizes in (
        ("candidates derived from their references (eval-messages)", derived, ((15, 30), (25, 30), (40, 20), (100, 6))),
        ("unrelated random messages over 17 words (ROADMAP)", unrelated, ((15, 10), (25, 10), (40, 5), (100, 3))),
    ):
        print(f"METEOR per pair, {title}:")
        for length, n_pairs in sizes:
            per_pair = []
            for _ in range(n_pairs):
                cand, ref = make(length)
                c, r = tokenize_message(msggen.text(cand)), tokenize_message(msggen.text(ref))
                per_pair.append(timed(lambda: meteor(c, r), 1))
            print(f"  {length:3d} tokens  median {statistics.median(per_pair) * 1000:8.2f} ms"
                  f"  max {max(per_pair) * 1000:8.2f} ms  ({n_pairs} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
