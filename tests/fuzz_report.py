"""How many fixture commits lose a Java file to file-level lines under small
random edits.

Each trial takes a commit of tests/corpusdata.py that holds a Java file,
makes 1-3 edits to one side of one of its Java files (each replaces up to 3
characters with up to 3 drawn from test_contract.EDIT_ALPHABET) and
condenses it. The commit is lost when a Java file fails to parse and is
summarized as a file-level change. The run is seeded, so it repeats:

    PYTHONPATH=src python tests/fuzz_report.py --seed 0

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import logging
import random

from condenser.corpus import condense_commit
from condenser.diffing import CommitInput, FilePair
from corpusdata import COMMITS
from test_contract import EDIT_ALPHABET


def _java_sides(entries: list[dict]) -> list[tuple[dict, str]]:
    return [
        (entry, side)
        for entry in entries
        if (entry["path_new"] or entry["path_old"]).endswith(".java")
        for side in ("content_old", "content_new")
        if entry[side]
    ]


JAVA_COMMITS = [record for record in COMMITS if _java_sides(record["files"])]
TRIALS = 1000


def _edited(record: dict, rng: random.Random) -> CommitInput:
    """The record as a commit, with 1-3 edits to one side of one Java file."""
    entries = [dict(entry) for entry in record["files"]]
    entry, side = rng.choice(_java_sides(entries))
    text = entry[side]
    for _ in range(rng.randint(1, 3)):
        start = rng.randint(0, len(text))
        end = rng.randint(start, min(len(text), start + 3))
        text = text[:start] + "".join(rng.choices(EDIT_ALPHABET, k=rng.randint(0, 3))) + text[end:]
    entry[side] = text
    return CommitInput(record["repo"], record["hash"], tuple(FilePair(**entry) for entry in entries))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    logging.disable(logging.CRITICAL)  # condense_commit warns once per failed file
    rng = random.Random(args.seed)
    lost = sum(bool(condense_commit(_edited(rng.choice(JAVA_COMMITS), rng)).parse_failures) for _ in range(TRIALS))
    print(f"seed {args.seed}: {lost} of {TRIALS} edited commits lost a Java file ({100 * lost / TRIALS:.1f}%)")


if __name__ == "__main__":
    main()
