"""Commit ingestion: unified diff parsing and old/new file pairing.

Nothing here talks to git. A commit arrives either as two directory trees
of snapshots, as a `git diff`-style text plus snapshot maps, or as
self-contained corpus records (see condenser.corpus).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from condenser.sequences import split_lines

log = logging.getLogger(__name__)

__all__ = [
    "CommitInput",
    "DiffFormatError",
    "FilePair",
    "Hunk",
    "MissingSnapshot",
    "UnifiedDiff",
    "parse_unified_diff",
    "reconstruct_pairs",
]


class DiffFormatError(Exception):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MissingSnapshot(Exception):
    def __init__(self, path: str):
        super().__init__(f"missing snapshot content for {path}")
        self.path = path


@dataclass(frozen=True)
class Hunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: tuple[str, ...]  # each line keeps its ' ', '-' or '+' prefix


@dataclass(frozen=True)
class FileSection:
    path_old: str | None  # None for added files
    path_new: str | None  # None for deleted files
    hunks: tuple[Hunk, ...]
    is_binary: bool = False


@dataclass(frozen=True)
class UnifiedDiff:
    file_sections: tuple[FileSection, ...]


@dataclass(frozen=True)
class FilePair:
    path_old: str | None  # None for added files
    path_new: str | None  # None for deleted files
    content_old: str | None
    content_new: str | None

    def __post_init__(self):
        if self.path_old is None and self.path_new is None:
            raise ValueError("file pair needs at least one path")
        if self.path_old is None and self.content_old is not None:
            raise ValueError("added pair must have no old side")
        if self.path_new is None and self.content_new is not None:
            raise ValueError("deleted pair must have no new side")

    @property
    def status(self) -> str:
        """added | deleted | modified | renamed, from the two paths."""
        if self.path_old is None:
            return "added"
        if self.path_new is None:
            return "deleted"
        return "modified" if self.path_old == self.path_new else "renamed"

    @property
    def path(self) -> str:
        return self.path_new if self.path_new is not None else (self.path_old or "")

    @property
    def is_java(self) -> bool:
        return self.path.endswith(".java")


@dataclass(frozen=True)
class CommitInput:
    repo_name: str
    commit_hash: str
    file_pairs: tuple[FilePair, ...]

    def __post_init__(self):
        if not self.repo_name or not self.commit_hash:
            raise ValueError("repo name and commit hash must be non-empty")
        if not self.file_pairs:
            raise ValueError("a commit needs at least one file pair")


_HUNK_HEADER = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_DEV_NULL = "/dev/null"


def _strip_prefix(path: str) -> str | None:
    path = path.split("\t", 1)[0].strip()
    if path == _DEV_NULL:
        return None
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


def parse_unified_diff(text: str) -> UnifiedDiff:
    """Parse `git diff`-style output into file sections and hunks.

    Raises DiffFormatError for malformed headers or hunks whose line counts
    disagree with their header arithmetic. Binary sections are kept with
    is_binary=True and no hunks; a diagnostic is logged.
    """
    sections: list[FileSection] = []
    lines = split_lines(text)
    i = 0
    n = len(lines)

    current_old: str | None = None
    current_new: str | None = None
    rename_old: str | None = None
    rename_new: str | None = None
    have_header = False
    hunks: list[Hunk] = []

    def flush():
        nonlocal current_old, current_new, rename_old, rename_new, have_header, hunks
        if have_header:
            sections.append(FileSection(path_old=current_old, path_new=current_new, hunks=tuple(hunks)))
        elif rename_old is not None or rename_new is not None:
            # pure rename with no content hunks
            sections.append(FileSection(path_old=rename_old, path_new=rename_new, hunks=()))
        current_old = current_new = rename_old = rename_new = None
        have_header = False
        hunks = []

    while i < n:
        line = lines[i]
        if line.startswith("diff --git"):
            flush()
            i += 1
            continue
        if line.startswith("Binary files") and line.rstrip().endswith("differ"):
            log.warning("skipping binary section at diff line %d: %s", i + 1, line.strip())
            flush()
            m = re.match(r"^Binary files (.+) and (.+) differ$", line.rstrip())
            old_p = _strip_prefix(m.group(1)) if m else None
            new_p = _strip_prefix(m.group(2)) if m else None
            sections.append(FileSection(path_old=old_p, path_new=new_p, hunks=(), is_binary=True))
            i += 1
            continue
        if line.startswith("rename from "):
            rename_old = line[len("rename from "):].strip()
            i += 1
            continue
        if line.startswith("rename to "):
            rename_new = line[len("rename to "):].strip()
            i += 1
            continue
        if line.startswith("--- "):
            if i + 1 >= n or not lines[i + 1].startswith("+++ "):
                raise DiffFormatError(i + 1, "'---' header without matching '+++'")
            if have_header:  # a diff -u section ends at the next one's header
                flush()
            old_p = _strip_prefix(line[4:])
            new_p = _strip_prefix(lines[i + 1][4:])
            if rename_old is not None:
                old_p = old_p if old_p is not None else rename_old
            if rename_new is not None:
                new_p = new_p if new_p is not None else rename_new
            if old_p is None and new_p is None:
                raise DiffFormatError(i + 1, "'---' and '+++' are both /dev/null")
            current_old, current_new = old_p, new_p
            have_header = True
            i += 2
            continue
        if line.startswith("@@"):
            if not have_header:
                raise DiffFormatError(i + 1, "hunk before file header")
            m = _HUNK_HEADER.match(line)
            if not m:
                raise DiffFormatError(i + 1, f"malformed hunk header: {line!r}")
            old_start = int(m.group(1))
            old_len = int(m.group(2)) if m.group(2) is not None else 1
            new_start = int(m.group(3))
            new_len = int(m.group(4)) if m.group(4) is not None else 1
            i += 1
            body: list[str] = []
            seen_old = seen_new = 0
            while i < n and (seen_old < old_len or seen_new < new_len):
                hunk_line = lines[i]
                if hunk_line.startswith("\\"):  # "\ No newline at end of file"
                    i += 1
                    continue
                if not hunk_line:
                    hunk_line = " "  # blank context line with trimmed trailing space
                tag = hunk_line[0]
                if tag == " ":
                    seen_old += 1
                    seen_new += 1
                elif tag == "-":
                    seen_old += 1
                elif tag == "+":
                    seen_new += 1
                else:
                    raise DiffFormatError(i + 1, f"unexpected hunk line: {hunk_line!r}")
                body.append(hunk_line)
                i += 1
            if seen_old != old_len or seen_new != new_len:
                raise DiffFormatError(
                    i, f"hunk line counts do not match header (-{old_len},+{new_len})"
                )
            hunks.append(Hunk(old_start, old_len, new_start, new_len, tuple(body)))
            continue
        # anything else (index lines, mode lines, similarity, context noise)
        i += 1
    flush()
    return UnifiedDiff(file_sections=tuple(sections))


def reconstruct_pairs(
    diff: UnifiedDiff,
    old_contents: dict[str, str],
    new_contents: dict[str, str],
    repo_name: str = "unknown",
    commit_hash: str = "0000000",
) -> CommitInput:
    """Join a parsed diff with snapshot maps into a CommitInput.

    Every path a section mentions must resolve in the corresponding map;
    MissingSnapshot is raised otherwise.  `diff -N` names the absent side of
    an added or deleted file by its real path, not /dev/null: a side without
    a snapshot whose every hunk reads '-0,0' ('+0,0') is absent.  Binary
    sections are dropped (the parser already logged them).
    """
    pairs: list[FilePair] = []
    for section in diff.file_sections:
        if section.is_binary:
            continue
        path_old, path_new, hunks = section.path_old, section.path_new, section.hunks
        if hunks and path_old not in old_contents and all(h.old_start == h.old_len == 0 for h in hunks):
            path_old = None
        elif hunks and path_new not in new_contents and all(h.new_start == h.new_len == 0 for h in hunks):
            path_new = None
        content_old = content_new = None
        if path_old is not None:
            if path_old not in old_contents:
                raise MissingSnapshot(path_old)
            content_old = old_contents[path_old]
        if path_new is not None:
            if path_new not in new_contents:
                raise MissingSnapshot(path_new)
            content_new = new_contents[path_new]
        pairs.append(FilePair(path_old=path_old, path_new=path_new, content_old=content_old, content_new=content_new))
    return CommitInput(repo_name=repo_name, commit_hash=commit_hash, file_pairs=tuple(pairs))

