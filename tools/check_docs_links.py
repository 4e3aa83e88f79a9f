"""Check intra-repo links in the documentation.

Scans README.md, EXPERIMENTS.md, DESIGN.md, and docs/*.md for
references to repository files — markdown links ``[text](path)`` and
backtick-quoted paths like ``docs/architecture.md`` or
``tests/test_engine.py`` — and fails if any target does not exist.
Anchors (``#section``) and external URLs are ignored. Prose uses
several spellings for the same file (``engine.py`` inside a table
about ``memsim/``, ``cap/multidomain.py`` relative to ``src/repro``),
so a target is accepted when it resolves against the referencing
file's directory or the repo root, or when it is a path *suffix* of
some tracked file — a reference only fails when no file in the repo
matches it at all, which is exactly the rename/delete rot this guard
is for. Only tracked files count (``git ls-files``; a plain directory
walk when ``root`` is not a git checkout), so build output or a
stray local file can never satisfy a reference that a clean checkout
would fail.

Usage::

    python tools/check_docs_links.py [root]

Prints each dangling reference as ``file:line: target``; exits 1 if
any were found.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

# [text](path) — markdown links, minus external schemes and bare anchors.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `path/to/file.ext` — backtick-quoted repo paths. Requires a slash or a
# doc/source suffix so `epoch_us`-style identifiers don't match.
CODE_REF = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|json|yml|toml))`")

EXTERNAL = ("http://", "https://", "mailto:")
SKIP_DIRS = {".git", ".repro_cache", "__pycache__", ".pytest_cache",
             ".hypothesis", ".claude"}


def file_index(root: Path) -> Set[str]:
    """POSIX-style relative paths of the files the check may match:
    the tracked files of a git checkout, else every file under ``root``
    outside :data:`SKIP_DIRS`."""
    if (root / ".git").exists():
        listing = subprocess.run(["git", "-C", str(root), "ls-files", "-z"],
                                 capture_output=True, check=True).stdout
        return {path for path in listing.decode().split("\0")
                if path and (root / path).is_file()}
    paths = set()
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        rel = path.relative_to(root)
        if rel.parts[0] in SKIP_DIRS:
            continue
        paths.add(rel.as_posix())
    return paths


def doc_files(root: Path) -> List[Path]:
    files = [root / "README.md", root / "EXPERIMENTS.md",
             root / "DESIGN.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


def references(path: Path) -> Iterator[Tuple[int, str]]:
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in MD_LINK.finditer(line):
            yield lineno, match.group(1)
        for match in CODE_REF.finditer(line):
            yield lineno, match.group(1)


def resolves(target: str, source: Path, root: Path,
             index: Set[str]) -> bool:
    target = target.split("#", 1)[0].rstrip("/")
    if not target:  # pure anchor: [back](#layering)
        return True
    relative = os.path.normpath(
        (source.parent.relative_to(root) / target).as_posix())
    for candidate in (relative, os.path.normpath(target)):
        if candidate in index or any(path.startswith(candidate + "/")
                                     for path in index):
            return True
    return any(path.endswith("/" + target) for path in index)


def dangling(root: Path) -> List[Tuple[Path, int, str]]:
    index = file_index(root)
    bad = []
    for path in doc_files(root):
        for lineno, target in references(path):
            if target.startswith(EXTERNAL):
                continue
            if not resolves(target, path, root, index):
                bad.append((path, lineno, target))
    return bad


def main(argv: List[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else REPO
    bad = dangling(root)
    for path, lineno, target in bad:
        print(f"{path.relative_to(root)}:{lineno}: dangling link "
              f"-> {target}")
    if bad:
        print(f"{len(bad)} dangling reference(s)")
        return 1
    print(f"docs links OK ({len(doc_files(root))} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
