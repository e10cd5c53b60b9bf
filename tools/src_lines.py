#!/usr/bin/env python3
"""Non-blank line counts of the package's modules, the size ROADMAP.md tracks.

    python3 tools/src_lines.py [--against REV]

Prints one ``count  name`` line per ``*.py`` file of ``src/orderfield``, sorted
by name, then the total.  A line counts when it holds anything besides
whitespace; comments and docstrings count.  With ``--against REV`` each line
also gives the change from the file at git revision REV (read with
``git show REV:path``; a file missing on one side counts 0 there), and the
files that exist only at REV are listed too.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orderfield"


def non_blank(text: str) -> int:
    return sum(1 for line in text.split("\n") if line.strip())


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"src_lines: git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout


def counts_at(rev: str) -> dict:
    """The non-blank line count of each ``*.py`` file of the package at git revision ``rev``."""
    paths = git("ls-tree", "--name-only", rev, PACKAGE.relative_to(ROOT).as_posix() + "/").split()
    return {Path(path).name: non_blank(git("show", f"{rev}:{path}"))
            for path in paths if path.endswith(".py")}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", metavar="REV", help="also print the change from git revision REV")
    args = p.parse_args()
    counts = {p.name: non_blank(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    if args.against is None:
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
        print(f"{total:6d}  total ({len(counts)} files)")
        return
    before = counts_at(args.against)
    for name in sorted(counts.keys() | before.keys()):
        count = counts.get(name, 0)
        print(f"{count:6d}  {count - before.get(name, 0):+5d}  {name}")
    print(f"{total:6d}  {total - sum(before.values()):+5d}  total ({len(counts)} files; "
          f"{len(before)} at {args.against})")


if __name__ == "__main__":
    main()
