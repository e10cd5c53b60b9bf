#!/usr/bin/env python3
"""Non-blank line counts of the package's modules, the size ROADMAP.md tracks.

    python3 tools/src_lines.py

Prints one ``count  name`` line per ``*.py`` file of ``src/orderfield``, sorted
by name, then the total.  A line counts when it holds anything besides
whitespace; comments and docstrings count.
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orderfield"


def non_blank_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def main() -> None:
    counts = {p.name: non_blank_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total ({len(counts)} files)")


if __name__ == "__main__":
    main()
