"""Logical source lines of the package, one count per module and the total.

    python tests/logical_lines.py

A logical line is one NEWLINE token of Python's tokenizer: a statement,
however many physical lines it spans, and no blank line, comment or
continuation line.  A docstring is one statement.  This is the size figure
that CHANGES.md and ROADMAP.md quote.  The script only prints; it is no gate.
"""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "m2sl2"


def logical_lines(path: Path) -> int:
    with tokenize.open(path) as f:
        return sum(tok.type == tokenize.NEWLINE for tok in tokenize.generate_tokens(f.readline))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = logical_lines(path)
        total += n
        print(f"{n:6}  {path.name}")
    print(f"{total:6}  total")


if __name__ == "__main__":
    main()
