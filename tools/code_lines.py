"""Count the code lines of the framesense package.

A code line holds at least one token that is neither a comment nor part of
a docstring; blank lines, comment lines and docstring lines do not count.
A docstring here is any statement that is a bare string literal, which is
what Python's ``tokenize`` sees as a string token that opens a logical line
and ends it. Prints one count per file and the total.

Usage: python tools/code_lines.py [DIR]   (DIR defaults to src/framesense)
"""

import sys
import tokenize
from pathlib import Path

# layout and comment tokens; NEWLINE is kept, as it ends a logical line
_SKIP = {tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
         tokenize.ENCODING, tokenize.COMMENT}


def code_lines(path) -> int:
    """Number of lines of ``path`` that hold a code token."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIP]
    lines = set()
    for pos, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a logical line ends in NEWLINE, so tokens[pos + 1] exists
        bare = pos == 0 or tokens[pos - 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and bare and tokens[pos + 1].type == tokenize.NEWLINE:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "framesense"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
