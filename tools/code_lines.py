"""Count the code lines of Python sources.

A line counts when a token other than a comment, a docstring or layout
(newlines, indentation) starts on it or spans it.  A docstring here is
any string statement that stands alone on its logical line, as a module,
class or function docstring does.  Blank lines, comment lines and
docstring lines are therefore not counted.

    python tools/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for *.py files; the default
is src/hilbertgeo.  Prints each file's count, then the total.
"""

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The number of code lines of one Python file."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, t in enumerate(tokens):
        if t.type in _LAYOUT:
            continue
        if (t.type == tokenize.STRING and tokens[i - 1].type in _LAYOUT
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv):
    paths = [Path(p) for p in argv] or [Path("src/hilbertgeo")]
    files = sorted(f for p in paths
                   for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
