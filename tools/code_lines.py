"""Count the raw lines and the code lines of the Python files in a directory.

    python tools/code_lines.py SRC_DIR

A code line holds a token of a statement that is not a docstring.  Blank
lines, comment-only lines and the lines of a docstring (a statement made of
string literals alone, at the top of a module, class or function or
anywhere else) are not code.  Tokens come from the standard tokenize
module, so strings with "#" in them and multi-line expressions are counted
as Python reads them.  Prints one row per file, by path relative to
SRC_DIR, then a total row; each row is ``path raw code``.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that end a logical line or carry no code of their own.
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(path: Path) -> tuple[int, int]:
    """(raw, code) line counts of one Python file."""
    with tokenize.open(path) as fh:
        text = fh.read()
    code: set[int] = set()
    statement: list[tokenize.TokenInfo] = []

    def close():
        if any(tok.type != tokenize.STRING for tok in statement):
            for tok in statement:
                code.update(range(tok.start[0], tok.end[0] + 1))
        statement.clear()

    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            close()
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not Path(argv[1]).is_dir():
        print("usage: python tools/code_lines.py SRC_DIR", file=sys.stderr)
        return 2
    root = Path(argv[1])
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count_lines(path)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{path.relative_to(root)} {raw} {code}")
    print(f"total {total_raw} {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
