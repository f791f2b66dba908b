"""Count the lines of each module of a source tree by kind.

Every physical line is exactly one of:
- docstring: inside the first string statement of a module, class or
  function;
- code: carrying part of any other token but a comment, a line of a
  multi-line string included;
- blank: empty or whitespace only;
- comment: a comment and nothing else.

Usage: python tools/src_lines.py [DIR]   (DIR defaults to src/ccv)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("physical", "code", "docstring", "blank", "comment")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> dict:
    """{kind: number of lines} of one Python file."""
    text = path.read_text(encoding="utf-8")
    physical = text.splitlines()
    docstring = _docstring_lines(ast.parse(text, str(path)))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    blank = {n for n, line in enumerate(physical, 1)
             if not line.strip()} - docstring - code
    return {"physical": len(physical), "code": len(code),
            "docstring": len(docstring), "blank": len(blank),
            "comment": len(physical) - len(code | docstring | blank)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/ccv")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>11,}" for k in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[k]:>11,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
