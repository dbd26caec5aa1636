"""Count the code lines of src/ivowa, file by file and in total.

A code line holds a token other than a comment and lies outside a
docstring.  This is the count ROADMAP's Baseline and each CHANGES.md entry
give, and the one CI logs.  Run it from the repository root:

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    lines = {line for tok in tokenize.generate_tokens(io.StringIO(text).readline)
             if tok.type not in BLANK for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docs)


def main() -> None:
    total = 0
    for path in sorted(Path("src/ivowa").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(f"{path}: {count}")
        total += count
    print(f"src/ivowa code lines: {total}")


if __name__ == "__main__":
    main()
