"""Each module's lines and code lines, as a Markdown table.

A code line is one that holds a token of code: not blank, not a comment
alone, and not inside a module, class or function docstring.  A string
that is no docstring holds code lines, each line it spans.  Deleting a
docstring shrinks a module's lines but not its code lines, so the two
columns tell removed code from removed text.  ``SRC`` is a directory of
``.py`` modules; with ``BASE_SRC``, another such directory, the table
also gives the base's code lines and the change in each and in the total:

    python tests/code_lines.py SRC [BASE_SRC]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

# tokens that are no code: layout, comments and the stream's own markers
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source`` (module docstring)."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def counts(src: str) -> dict[str, tuple[int, int]]:
    """Per ``.py`` module directly in ``src``: (lines, code lines)."""
    out = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                source = fh.read()
            out[name] = len(source.splitlines()), code_lines(source)
    return out


def main(argv: list[str]) -> None:
    if not 1 <= len(argv) <= 2:
        print(f"usage: python {sys.argv[0]} SRC [BASE_SRC]", file=sys.stderr)
        sys.exit(2)
    tables = [counts(src) for src in argv]  # the head's, then the base's
    head, base = tables[0], tables[1] if len(tables) > 1 else None
    print("| module | lines | code lines |" + " base code lines | change |" * bool(base))
    print("|---|---|---|" + "---|---|" * bool(base))
    names = sorted({*head, *(base or {})})
    rows = [(f"`{name}`", *head.get(name, (0, 0)), (base or {}).get(name, (0, 0))[1])
            for name in names]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows),
                 sum(r[3] for r in rows)))
    for name, lines, code, base_code in rows:
        cells = [name, lines, code] + ([base_code, f"{code - base_code:+d}"] if base else [])
        print(f"| {' | '.join(map(str, cells))} |")


if __name__ == "__main__":
    main(sys.argv[1:])
