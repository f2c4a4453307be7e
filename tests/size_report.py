"""The size that ROADMAP aim 2 asks to shrink, as Markdown tables:

    python tests/size_report.py HEAD [BASE]

``HEAD`` and ``BASE`` are each the root of a checkout; a root without
``src/nfclm/cli.py`` or README.md is named after the usage, with exit
status 2.  For each, the lines of ``src/nfclm/*.py`` and ``tests/*.py``,
README.md's words (runs of characters between whitespace; POSIX ``wc -w``
also skips one that is not text in its locale, such as a lone ``×``),
each module's lines and code lines, and each subcommand's option count,
``--help`` aside; with ``BASE``, the change in each.  A code line is one
that holds a token of code: not blank, not a comment alone, and not inside
a module, class or function docstring.  A string that is no docstring
holds code lines, each line it spans.  Deleting a docstring shrinks a
module's lines but not its code lines, so the two columns tell removed
code from removed text.
"""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

# tokens that are no code: layout, comments and the stream's own markers
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
# run in a fresh interpreter per tree, so that two trees' packages never meet
COUNT_OPTIONS = """import argparse, json
from nfclm.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps({name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                            for a in parser._actions) for name, parser in sub.choices.items()}))"""


def code_lines(source: str) -> int:
    """The number of code lines in ``source`` (module docstring)."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def sizes(root: str) -> tuple[dict, dict, dict]:
    """The sizes, each module's lines and code lines, and each subcommand's
    option count in the checkout at ``root``, as tables of tuples."""
    def read(pattern):
        return {path.name: path.read_text(encoding="utf-8") for path in Path(root).glob(pattern)}
    modules = {f"`{name}`": (len(text.splitlines()), code_lines(text))
               for name, text in read("src/nfclm/*.py").items()}
    ran = subprocess.run([sys.executable, "-c", COUNT_OPTIONS], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.path.join(root, "src")}, check=True)
    tests = sum(len(text.splitlines()) for text in read("tests/*.py").values())
    words = len(Path(root, "README.md").read_text(encoding="utf-8").split())
    return ({"`src/nfclm/*.py` lines": (sum(lines for lines, _ in modules.values()),),
             "`tests/*.py` lines": (tests,), "README.md words": (words,)},
            modules, {name: (n,) for name, n in json.loads(ran.stdout).items()})


def print_table(key: str, columns: list[str], trees: list[dict], total: bool) -> None:
    """A row per name in any tree (0 where a tree lacks it), with ``total`` a
    row of sums: the head's columns, then the base's and the change in each."""
    names = sorted({name for tree in trees for name in tree})
    rows = [[tree.get(name, (0,) * len(columns)) for tree in trees] for name in names]
    if total:
        names.append("total")
        rows.append([tuple(map(sum, zip(*column))) for column in zip(*rows)])
    if len(trees) > 1:
        columns = columns + [f"base {c}" for c in columns] + [f"change in {c}" for c in columns]
        rows = [[head, base, [f"{h - b:+d}" for h, b in zip(head, base)]] for head, base in rows]
    print(f"\n| {key} | {' | '.join(columns)} |\n|---|{'---|' * len(columns)}")
    for name, row in zip(names, rows):
        print(f"| {name} | {' | '.join(str(cell) for part in row for cell in part)} |")


def main(argv: list[str]) -> None:
    usage = f"usage: python {sys.argv[0]} HEAD [BASE]"
    if not 1 <= len(argv) <= 2:
        print(usage, file=sys.stderr)
        sys.exit(2)
    for root in argv:  # the files of a checkout that every table reads
        if not all(Path(root, name).is_file() for name in ("src/nfclm/cli.py", "README.md")):
            print(f"{usage}\n{root} is not the root of a checkout", file=sys.stderr)
            sys.exit(2)
    trees = list(zip(*map(sizes, argv)))  # per table, the head's and then the base's
    print_table("size", ["count"], trees[0], total=False)
    print_table("module", ["lines", "code lines"], trees[1], total=True)
    print_table("subcommand", ["options"], trees[2], total=True)


if __name__ == "__main__":
    main(sys.argv[1:])
