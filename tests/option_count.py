"""Each subcommand's option count, ``--help`` aside, as a Markdown table.

The options are the settings a user can reach, which ROADMAP aim 2 asks
to keep few.  ``SRC`` is a directory that holds the ``nfclm`` package;
with ``BASE_SRC``, another such directory, the table also gives the base's
counts and the change in each and in the total:

    python tests/option_count.py SRC [BASE_SRC]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

# run in a fresh interpreter per tree, so that two trees' packages never meet
COUNT = """
import argparse, json
from nfclm.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(json.dumps({name: sum(bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                            for a in parser._actions)
                  for name, parser in sub.choices.items()}))
"""


def option_counts(src: str) -> dict[str, int]:
    ran = subprocess.run([sys.executable, "-c", COUNT], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(ran.stdout)


def main(argv: list[str]) -> None:
    if not 1 <= len(argv) <= 2:
        print(f"usage: python {sys.argv[0]} SRC [BASE_SRC]", file=sys.stderr)
        sys.exit(2)
    counts = [option_counts(src) for src in argv]  # the head's, then the base's
    names = sorted({*counts[0], *counts[-1]})
    for table in counts:
        table["total"] = sum(table.values())
    base = len(counts) > 1
    print("| subcommand | options |" + " base | change |" * base)
    print("|---|---|" + "---|---|" * base)
    for name in names + ["total"]:
        cells = [table.get(name, 0) for table in counts]
        if base:
            cells.append(f"{cells[0] - cells[1]:+d}")
        print(f"| {name} | {' | '.join(map(str, cells))} |")


if __name__ == "__main__":
    main(sys.argv[1:])
