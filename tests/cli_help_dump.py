"""Write every ``avmon ... --help`` page to a directory, one file a page.

Run it on two checkouts and diff the directories to review a CLI edit::

    PYTHONPATH=src python3 tests/cli_help_dump.py OUT_DIR
    PYTHONPATH=../parent/src python3 tests/cli_help_dump.py PARENT_DIR
    diff -r PARENT_DIR OUT_DIR

The ``repro`` package is taken from ``PYTHONPATH``, so the same script
dumps any checkout's pages. Pages are rendered at ``COLUMNS=80`` whatever
the terminal, so two dumps differ only where the parsers do. A page is
named after its command path (``avmon.txt``, ``avmon-live-up.txt``, ...).
The script prints how many pages it wrote.
"""

import argparse
import contextlib
import io
import os
import sys


def _tree(parser, path=()):
    """Every command path of the parser, depth first."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _tree(sub, path + (name,))


def dump(out: str) -> int:
    os.environ["COLUMNS"] = "80"
    from repro.cli import build_parser, main

    os.makedirs(out, exist_ok=True)
    pages = 0
    for path in _tree(build_parser()):
        page = io.StringIO()
        with contextlib.redirect_stdout(page), contextlib.suppress(SystemExit):
            main([*path, "--help"])
        name = "-".join(("avmon",) + path) + ".txt"
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(page.getvalue())
        pages += 1
    print(f"wrote {pages} help pages to {out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(dump(sys.argv[1]))
