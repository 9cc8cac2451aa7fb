"""Line coverage of ``src/`` with the standard library only (Python >= 3.12).

Run a command under the hook, then list the ``src/`` lines it never ran::

    PYENV_VERSION=3.12.1 python3.12 tests/line_coverage.py run COVDIR -- \\
        python3.12 -m pytest -q -p no:cacheprovider
    python3 tests/line_coverage.py report COVDIR

``run`` writes a ``sitecustomize.py`` into COVDIR and puts COVDIR first on
``PYTHONPATH`` (then ``src``), so every Python process the command starts,
subprocesses included, installs a ``sys.monitoring`` LINE hook. The hook
records each ``(file, line)`` under ``src/`` once and then returns
``DISABLE`` for it, so covered code runs at full speed afterwards. Each
hit is appended to ``COVDIR/hits-<pid>.txt`` as it happens (one write
per distinct line), so forked pool workers, processes ended with
``os._exit`` and processes killed with SIGTERM or SIGKILL all keep the
hits they recorded; nothing is buffered until exit. Known gap: a line a
killed process was executing when it died counts as executed, and code
that runs only under Python < 3.12 (no ``sys.monitoring``) is not seen.
"""

import dis
import os
import subprocess
import sys

HOOK = '''import os, sys
SRC, OUT = {src!r}, {out!r}
mon = getattr(sys, "monitoring", None)
keep, sink = {{}}, [None, None]
def _line(code, line):
    name = code.co_filename
    if name not in keep:
        real = os.path.realpath(name)
        keep[name] = real if real.startswith(SRC) else None
    if keep[name] is not None:
        if sink[0] != os.getpid():  # first hit in this (possibly forked) process
            path = os.path.join(OUT, "hits-%d.txt" % os.getpid())
            sink[:] = [os.getpid(), os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)]
        os.write(sink[1], ("%s\\t%d\\n" % (keep[name], line)).encode())
    return mon.DISABLE
if mon is not None:
    mon.use_tool_id(mon.COVERAGE_ID, "avmon-line-coverage")
    mon.register_callback(mon.COVERAGE_ID, mon.events.LINE, _line)
    mon.set_events(mon.COVERAGE_ID, mon.events.LINE)
'''

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run(out: str, command) -> int:
    os.makedirs(out, exist_ok=True)
    out = os.path.realpath(out)
    with open(os.path.join(out, "sitecustomize.py"), "w") as fh:
        fh.write(HOOK.format(src=SRC + os.sep, out=out))
    path = [out, SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.call(command, env=env)


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def _spans(lines) -> str:
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(out: str) -> int:
    hits = set()
    for name in os.listdir(out):
        if name.startswith("hits-"):
            with open(os.path.join(out, name)) as fh:
                for row in fh:
                    path, line = row.rstrip("\n").split("\t")
                    hits.add((path, int(line)))
    total = ran = 0
    for root, _dirs, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            lines = executable_lines(path)
            missed = sorted(n for n in lines if (path, n) not in hits)
            total, ran = total + len(lines), ran + len(lines) - len(missed)
            if missed:
                rel = os.path.relpath(path, os.path.dirname(SRC))
                print(f"{rel}: {len(missed)} unexecuted: {_spans(missed)}")
    print(f"executed {ran} of {total} executable src/ lines")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 5 and sys.argv[1] == "run" and sys.argv[3] == "--":
        sys.exit(run(sys.argv[2], sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] == "report":
        sys.exit(report(sys.argv[2]))
    sys.exit(__doc__)
