"""Line-level traffic trace: which function-body lines of ``src/repro`` run.

Two subcommands, run from the tree root::

    python tools/linetrace.py run --out DIR -- python -m repro.experiments.runner ...
    python tools/linetrace.py count DIR

``run`` executes one command with a ``sitecustomize`` hook on
``PYTHONPATH`` that line-traces every Python process it starts (threads
included) and, at exit, writes the lines it saw under ``src/repro`` to
``DIR/lines-<pid>.txt``.  Forked pool workers leave through
``os._exit`` and write nothing.  Run it once per command of the traffic
being measured, with the same ``DIR``.

``count`` prints, per module, the function-body lines that no dump in
the given directories saw, then the tree's total.  The function-body
lines are the line numbers in the ``co_lines()`` of every code object
compiled with ``CO_OPTIMIZED`` set (functions, methods, lambdas,
comprehensions; not module or class bodies), less each code object's
``co_firstlineno``.
"""

from __future__ import annotations

import argparse
import inspect
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Installed as ``sitecustomize`` in every traced process.  Dumped
#: lines are ``<path relative to LINETRACE_ROOT>:<lineno>``, so dumps
#: of two checkouts of the tree compare.
_HOOK = '''
import atexit, os, sys, threading

_root = os.environ.get("LINETRACE_ROOT")
_out = os.environ.get("LINETRACE_OUT")
if _root and _out:
    _root = os.path.join(os.path.abspath(_root), "")
    _seen = set()

    def _line(frame, event, arg):
        if event == "line":
            _seen.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        if frame.f_code.co_filename.startswith(_root):
            return _line
        return None

    def _dump():
        path = os.path.join(_out, f"lines-{os.getpid()}.txt")
        with open(path, "w") as handle:
            for filename, lineno in sorted(_seen):
                handle.write(f"{filename[len(_root):]}:{lineno}\\n")

    atexit.register(_dump)
    sys.settrace(_call)
    threading.settrace(_call)
'''


def run(out, command):
    """Run ``command`` with the tracing hook; returns its exit code."""
    out = pathlib.Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as hook_dir:
        pathlib.Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir] + [p for p in [env.get("PYTHONPATH")] if p])
        env["LINETRACE_ROOT"] = str(ROOT)
        env["LINETRACE_OUT"] = str(out)
        return subprocess.call(command, env=env)


def body_lines(path):
    """The function-body line numbers of one source file."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines |= {line for _, _, line in code.co_lines()
                      if line is not None and line != code.co_firstlineno}
    return lines


def count(dump_dirs):
    """Print never-run function-body lines per module and in total."""
    ran = set()
    for directory in dump_dirs:
        for dump in sorted(pathlib.Path(directory).glob("lines-*.txt")):
            for entry in dump.read_text().split():
                module, _, lineno = entry.rpartition(":")
                ran.add((module, int(lineno)))
    never_total = body_total = 0
    for path in sorted(ROOT.rglob("*.py")):
        module = str(path.relative_to(ROOT))
        body = body_lines(path)
        never = sum(1 for line in body if (module, line) not in ran)
        never_total += never
        body_total += len(body)
        print(f"{never:6d} / {len(body):5d}  {module}")
    print(f"{never_total:6d} / {body_total:5d}  total")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a command under the trace")
    run_parser.add_argument("--out", required=True,
                            help="directory the line dumps go to")
    run_parser.add_argument("argv", nargs=argparse.REMAINDER,
                            help="the command, after --")
    count_parser = sub.add_parser("count", help="count never-run lines")
    count_parser.add_argument("dumps", nargs="+",
                              help="directories holding line dumps")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        if not command:
            parser.error("run needs a command after --")
        return run(args.out, command)
    count(args.dumps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
