"""List the lines of ``src/fpsim`` that the Tier-1 test suite never runs.

The suite runs in a child interpreter under ``sys.settrace`` (and
``threading.settrace``), which records every line event in a file of
``src/fpsim`` and traces no frame of any other file.  A line is executable
when some code object compiled from its file maps bytecode to it
(``co_lines``), nested functions and classes included; the probe prints
each executable line no event reached as ``file:line``, then a summary.
Lines run only in a subprocess a test starts (``python -m fpsim.cli``) are
not seen.  The traced suite takes about twice its untraced time.  Run from
the repo root:

    python benchmarks/line_probe.py
    python benchmarks/line_probe.py -- tests/test_tree.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fpsim"


def executable_lines(path: Path) -> set[int]:
    """Every line some code object compiled from ``path`` runs bytecode on."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def _child(out: str, pytest_args: list[str]) -> int:
    """Run pytest under the line tracer and write the lines seen to ``out``."""
    import threading

    import pytest

    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    Path(out).write_text(json.dumps({name: sorted(lines) for name, lines in seen.items()}))
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("pytest_args", nargs="*", help="pytest arguments (default: the whole suite)")
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    if args.child:
        return _child(args.child, pytest_args)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lines.json"
        command = [sys.executable, str(Path(__file__).resolve()), "--child", str(out), "--", *pytest_args]
        status = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        seen = {Path(name).resolve(): set(lines) for name, lines in json.loads(out.read_text()).items()}

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - seen.get(path.resolve(), set()))
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"{missed} of {total} executable lines never run (pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main())
