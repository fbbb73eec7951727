"""Line audit: run the tier-1 suite in this process under ``sys.settrace`` and
list every executable line of ``src/driftband`` that no test ran.

    python tests/line_audit.py

Run it from any directory. Each line that never
ran is printed as ``file:line: source``, followed by its reason when
``ALLOWED`` lists it. The audit exits 1 if a test fails, if a line that never
ran is not on ``ALLOWED``, or if an ``ALLOWED`` entry ran or no longer exists;
otherwise 0. Lines that run only in child processes (``--jobs`` workers, the
console-script test) are not seen. Tracing roughly doubles the suite's time, so
tier-1 does not run the audit.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "driftband"

_CHILD_ONLY = "runs only as `python -m driftband`, in the console-script test's child process"

# (file, the line's source without indentation) -> why no test runs it.
ALLOWED = {
    ("__main__.py", "import sys"): _CHILD_ONLY,
    ("__main__.py", "from .cli import main"): _CHILD_ONLY,
    ("__main__.py", "sys.exit(main())"): _CHILD_ONLY,
}


def executable_lines(path: Path) -> set[int]:
    """The lines that hold bytecode in a module and every code object in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: module entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
        replaced = sys.gettrace() is not tracer
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if replaced:
        print("line audit: the suite replaced the tracer, so lines run after that are unseen")
        return 1

    unlisted, matched = 0, set()
    print("\nlines of src/driftband that no test ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {l for f, l in hits if f == str(path)}):
            key = (path.name, source[line - 1].strip())
            reason = ALLOWED.get(key)
            matched.add(key)
            unlisted += reason is None
            print(f"  {path.name}:{line}: {key[1]}\n    {reason or 'NOT ON THE ALLOW-LIST'}")
    stale = sorted(set(ALLOWED) - matched)
    for name, text in stale:
        print(f"  allow-list entry that ran or is gone: {name}: {text}")
    print(f"line audit: {unlisted} unlisted, {len(stale)} stale, pytest exit {int(status)}")
    return int(bool(unlisted or stale or status != 0))


if __name__ == "__main__":
    sys.exit(main())
