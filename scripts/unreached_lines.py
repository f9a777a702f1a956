"""List the lines of ``src/mfmls`` that no test runs.

Usage (from the root of a source checkout)::

    PYTHONPATH=src python3 scripts/unreached_lines.py [pytest arguments]

Runs pytest in this process (``-q -p no:cacheprovider`` and the given
arguments, by default the whole ``tests`` directory) with a line tracer
installed through ``sys.settrace`` and ``threading.settrace``, so the
worker threads of ``_workers.map_in_order``, which run most of the
library's code, are traced too. Only frames whose code lives in the
``mfmls`` package are traced line by line. Afterwards it prints, per file,
the executable lines that never ran, as ``path: 12, 40-43``, and a total;
it exits 0 when the tests ran, failed or not.
A line counts as executable when the compiled bytecode carries its number;
a call marks the first line of its function as run.

Needs nothing beyond the standard library and pytest. Not part of the
test suite: tracing slows the tests (the whole suite took 271 s traced
against 182 s untraced on a two-core x86_64 host), so a test with a
wall-clock budget, such as ``test_restricted_rank_detection``, may fail
while traced. A timing assertion that fails here is no finding; the
lines are still counted. Code run in a subprocess (``python -m mfmls``)
is not seen.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
import types


def executable_lines(path: str) -> set[int]:
    """Line numbers that the bytecode of the file at ``path`` carries."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(root: str, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; return its exit code and the lines run
    per file below ``root``."""
    import pytest

    hits: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        lines = hits.get(path)
        if lines is None:
            if not path.startswith(root):
                return None
            lines = hits[path] = set()
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def _ranges(lines: list[int]) -> str:
    parts = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(parts)


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("mfmls")
    if spec is None or spec.origin is None:
        print("mfmls is not importable; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    root = os.path.dirname(spec.origin) + os.sep
    code, hits = traced_run(root, argv or ["tests"])
    total = 0
    for dirpath, _, names in sorted(os.walk(root)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            missed = sorted(executable_lines(path) - hits.get(path, set()))
            total += len(missed)
            if missed:
                print(f"{os.path.relpath(path)}: {_ranges(missed)}")
    print(f"{total} executable line(s) never ran; pytest exit code {code}")
    # Failed tests (exit code 1) still ran their lines; other codes mean
    # pytest could not run the tests at all.
    return 0 if code in (0, 1) else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
