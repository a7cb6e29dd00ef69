#!/usr/bin/env python
"""Which functions in ``src/repro`` do the shipped ``mpros`` commands run?

Usage::

    PYTHONPATH=src python scripts/reachability.py

Each smoke command below runs as ``mpros <args>`` in its own
subprocess under ``sys.setprofile`` and ``threading.setprofile``, which
records the code object of every Python function called.  ``serve``
answers the HTTP requests CI's serving smoke makes, plus one
``POST /reports``.  The script then prints, per module, the functions
no command reached and their line counts, and the totals.  A
decorated function's code object starts at its first decorator line,
so a function counts as reached when a called code object starts at
its decorator line or at its ``def`` line.  A function's lines run
from its first decorator (or ``def``) to its last line; nested
functions count on their own and inside their parent.

Not traced: process-pool children, and the analyzer's summary cache
(``analyze`` runs with ``--no-cache``).  Every command runs in a
temporary working directory, so nothing in the tree is written.  The
exit code is 1 when a smoke command fails, else 0.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = SRC / "repro"

#: The smoke set: every shipped command, with the arguments CI runs it with.
COMMANDS: tuple[tuple[str, ...], ...] = (
    ("demo",),
    ("metrics",),
    ("ema",),
    ("list-faults",),
    ("chaos", "--seed", "7"),
    ("chaos", "--scenario", "turbine", "--seed", "11"),
    ("daemon", "--quick", "--seed", "13"),
    ("fleet",),
    ("campaign",),
    ("score", "--all-scenarios", "--quick"),
    ("verify", "--all-machines"),
    ("verify", "--lint", str(PACKAGE)),
    ("analyze", str(PACKAGE), "--no-cache"),
    ("serve", "--quick", "--port", "0", "--max-requests", "8"),
)

#: Seconds one command may run before it counts as failed.
COMMAND_TIMEOUT_S = 1800

#: Run inside each traced subprocess: record every called code object,
#: run the command, then write the ``(file, first line)`` pairs out.
_CHILD = """
import json, sys, threading
codes = {}
def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        codes[id(code)] = code
sys.setprofile(record)
threading.setprofile(record)
out, argv = sys.argv[1], sys.argv[2:]
try:
    from repro.cli import main
    status = main(argv)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    with open(out, "w", encoding="utf-8") as fp:
        json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes.values()}), fp)
sys.exit(status)
"""


def functions(root: Path) -> list[tuple[str, str, int, int, int]]:
    """``(module path, qualified name, first line, def line, line count)``
    for every function and method under ``root``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root.parent))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    found.append((rel, name, first, child.lineno, child.end_lineno - first + 1))
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _serve_requests(proc: subprocess.Popen) -> None:
    """CI's serving-smoke requests, then one bulk write."""
    base = None
    for line in proc.stdout:
        print(f"    {line.rstrip()}")
        if "http://" in line:
            base = line.split("http://", 1)[1].split()[0]
            break
    if base is None:
        return
    base = "http://" + base

    def get(path: str) -> dict:
        with urllib.request.urlopen(base + path, timeout=60) as resp:
            return json.loads(resp.read())

    obj = get("/objects")["items"][0]["id"]
    get(f"/objects/{obj}/health")
    get(f"/objects/{obj}/measurements")
    get("/alarms")
    get("/fleet/health")
    cursor = get("/reports?limit=20")["nextCursor"]
    get(f"/reports?limit=20&cursor={cursor}")

    from repro.protocol.report import FailurePredictionReport
    from repro.protocol.wire import encode_report

    report = FailurePredictionReport(
        knowledge_source_id="ks:reachability",
        sensed_object_id=obj,
        machine_condition_id="mc:motor-imbalance",
        severity=0.5,
        belief=0.5,
        timestamp=1.0,
        dc_id="dc:reachability",
    )
    body = json.dumps({"reports": [encode_report(report)], "reportIds": ["dc:reachability#1"]})
    request = urllib.request.Request(
        base + "/reports", data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        resp.read()


def trace(args: tuple[str, ...], workdir: Path) -> tuple[int, list[tuple[str, int]]]:
    """Run ``mpros <args>`` traced; its exit status and the called
    ``(file, first line)`` pairs."""
    out = workdir / "called.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    command = [sys.executable, "-c", _CHILD, str(out), *args]
    if args[0] == "serve":
        with subprocess.Popen(
            command, cwd=workdir, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        ) as proc:
            try:
                _serve_requests(proc)
            except BaseException:
                proc.kill()
                raise
            finally:
                for line in proc.stdout:
                    print(f"    {line.rstrip()}")
                status = proc.wait(timeout=COMMAND_TIMEOUT_S)
    else:
        done = subprocess.run(
            command, cwd=workdir, env=env, text=True, timeout=COMMAND_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        status = done.returncode
        if status != 0:
            print(done.stderr[-2000:])
    if not out.exists():
        return status, []
    return status, [(f, line) for f, line in json.loads(out.read_text(encoding="utf-8"))]


def main() -> int:
    called: set[tuple[str, int]] = set()
    failed = []
    for args in COMMANDS:
        print(f"mpros {' '.join(args)}", flush=True)
        with tempfile.TemporaryDirectory() as tmp:
            status, pairs = trace(args, Path(tmp))
        if status != 0:
            failed.append(" ".join(args))
            print(f"  exited {status}")
        called.update((str(Path(f).resolve()), line) for f, line in pairs)

    per_module: dict[str, list[tuple[str, int]]] = {}
    totals = {"functions": 0, "lines": 0, "unreached": 0, "unreached_lines": 0}
    module_totals: dict[str, tuple[int, int]] = {}
    for rel, name, first, def_line, lines in functions(PACKAGE):
        path = str((SRC / rel).resolve())
        totals["functions"] += 1
        totals["lines"] += lines
        count, size = module_totals.get(rel, (0, 0))
        module_totals[rel] = (count + 1, size + lines)
        if (path, first) in called or (path, def_line) in called:
            continue
        totals["unreached"] += 1
        totals["unreached_lines"] += lines
        per_module.setdefault(rel, []).append((name, lines))

    print()
    for rel in sorted(per_module):
        names = per_module[rel]
        count, size = module_totals[rel]
        unreached_lines = sum(lines for _, lines in names)
        print(
            f"{rel}: {len(names)} of {count} functions unreached, "
            f"{unreached_lines} of {size} function lines"
        )
        for name, lines in names:
            print(f"    {name} ({lines})")
    print()
    print(
        f"unreached: {totals['unreached']} of {totals['functions']} functions, "
        f"{totals['unreached_lines']} of {totals['lines']} function lines"
    )
    if failed:
        print(f"failed smoke commands: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
