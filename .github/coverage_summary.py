#!/usr/bin/env python3
"""Print the src/ line coverage of a coverage-preset build, from gcov.

    cmake --preset coverage && cmake --build --preset coverage
    ctest --preset coverage
    python3 .github/coverage_summary.py [build-coverage]

Runs `gcov --json-format --stdout` over every .gcda file of the build
and merges the per-line counts: each line of a src/ file counts once,
and is covered when any object file executed it (headers are compiled
into many objects).  It needs only gcov and python3, so the rate can be
read on a host without gcovr; CI prints it next to gcovr's rate, and
gcovr enforces .github/coverage-floor.txt.
"""

import json
import os
import subprocess
import sys


def main():
    build = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                            else "build-coverage")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src") + os.sep
    covered = {}  # (file, line) -> executed by some object
    for dirpath, _, names in os.walk(build):
        gcdas = sorted(n for n in names if n.endswith(".gcda"))
        if not gcdas:
            continue
        out = subprocess.run(["gcov", "--json-format", "--stdout"] + gcdas,
                             cwd=dirpath, check=True, capture_output=True,
                             text=True).stdout
        for doc in out.splitlines():
            if not doc.strip():
                continue
            report = json.loads(doc)
            cwd = report.get("current_working_directory", dirpath)
            for entry in report["files"]:
                path = os.path.normpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(src):
                    continue
                for line in entry["lines"]:
                    key = (path, line["line_number"])
                    covered[key] = covered.get(key, False) or \
                        line["count"] > 0
    if not covered:
        sys.exit(f"no src/ coverage data under {build}")
    hit = sum(covered.values())
    files = len({path for path, _ in covered})
    floor = open(os.path.join(root, ".github", "coverage-floor.txt")).read()
    print(f"src/ line coverage (gcov JSON): {100.0 * hit / len(covered):.1f}%"
          f" ({hit} of {len(covered)} lines in {files} files;"
          f" floor {floor.strip()}%)")


if __name__ == "__main__":
    main()
