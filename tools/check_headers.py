#!/usr/bin/env python3
"""Header self-containment check: every header compiles standalone.

For each header under src/ and tools/, generates a translation unit
containing only `#include "<header>"` and compiles it with `-fsyntax-only`
(`-Isrc`, plus the repo root for `tools/` headers). A header that
relies on whatever its includers happened to include before it breaks the
moment the umbrella API is reorganized; this keeps the redesigned surface
IWYU-clean.

Usage: python3 tools/check_headers.py [--compiler c++] [--std c++20]
Exit status: 0 when every header is self-contained, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
TOOLS_DIR = os.path.join(REPO_ROOT, "tools")


def find_headers():
    headers = []
    for dirpath, _, filenames in os.walk(SRC_DIR):
        for name in sorted(filenames):
            if name.endswith(".h"):
                path = os.path.join(dirpath, name)
                headers.append(os.path.relpath(path, SRC_DIR))
    tools = [f"tools/{name}" for name in sorted(os.listdir(TOOLS_DIR))
             if name.endswith(".h")]
    return sorted(headers) + tools


def check_header(header, compiler, std, tmpdir):
    tu = os.path.join(tmpdir, "check_tu.cc")
    with open(tu, "w") as f:
        f.write(f'#include "{header}"\n')
    cmd = [
        compiler,
        f"-std={std}",
        "-fsyntax-only",
        "-Wall",
        f"-I{SRC_DIR}",
        f"-I{REPO_ROOT}",
        tu,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode == 0, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--compiler", default=os.environ.get("CXX", "c++"))
    parser.add_argument("--std", default="c++20")
    args = parser.parse_args()

    headers = find_headers()
    if not headers:
        print("error: no headers found under src/ or tools/", file=sys.stderr)
        return 1

    failures = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for header in headers:
            ok, stderr = check_header(header, args.compiler, args.std, tmpdir)
            if ok:
                print(f"ok   {header}")
            else:
                print(f"FAIL {header}")
                failures.append((header, stderr))

    if failures:
        print(f"\n{len(failures)} of {len(headers)} headers are not "
              "self-contained:", file=sys.stderr)
        for header, stderr in failures:
            print(f"\n--- {header} ---\n{stderr}", file=sys.stderr)
        return 1

    print(f"\nall {len(headers)} headers are self-contained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
