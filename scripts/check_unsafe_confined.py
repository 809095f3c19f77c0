#!/usr/bin/env python3
"""Fail if `unsafe` code can appear outside the vendored shims.

Usage: check_unsafe_confined.py [REPO_ROOT]

Every first-party library crate (crates/*/src/lib.rs, plus the facade
crate's src/lib.rs) must keep `#![forbid(unsafe_code)]`. The compiler then
rejects `unsafe` anywhere in those libraries. Binaries, tests, benches and
examples are separate crate roots that the attribute does not cover, so
every .rs file under crates/, src/, tests/ and examples/ is also scanned for
the `unsafe` keyword outside comments. The FFI and SIMD code the workspace
needs lives in vendor/ (netpoll, gcmhw), behind safe APIs.
"""

import os
import re
import sys

FORBID = "#![forbid(unsafe_code)]"
UNSAFE = re.compile(r"\bunsafe\s*(\{|fn\b|impl\b|trait\b|extern\b)")
SCANNED_DIRS = ["crates", "src", "tests", "examples"]


def code_lines(path):
    """Yields (line number, code) with `//` comments stripped."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            yield number, line.split("//", 1)[0]


def main(argv):
    root = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), ".."))
    failures = []

    lib_roots = [os.path.join(root, "src", "lib.rs")]
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)):
        if os.path.isfile(os.path.join(crates, name, "Cargo.toml")):
            lib_roots.append(os.path.join(crates, name, "src", "lib.rs"))
    for lib in lib_roots:
        rel = os.path.relpath(lib, root)
        if not os.path.isfile(lib):
            failures.append(f"{rel}: library root not found")
        elif not any(code.strip() == FORBID for _, code in code_lines(lib)):
            failures.append(f"{rel}: missing {FORBID}")

    for top in SCANNED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d != "target"]
            for filename in sorted(filenames):
                if not filename.endswith(".rs"):
                    continue
                path = os.path.join(dirpath, filename)
                for number, code in code_lines(path):
                    if UNSAFE.search(code):
                        failures.append(f"{os.path.relpath(path, root)}:{number}: uses `unsafe`")

    if failures:
        print("unsafe code escaped vendor/:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"ok: {len(lib_roots)} library roots forbid unsafe_code; no `unsafe` outside vendor/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
