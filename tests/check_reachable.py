#!/usr/bin/env python3
"""Fails when a library function that no binary reaches comes back.

    python3 tests/check_reachable.py --allowlist tests/reachable_allowlist.txt \
        --archives LIB.a [LIB.a ...] --binaries PATH [PATH ...]

Run it over a build with section garbage collection (the `reach` configure
preset: -ffunction-sections -fdata-sections, linked with -Wl,--gc-sections).
There every function sits in its own section and the linker drops each
section that no binary reaches, so a global text symbol (`nm` type T) of a
library archive that appears in none of the binaries is code that no
example, bench or round benchmark can run. A PATH under --binaries is an
executable or a directory whose executables (not recursive) are read.

The check fails on every such function that the allowlist does not name,
printing its archive and demangled name, and on every allowlist entry that
names no function in the archives. An allowlist line is a test file, then
the demangled name as this check prints it:

    tests/test_comm_path.cpp appfl::comm::crc32_portable(...)

The test file must exist and mention the function's name: the allowlist
holds only oracles and observers that a test calls. A function inlined into
every caller in its own file also shows up here; give it internal linkage
instead of an allowlist line. An allowlisted function that some binary
keeps is reported as a note, since another compiler may inline it.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

SKIP = 77
ABI_TAG_RE = re.compile(r"\[abi:[^\]]*\]")


def text_symbols(path, types):
    """Mangled names of the defined symbols of `path` whose nm type is in
    `types`."""
    out = subprocess.run(["nm", "--defined-only", path],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2])
    return names


def demangle(names):
    """{mangled: demangled} for `names`, through one c++filt call."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    return dict(zip(names, out))


def executables(paths):
    """The ELF executables named by `paths` (files or directories)."""
    found = []
    for path in paths:
        candidates = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                      if os.path.isdir(path) else [path])
        for f in candidates:
            if not (os.path.isfile(f) and os.access(f, os.X_OK)):
                continue
            with open(f, "rb") as fh:
                if fh.read(4) == b"\x7fELF":
                    found.append(f)
    return found


def base_name(signature):
    """The unqualified function name: `appfl::a::B::f(int) const` -> `f`, a
    destructor `~B` -> `B`."""
    name = ABI_TAG_RE.sub("", signature.split("(", 1)[0])
    return name.rsplit("::", 1)[-1].lstrip("~")


def read_allowlist(path):
    """[(line number, test file, demangled name)] of the allowlist."""
    entries = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                entries.append((number, parts[0], ""))
            else:
                entries.append((number, parts[0], parts[1]))
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--allowlist", required=True)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="directory the allowlist's test files are relative to")
    ap.add_argument("--archives", nargs="+", required=True)
    ap.add_argument("--binaries", nargs="+", required=True)
    args = ap.parse_args()
    if shutil.which("nm") is None or shutil.which("c++filt") is None:
        print("skipped: nm or c++filt not found")
        return SKIP

    binaries = executables(args.binaries)
    if not binaries:
        print("no executables found under --binaries")
        return 1
    kept = set()
    for b in binaries:
        kept |= text_symbols(b, set("TtWw"))

    owner = {}  # mangled name -> archive
    for lib in args.archives:
        for name in text_symbols(lib, {"T"}):
            owner[name] = os.path.basename(lib)
    names = demangle(owner)

    failures = 0
    allowed = {}  # demangled name -> allowlist line
    for number, test_file, function in read_allowlist(args.allowlist):
        where = f"{args.allowlist}:{number}"
        if not function:
            print(f"{where}: want '<test file> <function>'")
            failures += 1
            continue
        allowed[function] = where
        path = os.path.join(args.root, test_file)
        if not os.path.isfile(path):
            print(f"{where}: test file {test_file} not found")
            failures += 1
            continue
        with open(path) as fh:
            source = fh.read()
        name = base_name(function)
        # An operator is called by its symbol, which no word search finds.
        if not name.startswith("operator") and not re.search(
                r"\b" + re.escape(name) + r"\b", source):
            print(f"{where}: {test_file} never mentions {name}")
            failures += 1

    present = set(names.values())
    for function, where in sorted(allowed.items(), key=lambda kv: kv[1]):
        if function not in present:
            print(f"{where}: names no function in the archives: {function}")
            failures += 1

    # A set: the complete- and base-object variants of a constructor or
    # destructor demangle to one name.
    unreached = sorted({(owner[m], names[m]) for m in owner if m not in kept})
    listed = 0
    for archive, function in unreached:
        if function in allowed:
            listed += 1
            continue
        print(f"unreached: {archive}: {function}")
        failures += 1
    reached = sorted(f for f in allowed
                     if f in present and
                     all(names[m] != f or m in kept for m in owner))
    for function in reached:
        print(f"note: allowlisted but kept by a binary "
              f"({allowed[function]}): {function}")

    symbols = sum(1 for m in owner if m not in kept)
    print(f"{len(owner)} global functions in {len(args.archives)} archives, "
          f"{len(binaries)} binaries; {symbols} unreached symbols "
          f"({len(unreached)} functions, {listed} of them allowlisted); "
          f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
