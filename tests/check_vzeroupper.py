#!/usr/bin/env python3
"""Fails when AVX code can leave a function with dirty upper YMM/ZMM halves.

    python3 tests/check_vzeroupper.py [--build-type TYPE] LIB.a [LIB.a ...]

Disassembles each static library with `objdump -drC`. For every function
that touches %ymm or %zmm and takes no __vector argument, each `ret`, and
each jump whose target lies outside the function (a tail call), must be
reached only through a `vzeroupper`: walking the function's control flow
backwards from the exit, a `vzeroupper` has to come before any %ymm/%zmm
instruction on every path. Otherwise the SSE code that runs next (libm,
the CRC fold) pays an AVX-SSE transition penalty on every call; a tail
call from an AVX loop into its scalar tail is the usual way to lose the
compiler's `vzeroupper`.

GCC inserts `vzeroupper` only when it optimizes, so a Debug build reports
the check as skipped (exit code 77), as does a host without objdump.
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77

OBJ_RE = re.compile(r"^(\S+):\s+file format ")
FUNC_RE = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN_RE = re.compile(r"^\s*([0-9a-f]+):\t(.*)$")
RELOC_RE = re.compile(r"^\s*([0-9a-f]+): R_\S+\s+(\S+)")
TARGET_RE = re.compile(r"^([0-9a-f]+) <(.+?)(\+0x[0-9a-f]+)?>$")
WIDE_RE = re.compile(r"%[yz]mm\d")
PREFIXES = {"rep", "repz", "repnz", "lock", "bnd", "notrack"}


class Insn:
    def __init__(self, addr, mnemonic, operands):
        self.addr = addr
        self.mnemonic = mnemonic
        self.operands = operands
        self.reloc = None  # symbol of a relocation inside this instruction

    @property
    def wide(self):
        return WIDE_RE.search(self.operands) is not None


def parse(text):
    """Yields (object, function name, [Insn]) per disassembled function."""
    obj = ""
    name = None
    insns = []
    for line in text.splitlines():
        o = OBJ_RE.match(line)
        if o:
            obj = o.group(1)
            continue
        m = FUNC_RE.match(line)
        if m:
            if name is not None:
                yield obj, name, insns
            name, insns = m.group(2), []
            continue
        if name is None:
            continue
        r = RELOC_RE.match(line)
        if r and insns:
            insns[-1].reloc = r.group(2)
            continue
        m = INSN_RE.match(line)
        if m:
            parts = m.group(2).split(None, 1)
            if not parts:
                continue
            mnemonic = parts[0]
            operands = parts[1] if len(parts) > 1 else ""
            # Prefixes such as "rep", "bnd" or "notrack" come first.
            while mnemonic in PREFIXES and operands:
                sub = operands.split(None, 1)
                mnemonic = sub[0]
                operands = sub[1] if len(sub) > 1 else ""
            insns.append(Insn(int(m.group(1), 16), mnemonic, operands))
            continue
        if not line.strip():
            if name is not None:
                yield obj, name, insns
            name, insns = None, []
    if name is not None:
        yield obj, name, insns


def branch_target(insn, name):
    """Address of a direct branch inside `name`, or None when it leaves."""
    if insn.reloc is not None:
        return None  # resolved by the linker: another symbol
    operand = insn.operands.split("#")[0].strip()
    m = TARGET_RE.match(operand)
    if m is None:
        return None  # indirect
    if m.group(2) != name:
        return None
    return int(m.group(1), 16)


def violations(name, insns):
    """Exits of `name` that some path reaches from a %ymm/%zmm instruction."""
    index = {insn.addr: i for i, insn in enumerate(insns)}
    preds = [[] for _ in insns]
    exits = []
    for i, insn in enumerate(insns):
        op = insn.mnemonic
        ends = op.startswith("jmp") or op.startswith("ret") or op == "ud2"
        if not ends and i + 1 < len(insns):
            preds[i + 1].append(i)
        if op.startswith("ret"):
            exits.append(i)
        elif op.startswith("j"):
            target = branch_target(insn, name)
            if target is None:
                exits.append(i)
            elif target in index:
                preds[index[target]].append(i)
    bad = []
    for e in exits:
        seen = {e}
        stack = list(preds[e])
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            if insns[i].mnemonic == "vzeroupper":
                continue
            if insns[i].wide:
                bad.append((insns[e], insns[i]))
                break
            stack.extend(preds[i])
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-type", default="")
    ap.add_argument("libs", nargs="+")
    args = ap.parse_args()
    if args.build_type.lower() == "debug":
        print("skipped: a Debug build has no vzeroupper to check")
        return SKIP
    if shutil.which("objdump") is None:
        print("skipped: objdump not found")
        return SKIP

    failures = 0
    checked = 0
    for lib in args.libs:
        text = subprocess.run(["objdump", "-drC", "--no-show-raw-insn", lib],
                              stdout=subprocess.PIPE, text=True,
                              check=True).stdout
        for obj, name, insns in parse(text):
            if "__vector" in name or not any(i.wide for i in insns):
                continue
            checked += 1
            for exit_insn, wide_insn in violations(name, insns):
                failures += 1
                print(f"{lib}: {obj}: {name}: {exit_insn.mnemonic} at "
                      f"{exit_insn.addr:#x} is reached from "
                      f"{wide_insn.mnemonic} {wide_insn.operands} at "
                      f"{wide_insn.addr:#x} without vzeroupper")
    print(f"{checked} functions touch %ymm/%zmm; {failures} unguarded exits")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
