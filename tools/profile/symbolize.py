#!/usr/bin/env python3
"""Turn a cobra-prof.<pid>.txt sample file into self-time shares.

    python3 tools/profile/symbolize.py cobra-prof.1234.txt [--top 40]

Each sampled address is located in the executable mapping that held it,
converted to the object file's virtual address through its PT_LOAD
segments (readelf), and charged to the function symbol that contains it
(nm, demangled). Code inlined into a function counts as that function's,
as in any symbol-table profiler. Addresses outside every named symbol
are grouped per object as "[unknown]".
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


def load(path):
    """Return (header line, mappings, [(pc, count)])."""
    header, maps, samples = "", [], []
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line.strip()
            elif line.startswith("map "):
                parts = line[4:].split(None, 5)
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                offset = int(parts[2], 16)
                obj = parts[5].strip() if len(parts) > 5 else ""
                maps.append((lo, hi, offset, obj))
            else:
                pc, count = line.split()
                samples.append((int(pc, 16), int(count)))
    maps.sort()
    return header, maps, samples


def segments(obj):
    """PT_LOAD (file offset, vaddr, file size) of an ELF object."""
    out = subprocess.run(["readelf", "-lW", obj], capture_output=True,
                         text=True).stdout
    segs = []
    for line in out.splitlines():
        f = line.split()
        if f and f[0] == "LOAD":
            segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
    return segs


def symbols(obj):
    """Sorted (address, size, name) of the object's function symbols:
    the symbol table, or the dynamic one when the object is stripped."""
    syms = []
    for dyn in ([], ["-D"]):
        out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only"] +
                             dyn + [obj], capture_output=True,
                             text=True).stdout
        for line in out.splitlines():
            f = line.split(None, 3)
            if len(f) == 4 and f[2] in "tTwWiI":
                syms.append((int(f[0], 16), int(f[1], 16), f[3]))
        if syms:
            break
    syms.sort()
    return syms


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args(argv)

    header, maps, samples = load(args.profile)
    starts = [m[0] for m in maps]
    segs, syms, addrs = {}, {}, {}
    per_fn = collections.Counter()
    total = 0
    for pc, count in samples:
        total += count
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1] or not maps[i][3].startswith("/"):
            per_fn[("[unknown]", "?")] += count
            continue
        lo, _, offset, obj = maps[i]
        if obj not in segs:
            segs[obj] = segments(obj) if os.path.exists(obj) else []
            syms[obj] = symbols(obj) if os.path.exists(obj) else []
            addrs[obj] = [a for a, _, _ in syms[obj]]
        fileoff = pc - lo + offset
        vaddr = None
        for seg_off, seg_va, seg_size in segs[obj]:
            if seg_off <= fileoff < seg_off + seg_size:
                vaddr = fileoff - seg_off + seg_va
                break
        name = "[unknown]"
        if vaddr is not None:
            j = bisect.bisect_right(addrs[obj], vaddr) - 1
            if j >= 0 and vaddr < syms[obj][j][0] + syms[obj][j][1]:
                name = syms[obj][j][2]
        per_fn[(name, os.path.basename(obj))] += count

    print(header)
    print(f"{total} samples")
    print(f"{'self %':>7}  {'samples':>8}  function [object]")
    for (name, obj), count in per_fn.most_common(args.top):
        print(f"{100.0 * count / max(total, 1):7.2f}  {count:8d}  "
              f"{name} [{obj}]")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # The reader stopped early (`| head`): the table it wanted is
        # out. Point stdout at /dev/null so the exit-time flush of the
        # rest does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
