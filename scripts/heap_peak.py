#!/usr/bin/env python3
"""Groups a heap_peak report by the source line that allocated each block.

    HEAP_PEAK_OUT=peak.txt LD_PRELOAD=build/bench/libheap_peak.so prog ...
    python3 scripts/heap_peak.py peak.txt [--root DIR] [--depth N]

The first line gives the live-heap peak beside the process's peak RSS and
minor page faults: arena holes count toward RSS but not live heap, and a
reservation counts toward live heap in full but toward RSS only as far as
it was touched.

Each block is charged to the first frame, innermost inlined call first,
whose source file lies under --root (default: this repository), so a
vector grown in src/osc/osc.cc is charged to osc.cc, not to the standard
library. Frames are symbolized with addr2line; build with debug info (-g)
for file and line. Exits 1 if the report lists no block.
"""

import argparse
import collections
import os
import pathlib
import re
import subprocess
import sys


def load(path):
    peak, rss_kib, faults, blocks, maps = 0, 0, 0, [], []
    in_maps = False
    for line in pathlib.Path(path).read_text().splitlines():
        if line.startswith("# peak_live_bytes"):
            peak = int(line.split()[2])
        elif line.startswith("# peak_rss_kib"):
            f = line.split()
            rss_kib, faults = int(f[2]), int(f[4])
        elif line == "# maps":
            in_maps = True
        elif in_maps:
            f = line.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, int(f[2], 16), f[5]))
        elif line.startswith("block "):
            f = line.split()
            blocks.append((int(f[1]), [int(a, 16) for a in f[2:]]))
    return peak, rss_kib, faults, blocks, maps


def locate(addr, maps):
    """(module, address addr2line wants) for a return address."""
    for lo, hi, _, module in maps:
        if lo <= addr < hi:
            with open(module, "rb") as f:
                is_exec = f.read(18)[16] == 2  # ET_EXEC: linked at fixed addresses
            base = min(m[0] - m[2] for m in maps if m[3] == module)
            return module, addr - 1 - (0 if is_exec else base)  # -1: the call, not the return
    return None, None


def symbolize(blocks, maps):
    """{return address: [(function, file:line), ...] innermost first}."""
    by_module = collections.defaultdict(dict)
    for _, frames in blocks:
        for a in frames:
            module, rel = locate(a, maps)
            if module and not module.endswith("libheap_peak.so"):
                by_module[module][rel] = a
    out = {}
    for module, rels in by_module.items():
        text = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", module,
                               *(hex(r) for r in rels)],
                              capture_output=True, text=True, check=True).stdout.splitlines()
        cur, fn = None, None
        for line in text:  # per address: 0x..., then (function, file:line) pairs
            if re.fullmatch(r"0x[0-9a-f]+", line):
                cur, fn = rels[int(line, 16)], None
                out[cur] = []
            elif fn is None:
                fn = line
            else:
                out[cur].append((fn, line.split(" (discriminator")[0]))
                fn = None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report")
    ap.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parent.parent))
    ap.add_argument("--depth", type=int, default=1, help="repository frames per site")
    args = ap.parse_args()
    peak, rss_kib, faults, blocks, maps = load(args.report)
    if not blocks:
        sys.exit(f"{args.report}: no block at the peak")
    names = symbolize(blocks, maps)
    root = os.path.realpath(args.root) + os.sep
    sites = collections.defaultdict(lambda: [0, 0])
    for size, frames in blocks:
        chain = [f"{loc} {fn.split('(')[0]}" for a in frames for fn, loc in names.get(a, [])
                 if loc.startswith("/") and os.path.realpath(loc.split(":")[0]).startswith(root)]
        site = " <- ".join(c.replace(root, "") for c in chain[:args.depth]) or "(outside the tree)"
        sites[site][0] += size
        sites[site][1] += 1
    listed = sum(size for size, _ in blocks)
    print(f"peak live heap {peak / 2**20:.1f} MiB; peak RSS {rss_kib / 2**10:.1f} MiB, "
          f"{faults} minor faults; {len(blocks)} blocks of >= 64 KiB "
          f"hold {listed / 2**20:.1f} MiB")
    for site, (size, count) in sorted(sites.items(), key=lambda kv: -kv[1][0]):
        print(f"{size / 2**20:9.1f} MiB {count:6d}  {site}")


if __name__ == "__main__":
    main()
