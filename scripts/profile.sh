#!/usr/bin/env bash
# Sample where CPU time goes in a command that runs this workspace's
# binaries, and print self-time and inclusive tables.
#
#   scripts/profile.sh table2 --smoke --fresh --seed 5
#   scripts/profile.sh python3 perfbench/run.py --workload served_search --seconds 10
#
# Builds the workspace with frame pointers into a separate target dir
# ($PROFILE_TARGET_DIR, default target/fp), compiles the SIGPROF sampler
# (scripts/profile_sampler.c) with the system cc, and runs CMD from the
# repository root with the sampler preloaded, that target dir first on
# PATH and exported as CARGO_TARGET_DIR (so perfbench builds its probe
# there too). Only processes whose executable lives in that target dir
# are sampled; their samples are summed. Symbols come from `nm`. Each
# table lists its top 25 symbols. PROFILE_FOCUS=SUBSTRING keeps only
# samples with a frame whose symbol contains SUBSTRING (e.g.
# `train::train` for time under training), so percentages are of that.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: scripts/profile.sh CMD [ARGS...]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
target=${PROFILE_TARGET_DIR:-$root/target/fp}
mkdir -p "$target"
target=$(cd "$target" && pwd)
cc -O2 -shared -fPIC -o "$target/profile_sampler.so" scripts/profile_sampler.c
export CARGO_TARGET_DIR="$target" RUSTFLAGS="-C force-frame-pointers=yes"
cargo build --release --offline --workspace --bins >&2
samples=$(mktemp -d)
trap 'rm -rf "$samples"' EXIT
set +e
PATH="$target/release:$PATH" PROFILE_SAMPLE_DIR="$samples" PROFILE_EXE_PREFIX="$target/release/" \
    LD_PRELOAD="$target/profile_sampler.so" "$@"
code=$?
set -e
python3 - "$samples" "$target/" "${PROFILE_FOCUS:-}" <<'PY'
import bisect, collections, glob, os, re, subprocess, sys

TOP = 25  # rows per table
dir_, target, focus = sys.argv[1], sys.argv[2], sys.argv[3]
symtabs = {}

def symtab(path):
    """Sorted (address, size, name) of an object's defined functions; a
    stripped object (libc) falls back to its exported symbols."""
    if path not in symtabs:
        rows = []
        for flags in (["-S", "-C", "--defined-only"], ["-D", "-S", "-C", "--defined-only"]):
            out = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
            for line in out.splitlines():
                parts = line.split(" ", 3)  # addr [size] type name
                if len(parts) > 2 and len(parts[1]) == 1:
                    parts = [parts[0], "0", parts[1], " ".join(parts[2:])]
                if len(parts) == 4 and parts[2] in "tTwWi":
                    name = re.sub(r"::h[0-9a-f]{16}$", "", parts[3])
                    rows.append((int(parts[0], 16), int(parts[1], 16), name))
            if rows:
                break
        rows.sort()
        symtabs[path] = ([r[0] for r in rows], rows)
    return symtabs[path]

self_n, incl_n, total, procs = collections.Counter(), collections.Counter(), 0, 0
for prof in glob.glob(os.path.join(dir_, "*.prof")):
    maps = []
    with open(prof) as f:
        lines = f.read().splitlines()
    split = lines.index("--")
    bias = {}
    for line in lines[:split]:
        f = line.split()
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        lo, hi = (int(x, 16) for x in f[0].split("-"))
        if int(f[2], 16) == 0:
            bias.setdefault(f[5], lo)  # PIE / shared object: first segment
        if "x" in f[1]:
            maps.append((lo, hi, f[5]))
    maps.sort()
    starts = [m[0] for m in maps]
    cache = {}

    def name(pc):
        if pc not in cache:
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                cache[pc] = "[unknown]"
            else:
                path = maps[i][2]
                addrs, rows = symtab(path)
                off = pc - bias.get(path, 0)
                j = bisect.bisect_right(addrs, off) - 1
                inside = j >= 0 and (rows[j][1] == 0 or off < rows[j][0] + rows[j][1])
                cache[pc] = rows[j][2] if inside else "?"
                if not path.startswith(target):  # libc, libm, the loader ...
                    cache[pc] += f" [{os.path.basename(path)}]"
        return cache[pc]

    procs += 1
    for line in lines[split + 1:]:
        frames = [name(int(x, 16)) for x in line.split()]
        if len(frames) < 2:
            continue
        # frames[1] is the word at the stack pointer: the return address
        # only when the leaf is a frameless function outside the workspace
        # (libc's memcpy/memset), which the frame-pointer chain skips.
        leaf, hint, chain = frames[0], frames[1], frames[2:]
        foreign = leaf.endswith("]")
        if foreign and not hint.endswith("]") and hint != "?":
            chain = [hint] + chain
            leaf = f"{leaf} <- {hint}"
        if focus and not any(focus in f for f in [frames[0], *chain]):
            continue
        total += 1
        self_n[leaf] += 1
        for sym in {frames[0], *chain}:
            incl_n[sym] += 1

scope = f" under frames matching {focus!r}" if focus else ""
print(f"\n{total} samples of process CPU time{scope} from {procs} process(es)")
for title, counts in (("self time", self_n), ("inclusive", incl_n)):
    print(f"\n{title:>9}  samples  symbol")
    for sym, n in counts.most_common(TOP):
        print(f"{100 * n / max(total, 1):8.1f}%  {n:7d}  {sym[:150]}")
PY
exit "$code"
