#!/usr/bin/env bash
# Sample where CPU time goes in a command that runs this workspace's
# binaries, and print self-time and inclusive tables.
#
#   scripts/profile.sh table2 --smoke --fresh --seed 5
#   scripts/profile.sh python3 perfbench/run.py --workload served_search --seconds 10
#   PROFILE_HEAP=1 scripts/profile.sh python3 perfbench/run.py --workload served_search --seconds 10
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
#
# PROFILE_HEAP=1 preloads the heap sampler (scripts/heap_sampler.c)
# instead: it tracks every live heap block of at least 4 KiB with the
# stack that allocated it and keeps a snapshot of live bytes per stack
# each time the tracked total passes its previous high by 8 MiB. The
# script then lists each sampled process's tracked peak beside its peak
# resident set (VmHWM less the sampler's own tables, which it keeps
# resident from the start; the gap is memory outside tracked blocks:
# small blocks, allocator slack, code and stacks) and, for the (up to)
# three largest, the live bytes and blocks at that peak by allocation
# site (the innermost workspace frame outside the allocator) and
# inclusive of every frame. PROFILE_FOCUS filters stacks the same way.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: scripts/profile.sh CMD [ARGS...]" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
target=${PROFILE_TARGET_DIR:-$root/target/fp}
mkdir -p "$target"
target=$(cd "$target" && pwd)
sampler=profile_sampler
[ "${PROFILE_HEAP:-0}" = 1 ] && sampler=heap_sampler
cc -O2 -shared -fPIC -fno-omit-frame-pointer -o "$target/$sampler.so" "scripts/$sampler.c"
export CARGO_TARGET_DIR="$target" RUSTFLAGS="-C force-frame-pointers=yes"
cargo build --release --offline --workspace --bins >&2
samples=$(mktemp -d)
trap 'rm -rf "$samples"' EXIT
set +e
PATH="$target/release:$PATH" PROFILE_SAMPLE_DIR="$samples" PROFILE_EXE_PREFIX="$target/release/" \
    LD_PRELOAD="$target/$sampler.so" "$@"
code=$?
set -e
python3 - "$samples" "$target/" "${PROFILE_FOCUS:-}" "$sampler" <<'PY'
import bisect, collections, glob, os, re, subprocess, sys

TOP = 25  # rows per table
dir_, target, focus, sampler = sys.argv[1:5]
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

def load(path):
    """Symbol resolver for one process's dump, a test for pcs inside the
    preloaded sampler itself, and the dump's lines after its maps."""
    with open(path) as f:
        lines = f.read().splitlines()
    split = lines.index("--")
    maps, bias = [], {}
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

    def lookup(pc):
        if pc not in cache:
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1]:
                cache[pc] = ("[unknown]", "")
            else:
                path = maps[i][2]
                addrs, rows = symtab(path)
                off = pc - bias.get(path, 0)
                j = bisect.bisect_right(addrs, off) - 1
                inside = j >= 0 and (rows[j][1] == 0 or off < rows[j][0] + rows[j][1])
                sym = rows[j][2] if inside else "?"
                if not path.startswith(target):  # libc, libm, the loader ...
                    sym += f" [{os.path.basename(path)}]"
                cache[pc] = (sym, path)
        return cache[pc]

    def name(pc):
        return lookup(pc)[0]

    def own(pc):
        return os.path.basename(lookup(pc)[1]) == f"{sampler}.so"

    return name, own, lines[split + 1:]


def table(title, unit, rows, total):
    print(f"\n{title:>9}  {unit}  symbol")
    for sym, cells in rows:
        print(f"{100 * cells[0] / max(total, 1):8.1f}%  {cells[1]}  {sym[:150]}")


def cpu_report():
    self_n, incl_n, total, procs = collections.Counter(), collections.Counter(), 0, 0
    for prof in glob.glob(os.path.join(dir_, "*.prof")):
        name, _, stacks = load(prof)
        procs += 1
        for line in stacks:
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
        rows = [(sym, (n, f"{n:7d}")) for sym, n in counts.most_common(TOP)]
        table(title, "samples", rows, total)


# Frames that only carry an allocation down to malloc: the allocation site
# is the first frame past them.
PLUMBING = re.compile(r"^<?(alloc|core|std)::|^__r(ust|dl)_|^\?$")


def heap_report():
    procs = []
    for dump in glob.glob(os.path.join(dir_, "*.heap")):
        name, own, lines = load(dump)
        exe, peak, dropped, rss = lines[0].rsplit(" ", 3)
        site_b, incl_b, total = {}, {}, 0
        for line in lines[1:]:
            live, blocks, *pcs = line.split()
            live, blocks = int(live), int(blocks)
            frames = [name(int(x, 16)) for x in pcs if not own(int(x, 16))]
            if focus and not any(focus in f for f in frames):
                continue
            total += live
            site = next((f for f in frames if not f.endswith("]") and not PLUMBING.search(f)),
                        frames[0] if frames else "[no stack]")
            for sym, into in [(site, site_b)] + [(f, incl_b) for f in set(frames)]:
                cur = into.get(sym, (0, 0))
                into[sym] = (cur[0] + live, cur[1] + blocks)
        pid = os.path.basename(dump).split(".")[0]
        procs.append((int(peak), total, int(rss), pid, os.path.basename(exe), int(dropped),
                      site_b, incl_b))
    procs.sort(reverse=True)
    scope = f", stacks with a frame matching {focus!r}" if focus else ""
    print(f"\nlive heap in blocks >= 4 KiB at each process's tracked peak{scope}")
    print("  peak MiB  shown MiB  rss peak MiB     pid  executable")
    for peak, total, rss, pid, exe, dropped, _, _ in procs:
        note = f"  ({dropped} blocks untracked: tables full)" if dropped else ""
        print(f"{peak / 2**20:10.1f} {total / 2**20:10.1f} {rss / 2**20:13.1f} {pid:>7}  {exe}{note}")
    for peak, total, _, pid, exe, _, site_b, incl_b in procs[:3]:
        if not total:
            continue
        print(f"\n== {exe} (pid {pid}): {total / 2**20:.1f} MiB live at its tracked peak ==")
        for title, sums in (("alloc site", site_b), ("inclusive", incl_b)):
            top = sorted(sums.items(), key=lambda kv: -kv[1][0])[:TOP]
            rows = [(sym, (b, f"{b / 2**20:8.1f} {n:7d}")) for sym, (b, n) in top]
            table(title, "     MiB  blocks", rows, total)


heap_report() if sampler == "heap_sampler" else cpu_report()
PY
exit "$code"
