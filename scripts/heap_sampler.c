/* Heap sampler, preloaded into a frame-pointer build by scripts/profile.sh
 * when PROFILE_HEAP=1. It interposes the malloc family, forwarding every
 * call to glibc's __libc_* entry points, and tracks each block of at
 * least 4 KiB with the frame-pointer stack that allocated it. Each time
 * the tracked total passes its previous high by 8 MiB it snapshots the
 * live bytes and blocks per allocating stack; at exit it writes
 * /proc/self/maps, the process's peak resident set and the last snapshot
 * (the tracked peak, to within 8 MiB) to $PROFILE_SAMPLE_DIR/<pid>.heap.
 * The peak resident set is VmHWM (from /proc/self/status) minus the
 * sampler's own tables: every page of them is touched when they are
 * mapped, before the program allocates, so they stay resident and that
 * difference is exactly the program's own peak.
 * Inactive (a plain pass-through) unless the executable path starts with
 * $PROFILE_EXE_PREFIX, so the compilers and scripts a profiled command
 * spawns are not tracked.
 * A thread-local flag keeps the tracker's own allocations, and the ones
 * the C library makes on its behalf (stack bounds, the dump's stdio), out
 * of the tables and off the lock, on the free path as on the allocating
 * one: re-entering the lock from there would deadlock. */
#define _GNU_SOURCE
#include <errno.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define MIN_BLOCK 4096u
#define STEP (8u << 20)       /* bytes past the last snapshot's total */
#define DEPTH 48              /* frames kept per stack */
#define BLOCKS (1u << 19)     /* live-block slots (linear probing) */
#define STACKS (1u << 16)     /* distinct allocating stacks */

struct block { uintptr_t ptr; size_t size; uint32_t stack; };
struct stack { uint64_t hash; uint32_t depth; size_t live, blocks; uintptr_t pcs[DEPTH]; };
struct row { uint32_t stack; size_t live, blocks; };

#define TLS __thread __attribute__((tls_model("initial-exec")))
static TLS int busy;          /* inside the tracker on this thread */
static TLS uintptr_t stack_hi; /* this thread's stack top, 1 = unknown */

static int active;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static struct block *blocks;
static struct stack *stacks;
static uint32_t *order, nstacks, nblocks; /* stacks in first-seen order */
static struct row *snap;
static uint32_t snap_rows;
static size_t total, snap_total, dropped;
static size_t mapped; /* resident bytes of the tables above */
static char exe[4096];

/* Map a zeroed table and touch every page of it, so all of it is
 * resident from here on and counted once in `mapped`. */
static void *map(size_t bytes) {
    size_t page = (size_t)sysconf(_SC_PAGESIZE);
    bytes = (bytes + page - 1) / page * page;
    char *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return NULL;
    for (size_t i = 0; i < bytes; i += page) ((volatile char *)p)[i] = 0;
    mapped += bytes;
    return p;
}

static uint64_t mix(uint64_t h, uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
    return h ^ (h >> 29);
}

/* Return addresses of the saved (fp, ra) chain above this frame, up to
 * this thread's stack top; stops at anything that does not move up. */
static uint32_t walk(uintptr_t *pcs) {
    if (!stack_hi) {
        pthread_attr_t attr;
        void *base;
        size_t size;
        stack_hi = 1;
        if (pthread_getattr_np(pthread_self(), &attr) == 0) {
            if (pthread_attr_getstack(&attr, &base, &size) == 0)
                stack_hi = (uintptr_t)base + size;
            pthread_attr_destroy(&attr);
        }
    }
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0);
    uint32_t n = 0;
    while (n < DEPTH && fp + 16 <= stack_hi && (fp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        pcs[n++] = ret - 1; /* inside the call instruction */
        if (next <= fp) break;
        fp = next;
    }
    return n;
}

static uint32_t slot_of(uintptr_t p) {
    return (uint32_t)(mix(0xcbf29ce484222325ull, p >> 4) & (BLOCKS - 1));
}

/* Caller holds the lock. */
static uint32_t intern(const uintptr_t *pcs, uint32_t n) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint32_t i = 0; i < n; i++) h = mix(h, pcs[i]);
    for (uint32_t i = (uint32_t)h & (STACKS - 1);; i = (i + 1) & (STACKS - 1)) {
        struct stack *s = &stacks[i];
        if (!s->depth) {
            if (nstacks + 1 >= STACKS / 2) return UINT32_MAX;
            s->hash = h, s->depth = n ? n : 1;
            memcpy(s->pcs, pcs, n * sizeof *pcs);
            order[nstacks++] = i;
            return i;
        }
        if (s->hash == h && s->depth == (n ? n : 1) && !memcmp(s->pcs, pcs, n * sizeof *pcs))
            return i;
    }
}

/* Caller holds the lock. */
static void snapshot(void) {
    snap_rows = 0;
    for (uint32_t k = 0; k < nstacks; k++) {
        const struct stack *s = &stacks[order[k]];
        if (s->live) snap[snap_rows++] = (struct row){order[k], s->live, s->blocks};
    }
    snap_total = total;
}

static void track(void *p, size_t size) {
    if (!p || size < MIN_BLOCK || !active || busy) return;
    busy = 1;
    uintptr_t pcs[DEPTH];
    uint32_t n = walk(pcs);
    pthread_mutex_lock(&lock);
    uint32_t s = intern(pcs, n);
    if (s == UINT32_MAX || nblocks + 1 >= BLOCKS / 2) {
        dropped++;
    } else {
        uint32_t i = slot_of((uintptr_t)p);
        while (blocks[i].ptr) i = (i + 1) & (BLOCKS - 1);
        blocks[i] = (struct block){(uintptr_t)p, size, s};
        nblocks++;
        stacks[s].live += size, stacks[s].blocks++;
        total += size;
        if (total >= snap_total + STEP) snapshot();
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
}

/* Forget `p` if it is tracked. Called before the block is freed, so no
 * other thread can be handed the same address meanwhile. Returns the
 * removed entry (ptr 0 if none). */
static struct block untrack(void *p) {
    struct block gone = {0, 0, 0};
    if (!p || !active || busy) return gone;
    busy = 1;
    pthread_mutex_lock(&lock);
    uint32_t i = slot_of((uintptr_t)p);
    while (blocks[i].ptr && blocks[i].ptr != (uintptr_t)p) i = (i + 1) & (BLOCKS - 1);
    if (blocks[i].ptr) {
        gone = blocks[i];
        stacks[gone.stack].live -= gone.size, stacks[gone.stack].blocks--;
        total -= gone.size;
        nblocks--;
        /* Backward-shift deletion keeps every probe chain unbroken. */
        for (uint32_t j = (i + 1) & (BLOCKS - 1); blocks[j].ptr; j = (j + 1) & (BLOCKS - 1)) {
            uint32_t home = slot_of(blocks[j].ptr);
            if (((j - home) & (BLOCKS - 1)) >= ((j - i) & (BLOCKS - 1))) {
                blocks[i] = blocks[j];
                i = j;
            }
        }
        blocks[i].ptr = 0;
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
    return gone;
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    track(p, n);
    return p;
}

void *calloc(size_t count, size_t n) {
    void *p = __libc_calloc(count, n);
    track(p, count * n); /* a product that overflows returned NULL */
    return p;
}

void *realloc(void *old, size_t n) {
    struct block was = untrack(old);
    void *p = __libc_realloc(old, n);
    if (p || !n) {
        track(p, n);
    } else if (was.ptr) { /* failed: the old block is still live */
        track(old, was.size);
    }
    return p;
}

void free(void *p) {
    untrack(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t n) {
    void *p = __libc_memalign(align, n);
    track(p, n);
    return p;
}

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    if (!align || (align & (align - 1)) || align % sizeof(void *)) return EINVAL;
    void *p = __libc_memalign(align, n);
    if (!p) return ENOMEM;
    track(p, n);
    *out = p;
    return 0;
}

__attribute__((constructor)) static void start(void) {
    const char *dir = getenv("PROFILE_SAMPLE_DIR"), *want = getenv("PROFILE_EXE_PREFIX");
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!dir || !want || len <= 0) return;
    exe[len] = 0;
    if (strncmp(exe, want, strlen(want)) != 0) return;
    blocks = map(BLOCKS * sizeof *blocks);
    stacks = map(STACKS * sizeof *stacks);
    order = map(STACKS * sizeof *order);
    snap = map(STACKS * sizeof *snap);
    active = blocks && stacks && order && snap;
}

/* The program's peak resident set in bytes: VmHWM less the sampler's
 * tables; 0 if unreadable. */
static size_t rss_peak(void) {
    FILE *status = fopen("/proc/self/status", "r");
    char line[256];
    size_t kib = 0;
    if (!status) return 0;
    while (fgets(line, sizeof line, status))
        if (sscanf(line, "VmHWM: %zu kB", &kib) == 1) break;
    fclose(status);
    return (kib << 10) > mapped ? (kib << 10) - mapped : 0;
}

__attribute__((destructor)) static void stop(void) {
    if (!active) return;
    busy = 1; /* the dump's own stdio allocations stay untracked */
    pthread_mutex_lock(&lock);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/%d.heap", getenv("PROFILE_SAMPLE_DIR"), (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (out && maps) {
        while (fgets(line, sizeof line, maps)) fputs(line, out);
        fputs("--\n", out);
        fprintf(out, "%s %zu %zu %zu\n", exe, snap_total, dropped, rss_peak());
        for (uint32_t k = 0; k < snap_rows; k++) {
            const struct stack *s = &stacks[snap[k].stack];
            fprintf(out, "%zu %zu", snap[k].live, snap[k].blocks);
            for (uint32_t i = 0; i < s->depth && s->pcs[i]; i++)
                fprintf(out, " %lx", (unsigned long)s->pcs[i]);
            fputc('\n', out);
        }
    }
    if (maps) fclose(maps);
    if (out) fclose(out);
    active = 0;
    pthread_mutex_unlock(&lock);
}
