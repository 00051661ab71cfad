/* SIGPROF stack sampler, preloaded into a frame-pointer build by
 * scripts/profile.sh. Every 1 ms of process CPU time (user + system;
 * the kernel rounds the interval up to its scheduler tick) it
 * records the interrupted PC, the word at the stack pointer (the return
 * address when a frameless leaf such as libc's memcpy was interrupted) and
 * the frame-pointer chain; at exit it writes /proc/self/maps and the raw
 * stacks to $PROFILE_SAMPLE_DIR/<pid>.prof.
 * Inactive unless the executable path starts with $PROFILE_EXE_PREFIX, so the
 * compilers and scripts a profiled command spawns are not sampled. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 22) /* words of stack storage: [depth, pc...] records */
#define DEPTH 64

static uintptr_t *buf;
static size_t used;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t pcs[DEPTH], sp = r[REG_RSP], fp = r[REG_RBP], page = 0;
    size_t n = 0;
    pcs[n++] = r[REG_RIP];
    pcs[n++] = *(const uintptr_t *)sp - 1;
    /* Walk saved (fp, return address) pairs; code without frame pointers
     * leaves garbage in rbp, so stop at anything not a mapped, aligned,
     * upward-moving stack address. */
    while (n < DEPTH && fp >= sp && fp - sp < (64u << 20) && (fp & 15) == 0) {
        uintptr_t p = fp & ~(uintptr_t)4095;
        if (p != page && msync((void *)p, 4096, MS_ASYNC) != 0) break;
        page = p;
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret < 4096) break;
        pcs[n++] = ret - 1; /* inside the call instruction */
        if (next <= fp) break;
        sp = fp, fp = next;
    }
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > CAP) return; /* full: later samples are dropped */
    buf[at] = n;
    memcpy(&buf[at + 1], pcs, n * sizeof *pcs);
}

__attribute__((constructor)) static void start(void) {
    const char *dir = getenv("PROFILE_SAMPLE_DIR"), *want = getenv("PROFILE_EXE_PREFIX");
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!dir || !want || len <= 0) return;
    exe[len] = 0;
    if (strncmp(exe, want, strlen(want)) != 0) return;
    buf = mmap(NULL, CAP * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) { buf = NULL; return; }
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (!buf) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/%d.prof", getenv("PROFILE_SAMPLE_DIR"), (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fputs("--\n", out);
    size_t end = used < CAP ? used : CAP;
    for (size_t at = 0; at < end && buf[at] && at + buf[at] + 1 <= end; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++)
            fprintf(out, i > 1 ? " %lx" : "%lx", (unsigned long)buf[at + i]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
