"""Optional C hot loop for the array-native kernel.

The array kernel (:mod:`repro.engine.arraypath`) keeps all simulation
state in flat, C-contiguous buffers: int64 tag arrays per cache level
with int32 recency lists beside them, uint8 tag fingerprints at L1 and
L2, an int32 L3 line index, a uint8 dirty bitmap indexed by line
address, float64 arrival slots for
prefetch-staged lines, and small register blocks for the bandwidth
arbiters (``ARB``: each socket's DRAM link and the node's inter-socket
link, all served by one ``arb_fill``) and the per-core stride
prefetchers. That layout is deliberately
a stable ABI: this module compiles (at first use, with the system C
compiler, via stdlib ``ctypes`` — no third-party build dependency) a
small shared object whose ``run_chunk`` walks the same buffers natively
and adds each chunk's events to the core's rows of the kernel's counter
matrices in place (column order in :mod:`repro.mem.counters`).

Semantics are a line-for-line port of the reference list kernel
(:class:`repro.engine.fastpath.FastSocket`). Its per-set recency lists
become circular doubly linked lists over slot ids (``prev``/``next`` per
slot, an LRU head per set whose ``prev`` is the MRU slot). The victim is
the head; a fill writes the head slot and advances ``head``, which makes
the slot MRU, and a hit moves its slot to the MRU end, all in constant
time. Each list starts in slot order, so empty slots fill in slot order,
which reproduces the list kernel's append-then-evict order exactly. L3
hits are found through ``idx3``, an open-addressing line → slot table
with at least twice as many buckets as L3 slots. L1 and L2 keep a
one-byte fingerprint per slot (:func:`fingerprint` mirrors it): a probe
compares a set's fingerprints eight at a time and the full tags of
matching ways only, so a line that is absent, the usual case, costs one
compare per eight ways. All floating-point expressions
mirror the Python operand order and the library is built with
``-ffp-contract=off``, so chunk finish times, time counters and arbiter
state are bit-identical to the list kernel, not merely close.

``sched_step`` is the macro-stepped scheduler's min-clock loop. It
dispatches every chunk through ``node_chunk``, the C form of
:meth:`repro.engine.node.NodeKernel.run_chunk`: a lone socket is a
1-socket node whose chunks pass straight to ``run_chunk``, and on a
multi-socket node it also counts each chunk's remote lines from the
page-home table and charges the remote fills to the inter-socket link
and the home socket's DRAM link.

``lru_sampled``, the batch loop of :class:`repro.mem.tagstore.TagStore`
(the set-sampled L3), keeps the older layout: monotonic age counters per
slot, the victim being the set's min-age slot. ``reuse_distances`` is
the Fenwick-tree loop of :mod:`repro.trace.stack_distance`.

If no compiler is available (or ``REPRO_NO_CKERNEL=1``), ``load()``
returns ``None`` and simulators fall back to the list kernel
(:func:`repro.engine.arraypath.make_socket_kernel`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
from typing import Optional

i64 = ctypes.c_longlong

#: Empty-slot tag sentinel. Not -1: staged lines can in principle have
#: negative addresses (descending streams near the address-space origin)
#: and must not collide with the sentinel.
EMPTY_TAG = -(2**63)

#: C's ``HASH_MULT``: the Fibonacci-hash multiplier of the L3 line index
#: and of the L1/L2 tag fingerprints.
HASH_MULT = 0x9E3779B97F4A7C15


def fingerprint(line):
    """C's ``fingerprint``: the one-byte fingerprint an L1/L2 slot keeps of
    its tag, the top byte of ``line * HASH_MULT`` mod 2**64. ``line`` is a
    Python int or a ``uint64`` array (elementwise)."""
    return ((line * HASH_MULT) & 0xFFFF_FFFF_FFFF_FFFF) >> 56


C_SOURCE = r"""
#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;
typedef unsigned char u8;

#define EMPTY_TAG INT64_MIN
/* Fibonacci-hash multiplier of idx3's buckets and the tag fingerprints. */
#define HASH_MULT 0x9E3779B97F4A7C15ULL

/* A bandwidth arbiter (repro.mem.bandwidth): its register blocks and
 * parameters. Every socket's DRAM link and the node's inter-socket link
 * is one of these, served by the same arb_fill and arb_wb. All members
 * are 8 bytes wide, like KS. */
typedef struct {
    /* [0]=hwm [1]=window_start [2]=rho [3]=rho_smooth
     * [4]=delay [5]=knee [6]=busy_ns */
    double *regs;
    /* [0]=window_count [1]=window_demand
     * [2]=fill_bytes [3]=writeback_bytes */
    i64 *iregs;
    double service_ns;
    i64 window_fills;
    double min_window_span; double damping; double max_delay_services;
    i64 line_bytes; i64 throttle_wb;
} ARB;

/* All members are 8 bytes wide so the layout has no padding and the
 * ctypes mirror cannot drift. Each cache level keeps, beside its tags, a
 * circular doubly linked recency list per set: prev/next per slot and
 * the LRU head per set, whose prev is the MRU slot. L1 and L2 also keep
 * a one-byte fingerprint of each slot's tag (fp1, fp2; 7 bytes of
 * padding past the last slot). Slot ids are offsets into the level's tag
 * block; L1 and L2 keep one block per core. */
typedef struct {
    /* cache state */
    i64 *tags1; u8 *fp1; i32 *prev1; i32 *next1; i32 *head1;
    i64 *tags2; u8 *fp2; i32 *prev2; i32 *next2; i32 *head2;
    i64 *tags3; i32 *prev3; i32 *next3; i32 *head3;
    i32 *idx3;                   /* L3 line -> slot, linear probing; -1 empty */
    i64 *owner3;                 /* NULL when owner tracking is off */
    double *arrival3;            /* per L3 slot; < 0 means none pending */
    u8  *dirty;                  /* by line address */
    i64 *iregs;                  /* [0] = pending staged lines */
    ARB *arb;                    /* the socket's DRAM link */
    /* prefetcher state, per-core blocks of nstreams entries */
    i64 *pf_sid; i64 *pf_last; i64 *pf_stride; i64 *pf_streak;
    i64 *pf_expected; i64 *pf_order;
    i64 *pf_count;               /* per core */
    i64 *pf_issued;              /* per core */
    /* per-core counter rows, columns in repro.mem.counters order:
     * COUNT_FIELDS (int64) and TIME_FIELDS (float64, ns) */
    i64 *counts; double *times;
    i64 counts_stride; i64 times_stride;  /* row strides, in elements */
    /* geometry */
    i64 l1_mask; i64 l2_mask; i64 l3_mask;
    i64 w1; i64 w2;
    i64 blk1; i64 blk2;
    i64 idx_mask; i64 idx_shift; /* idx3 has idx_mask + 1 = 2^(64-shift) entries */
    i64 dirty_cap;
    /* timing */
    double l1_ns; double l2_ns; double l3_ns; double pf_ns;
    /* prefetcher parameters */
    i64 pf_enabled; i64 pf_degree; i64 pf_detect_after; i64 pf_nstreams;
} KS;

/* One level's recency lists (one core's block for L1 and L2). */
typedef struct { i32 *prev; i32 *next; i32 *head; } LRU;

/* Make slot s the MRU slot of set `set`'s circular list. The MRU slot is
 * prev[head], so when s is the LRU head, advancing head is the whole
 * move. */
static inline void lru_touch(LRU r, i64 set, i32 s)
{
    i32 h = r.head[set];
    if (s == h) { r.head[set] = r.next[s]; return; }
    i32 m = r.prev[h];
    if (s == m) return;
    i32 p = r.prev[s], nx = r.next[s];
    r.next[p] = nx;
    r.prev[nx] = p;
    r.prev[s] = m;
    r.next[s] = h;
    r.next[m] = s;
    r.prev[h] = s;
}

/* The one-byte fingerprint of a tag: the top byte of its Fibonacci hash
 * (repro.engine._ckernel.fingerprint mirrors it). */
static inline u8 fingerprint(i64 line)
{
    return (u8)(((uint64_t)line * HASH_MULT) >> 56);
}

/* Replace set `set`'s LRU line with `line` (fingerprint f), which becomes
 * MRU: the fingerprint is written, then head advances past the slot. */
static inline void lru_fill(i64 *tags, u8 *fp, LRU r, i64 set, i64 line,
                            u8 f)
{
    i32 vs = r.head[set];
    tags[vs] = line;
    fp[vs] = f;
    r.head[set] = r.next[vs];
}

#define BYTES_01 0x0101010101010101ULL
#define BYTES_80 0x8080808080808080ULL

/* Slot of `line` (fingerprint f) among the w ways from slot b, or -1.
 * Eight fingerprints at a time are read as one word, composed byte by
 * byte with way 0 in the low byte, so the way order of its bits does not
 * depend on the host's byte order (gcc emits one load). `cand`
 * marks the bytes equal to f, lowest way first, among the set's own ways
 * only; a full-tag compare decides each candidate, as fingerprints
 * collide freely. */
static inline i32 way_find(const i64 *tags, const u8 *fp, i64 b, i64 w,
                           i64 line, u8 f)
{
    uint64_t fw = (uint64_t)f * BYTES_01;
    for (i64 j = 0; j < w; j += 8) {
        const u8 *p = fp + b + j;
        uint64_t x = (uint64_t)p[0] | (uint64_t)p[1] << 8
                   | (uint64_t)p[2] << 16 | (uint64_t)p[3] << 24
                   | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
                   | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
        x ^= fw;
        /* 0x80 in each zero byte of x: the lowest mark is always a zero
         * byte, a higher one may not be (the tag compare rejects it) */
        uint64_t cand = (x - BYTES_01) & ~x & BYTES_80;
        if (w - j < 8) cand &= (1ULL << (8 * (w - j))) - 1;
        for (; cand; cand &= cand - 1) {
            i64 q = b + j + (__builtin_ctzll(cand) >> 3);
            if (tags[q] == line) return (i32)q;
        }
    }
    return -1;
}

/* Home bucket of a line in idx3: multiplicative hash of the whole line
 * address (all lines of one set share their low bits). */
static inline uint64_t idx_home(const KS *k, i64 line)
{
    return ((uint64_t)line * HASH_MULT) >> k->idx_shift;
}

/* L3 slot holding `line`, or -1. */
static inline i32 l3_find(const KS *k, i64 line)
{
    uint64_t m = (uint64_t)k->idx_mask;
    for (uint64_t i = idx_home(k, line);; i = (i + 1) & m) {
        i32 s = k->idx3[i];
        if (s < 0 || k->tags3[s] == line) return s;
    }
}

/* Unindex the line in L3 slot `slot` by backward-shift deletion, so the
 * table never holds tombstones. */
static void l3_erase(KS *k, i32 slot)
{
    uint64_t m = (uint64_t)k->idx_mask;
    i32 *idx = k->idx3;
    uint64_t i = idx_home(k, k->tags3[slot]);
    while (idx[i] != slot) i = (i + 1) & m;
    for (uint64_t j = (i + 1) & m; idx[j] >= 0; j = (j + 1) & m) {
        uint64_t h = idx_home(k, k->tags3[idx[j]]);
        if (((j - h) & m) >= ((j - i) & m)) { idx[i] = idx[j]; i = j; }
    }
    idx[i] = -1;
}

static double arb_fill(ARB *a, double now, int demand)
{
    double *r = a->regs;
    i64 *ri = a->iregs;
    if (now > r[0]) r[0] = now;
    ri[0] += 1;
    if (demand) ri[1] += 1;
    double span = r[0] - r[1];
    if (ri[0] >= a->window_fills && span >= a->min_window_span) {
        double n = (double)ri[0];
        r[2] = n * a->service_ns / span;
        double deficit = n * a->service_ns - span;
        i64 wd = ri[1]; if (wd < 1) wd = 1;
        double correction = deficit / (double)wd;
        double delay = r[4] + a->damping * correction;
        double max_delay = a->max_delay_services * a->service_ns;
        if (delay < 0.0) delay = 0.0;
        if (delay > max_delay) delay = max_delay;
        r[4] = delay;
        r[3] += 0.3 * (r[2] - r[3]);
        double rho_k = r[3] < 0.97 ? r[3] : 0.97;
        double target = a->service_ns * rho_k * rho_k / (1.0 - rho_k);
        r[5] += 0.25 * (target - r[5]);
        r[1] = r[0];
        ri[0] = 0;
        ri[1] = 0;
    }
    r[6] += a->service_ns;
    ri[2] += a->line_bytes;
    return r[4] + r[5];
}

static void arb_wb(ARB *a, double now)
{
    a->iregs[3] += a->line_bytes;
    if (a->throttle_wb) {
        if (now > a->regs[0]) a->regs[0] = now;
        a->iregs[0] += 1;
        a->regs[6] += a->service_ns;
    }
}

/* Stride-stream detector; mirrors StridePrefetcher.observe_miss.
 * Returns the number of lines to stage (0 or degree) and writes the
 * stride. The stream table keeps dict insertion order: eviction pops
 * the oldest-inserted tracker, exactly like the Python dict pop. */
static i64 pf_observe(KS *k, i64 core, i64 a, i64 sid, i64 *stride_out)
{
    if (!k->pf_enabled || k->pf_degree == 0) return 0;
    i64 ns = k->pf_nstreams;
    i64 *sids = k->pf_sid + core * ns;
    i64 *last = k->pf_last + core * ns;
    i64 *strd = k->pf_stride + core * ns;
    i64 *strk = k->pf_streak + core * ns;
    i64 *expd = k->pf_expected + core * ns;
    i64 *order = k->pf_order + core * ns;
    i64 cnt = k->pf_count[core];
    i64 slot = -1;
    for (i64 i = 0; i < cnt; i++) {
        if (sids[order[i]] == sid) { slot = order[i]; break; }
    }
    if (slot < 0) {
        if (cnt >= ns) {
            slot = order[0];
            for (i64 i = 1; i < cnt; i++) order[i - 1] = order[i];
            cnt -= 1;
        } else {
            slot = cnt;  /* before first eviction, used slots are 0..cnt-1 */
        }
        order[cnt] = slot;
        k->pf_count[core] = cnt + 1;
        sids[slot] = sid;
        last[slot] = -1;
        strd[slot] = 0;
        strk[slot] = 0;
        expd[slot] = -1;
    }
    i64 degree = k->pf_degree;
    if (expd[slot] == a) {
        last[slot] = a;
        expd[slot] = a + (degree + 1) * strd[slot];
        k->pf_issued[core] += 1;
        *stride_out = strd[slot];
        return degree;
    }
    i64 stride = (last[slot] >= 0) ? (a - last[slot]) : 0;
    if (stride == 0) strk[slot] = 0;
    else if (stride == strd[slot]) strk[slot] += 1;
    else strk[slot] = 1;
    strd[slot] = stride;
    last[slot] = a;
    if (stride != 0 && strk[slot] >= k->pf_detect_after) {
        expd[slot] = a + (degree + 1) * stride;
        k->pf_issued[core] += 1;
        *stride_out = stride;
        return degree;
    }
    expd[slot] = -1;
    return 0;
}

/* Evict set `set`'s LRU line from L3 (dropping its pending arrival and
 * writing it back if dirty) and put `line` in its slot, which becomes
 * MRU as head advances past it. The victim leaves idx3 before its tag is
 * overwritten; `line` then enters it. */
static i32 l3_fill(KS *k, LRU r3, i64 set, i64 line, double t, i64 *nwb)
{
    i32 vs = r3.head[set];
    i64 victim = k->tags3[vs];
    if (victim != EMPTY_TAG) {
        if (k->arrival3[vs] >= 0.0) { k->arrival3[vs] = -1.0; k->iregs[0] -= 1; }
        if (victim >= 0 && victim < k->dirty_cap && k->dirty[victim]) {
            k->dirty[victim] = 0;
            arb_wb(k->arb, t);
            *nwb += 1;
        }
        l3_erase(k, vs);
    }
    k->tags3[vs] = line;
    uint64_t m = (uint64_t)k->idx_mask;
    uint64_t i = idx_home(k, line);
    while (k->idx3[i] >= 0) i = (i + 1) & m;
    k->idx3[i] = vs;
    r3.head[set] = r3.next[vs];
    return vs;
}

/* The per-access loop: runs one chunk on `core` from time t, returns
 * its finish time and writes its event counts to out (L1, L2, L3 and
 * prefetch hits, misses, prefetch fills, writebacks). noinline keeps
 * the counter adds of run_chunk out of this function, so the loop is
 * compiled on its own, as it was before they moved into C. */
static __attribute__((noinline))
double chunk_loop(KS *k, i64 core, const i64 *lines, i64 n,
                  i64 is_write, i64 pf_on, i64 sid,
                  double ops_ns, double dram_ns, double t, i64 *out)
{
    i64 m1 = k->l1_mask, m2 = k->l2_mask, m3 = k->l3_mask;
    i64 w1 = k->w1, w2 = k->w2;
    i64 o1 = core * k->blk1, o2 = core * k->blk2;
    i64 *tags1 = k->tags1 + o1, *tags2 = k->tags2 + o2;
    u8 *fp1 = k->fp1 + o1, *fp2 = k->fp2 + o2;
    LRU r1 = { k->prev1 + o1, k->next1 + o1, k->head1 + core * (m1 + 1) };
    LRU r2 = { k->prev2 + o2, k->next2 + o2, k->head2 + core * (m2 + 1) };
    LRU r3 = { k->prev3, k->next3, k->head3 };
    i64 *owner3 = k->owner3;
    double *arr3 = k->arrival3;
    u8 *dirty = k->dirty;
    double l1_ns = k->l1_ns, l2_ns = k->l2_ns, l3_ns = k->l3_ns;
    double pf_ns = k->pf_ns, service_ns = k->arb->service_ns;
    i64 *npend = &k->iregs[0];
    i64 n1 = 0, n2 = 0, n3 = 0, npf = 0, nmiss = 0, npfill = 0, nwb = 0;
    int w = (int)is_write;

    for (i64 i = 0; i < n; i++) {
        i64 a = lines[i];
        t += ops_ns;
        u8 f = fingerprint(a);
        i64 s1 = a & m1;
        i32 h1 = way_find(tags1, fp1, s1 * w1, w1, a, f);
        if (h1 >= 0) {
            t += l1_ns;
            n1 += 1;
            lru_touch(r1, s1, h1);
            if (w) dirty[a] = 1;
            /* hit-streak fast path: a run of accesses to the same line
             * stays an L1 MRU hit with no state change; charge the run
             * with the same per-access float adds, skipping the probes. */
            while (i + 1 < n && lines[i + 1] == a) {
                i += 1;
                t += ops_ns;
                t += l1_ns;
                n1 += 1;
            }
            continue;
        }
        i64 s2 = a & m2;
        i32 h2 = way_find(tags2, fp2, s2 * w2, w2, a, f);
        if (h2 >= 0) {
            t += l2_ns;
            n2 += 1;
            if (*npend > 0) {
                /* A pending staged line is always still L3-resident
                 * (eviction pops its arrival), so probing L3 here is
                 * exactly the dict pop of the list kernel. */
                i32 h3 = l3_find(k, a);
                if (h3 >= 0 && arr3[h3] >= 0.0) {
                    double arr = arr3[h3];
                    arr3[h3] = -1.0;
                    *npend -= 1;
                    npf += 1;
                    n2 -= 1;
                    if (arr > t) t = arr;
                }
            }
            lru_touch(r2, s2, h2);
        } else {
            i64 s3 = a & m3;
            i32 h3 = l3_find(k, a);
            if (h3 >= 0) {
                double arr = (*npend > 0) ? arr3[h3] : -1.0;
                if (arr >= 0.0) {
                    arr3[h3] = -1.0;
                    *npend -= 1;
                    t += pf_ns;
                    if (arr > t) t = arr;
                    npf += 1;
                } else {
                    t += l3_ns;
                    n3 += 1;
                }
                lru_touch(r3, s3, h3);
                if (owner3) owner3[h3] = core;
            } else {
                /* demand miss: stall for DRAM + link queueing */
                nmiss += 1;
                t += dram_ns + arb_fill(k->arb, t, 1);
                i32 vs = l3_fill(k, r3, s3, a, t, &nwb);
                arr3[vs] = -1.0;
                if (owner3) owner3[vs] = core;
                if (!w) dirty[a] = 0;
            }
            if (pf_on) {
                i64 stride = 0;
                i64 cnt = pf_observe(k, core, a, sid, &stride);
                i64 kf = 0;
                for (i64 q = 1; q <= cnt; q++) {
                    i64 p = a + stride * q;
                    if (l3_find(k, p) < 0) {
                        double delay = arb_fill(k->arb, t, 0);
                        kf += 1;
                        npfill += 1;
                        i32 vs = l3_fill(k, r3, p & m3, p, t, &nwb);
                        arr3[vs] = t + dram_ns + delay + (double)kf * service_ns;
                        *npend += 1;
                        if (owner3) owner3[vs] = core;
                    }
                    i64 sp2 = p & m2;
                    u8 fq = fingerprint(p);
                    if (way_find(tags2, fp2, sp2 * w2, w2, p, fq) < 0)
                        lru_fill(tags2, fp2, r2, sp2, p, fq);
                }
            }
            /* fill L2 (silent private eviction) */
            lru_fill(tags2, fp2, r2, s2, a, f);
        }
        /* fill L1 */
        lru_fill(tags1, fp1, r1, s1, a, f);
        if (w) dirty[a] = 1;
        /* hit-streak after a fill: the line is now L1-MRU */
        while (i + 1 < n && lines[i + 1] == a) {
            i += 1;
            t += ops_ns;
            t += l1_ns;
            n1 += 1;
        }
    }
    out[0] = n1; out[1] = n2; out[2] = n3; out[3] = npf;
    out[4] = nmiss; out[5] = npfill; out[6] = nwb;
    return t;
}

/* Run a chunk of n accesses with `ops` compute ops each on `core`,
 * starting `extra` ns (off-socket time) after `now`, and add it to the
 * core's counter rows with the operand order of the list kernel's
 * Python adds, so every float sum is bit-identical to it. */
double run_chunk(KS *k, i64 core, const i64 *lines, i64 n,
                 i64 is_write, i64 pf_on, i64 sid, i64 ops,
                 double ops_ns, double dram_ns, double now, double extra)
{
    i64 out[7];
    double t = chunk_loop(k, core, lines, n, is_write, pf_on, sid,
                          ops_ns, dram_ns, now + extra, out);
    i64 *c = k->counts + core * k->counts_stride;
    c[0] += n;                          /* accesses */
    c[1] += out[0];                     /* l1_hits */
    c[2] += out[1];                     /* l2_hits */
    c[3] += out[2];                     /* l3_hits */
    c[4] += out[3];                     /* prefetch_hits */
    c[5] += out[4];                     /* l3_misses */
    c[6] += out[5];                     /* prefetch_fills */
    c[7] += out[6];                     /* writebacks */
    c[8] += n * ops;                    /* compute_ops */
    double *f = k->times + core * k->times_stride;
    f[1] += (double)n * ops_ns;         /* compute_ns */
    f[3] += extra;                      /* offsocket_ns */
    f[0] += (t - now) - (double)n * ops_ns - extra;  /* stall_ns */
    f[4] += t - now;                    /* elapsed_ns */
    return t;
}

/* The node (repro.engine.node.NodeKernel, DESIGN decision 12): socket
 * kernels joined by the inter-socket link. A lone socket is a 1-socket
 * node, whose chunks pass straight to run_chunk. Node-global core ids
 * are socket-major. All members are 8 bytes wide, like KS. */
typedef struct {
    KS **ks;             /* [n_sockets] socket kernels */
    ARB *xlink;          /* inter-socket link; NULL on a 1-socket node */
    i64 *page_home;      /* page -> home socket; < 0 never allocated */
    i64 n_pages;         /* entries in page_home */
    i64 page_line_shift; /* page of a line = line >> page_line_shift */
    double *carry;       /* [n_cores] remote-fill largest-remainder carry */
    i64 *by_home;        /* [n_sockets] scratch: a chunk's lines per home */
    i64 n_sockets; i64 cores_per_socket;
    double remote_penalty_ns;
} NK;

/* Home socket of a line: AddressSpace.home_of_line (0 for a page that
 * was never allocated or lies beyond the table). */
static inline i64 line_home(const NK *nk, i64 line)
{
    i64 page = line >> nk->page_line_shift;
    if (page < 0 || page >= nk->n_pages) return 0;
    i64 h = nk->page_home[page];
    return h >= 0 ? h : 0;
}

/* Run a chunk on node-global `core`: NodeKernel.run_chunk line for line.
 * The chunk runs on its socket's kernel; when some of its lines are
 * homed on other sockets, its fills are attributed to them by the
 * remote-line fraction with a per-core carry, and each remote fill
 * crosses the xlink (demand) and loads the dominant home's DRAM link
 * (non-demand), both at the chunk's finish time. */
static double node_chunk(NK *nk, i64 core, const i64 *lines, i64 n,
                         i64 is_write, i64 pf_on, i64 sid, i64 ops,
                         double ops_ns, double dram_ns, double now,
                         double extra)
{
    if (nk->n_sockets == 1)
        return run_chunk(nk->ks[0], core, lines, n, is_write, pf_on, sid,
                         ops, ops_ns, dram_ns, now, extra);
    i64 ns = nk->n_sockets, s = core / nk->cores_per_socket;
    i64 local = core - s * nk->cores_per_socket;
    KS *k = nk->ks[s];
    i64 *by_home = nk->by_home;
    for (i64 h = 0; h < ns; h++) by_home[h] = 0;
    for (i64 i = 0; i < n; i++) by_home[line_home(nk, lines[i])] += 1;
    i64 n_remote = n - by_home[s];
    if (n_remote == 0)
        return run_chunk(k, local, lines, n, is_write, pf_on, sid,
                         ops, ops_ns, dram_ns, now, extra);
    i64 *c = k->counts + local * k->counts_stride;
    i64 fills_before = c[5] + c[6];     /* l3_misses + prefetch_fills */
    double t = run_chunk(k, local, lines, n, is_write, pf_on, sid,
                         ops, ops_ns, dram_ns, now, extra);
    c[9] += n_remote;                   /* remote_accesses */
    i64 fills = c[5] + c[6] - fills_before;
    if (fills == 0) return t;
    double x = (double)fills * ((double)n_remote / (double)n) + nk->carry[core];
    i64 n_rf = (i64)x;
    nk->carry[core] = x - (double)n_rf;
    if (n_rf == 0) return t;
    /* the dominant home: the first socket with the most remote lines */
    i64 home = -1;
    for (i64 h = 0; h < ns; h++)
        if (h != s && (home < 0 || by_home[h] > by_home[home])) home = h;
    ARB *home_arb = nk->ks[home]->arb;
    double xtra = (double)n_rf * nk->remote_penalty_ns;
    for (i64 i = 0; i < n_rf; i++) {
        xtra += arb_fill(nk->xlink, t, 1);
        arb_fill(home_arb, t, 0);
    }
    t += xtra;
    c[10] += n_rf;                      /* remote_fills */
    double *f = k->times + local * k->times_stride;
    f[2] += xtra;                       /* remote_ns */
    f[0] += xtra;                       /* stall_ns */
    f[4] += xtra;                       /* elapsed_ns */
    return t;
}

/* Macro-stepped multicore scheduler state (see repro.engine.blockq for
 * the queue layout and repro.engine.scheduler for the contract). All
 * members are 8 bytes wide, like KS, so the ctypes mirror cannot drift.
 * Per-slot arrays are indexed in roster order (CoreStates sorted by
 * core_id), which is exactly the chunk-at-a-time min-scan order. */
typedef struct {
    i64 *core_ids;   /* [n] physical core per roster slot */
    double *clock;   /* [n] per-core simulated clocks */
    i64 *accesses;   /* [n] lifetime access counts */
    i64 *flags;      /* [n] bit0 done, bit1 main, bit2 exhausted */
    double *finish;  /* [n] completion time, valid once done */
    i64 *goal;       /* [n] absolute access count that ends the window's
                        budget for this main; -1 = no budget */
    i64 *head;       /* [n] next chunk to consume per slot */
    i64 *count;      /* [n] chunks queued per slot */
    i64 *qlines;     /* [n][line_cap] packed chunk line addresses */
    i64 *qoff; i64 *qlen; i64 *qwrite; i64 *qops;   /* [n][chunk_cap] */
    i64 *qsid; i64 *qser; i64 *qpf;                 /* [n][chunk_cap] */
    double *qextra;                                 /* [n][chunk_cap] */
    i64 n; i64 chunk_cap; i64 line_cap;
    double ns_per_op; double dram_mlp_ns; double dram_serial_ns;
    i64 max_total;   /* safety limit (pre-dispatch check) */
    i64 total;       /* in/out: accesses dispatched this window */
    i64 active_mains;/* in/out */
    i64 event;       /* out: the slot that caused status 1 or 2 */
} SCH;

/* Min-clock interleave over the queued blocks: repeatedly select the
 * least-advanced non-done slot (strict <, first slot wins ties — the
 * exact tie-break of the Python chunk loop) and execute its next queued
 * chunk via node_chunk, which adds it to the core's counter rows in
 * place, exactly as a chunk dispatched from Python does.
 *
 * Returns: 0 = window complete (no active mains left)
 *          1 = the selected slot's queue is empty and it is not
 *              exhausted (event = slot; caller refills and re-enters)
 *          2 = dispatching the selected slot's next chunk would cross
 *              max_total (event = slot; caller raises)
 *          3 = max_steps chunks consumed (caller just re-enters)      */
i64 sched_step(NK *nk, SCH *s, i64 max_steps)
{
    i64 n = s->n, cc = s->chunk_cap, lc = s->line_cap;
    i64 steps = 0;
    while (s->active_mains > 0) {
        if (steps >= max_steps) return 3;
        i64 best = -1;
        double best_clock = 0.0;
        for (i64 i = 0; i < n; i++) {
            if (s->flags[i] & 1) continue;
            if (best < 0 || s->clock[i] < best_clock) {
                best = i;
                best_clock = s->clock[i];
            }
        }
        /* active_mains > 0 guarantees a runnable slot exists */
        if (s->head[best] >= s->count[best]) {
            if (!(s->flags[best] & 4)) { s->event = best; return 1; }
            /* drained and exhausted: the thread completes here, at the
             * clock it would have been selected — same instant the
             * chunk loop sees the generator end. */
            s->flags[best] |= 1;
            s->finish[best] = s->clock[best];
            if (s->flags[best] & 2) s->active_mains -= 1;
            steps += 1;
            continue;
        }
        i64 c = best * cc + s->head[best];
        i64 len = s->qlen[c];
        if (s->total + len > s->max_total) { s->event = best; return 2; }
        double ops_ns = (double)s->qops[c] * s->ns_per_op;
        double dram = s->qser[c] ? s->dram_serial_ns : s->dram_mlp_ns;
        double t = node_chunk(nk, s->core_ids[best],
                             s->qlines + best * lc + s->qoff[c], len,
                             s->qwrite[c], s->qpf[c], s->qsid[c], s->qops[c],
                             ops_ns, dram, s->clock[best], s->qextra[c]);
        s->clock[best] = t;
        s->accesses[best] += len;
        s->total += len;
        s->head[best] += 1;
        steps += 1;
        if ((s->flags[best] & 2) && s->goal[best] >= 0
            && s->accesses[best] >= s->goal[best]) {
            s->flags[best] |= 1;
            s->finish[best] = t;
            s->active_mains -= 1;
        }
    }
    return 0;
}

/* Set-sampled LRU batch for SampledL3: flat tag/age arrays over the
 * sampled sets only (compact index = full set index >> sample_shift).
 * Lines must be pre-filtered to the sampled population. Returns hits. */
i64 lru_sampled(i64 *tags, i64 *ages, i64 *agec, i64 ways,
                i64 set_mask, i64 sample_shift,
                const i64 *lines, i64 n)
{
    i64 hits = 0;
    for (i64 i = 0; i < n; i++) {
        i64 a = lines[i];
        i64 b = ((a & set_mask) >> sample_shift) * ways;
        i64 h = -1;
        for (i64 j = 0; j < ways; j++)
            if (tags[b + j] == a) { h = j; break; }
        if (h >= 0) {
            hits += 1;
            ages[b + h] = ++(*agec);
        } else {
            i64 vs = b;
            i64 va = ages[b];
            for (i64 j = 1; j < ways; j++)
                if (ages[b + j] < va) { va = ages[b + j]; vs = b + j; }
            tags[vs] = a;
            ages[vs] = ++(*agec);
        }
    }
    return hits;
}

/* LRU reuse distances (repro.trace.stack_distance) over dense line ids:
 * out[t] is the number of distinct ids touched strictly between access
 * t and the previous access to its id, or -1 (COLD) for a first touch.
 * last[id] holds each id's latest access (-1 before any), and tree is a
 * zeroed Fenwick tree of n + 1 entries marking each id's latest access. */
void reuse_distances(const i64 *ids, i64 n, i64 *last, i64 *tree, i64 *out)
{
    for (i64 t = 0; t < n; t++) {
        i64 a = ids[t], p = last[a];
        if (p < 0) {
            out[t] = -1;
        } else {
            /* live markers in (p, t): prefix(t - 1) - prefix(p) */
            i64 d = 0;
            for (i64 i = t; i > 0; i -= i & -i) d += tree[i];
            for (i64 i = p + 1; i > 0; i -= i & -i) d -= tree[i];
            out[t] = d;
            for (i64 i = p + 1; i <= n; i += i & -i) tree[i] -= 1;
        }
        for (i64 i = t + 1; i <= n; i += i & -i) tree[i] += 1;
        last[a] = t;
    }
}
"""


class ARBStruct(ctypes.Structure):
    """ctypes mirror of the C ``ARB`` struct (all members 8 bytes)."""

    _fields_ = [
        ("regs", ctypes.c_void_p),
        ("iregs", ctypes.c_void_p),
        ("service_ns", ctypes.c_double),
        ("window_fills", i64),
        ("min_window_span", ctypes.c_double),
        ("damping", ctypes.c_double),
        ("max_delay_services", ctypes.c_double),
        ("line_bytes", i64),
        ("throttle_wb", i64),
    ]


class KStruct(ctypes.Structure):
    """ctypes mirror of the C ``KS`` struct (all members 8 bytes)."""

    _fields_ = [
        ("tags1", ctypes.c_void_p), ("fp1", ctypes.c_void_p),
        ("prev1", ctypes.c_void_p), ("next1", ctypes.c_void_p),
        ("head1", ctypes.c_void_p),
        ("tags2", ctypes.c_void_p), ("fp2", ctypes.c_void_p),
        ("prev2", ctypes.c_void_p), ("next2", ctypes.c_void_p),
        ("head2", ctypes.c_void_p),
        ("tags3", ctypes.c_void_p), ("prev3", ctypes.c_void_p),
        ("next3", ctypes.c_void_p), ("head3", ctypes.c_void_p),
        ("idx3", ctypes.c_void_p),
        ("owner3", ctypes.c_void_p),
        ("arrival3", ctypes.c_void_p),
        ("dirty", ctypes.c_void_p),
        ("iregs", ctypes.c_void_p),
        ("arb", ctypes.c_void_p),
        ("pf_sid", ctypes.c_void_p), ("pf_last", ctypes.c_void_p),
        ("pf_stride", ctypes.c_void_p), ("pf_streak", ctypes.c_void_p),
        ("pf_expected", ctypes.c_void_p), ("pf_order", ctypes.c_void_p),
        ("pf_count", ctypes.c_void_p), ("pf_issued", ctypes.c_void_p),
        ("counts", ctypes.c_void_p), ("times", ctypes.c_void_p),
        ("counts_stride", i64), ("times_stride", i64),
        ("l1_mask", i64), ("l2_mask", i64), ("l3_mask", i64),
        ("w1", i64), ("w2", i64),
        ("blk1", i64), ("blk2", i64),
        ("idx_mask", i64), ("idx_shift", i64),
        ("dirty_cap", i64),
        ("l1_ns", ctypes.c_double), ("l2_ns", ctypes.c_double),
        ("l3_ns", ctypes.c_double), ("pf_ns", ctypes.c_double),
        ("pf_enabled", i64), ("pf_degree", i64),
        ("pf_detect_after", i64), ("pf_nstreams", i64),
    ]


class NKStruct(ctypes.Structure):
    """ctypes mirror of the C ``NK`` struct (all members 8 bytes)."""

    _fields_ = [
        ("ks", ctypes.c_void_p),
        ("xlink", ctypes.c_void_p),
        ("page_home", ctypes.c_void_p),
        ("n_pages", i64),
        ("page_line_shift", i64),
        ("carry", ctypes.c_void_p),
        ("by_home", ctypes.c_void_p),
        ("n_sockets", i64),
        ("cores_per_socket", i64),
        ("remote_penalty_ns", ctypes.c_double),
    ]


class SCHStruct(ctypes.Structure):
    """ctypes mirror of the C ``SCH`` struct (all members 8 bytes)."""

    _fields_ = [
        ("core_ids", ctypes.c_void_p),
        ("clock", ctypes.c_void_p),
        ("accesses", ctypes.c_void_p),
        ("flags", ctypes.c_void_p),
        ("finish", ctypes.c_void_p),
        ("goal", ctypes.c_void_p),
        ("head", ctypes.c_void_p),
        ("count", ctypes.c_void_p),
        ("qlines", ctypes.c_void_p),
        ("qoff", ctypes.c_void_p), ("qlen", ctypes.c_void_p),
        ("qwrite", ctypes.c_void_p), ("qops", ctypes.c_void_p),
        ("qsid", ctypes.c_void_p), ("qser", ctypes.c_void_p),
        ("qpf", ctypes.c_void_p),
        ("qextra", ctypes.c_void_p),
        ("n", i64), ("chunk_cap", i64), ("line_cap", i64),
        ("ns_per_op", ctypes.c_double),
        ("dram_mlp_ns", ctypes.c_double),
        ("dram_serial_ns", ctypes.c_double),
        ("max_total", i64),
        ("total", i64),
        ("active_mains", i64),
        ("event", i64),
    ]


#: ``SCH.flags`` bits, shared with the pure-Python macro-step fallback.
F_DONE, F_MAIN, F_EXHAUSTED = 1, 2, 4

#: ``sched_step`` return codes.
STEP_DONE, STEP_REFILL, STEP_LIMIT, STEP_MAXSTEPS = 0, 1, 2, 3


#: Compiler flags of the kernel build. -ffp-contract=off: no FMA
#: contraction, so every double expression evaluates exactly like the
#: CPython reference.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CKERNEL_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(base, "repro-ckernel")
    return root


def _find_cc() -> Optional[str]:
    """The C compiler: the path of ``$CC``, else of ``cc``, ``gcc`` or
    ``clang``, whichever is first on PATH."""
    import shutil

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        path = shutil.which(cand) if cand else None
        if path:
            return path
    return None


def _library_path(cc: str, cache: str) -> str:
    """Where the build of ``C_SOURCE`` with ``cc`` and ``CFLAGS`` lives in
    ``cache``. The name hashes the source, the flags, the compiler's path
    and the file it resolves to (a switched ``cc`` alternative is another
    compiler), so a cached library is never loaded for other flags or
    another compiler."""
    key = "\0".join((C_SOURCE, cc, os.path.realpath(cc), *CFLAGS))
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(cache, f"reprokernel-{tag}.so")


def _build(cc: str, cache: str) -> Optional[str]:
    lib = _library_path(cc, cache)
    if os.path.exists(lib):
        return lib
    try:
        os.makedirs(cache, exist_ok=True)
        fd, src = tempfile.mkstemp(suffix=".c", dir=cache)
        with os.fdopen(fd, "w") as f:
            f.write(C_SOURCE)
        tmp = lib + f".tmp{os.getpid()}"
        cmd = [cc, *CFLAGS, src, "-o", tmp]
        res = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120, check=False
        )
        if res.returncode != 0:
            return None
        os.replace(tmp, lib)
        return lib
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        try:
            os.unlink(src)
        except (OSError, UnboundLocalError):
            pass


_LOADED: Optional[object] = None
_TRIED = False


def load() -> Optional[ctypes.CDLL]:
    """Compile (once, cached by source, compiler and flags) and load the
    C kernel.

    Returns ``None`` when disabled (``REPRO_NO_CKERNEL=1``), when no C
    compiler is on PATH, or when the build fails for any reason — the
    caller falls back to pure Python (the list kernel, or the sampled
    L3's Python loop).
    """
    global _LOADED, _TRIED
    if _TRIED:
        return _LOADED  # type: ignore[return-value]
    _TRIED = True
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    cc = _find_cc()
    if cc is None:
        return None
    lib_path = _build(cc, _cache_dir())
    if lib_path is None:
        # Retry in a temp dir (e.g. read-only home).
        lib_path = _build(cc, os.path.join(tempfile.gettempdir(), "repro-ckernel"))
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(lib_path)
    except OSError:
        return None
    lib.run_chunk.restype = ctypes.c_double
    lib.run_chunk.argtypes = [
        ctypes.POINTER(KStruct), i64, ctypes.c_void_p, i64,
        i64, i64, i64, i64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
    ]
    lib.sched_step.restype = i64
    lib.sched_step.argtypes = [
        ctypes.POINTER(NKStruct), ctypes.POINTER(SCHStruct), i64,
    ]
    lib.lru_sampled.restype = i64
    lib.lru_sampled.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, i64,
        i64, i64, ctypes.c_void_p, i64,
    ]
    lib.reuse_distances.restype = None
    lib.reuse_distances.argtypes = [
        ctypes.c_void_p, i64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ]
    _LOADED = lib
    return lib


def available() -> bool:
    """True when the compiled kernel can be (or has been) loaded."""
    return load() is not None


if __name__ == "__main__":  # pragma: no cover - manual smoke test
    lib = load()
    print("ckernel:", "loaded" if lib is not None else "unavailable", file=sys.stderr)
