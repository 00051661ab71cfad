//! Packed, cache-blocked matrix multiplication kernels.
//!
//! Three general kernels cover the contractions of `Linear` and the
//! small dense layers: `C = A·B` ([`matmul`]: linear input gradient),
//! `C = Aᵀ·B` ([`matmul_at_b`]: linear weight gradient) and `C = A·Bᵀ`
//! ([`matmul_a_bt`]: linear forward). `Conv2d` runs the same three
//! contractions on lowered columns: forward `W·cols` (A·B), input
//! gradient `Wᵀ·gout` (Aᵀ·B) and weight gradient `gout·colsᵀ` (A·Bᵀ).
//! The first two use the packed microkernel below over B panels that hold
//! a whole group of batch items ([`gemm_panel_runs`]); the weight gradient
//! has its own kernel ([`conv_weight_grad`]).
//!
//! # Kernel architecture
//!
//! `matmul` and `matmul_at_b` are built on a fixed-size **register
//! microtile**: [`MR`]×[`NR`] output elements are accumulated in a
//! `[[f32; NR]; MR]` array the compiler keeps in SIMD registers. For each
//! contraction step the microkernel broadcasts one packed A value per row
//! and multiplies it into a contiguous NR-wide panel row of packed B, so
//! the inner loop autovectorises into broadcast–multiply–add over whole
//! vectors with `MR·NR` independent accumulator chains.
//!
//! **Packing.** B is repacked once per call into NR-wide column panels
//! (`panel[p][lane] = B[p][j0+lane]`, zero-padded at the right edge), so
//! the microkernel streams it contiguously; the one packing pass is
//! amortised across every row block — including all parallel row-block
//! tasks, which share the same read-only packed buffer. A is packed once
//! per call too, into MR-row tiles stored back to back (`tile[p][r] =
//! A[i0+r][p]`, zero-padded); one tile is small enough to stay
//! L1-resident across the whole panel sweep. `Conv2d` packs its weight
//! once per layer call and lowers its inputs (or packs its output
//! gradient) straight into the panel layout, one group of batch items at
//! a time. Pack buffers are thread-local and reused across calls, so
//! steady-state training does not allocate per matmul.
//!
//! **Determinism.** Every output element accumulates its `k` products in
//! strictly ascending contraction order through a single accumulator
//! chain — the same order as the historical `ikj` kernels — so `matmul`
//! and `matmul_at_b` are *bitwise identical* to their pre-blocked
//! versions, at any thread count, on either the packed or the small-size
//! fallback path. `matmul_a_bt` uses a 4-lane strided dot product (see
//! [`dot4`]) with a fixed combine order; its results are reproducible at
//! any thread count but differ from the old strictly-serial dot, which is
//! why kernel-sensitive fingerprints carry
//! [`crate::KERNEL_NUMERICS_VERSION`]. The conv weight-gradient kernel
//! reproduces `dot4`'s order per element and batch item exactly.
//!
//! **Parallelism.** Large contractions are partitioned over MR-aligned
//! row blocks of `C` and run on the [`crate::par`] pool. The split is
//! planned by [`row_tasks`]: each task must clear a per-contraction FLOP
//! floor (calibrated so a pool hand-off never loses to staying serial),
//! and a thread budget of 1 short-circuits to a zero-overhead serial call
//! with no pool hand-off or chunk bookkeeping at all.

use crate::im2col::{copy_run, PanelRuns};
use crate::{par, Tensor};

/// Microtile rows: output rows accumulated per microkernel invocation.
pub const MR: usize = 4;
/// Microtile columns: output columns per B panel (SIMD-friendly width).
pub const NR: usize = 8;

/// Per-task FLOP floor for `matmul` row-block tasks.
pub const TASK_FLOPS_AB: usize = 1 << 19;
/// Per-task FLOP floor for `matmul_at_b` row-block tasks.
pub const TASK_FLOPS_AT_B: usize = 1 << 19;
/// Per-task FLOP floor for `matmul_a_bt` row-block tasks (the dot kernel
/// has no packing step, so smaller tasks already amortise the hand-off).
pub const TASK_FLOPS_A_BT: usize = 1 << 18;

/// Below this many FLOPs the packed kernels fall back to the plain `ikj`
/// loop: packing overhead would dominate. The fallback accumulates in the
/// same strictly ascending order, so the two paths are bitwise identical.
const PACK_MIN_FLOPS: usize = 1 << 13;

/// Plan the number of row-block tasks for a contraction writing `rows`
/// output rows with `flops` total work, quantised to `quantum` rows per
/// block. Returns 1 (serial) unless every task clears `floor` FLOPs and
/// the thread budget allows more. The plan depends only on the shape and
/// the budget — never on scheduling — and partitioning never changes
/// result bits, so `auto` thread mode stays deterministic.
pub fn row_tasks(rows: usize, quantum: usize, flops: usize, floor: usize, threads: usize) -> usize {
    if threads <= 1 || rows == 0 {
        return 1;
    }
    let by_work = flops / floor.max(1);
    let by_rows = rows.div_ceil(quantum.max(1));
    by_work.min(by_rows).min(threads).max(1)
}

// ------------------------------------------------------------------------
// Pack-buffer scratch (thread-local, reused across calls)
// ------------------------------------------------------------------------

use std::cell::Cell;

thread_local! {
    /// Reusable B-panel pack buffer. Taken (not borrowed) for the duration
    /// of one kernel call so re-entrant calls degrade to a fresh alloc
    /// instead of a borrow panic.
    static PACK_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Reusable A-tile pack buffer.
    static PACK_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

fn take_pack_b() -> Vec<f32> {
    PACK_B.with(Cell::take)
}

fn put_pack_b(buf: Vec<f32>) {
    PACK_B.with(|c| c.set(buf));
}

fn take_pack_a() -> Vec<f32> {
    PACK_A.with(Cell::take)
}

fn put_pack_a(buf: Vec<f32>) {
    PACK_A.with(|c| c.set(buf));
}

// ------------------------------------------------------------------------
// Epilogues
// ------------------------------------------------------------------------

/// What a kernel does with each finished accumulator row when writing it
/// back to `C`. Fusing the write epilogue avoids a second pass over the
/// output tensor (bias add, or a folded batch-norm scale/shift + ReLU).
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// `c = acc`.
    Store,
    /// `c = acc + bias[row]`.
    Bias(&'a [f32]),
    /// `c = scale[row]·acc + shift[row]`, optionally clamped at zero —
    /// the folded eval-mode Conv→BatchNorm(→ReLU) write.
    ScaleShift {
        /// Per-output-row multiplier (`gamma·invstd` for folded BN).
        scale: &'a [f32],
        /// Per-output-row offset (`beta − mean·scale` for folded BN).
        shift: &'a [f32],
        /// Apply `max(0, ·)` after the affine map.
        relu: bool,
    },
}

impl Epilogue<'_> {
    /// Write one accumulator row into `out` for absolute output row `row`.
    #[inline(always)]
    pub(crate) fn write(&self, row: usize, acc: &[f32], out: &mut [f32]) {
        match *self {
            Epilogue::Store => copy_run(out, acc),
            Epilogue::Bias(bias) => {
                let bv = bias[row];
                for (o, &a) in out.iter_mut().zip(acc) {
                    *o = a + bv;
                }
            }
            Epilogue::ScaleShift { scale, shift, relu } => {
                let (s, t) = (scale[row], shift[row]);
                for (o, &a) in out.iter_mut().zip(acc) {
                    let v = s * a + t;
                    *o = if relu { v.max(0.0) } else { v };
                }
            }
        }
    }

    /// Fix up one already-stored output row in place (fallback path).
    #[inline]
    pub(crate) fn finish_row(&self, row: usize, out: &mut [f32]) {
        match *self {
            Epilogue::Store => {}
            Epilogue::Bias(bias) => {
                let bv = bias[row];
                for o in out.iter_mut() {
                    *o += bv;
                }
            }
            Epilogue::ScaleShift { scale, shift, relu } => {
                let (s, t) = (scale[row], shift[row]);
                for o in out.iter_mut() {
                    let v = s * *o + t;
                    *o = if relu { v.max(0.0) } else { v };
                }
            }
        }
    }
}

// ------------------------------------------------------------------------
// Packing
// ------------------------------------------------------------------------

/// Pack `B[k,n]` (row stride `n`) into NR-wide column panels:
/// `out[panel·k·NR + p·NR + lane] = B[p][panel·NR + lane]`, zero-padded in
/// the last panel. `k` here is the contraction length (number of B rows).
fn pack_b_panels(bd: &[f32], k: usize, n: usize, out: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    out.clear();
    out.resize(panels * k * NR, 0.0);
    for panel in 0..panels {
        let j0 = panel * NR;
        let w = NR.min(n - j0);
        let dst = &mut out[panel * k * NR..(panel + 1) * k * NR];
        for (p, lanes) in dst.chunks_exact_mut(NR).enumerate() {
            let src = &bd[p * n + j0..p * n + j0 + w];
            // A full panel row has a constant width the compiler copies
            // inline; only the ragged last panel pays a `memcpy` call.
            if w == NR {
                lanes.copy_from_slice(&src[..NR]);
            } else {
                lanes[..w].copy_from_slice(src);
            }
        }
    }
}

/// Pack row-major `A[m,k]` into MR-row tiles stored back to back: tile
/// `t` (rows `t·MR..`) is `out[t·k·MR + p·MR + r] = A[t·MR+r][p]`, with
/// rows past `m` zero-padded (they contribute nothing and are never
/// written back).
pub(crate) fn pack_a_tiles(ad: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(m.div_ceil(MR) * k * MR, 0.0);
    for i in 0..m {
        let tile = &mut out[i / MR * k * MR..];
        for (p, &v) in ad[i * k..(i + 1) * k].iter().enumerate() {
            tile[p * MR + i % MR] = v;
        }
    }
}

/// Pack *transposed* `A` for `Aᵀ·B` the same way: output row `j` of `C`
/// is column `j` of `A[m,k]`, so tile `t` is `out[t·m·MR + i·MR + r] =
/// A[i][t·MR+r]`, with the contraction index `i` running over the `m`
/// rows of `A`.
pub(crate) fn pack_at_tiles(ad: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(k.div_ceil(MR) * m * MR, 0.0);
    for t in 0..k.div_ceil(MR) {
        let (row0, h) = (t * MR, MR.min(k - t * MR));
        let tile = &mut out[t * m * MR..(t + 1) * m * MR];
        for (i, lanes) in tile.chunks_exact_mut(MR).enumerate() {
            let src = &ad[i * k + row0..i * k + row0 + h];
            // Constant width for full tiles, so the copy is inlined.
            if h == MR {
                lanes.copy_from_slice(&src[..MR]);
            } else {
                lanes[..h].copy_from_slice(src);
            }
        }
    }
}

// ------------------------------------------------------------------------
// Microkernel
// ------------------------------------------------------------------------

/// The register microkernel: accumulate an MR×NR output tile over a
/// contraction of length `k`. `ap` is a packed A tile (`k·MR`), `bp` a
/// packed B panel (`k·NR`). Each accumulator element follows a single
/// chain in strictly ascending `p`, so reassociation never happens and
/// the result is bitwise equal to the scalar `ikj` loop.
#[inline(always)]
fn microkernel(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    for p in 0..k {
        let b = &bp[p * NR..p * NR + NR];
        let a = &ap[p * MR..p * MR + MR];
        for r in 0..MR {
            let av = a[r];
            for (c, &bv) in b.iter().enumerate() {
                acc[r][c] += av * bv;
            }
        }
    }
}

/// Run the microkernel over rows `first_row..first_row + rows`
/// (`first_row` MR-aligned) and every one of `panels` B panels, handing
/// each finished accumulator row to `write(row, panel, acc)` with `row`
/// relative to `first_row`. `kc` is the contraction length, `apack` every
/// A tile and `bpack` every B panel.
#[inline(always)]
fn for_each_tile_row(
    apack: &[f32],
    bpack: &[f32],
    kc: usize,
    rows: usize,
    first_row: usize,
    panels: usize,
    mut write: impl FnMut(usize, usize, &[f32; NR]),
) {
    let mut r0 = 0usize;
    while r0 < rows {
        let h = MR.min(rows - r0);
        let t = (first_row + r0) / MR;
        let tile = &apack[t * kc * MR..(t + 1) * kc * MR];
        for panel in 0..panels {
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(tile, &bpack[panel * kc * NR..(panel + 1) * kc * NR], kc, &mut acc);
            for (r, row) in acc[..h].iter().enumerate() {
                write(r0 + r, panel, row);
            }
        }
        r0 += h;
    }
}

/// Compute rows `first_row..first_row+rows` (`first_row` MR-aligned) of
/// a packed contraction into `out` (a block of whole `n`-wide rows).
/// Shared by the `A·B` and `Aᵀ·B` drivers — only the A packing
/// ([`pack_a_tiles`] or [`pack_at_tiles`]) differs.
fn gemm_packed_rows(
    apack: &[f32],
    bpack: &[f32],
    kc: usize,
    n: usize,
    out: &mut [f32],
    first_row: usize,
    epi: Epilogue<'_>,
) {
    if n == 0 {
        return;
    }
    let rows = out.len() / n;
    for_each_tile_row(apack, bpack, kc, rows, first_row, n.div_ceil(NR), |row, panel, acc| {
        let j0 = panel * NR;
        let w = NR.min(n - j0);
        epi.write(first_row + row, &acc[..w], &mut out[row * n + j0..row * n + j0 + w]);
    });
}

/// All `m` rows of `C = A·B` for one column group, serial: `a_tiles` is A
/// packed by [`pack_a_tiles`] or [`pack_at_tiles`], `bpack` the group's
/// B panels (contraction length `kc`), and `runs` maps each panel's
/// lanes to `out`: row `i` of a run lands at `out[i·row_stride + run.off
/// ..][..run.len]` through the epilogue. This is how a conv writes each
/// batch item's output rows from one GEMM over the whole group.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_panel_runs(
    a_tiles: &[f32],
    bpack: &[f32],
    kc: usize,
    m: usize,
    runs: &PanelRuns,
    row_stride: usize,
    out: &mut [f32],
    epi: Epilogue<'_>,
) {
    for_each_tile_row(a_tiles, bpack, kc, m, 0, runs.panels(), |row, panel, acc| {
        let base = row * row_stride;
        for run in runs.panel(panel) {
            let dst = &mut out[base + run.off..base + run.off + run.len];
            epi.write(row, &acc[run.lane..run.lane + run.len], dst);
        }
    });
}

/// Run a packed contraction (`Epilogue::Store`) writing whole `n`-wide
/// rows of `out`: serially for one task, else as MR-aligned row blocks
/// on the pool (so no microtile straddles a task boundary), every task
/// reading the same packed operands.
fn gemm_packed(apack: &[f32], bpack: &[f32], kc: usize, n: usize, out: &mut [f32], tasks: usize) {
    if tasks <= 1 {
        gemm_packed_rows(apack, bpack, kc, n, out, 0, Epilogue::Store);
        return;
    }
    let chunk_rows = (out.len() / n).div_ceil(MR).div_ceil(tasks) * MR;
    par::par_chunks_mut(out, chunk_rows * n, |ci, chunk| {
        gemm_packed_rows(apack, bpack, kc, n, chunk, ci * chunk_rows, Epilogue::Store);
    });
}

// ------------------------------------------------------------------------
// C = A·B
// ------------------------------------------------------------------------

/// Plain `ikj` fallback for tiny contractions (same ascending
/// accumulation order as the packed path, so bitwise identical).
fn matmul_rows_naive(
    ad: &[f32],
    bd: &[f32],
    out: &mut [f32],
    first_row: usize,
    k: usize,
    n: usize,
    epi: Epilogue<'_>,
) {
    for (r, c_row) in out.chunks_exact_mut(n).enumerate() {
        let i = first_row + r;
        let a_row = &ad[i * k..(i + 1) * k];
        c_row.fill(0.0);
        for (p, &apk) in a_row.iter().enumerate() {
            let b_row = &bd[p * n..(p + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += apk * bv;
            }
        }
        epi.finish_row(i, c_row);
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    debug_assert_eq!(ka, kb, "matmul: inner dims {ka} vs {kb}");
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    if m == 0 || n == 0 {
        return c;
    }
    let flops = 2 * m * ka * n;
    if flops < PACK_MIN_FLOPS {
        matmul_rows_naive(ad, bd, c.data_mut(), 0, ka, n, Epilogue::Store);
        return c;
    }
    // Pack both operands once on the calling thread; every row-block task
    // reads the same packed tiles and panels.
    let (mut apack, mut bpack) = (take_pack_a(), take_pack_b());
    pack_a_tiles(ad, m, ka, &mut apack);
    pack_b_panels(bd, ka, n, &mut bpack);
    let tasks = row_tasks(m, MR, flops, TASK_FLOPS_AB, par::current_threads());
    gemm_packed(&apack, &bpack, ka, n, c.data_mut(), tasks);
    put_pack_a(apack);
    put_pack_b(bpack);
    c
}

// ------------------------------------------------------------------------
// C = Aᵀ·B
// ------------------------------------------------------------------------

/// Naive fallback for `C = Aᵀ·B` (row-scatter order: ascending `i` per
/// element, bitwise identical to the packed path).
fn at_b_rows_naive(
    ad: &[f32],
    bd: &[f32],
    out: &mut [f32],
    first_row: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    out.fill(0.0);
    let rows = out.len() / n.max(1);
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let b_row = &bd[i * n..(i + 1) * n];
        for r in 0..rows {
            let apv = a_row[first_row + r];
            let c_row = &mut out[r * n..(r + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += apv * bv;
            }
        }
    }
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` where `A` is `[m,k]`.
///
/// Never materialises the transpose as such: A is packed straight into
/// MR-column tiles. Parallel tasks own disjoint MR-aligned bands of
/// output rows `p`; each element accumulates over `i` in ascending order,
/// exactly like the serial (and historical) kernel.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (mb, n) = (b.dims()[0], b.dims()[1]);
    debug_assert_eq!(m, mb, "matmul_at_b: outer dims {m} vs {mb}");
    let mut c = Tensor::zeros(&[k, n]);
    let (ad, bd) = (a.data(), b.data());
    if k == 0 || n == 0 {
        return c;
    }
    let flops = 2 * m * k * n;
    if flops < PACK_MIN_FLOPS {
        at_b_rows_naive(ad, bd, c.data_mut(), 0, m, k, n);
        return c;
    }
    let (mut apack, mut bpack) = (take_pack_a(), take_pack_b());
    pack_at_tiles(ad, m, k, &mut apack);
    pack_b_panels(bd, m, n, &mut bpack);
    let tasks = row_tasks(k, MR, flops, TASK_FLOPS_AT_B, par::current_threads());
    gemm_packed(&apack, &bpack, m, n, c.data_mut(), tasks);
    put_pack_a(apack);
    put_pack_b(bpack);
    c
}

// ------------------------------------------------------------------------
// C = A·Bᵀ
// ------------------------------------------------------------------------

/// Four-lane strided dot product with a **fixed combine order**.
///
/// Lane `l` accumulates elements `l, l+4, l+8, …` (which the compiler
/// vectorises into one 4-wide SIMD accumulator); the lanes are then
/// combined as `(lane0 + lane1) + (lane2 + lane3)`, and the `len % 4`
/// tail elements are added one by one in ascending order. This order
/// depends only on the vector length — never on threading or
/// partitioning — which is what keeps `matmul_a_bt` bitwise reproducible
/// at any thread count.
#[inline]
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let (a4, a_tail) = a.split_at(a.len() / 4 * 4);
    let (b4, b_tail) = b.split_at(a4.len());
    for (ca, cb) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&av, &bv) in a_tail.iter().zip(b_tail) {
        sum += av * bv;
    }
    sum
}

/// Rows `first_row ..` of `C = A·Bᵀ` into `out` (a block of whole rows).
/// Both operand rows are contiguous, so each output element is one
/// [`dot4`] over hot cache lines.
fn a_bt_rows(ad: &[f32], bd: &[f32], out: &mut [f32], first_row: usize, n: usize, k: usize) {
    for (r, c_row) in out.chunks_exact_mut(k).enumerate() {
        let i = first_row + r;
        let a_row = &ad[i * n..(i + 1) * n];
        for (j, cv) in c_row.iter_mut().enumerate() {
            *cv = dot4(a_row, &bd[j * n..(j + 1) * n]);
        }
    }
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` where `B` is `[k,n]`.
///
/// Inner loop is a [`dot4`] over contiguous rows of both operands, so
/// every output element is independent and row blocks parallelise freely.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let (k, nb) = (b.dims()[0], b.dims()[1]);
    debug_assert_eq!(n, nb, "matmul_a_bt: inner dims {n} vs {nb}");
    let mut c = Tensor::zeros(&[m, k]);
    let (ad, bd) = (a.data(), b.data());
    if m == 0 || k == 0 {
        return c;
    }
    let flops = 2 * m * n * k;
    let tasks = row_tasks(m, 1, flops, TASK_FLOPS_A_BT, par::current_threads());
    if tasks <= 1 {
        a_bt_rows(ad, bd, c.data_mut(), 0, n, k);
    } else {
        let chunk_rows = m.div_ceil(tasks);
        par::par_chunks_mut(c.data_mut(), chunk_rows * k, |ci, chunk| {
            a_bt_rows(ad, bd, chunk, ci * chunk_rows, n, k);
        });
    }
    c
}

// ------------------------------------------------------------------------
// Conv weight gradient: dW += Σ_b gout_b · cols_bᵀ
// ------------------------------------------------------------------------

/// Accumulate a convolution's weight gradient over a batch straight into
/// `grad` (`[m, k]`): `grad[o][r] += Σ_j gout_b[o][j]·cols_b[r][j]` for
/// items `b = 0, 1, …, n−1` in turn. `gout` is `[n, m, ohw]`; `cols` holds
/// the lowered columns as `Conv2d`'s forward left them — groups of `group`
/// items back to back, each `group·ohw` columns of `k` rows in NR-wide
/// panels (the last group may be short).
///
/// Per element and item the sum is exactly [`dot4`]`(gout_b[o],
/// cols_b[r])`: lane `l` is a multiply–add chain over `j = 4t + l` in
/// ascending `t`, the lanes combine as `(l0+l1)+(l2+l3)`, and the
/// `ohw % 4` tail adds on in ascending order. Items then fold into the
/// element in ascending order, as a serial `+=` of per-item `A·Bᵀ`
/// products would. What is vectorised is the *set* of elements: a tile of
/// `V` output channels × `R` column rows runs its chains side by side,
/// broadcasting one column value into `V` channel lanes against the
/// output gradient transposed to `[j][channel]`. The tile shape is picked
/// from `m` — 4×2 for at most 4 channels, else 8×1 — so narrow layers
/// leave no lane idle; it changes no bits. Parallel tasks own disjoint
/// runs of tiles.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_weight_grad(
    gout: &[f32],
    cols: &[f32],
    n: usize,
    m: usize,
    k: usize,
    ohw: usize,
    group: usize,
    grad: &mut [f32],
) {
    debug_assert_eq!(gout.len(), n * m * ohw);
    debug_assert_eq!(grad.len(), m * k);
    if n == 0 || m == 0 || k == 0 {
        return;
    }
    if m <= 4 {
        weight_grad_tiles::<4, 2>(gout, cols, n, m, k, ohw, group, grad);
    } else {
        weight_grad_tiles::<8, 1>(gout, cols, n, m, k, ohw, group, grad);
    }
}

/// Read-only operands of one weight-gradient call, shared by every task.
struct WeightGrad<'a> {
    /// `gout` transposed per item and channel block: `gt[((b·blocks +
    /// blk)·ohw + j)·V + v] = gout_b[blk·V + v][j]`, zero past `m`.
    gt: &'a [f32],
    cols: &'a [f32],
    /// Offset of column `j` of the `g`-th item of a group within the
    /// group's panels (row 0): `coff[g·ohw + j]`.
    coff: &'a [usize],
    n: usize,
    blocks: usize,
    ohw: usize,
    group: usize,
    /// Floats per full group of `cols`.
    group_len: usize,
}

#[allow(clippy::too_many_arguments)]
fn weight_grad_tiles<const V: usize, const R: usize>(
    gout: &[f32],
    cols: &[f32],
    n: usize,
    m: usize,
    k: usize,
    ohw: usize,
    group: usize,
    grad: &mut [f32],
) {
    let blocks = m.div_ceil(V);
    let mut gt = vec![0.0f32; n * blocks * ohw * V];
    for (b, item) in gout.chunks_exact(m * ohw).enumerate() {
        for (o, row) in item.chunks_exact(ohw).enumerate() {
            let dst = &mut gt[(b * blocks + o / V) * ohw * V..][..ohw * V];
            for (lanes, &x) in dst.chunks_exact_mut(V).zip(row) {
                lanes[o % V] = x;
            }
        }
    }
    let coff: Vec<usize> = (0..group.min(n) * ohw).map(|c| c / NR * k * NR + c % NR).collect();
    // The gradient so far, in tile order: `acc[(blk·k + r)·V + v]` is
    // `grad[blk·V + v][r]`. Tasks own disjoint runs of its rows.
    let mut acc = vec![0.0f32; blocks * k * V];
    for (o, row) in grad.chunks_exact(k).enumerate() {
        for (r, &x) in row.iter().enumerate() {
            acc[((o / V) * k + r) * V + o % V] = x;
        }
    }
    let p = WeightGrad {
        gt: &gt,
        cols,
        coff: &coff,
        n,
        blocks,
        ohw,
        group,
        group_len: group * ohw * k,
    };
    let rows = blocks * k;
    let tasks = row_tasks(rows, R, 2 * n * m * k * ohw, TASK_FLOPS_A_BT, par::current_threads());
    let chunk = rows.div_ceil(tasks).next_multiple_of(R);
    par::par_chunks_mut(&mut acc, chunk * V, |ci, dst| {
        let first = ci * chunk;
        let end = first + dst.len() / V;
        let mut row = first;
        while row < end {
            let (blk, r) = (row / k, row % k);
            let out = &mut dst[(row - first) * V..];
            // A tile never straddles a channel block; short ones go row
            // by row.
            if R.min(end - row).min(k - r) == R {
                weight_grad_tile::<V, R>(&p, blk, r, &mut out[..R * V]);
                row += R;
            } else {
                weight_grad_tile::<V, 1>(&p, blk, r, &mut out[..V]);
                row += 1;
            }
        }
    });
    for (o, row) in grad.chunks_exact_mut(k).enumerate() {
        for (r, x) in row.iter_mut().enumerate() {
            *x = acc[((o / V) * k + r) * V + o % V];
        }
    }
}

/// One tile: channel block `blk` × column rows `r..r + R`, accumulated
/// over every item into `out` (`[R][V]`, holding the gradient so far).
#[inline(always)]
fn weight_grad_tile<const V: usize, const R: usize>(
    p: &WeightGrad<'_>,
    blk: usize,
    r: usize,
    out: &mut [f32],
) {
    let mut sum = [[0.0f32; V]; R];
    for (s, o) in sum.iter_mut().zip(out.chunks_exact(V)) {
        s.copy_from_slice(o);
    }
    let ohw = p.ohw;
    let split = ohw / 4 * 4;
    let item_gt = p.blocks * ohw * V;
    let mut gt_at = blk * ohw * V;
    let mut left = p.n;
    // Items in ascending order, walked group by group.
    for group in p.cols.chunks(p.group_len) {
        let cols = &group[r * NR..];
        for coff in p.coff.chunks_exact(ohw).take(left) {
            let gt = &p.gt[gt_at..gt_at + ohw * V];
            gt_at += item_gt;
            let mut lanes = [[[0.0f32; V]; 4]; R];
            for (g4, c4) in gt[..split * V].chunks_exact(4 * V).zip(coff[..split].chunks_exact(4)) {
                for (rr, lanes) in lanes.iter_mut().enumerate() {
                    for ((lane, gv), &c) in lanes.iter_mut().zip(g4.chunks_exact(V)).zip(c4) {
                        let cv = cols[c + rr * NR];
                        for (a, &g) in lane.iter_mut().zip(gv) {
                            *a += cv * g;
                        }
                    }
                }
            }
            for (rr, (s, l)) in sum.iter_mut().zip(&lanes).enumerate() {
                let mut dot = [0.0f32; V];
                for (v, d) in dot.iter_mut().enumerate() {
                    *d = (l[0][v] + l[1][v]) + (l[2][v] + l[3][v]);
                }
                for (gv, &c) in gt[split * V..].chunks_exact(V).zip(&coff[split..]) {
                    let cv = cols[c + rr * NR];
                    for (d, &g) in dot.iter_mut().zip(gv) {
                        *d += cv * g;
                    }
                }
                for (s, d) in s.iter_mut().zip(dot) {
                    *s += d;
                }
            }
        }
        left -= left.min(p.group);
    }
    for (o, s) in out.chunks_exact_mut(V).zip(&sum) {
        o.copy_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng_from_seed;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *c.at_mut(&[i, j]) = acc;
            }
        }
        c
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = rng_from_seed(3);
        let a = Tensor::randn(&[7, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[5, 9], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-4);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let mut rng = rng_from_seed(4);
        let a = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 8], 1.0, &mut rng);
        assert_close(&matmul_at_b(&a, &b), &naive(&a.transpose2(), &b), 1e-4);
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let mut rng = rng_from_seed(5);
        let a = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let b = Tensor::randn(&[8, 4], 1.0, &mut rng);
        assert_close(&matmul_a_bt(&a, &b), &naive(&a, &b.transpose2()), 1e-4);
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = rng_from_seed(6);
        let a = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&matmul(&a, &eye), &a, 1e-6);
    }

    #[test]
    fn degenerate_dims() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[0, 2]);
        let a = Tensor::ones(&[2, 1]);
        let b = Tensor::ones(&[1, 2]);
        assert_eq!(matmul(&a, &b).data(), &[1., 1., 1., 1.]);
        // Zero-length contraction: all-zero output, no panic.
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        assert_eq!(matmul(&a, &b).data(), &[0.0; 6]);
    }

    /// Every ragged shape around the microtile edges, on both the packed
    /// path (forced big k) and the naive fallback, against the reference.
    #[test]
    fn ragged_microtile_shapes_match_naive() {
        let mut rng = rng_from_seed(7);
        let edges = [1usize, MR - 1, MR + 1, NR - 1, NR + 1, 2 * NR + 3];
        for &m in &edges {
            for &n in &edges {
                for &k in &[1usize, 3, NR + 1, 67] {
                    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                    let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                    assert_close(&matmul(&a, &b), &naive(&a, &b), 1e-3);
                    let at = Tensor::randn(&[k, m], 1.0, &mut rng);
                    assert_close(&matmul_at_b(&at, &b), &naive(&at.transpose2(), &b), 1e-3);
                    let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
                    let abt = Tensor::randn(&[m, k], 1.0, &mut rng);
                    assert_close(&matmul_a_bt(&abt, &bt), &naive(&abt, &bt.transpose2()), 1e-3);
                }
            }
        }
    }

    /// Packed `C = A·B` over whole panels, serial, through `epi`.
    fn packed_ab(a: &Tensor, b: &Tensor, epi: Epilogue<'_>) -> Vec<f32> {
        let (m, k, n) = (a.dims()[0], a.dims()[1], b.dims()[1]);
        let (mut tiles, mut panels) = (Vec::new(), Vec::new());
        pack_a_tiles(a.data(), m, k, &mut tiles);
        pack_b_panels(b.data(), k, n, &mut panels);
        let mut out = vec![0.0f32; m * n];
        gemm_packed_rows(&tiles, &panels, k, n, &mut out, 0, epi);
        out
    }

    /// The packed path and the small-size fallback accumulate in the same
    /// order, so forcing either path must give identical bits.
    #[test]
    fn packed_and_fallback_paths_bitwise_identical() {
        let mut rng = rng_from_seed(8);
        // Big enough for packing, checked against the plain ikj loop.
        let (m, k, n) = (13, 29, 21);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let packed = packed_ab(&a, &b, Epilogue::Store);
        let mut naive_out = vec![0.0f32; m * n];
        matmul_rows_naive(a.data(), b.data(), &mut naive_out, 0, k, n, Epilogue::Store);
        assert_eq!(packed, naive_out, "matmul paths diverge");
        let at = Tensor::randn(&[k, m], 1.0, &mut rng);
        let (mut tiles, mut panels) = (Vec::new(), Vec::new());
        pack_at_tiles(at.data(), k, m, &mut tiles);
        pack_b_panels(b.data(), k, n, &mut panels);
        let mut packed_t = vec![0.0f32; m * n];
        gemm_packed_rows(&tiles, &panels, k, n, &mut packed_t, 0, Epilogue::Store);
        let mut naive_t = vec![0.0f32; m * n];
        at_b_rows_naive(at.data(), b.data(), &mut naive_t, 0, k, m, n);
        assert_eq!(packed_t, naive_t, "at_b paths diverge");
    }

    #[test]
    fn dot4_combine_order_is_fixed() {
        // ((l0+l1)+(l2+l3)) + ascending tail — spelled out by hand.
        let a: Vec<f32> = (0..11).map(|i| (i as f32) * 0.37 - 1.3).collect();
        let b: Vec<f32> = (0..11).map(|i| 2.0 - (i as f32) * 0.11).collect();
        let mut lanes = [0.0f32; 4];
        for t in 0..2 {
            for l in 0..4 {
                lanes[l] += a[4 * t + l] * b[4 * t + l];
            }
        }
        let mut expect = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in 8..11 {
            expect += a[i] * b[i];
        }
        assert_eq!(dot4(&a, &b), expect);
    }

    #[test]
    fn fused_epilogues_match_separate_passes() {
        let mut rng = rng_from_seed(9);
        let (m, k, n) = (6, 40, 18);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let base = matmul(&a, &b);
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.5 - 1.0).collect();
        let with_bias = packed_ab(&a, &b, Epilogue::Bias(&bias));
        for i in 0..m {
            for j in 0..n {
                assert_eq!(with_bias[i * n + j], base.data()[i * n + j] + bias[i]);
            }
        }
        let scale: Vec<f32> = (0..m).map(|i| 0.3 + i as f32 * 0.1).collect();
        let shift: Vec<f32> = (0..m).map(|i| -0.2 + i as f32 * 0.05).collect();
        let fused =
            packed_ab(&a, &b, Epilogue::ScaleShift { scale: &scale, shift: &shift, relu: true });
        for i in 0..m {
            for j in 0..n {
                let expect = (scale[i] * base.data()[i * n + j] + shift[i]).max(0.0);
                assert_eq!(fused[i * n + j], expect);
            }
        }
    }

    #[test]
    fn row_tasks_planning() {
        // Serial when the budget is 1, regardless of size.
        assert_eq!(row_tasks(4096, MR, usize::MAX >> 1, TASK_FLOPS_AB, 1), 1);
        // Serial when the work cannot feed two tasks at the floor.
        assert_eq!(row_tasks(64, MR, 2 * TASK_FLOPS_AB - 1, TASK_FLOPS_AB, 8), 1);
        // Splits once every task clears the floor.
        assert_eq!(row_tasks(64, MR, 2 * TASK_FLOPS_AB, TASK_FLOPS_AB, 8), 2);
        // Bounded by the thread budget and by MR-quantised rows.
        assert_eq!(row_tasks(64, MR, usize::MAX >> 1, TASK_FLOPS_AB, 4), 4);
        assert_eq!(row_tasks(7, MR, usize::MAX >> 1, TASK_FLOPS_AB, 64), 2);
    }

    /// Sizes that straddle the adaptive parallel threshold (the smallest
    /// shape whose work feeds two tasks at the per-kernel FLOP floor):
    /// threshold−1 stays serial, threshold and threshold+1 dispatch to the
    /// pool — and all of them must be bitwise identical at 1/2/3/8
    /// threads.
    #[test]
    fn threshold_straddling_sizes_bitwise_identical() {
        let mut rng = rng_from_seed(12);
        let (k, n) = (64usize, 64usize);
        // flops = 2·m·k·n, so two tasks first clear the floor at
        // m* = floor/(k·n) (same m* for A·B over rows and Aᵀ·B over the
        // contraction since both use floor 2^19).
        let m_star_ab = TASK_FLOPS_AB / (k * n);
        let m_star_abt = TASK_FLOPS_A_BT / (k * n);
        assert_eq!(row_tasks(m_star_ab - 1, MR, 2 * (m_star_ab - 1) * k * n, TASK_FLOPS_AB, 8), 1);
        assert_eq!(row_tasks(m_star_ab, MR, 2 * m_star_ab * k * n, TASK_FLOPS_AB, 8), 2);
        for dm in [-1i64, 0, 1] {
            let m_ab = (m_star_ab as i64 + dm) as usize;
            let a = Tensor::randn(&[m_ab, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let at = Tensor::randn(&[m_ab, k], 1.0, &mut rng);
            let bt_b = Tensor::randn(&[m_ab, n], 1.0, &mut rng);
            let m_bt = (m_star_abt as i64 + dm) as usize;
            let abt_a = Tensor::randn(&[m_bt, n], 1.0, &mut rng);
            let abt_b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let serial = par::with_threads(1, || {
                (matmul(&a, &b), matmul_at_b(&at, &bt_b), matmul_a_bt(&abt_a, &abt_b))
            });
            for threads in [2, 3, 8] {
                let par_out = par::with_threads(threads, || {
                    (matmul(&a, &b), matmul_at_b(&at, &bt_b), matmul_a_bt(&abt_a, &abt_b))
                });
                assert_eq!(serial.0.data(), par_out.0.data(), "matmul m*{dm:+} @ {threads}t");
                assert_eq!(serial.1.data(), par_out.1.data(), "at_b m*{dm:+} @ {threads}t");
                assert_eq!(serial.2.data(), par_out.2.data(), "a_bt m*{dm:+} @ {threads}t");
            }
        }
    }

    #[test]
    fn parallel_paths_are_bitwise_serial() {
        // Big enough to clear the adaptive threshold so the pool path runs.
        let mut rng = rng_from_seed(11);
        let a = Tensor::randn(&[96, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 80], 1.0, &mut rng);
        let b_tall = Tensor::randn(&[96, 80], 1.0, &mut rng);
        let bt = Tensor::randn(&[80, 64], 1.0, &mut rng);
        let serial = par::with_threads(1, || {
            (matmul(&a, &b), matmul_at_b(&a, &b_tall), matmul_a_bt(&a, &bt))
        });
        for threads in [2, 3, 8] {
            let par_out = par::with_threads(threads, || {
                (matmul(&a, &b), matmul_at_b(&a, &b_tall), matmul_a_bt(&a, &bt))
            });
            assert_eq!(serial.0.data(), par_out.0.data(), "matmul @ {threads}");
            assert_eq!(serial.1.data(), par_out.1.data(), "matmul_at_b @ {threads}");
            assert_eq!(serial.2.data(), par_out.2.data(), "matmul_a_bt @ {threads}");
        }
    }
}
