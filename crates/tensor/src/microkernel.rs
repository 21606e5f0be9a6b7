//! Cache-blocked, register-tiled f32 GEMM microkernel, run at the host's
//! vector width.
//!
//! The naive kernels in [`matmul`](crate::matmul) accumulate each output
//! element through a single dependent add chain, so they run at the FP-add
//! *latency* (one multiply-add every ~4 cycles) instead of the FP
//! *throughput* of the machine. This module is the packed-path replacement:
//! a BLIS-style blocked GEMM whose inner loop keeps a register tile of
//! independent accumulators live — separate add chains that the CPU can
//! overlap — while A and B stream from contiguous, tile-major packed
//! panels.
//!
//! ## Structure
//!
//! * [`PackedB`] — the right-hand operand packed once into `NR`-wide
//!   micro-panels (`data[(jt·k + kk)·NR + j]`). Execution plans pack their
//!   weight panels at compile time, so steady-state inference never repacks
//!   B. The layout is the same in every tier. Each micro-panel (tile)
//!   carries a depth *extent* past which its rows are all zero: both
//!   drivers multiply a tile only over `0 .. extent`, so a plan whose rows
//!   may not read its trailing inputs does not pay for them.
//! * `pack_a_tile` — the left-hand operand packed per call into
//!   row-interleaved micro-panels inside a reusable scratch `Vec`; the
//!   interleave follows the tile that will read it.
//! * [`gemm_packed`] — the driver: `Kc` (depth) and `Mc` (row) cache
//!   blocking around `rows_pass`, the one tile body (pack A, then per tile:
//!   resume, multiply, store), with an optional fused [`Epilogue`] (bias
//!   add, bias+activation) applied to each tile while it is still hot. A
//!   register tile spanning several micro-panels runs at their largest
//!   extent, skips the depth blocks past it and applies the epilogue in the
//!   block where it ends; no block packs A past the deepest extent.
//! * [`conv_packed`] — the convolution driver, with output *positions* in
//!   the vector lanes: a plan's [`PackedB`] filter panel is the `8`-row
//!   left-hand operand as packed (its micro-panels interleave `NR` filters
//!   per tap), and the right-hand operand is packed per call, `NR` output
//!   positions at a time, from zero-padded copies of the image's active
//!   channel planes. Each finished tile row gets its filter's bias and is
//!   stored straight into that filter's output plane — no patch matrix, no
//!   A repack, no transpose. Its group of positions is one vector wide:
//!   `NR` positions in the portable and AVX2 tiers, `2 · NR` in the
//!   AVX-512 one.
//!
//! ## Tiers and tile shapes
//!
//! The tile body is written once, generic over the tile shape and the
//! multiply, and instantiated in three instruction [`Tier`]s, chosen once
//! per process from what the CPU reports — no build flag, feature or
//! environment variable, and one binary runs everywhere:
//!
//! * **portable** — plain Rust the compiler vectorises for the build's
//!   baseline target (SSE2 on x86-64): a `4 rows × 1 panel` tile, 8
//!   four-wide accumulator vectors inside 16 XMM registers; the conv
//!   driver's `8`-row operand runs through it four rows per depth sweep.
//! * **avx2** (x86-64 with AVX2 detected) — the tile body inlined into a
//!   `#[target_feature(enable = "avx2")]` function, so its pack and store
//!   loops are compiled 8 lanes wide too, around a multiply of explicit
//!   `std::arch` intrinsics, one vector per `NR = 8` panel row. A
//!   tile is `rows × panels` with `rows · panels = 8`, so every shape keeps
//!   eight independent accumulator vectors: `8 × 1` for full tiles (full
//!   batches; the conv driver's eight filters × eight positions), and
//!   `4 × 2`, `2 × 4`, `1 × 8`
//!   for a thin batch or the ragged tail of a tall one, so a lone request
//!   row multiplies against eight weight panels at once instead of
//!   dragging seven rows of zero padding through the tile.
//! * **avx512** (x86-64 with AVX2 and AVX-512F detected) — the same, in an
//!   `#[target_feature(enable = "avx512f")]` function whose multiply holds
//!   *two* micro-panels per 16-lane vector: panel `p` in the low half,
//!   `p + 1` in the high half, at the same depth. `8 × 4` full tiles,
//!   `6 × 4` for 5–6 rows and `4 × 8` for 3–4 keep 16, 12 and 16
//!   accumulator vectors of the 32 registers; groups of 1–2 rows run the
//!   AVX2 tier's `1 × 8` / `2 × 4` code, which measured no slower. The
//!   conv driver puts sixteen positions in a vector against the eight
//!   filters of a panel tile.
//!
//! ## Bit-identity
//!
//! Results are bit-identical (`f32 ==`, with `-0.0 == 0.0`) to the
//! reference `nt_kernel` dot-product loop *in every tier and shape*,
//! because for every output element the accumulation is *sequential in `k`
//! starting from `+0.0`* with one rounded multiply followed by one rounded
//! add per term — exactly the reference order:
//!
//! * `m`/`n` tiling, the register tile and the vector lanes only regroup
//!   *independent* elements; no element's own sum is ever split or
//!   reordered.
//! * The SIMD tiers issue a multiply intrinsic then an add intrinsic —
//!   **never FMA**: a fused multiply-add rounds once where the reference
//!   rounds twice, which changes last bits. `avx512f` implies `fma`, so the
//!   AVX-512 functions *could* emit `vfmadd`; they do not because rustc
//!   never marks a multiply or an add as contractible, so LLVM may not fuse
//!   the two. The tensor crate's FMA tripwire tests and a disassembly leg
//!   of `scripts/check.sh` hold that in every tier.
//! * `Kc` blocking spills the partial sum to `out` between depth blocks; an
//!   `f32` store/load round-trip is exact, and the next block resumes the
//!   same chain (the first block *writes* its tile, so `out` needs no
//!   zero-fill).
//! * Ragged edges are zero-*padded* in `m`/`n` only: padded lanes compute
//!   garbage that is never stored. `k` is never padded or reordered.
//! * A tile's depth is *truncated* at its extent, never reordered: each
//!   chain runs its first `extent` terms in order, and the terms it drops
//!   are `0.0 · a` products at the end of the chain. An accumulator that
//!   starts at `+0.0` is never `-0.0` under round-to-nearest (`x + (-x)`
//!   is `+0.0`), so adding an exact zero to it changes no bit; dropping
//!   the trailing terms is exact for finite `a`.
//! * There is **no zero-skip branch** anywhere in this module: packed
//!   panels are dense inside their extents, so the branch could only cost; the
//!   `if aik == 0.0` skip survives solely in the masked-reference kernels
//!   (`nn`/`tn` in [`matmul`](crate::matmul)), where masked full-width
//!   operands really are mostly zero.
//!
//! Fused epilogues reproduce the downstream ops verbatim: bias is one add
//! after the finished dot product (as in the masked layers), ReLU is
//! `v.max(0.0)` and tanh is `f32::tanh` — the exact expressions
//! `stepping-nn`'s activation layers apply elementwise. Sigmoid is *not*
//! offered as an epilogue: `sigmoid(0) = 0.5`, so applying it panel-wise
//! would diverge from the masked reference on inactive (zero) entries once
//! scattered back to full width.
//!
//! ## Tuning knobs
//!
//! [`NR`]` = 8` is one AVX2 vector (two SSE ones, half an AVX-512 one) and
//! stays fixed so a [`PackedB`] serves every tier; the tile height is the
//! tier's ([`Tier::rows`]: 4 portable, 8 AVX2 and AVX-512). [`KC`]` = 256` keeps one A
//! micro-panel (`KC·8` floats ≈ 8 KiB) and one B micro-panel (`KC·NR` ≈
//! 8 KiB) L1-resident; [`MC`]` = 128` bounds the packed A block (`MC·KC` ≈
//! 128 KiB) to L2. See `docs/PERFORMANCE.md` § Microkernel for the measured
//! effect.
//!
//! ## Unsafe
//!
//! This is the one library module of the workspace allowed to contain
//! `unsafe` (the workspace denies `unsafe_code`; `mod microkernel` allows it,
//! and clippy's `undocumented_unsafe_blocks` wants a `// SAFETY:` comment
//! on every block): the pointer loads of the SIMD multiplies and
//! the calls into the SIMD instantiations of the GEMM and conv bodies. A
//! [`Tier`] can only be obtained from [`Tier::active`] /
//! [`Tier::supported`], which run the CPUID check, so holding a SIMD tier
//! is the proof the call site needs.

use std::ops::Range;
use std::sync::OnceLock;

use crate::conv::ConvGeometry;
use crate::matmul::GemmSpec;
use crate::pack::{span, PackScratch};
use crate::{Result, Shape, Tensor, TensorError};

/// Register-tile columns: accumulator lanes per row — one micro-panel of
/// [`PackedB`], one 8-lane vector (or two 4-lane ones).
pub const NR: usize = 8;
/// Depth (`k`) cache-block: A micro-panels stay L1-resident.
pub const KC: usize = 256;
/// Row (`m`) cache-block: one packed A block stays L2-resident.
pub const MC: usize = 128;

/// One `R × P` register tile's accumulators, sized to its shape:
/// `acc[i][p]` holds row `i` of micro-panel `p`.
type Acc<const R: usize, const P: usize> = [[[f32; NR]; P]; R];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// The instruction tier the microkernel's multiply runs in.
///
/// Values come only from [`Tier::active`] and [`Tier::supported`], both of
/// which ask the CPU first — a `Tier` in hand is a tier this host can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tier(Isa);

/// A register-tile shape: `rows` A rows against `panels` B micro-panels.
#[derive(Debug, Clone, Copy)]
struct TileShape {
    rows: usize,
    panels: usize,
}

/// Rows of the one shape (`4 × 1`) `microtile_portable` is written for.
const PORTABLE_ROWS: usize = 4;

/// The shapes `microtile_avx2` is instantiated for: `rows · panels = 8`
/// accumulator vectors each.
#[cfg(target_arch = "x86_64")]
const AVX2_TILES: [TileShape; 4] = [
    TileShape { rows: 1, panels: 8 },
    TileShape { rows: 2, panels: 4 },
    TileShape { rows: 4, panels: 2 },
    TileShape { rows: 8, panels: 1 },
];

/// The shapes `rows_pass_avx512` runs: the AVX2 `1 × 8` and `2 × 4` for
/// groups of 1–2 rows, then `4 × 8`, `6 × 4` and `8 × 4`, whose
/// `rows · panels / 2` accumulator vectors (16, 12, 16) hold two
/// micro-panels each. `6 × 4` takes a rest of 5–6 rows, which runs faster
/// in it than as `4 × 8` plus a thin group (docs/PERFORMANCE.md § An
/// AVX-512 tier).
#[cfg(target_arch = "x86_64")]
const AVX512_TILES: [TileShape; 5] = [
    TileShape { rows: 1, panels: 8 },
    TileShape { rows: 2, panels: 4 },
    TileShape { rows: 4, panels: 8 },
    TileShape { rows: 6, panels: 4 },
    TileShape { rows: 8, panels: 4 },
];

impl Tier {
    /// The tier [`gemm_packed`] runs in: the widest the host supports,
    /// detected on first use and fixed for the life of the process.
    pub fn active() -> Tier {
        static ACTIVE: OnceLock<Tier> = OnceLock::new();
        *ACTIVE.get_or_init(|| *Tier::supported().last().expect("portable tier"))
    }

    /// Every tier this host can run, narrowest first. For tests that hold
    /// the tiers against each other; serving code uses [`Tier::active`].
    #[doc(hidden)]
    pub fn supported() -> Vec<Tier> {
        let mut tiers = vec![Tier(Isa::Portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(Tier(Isa::Avx2));
            // the AVX-512 tier runs its thin shapes in the AVX2 multiply
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiers.push(Tier(Isa::Avx512));
            }
        }
        tiers
    }

    /// Short lower-case name (`"portable"`, `"avx2"`, `"avx512"`) for
    /// reports.
    pub fn name(self) -> &'static str {
        match self.0 {
            Isa::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
        }
    }

    /// This tier's tile shapes, shortest first; the last is the full tile.
    fn shapes(self) -> &'static [TileShape] {
        match self.0 {
            Isa::Portable => &[TileShape {
                rows: PORTABLE_ROWS,
                panels: 1,
            }],
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => &AVX2_TILES,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => &AVX512_TILES,
        }
    }

    /// Rows of this tier's full register tile.
    pub fn rows(self) -> usize {
        self.shapes().last().expect("a tier has a tile").rows
    }
}

/// The row groups `rows` runs as, each with the tile shape it runs in
/// (`shapes` shortest first, the last the full tile): the whole full tiles
/// first, then the ragged rest in the shortest shape that holds it, so
/// absent rows become extra panels instead of padding wherever the tier
/// has the shape. A rest that shape would pad by two rows or more runs as
/// the tallest shape that fits inside it, then the rows after (AVX2: 5 →
/// 4 + 1, 6 → 4 + 2; AVX-512 has a 6-row shape for both); one padded row is
/// cheaper than a second group (3 and 7 stay one `4`- and one `8`-row
/// tile).
fn row_groups(
    shapes: &[TileShape],
    rows: Range<usize>,
) -> impl Iterator<Item = (Range<usize>, TileShape)> + '_ {
    let full = shapes[shapes.len() - 1];
    let mut start = rows.start;
    std::iter::from_fn(move || {
        let left = rows.end - start;
        let (take, shape) = if left == 0 {
            return None;
        } else if left >= full.rows {
            (left - left % full.rows, full)
        } else {
            let holds = *shapes.iter().find(|s| s.rows >= left).unwrap_or(&full);
            match shapes.iter().rev().find(|s| s.rows <= left) {
                Some(&inside) if holds.rows - left >= 2 => (inside.rows, inside),
                _ => (left, holds),
            }
        };
        start += take;
        Some((start - take..start, shape))
    })
}

/// Fused per-element epilogue applied to each output tile while it is still
/// in registers, after the final depth block.
///
/// Every variant reproduces the downstream operator bit-for-bit (see the
/// module docs); `None` stores the raw accumulators.
#[derive(Debug, Clone, Copy, Default)]
pub enum Epilogue<'a> {
    /// Store the accumulators unchanged.
    #[default]
    None,
    /// `out[i][j] = acc[i][j] + bias[j]` (`bias.len() == n`).
    Bias(&'a [f32]),
    /// `out[i][j] = (acc[i][j] + bias[j]).max(0.0)` — fused ReLU.
    BiasRelu(&'a [f32]),
    /// `out[i][j] = (acc[i][j] + bias[j]).tanh()` — fused tanh.
    BiasTanh(&'a [f32]),
}

impl Epilogue<'_> {
    /// Applies the epilogue to one finished element.
    #[inline(always)]
    fn apply(&self, v: f32, j: usize) -> f32 {
        match self {
            Epilogue::None => v,
            Epilogue::Bias(bias) => v + bias[j],
            Epilogue::BiasRelu(bias) => (v + bias[j]).max(0.0),
            Epilogue::BiasTanh(bias) => (v + bias[j]).tanh(),
        }
    }

    /// Stores one finished accumulator row: `out[j] = apply(acc[j], col0 + j)`
    /// for the `out.len() <= NR` lanes the tile owns. The variant is
    /// matched once per row, not per element, so each loop is a plain
    /// lane-wise expression.
    #[inline(always)]
    fn store(&self, acc: &[f32; NR], col0: usize, out: &mut [f32]) {
        let lanes = out.iter_mut().zip(acc);
        match self {
            Epilogue::None => lanes.for_each(|(o, &v)| *o = v),
            Epilogue::Bias(bias) => lanes
                .zip(&bias[col0..])
                .for_each(|((o, &v), &b)| *o = v + b),
            Epilogue::BiasRelu(bias) => lanes
                .zip(&bias[col0..])
                .for_each(|((o, &v), &b)| *o = (v + b).max(0.0)),
            Epilogue::BiasTanh(bias) => lanes
                .zip(&bias[col0..])
                .for_each(|((o, &v), &b)| *o = (v + b).tanh()),
        }
    }

    fn check(&self, n: usize) {
        let len = match self {
            Epilogue::None => return,
            Epilogue::Bias(b) | Epilogue::BiasRelu(b) | Epilogue::BiasTanh(b) => b.len(),
        };
        assert!(len >= n, "epilogue bias shorter than output width");
    }
}

/// The right-hand GEMM operand packed into `NR`-wide, `k`-major
/// micro-panels: `data[(jt·k + kk)·NR + j]` holds `B[jt·NR + j, kk]` (of
/// the *logical* `[n, k]` operand `Bᵀ` reads against), zero-padded in the
/// lane dimension.
///
/// Each micro-panel (*tile*) carries a depth *extent*: the drivers multiply
/// tile `jt` over depth `0 .. extents()[jt]` only, and everything past it is
/// `0.0` in every row of the tile. [`pack_nt`](Self::pack_nt) and
/// [`pack_nn`](Self::pack_nn) set every extent to `k`;
/// [`pack_nt_extents`](Self::pack_nt_extents) cuts each row short.
///
/// Packing is done once — by the layer-plan compiler for weights, or by
/// [`PackedB::pack_nt`]/[`PackedB::pack_nn`] for ad-hoc operands — and
/// reused by every subsequent [`gemm_packed`] call.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    data: Vec<f32>,
    n: usize,
    k: usize,
    extents: Vec<usize>,
}

impl PackedB {
    /// Packs a row-major `[n, k]` operand (the NT/`matmul_bt` weight
    /// layout: one row per output, contiguous over `k`).
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `n * k`.
    pub fn pack_nt(b: &[f32], n: usize, k: usize) -> PackedB {
        PackedB::pack_nt_extents(b, n, k, &vec![k; n])
    }

    /// [`pack_nt`](Self::pack_nt) with row `j` read only over depth
    /// `0 .. row_extents[j]`: the entries past it are packed as `0.0`, and
    /// each tile's extent is the largest of its rows'. A product against
    /// the panel equals one against `b` with those entries zeroed, bit for
    /// bit — a chain from `+0.0` never turns `-0.0`, so its trailing `0.0 ·
    /// a` terms (finite `a`) cannot change it — while the drivers skip the
    /// depth past each tile's extent.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `n * k`, or `row_extents` does not
    /// hold `n` values of at most `k`.
    pub fn pack_nt_extents(b: &[f32], n: usize, k: usize, row_extents: &[usize]) -> PackedB {
        assert!(b.len() >= n * k, "pack_nt operand too short");
        assert!(
            row_extents.len() == n && row_extents.iter().all(|&e| e <= k),
            "pack_nt needs one extent of at most k per row"
        );
        let ntiles = n.div_ceil(NR);
        let mut data = vec![0.0f32; ntiles * k * NR];
        for jt in 0..ntiles {
            let nr_act = NR.min(n - jt * NR);
            let panel = &mut data[jt * k * NR..(jt + 1) * k * NR];
            for j in 0..nr_act {
                let row = jt * NR + j;
                let src = &b[row * k..row * k + row_extents[row]];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * NR + j] = v;
                }
            }
        }
        let extents = row_extents
            .chunks(NR)
            .map(|rows| rows.iter().copied().max().unwrap_or(0))
            .collect();
        PackedB {
            data,
            n,
            k,
            extents,
        }
    }

    /// Packs a row-major `[k, n]` operand (the NN layout: `k` rows of
    /// width `n`, copied as contiguous `NR`-lane runs).
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than `k * n`.
    pub fn pack_nn(b: &[f32], k: usize, n: usize) -> PackedB {
        assert!(b.len() >= k * n, "pack_nn operand too short");
        let ntiles = n.div_ceil(NR);
        let mut data = vec![0.0f32; ntiles * k * NR];
        for jt in 0..ntiles {
            let nr_act = NR.min(n - jt * NR);
            let panel = &mut data[jt * k * NR..(jt + 1) * k * NR];
            for kk in 0..k {
                let src = &b[kk * n + jt * NR..kk * n + jt * NR + nr_act];
                panel[kk * NR..kk * NR + nr_act].copy_from_slice(src);
            }
        }
        PackedB {
            data,
            n,
            k,
            extents: vec![k; ntiles],
        }
    }

    /// Logical output width `n` (columns of the product).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Logical depth `k` (inner dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The depth extent of each `NR`-wide tile, in tile order.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Multiply-adds one left-hand row costs against this panel: each
    /// tile's real rows times its extent, summed. The SIMD tiers' tile
    /// shapes run a group of up to eight tiles at the group's largest
    /// extent, so a batch may execute more.
    pub fn macs(&self) -> u64 {
        let rows = |jt: usize| NR.min(self.n - jt * NR);
        let per_tile = self.extents.iter().enumerate().map(|(jt, &e)| rows(jt) * e);
        per_tile.sum::<usize>() as u64
    }

    /// The largest extent among tiles `tiles`: the depth a register tile
    /// spanning them multiplies over.
    fn extent_of(&self, tiles: Range<usize>) -> usize {
        self.extents[tiles].iter().copied().max().unwrap_or(0)
    }
}

/// The portable tier's multiply: accumulates an `R × 1` tile over the depth
/// of `apanel` (groups of `R` interleaved A values) against `bpanel` (groups
/// of `NR` interleaved B values), four rows per sweep of the depth — as
/// many as the baseline's registers hold; per element the depth order is
/// strictly ascending, matching the reference dot product.
#[inline(always)]
fn microtile_portable<const R: usize>(apanel: &[f32], bpanel: &[f32], acc: &mut Acc<R, 1>) {
    const H: usize = PORTABLE_ROWS;
    for row0 in (0..R).step_by(H) {
        // Work on a by-value copy so the accumulators are locals LLVM can
        // hold in vector registers across the depth loop, instead of memory
        // the caller's `&mut` points at.
        let mut local: [[f32; NR]; H] = std::array::from_fn(|i| acc[row0 + i][0]);
        for (av, bv) in apanel.chunks_exact(R).zip(bpanel.chunks_exact(NR)) {
            let av: &[f32; H] = av[row0..row0 + H].try_into().expect("row chunk");
            let bv: &[f32; NR] = bv.try_into().expect("NR chunk");
            for j in 0..NR {
                let b = bv[j];
                local[0][j] += av[0] * b;
                local[1][j] += av[1] * b;
                local[2][j] += av[2] * b;
                local[3][j] += av[3] * b;
            }
        }
        for (row, local) in acc[row0..row0 + H].iter_mut().zip(local) {
            row[0] = local;
        }
    }
}

/// A SIMD multiply's right-hand operand: micro-panel `p` holds `NR` values
/// per depth step `kk` at `b[p·stride + kk·step]`, and only the first `pn`
/// panels exist — a ragged last group re-reads panel `pn - 1` in the
/// missing slots, and the tile body never stores those accumulators.
#[derive(Clone, Copy)]
struct Panels<'a> {
    b: &'a [f32],
    stride: usize,
    step: usize,
    pn: usize,
}

impl Panels<'_> {
    /// Where each of `P` panel slots starts, once `b` is checked to hold
    /// `kc` depth steps of every real panel: reading `NR` floats at
    /// `starts[p] + kk·step` is then in bounds for every `kk < kc`.
    #[inline(always)]
    fn starts<const P: usize>(&self, kc: usize) -> [*const f32; P] {
        let (stride, step, pn) = (self.stride, self.step, self.pn);
        assert!((1..=P).contains(&pn));
        assert!(kc == 0 || self.b.len() >= (pn - 1) * stride + (kc - 1) * step + NR);
        std::array::from_fn(|p| self.b.as_ptr().wrapping_add(p.min(pn - 1) * stride))
    }
}

/// The AVX2 tier's multiply: accumulates an `R × P` tile (`R · P = 8`
/// accumulator vectors) over the depth of `apanel` (groups of `R`
/// interleaved A values) against `panels`, resuming the sums in `acc` or,
/// unless `resume`, starting them from zeroed registers.
///
/// Each term is `_mm256_mul_ps` then `_mm256_add_ps` — two roundings, like
/// the reference — and the function enables `avx2` only, so no FMA can be
/// emitted here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn microtile_avx2<const R: usize, const P: usize>(
    apanel: &[f32],
    panels: Panels,
    acc: &mut Acc<R, P>,
    resume: bool,
) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let kc = apanel.len() / R;
    assert!(R * P == 8);
    let ap = apanel.as_ptr();
    let bp = panels.starts::<P>(kc);
    // SAFETY: avx2 is enabled on this function, which is all the intrinsics
    // need. Every load is in bounds: `ap` is read at `kk·R + i < kc·R <=
    // apanel.len()`, each `bp[p]` at `kk·step .. kk·step + 8` with `kk <
    // kc`, inside `b` by `starts`, and each `acc[i][p]` is exactly 8 floats.
    unsafe {
        let mut c: [[__m256; P]; R] = std::array::from_fn(|i| {
            std::array::from_fn(|p| {
                if resume {
                    _mm256_loadu_ps(acc[i][p].as_ptr())
                } else {
                    _mm256_setzero_ps()
                }
            })
        });
        for kk in 0..kc {
            let bv: [__m256; P] =
                std::array::from_fn(|p| _mm256_loadu_ps(bp[p].add(kk * panels.step)));
            for (i, row) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*ap.add(kk * R + i));
                for (v, &b) in row.iter_mut().zip(&bv) {
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(a, b));
                }
            }
        }
        for (row, v) in acc.iter_mut().flatten().zip(c.iter().flatten()) {
            _mm256_storeu_ps(row.as_mut_ptr(), *v);
        }
    }
}

/// The AVX-512 tier's multiply: the AVX2 one with two micro-panels per
/// vector — vector `q` of a row holds panel `2q` in its low half and
/// `2q + 1` in its high half, at the same depth — so an `R × P` tile keeps
/// `R · P / 2` accumulator vectors. It runs the first `Q` vectors of each
/// row (`2Q <= P`, and `panels.pn <= 2Q`): the panels past `2Q` are absent
/// from a ragged group, and their accumulators are neither loaded nor
/// stored. A vector is built from two 8-float loads and
/// `_mm512_insertf64x4`, which needs `avx512f` alone.
///
/// Each term is `_mm512_mul_ps` then `_mm512_add_ps`. `avx512f` implies
/// `fma`, but rustc never marks the two as contractible, so LLVM keeps
/// them apart; the FMA tripwire tests hold that.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn microtile_avx512<const R: usize, const P: usize, const Q: usize>(
    apanel: &[f32],
    panels: Panels,
    acc: &mut Acc<R, P>,
    resume: bool,
) {
    use std::arch::x86_64::{
        __m512, _mm256_castps_pd, _mm256_loadu_ps, _mm512_add_ps, _mm512_castpd_ps,
        _mm512_castps256_ps512, _mm512_castps_pd, _mm512_insertf64x4, _mm512_loadu_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    let kc = apanel.len() / R;
    assert!(2 * Q <= P && panels.pn <= 2 * Q);
    let ap = apanel.as_ptr();
    let bp = panels.starts::<P>(kc);
    // SAFETY: avx512f is enabled on this function, which is all the
    // intrinsics need. Every load is in bounds: `ap` is read at `kk·R + i <
    // kc·R <= apanel.len()`, each `bp[p]` at `kk·step .. kk·step + 8` with
    // `kk < kc`, inside `b` by `starts`, and vector `q < Q` of row `i` is
    // `acc[i]`'s floats `16q .. 16q + 16`, inside its `8 · P >= 16 · Q`.
    unsafe {
        let mut c: [[__m512; Q]; R] = std::array::from_fn(|i| {
            let row = acc[i].as_flattened().as_ptr();
            std::array::from_fn(|q| {
                if resume {
                    _mm512_loadu_ps(row.add(16 * q))
                } else {
                    _mm512_setzero_ps()
                }
            })
        });
        for kk in 0..kc {
            let bv: [__m512; Q] = std::array::from_fn(|q| {
                let lo = _mm256_loadu_ps(bp[2 * q].add(kk * panels.step));
                let hi = _mm256_loadu_ps(bp[2 * q + 1].add(kk * panels.step));
                let wide = _mm512_castps_pd(_mm512_castps256_ps512(lo));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(wide, _mm256_castps_pd(hi)))
            });
            for (i, row) in c.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*ap.add(kk * R + i));
                for (v, &b) in row.iter_mut().zip(&bv) {
                    *v = _mm512_add_ps(*v, _mm512_mul_ps(a, b));
                }
            }
        }
        for (row, vs) in acc.iter_mut().zip(&c) {
            let row = row.as_flattened_mut().as_mut_ptr();
            for (q, &v) in vs.iter().enumerate() {
                _mm512_storeu_ps(row.add(16 * q), v);
            }
        }
    }
}

/// Grows `buf` to `len` elements without re-zeroing retained capacity.
///
/// The packed kernels fully overwrite what they read back, so a reused
/// scratch buffer only pays initialisation for freshly grown capacity —
/// this is the steady-state "no redundant zero-fill" path shared with
/// [`pack`](crate::pack).
pub fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() >= len {
        buf.truncate(len);
    } else {
        buf.resize(len, 0.0);
    }
}

/// Packs rows `rows` × depth `depth` of A into one `mr`-interleaved
/// micro-panel (`dst[kk·mr + i]`, `dst.len() == depth.len() · mr`),
/// zero-padding the rows a ragged tile lacks. `trans_a` reads A as
/// `[k_total, m]` (TN/TT layouts).
#[inline(always)]
fn pack_a_tile(
    a: &[f32],
    trans_a: bool,
    (m, k): (usize, usize),
    rows: Range<usize>,
    depth: Range<usize>,
    mr: usize,
    dst: &mut [f32],
) {
    let (row0, mr_act) = (rows.start, rows.len());
    let (pc, kc) = (depth.start, depth.len());
    if trans_a {
        for (kk, d) in dst.chunks_exact_mut(mr).enumerate() {
            let arow = &a[(pc + kk) * m..(pc + kk) * m + m];
            for (i, v) in d.iter_mut().enumerate() {
                *v = if i < mr_act { arow[row0 + i] } else { 0.0 };
            }
        }
    } else {
        for i in 0..mr {
            if i < mr_act {
                let arow = &a[(row0 + i) * k + pc..(row0 + i) * k + pc + kc];
                for (kk, &v) in arow.iter().enumerate() {
                    dst[kk * mr + i] = v;
                }
            } else {
                for kk in 0..kc {
                    dst[kk * mr + i] = 0.0;
                }
            }
        }
    }
}

/// Blocked, register-tiled `C = op(A) · Bᵀ_packed` into a caller-sized
/// slice (`out.len() == m * b.n()`), in the host's [`Tier::active`] tier.
///
/// `a` is row-major `[m, k]` (or `[k, m]` with `trans_a`); `b` carries the
/// packed right-hand operand, its `k`/`n` sizes and its tiles' depth
/// extents; `apack` is reusable
/// A-packing scratch (zero steady-state allocation once grown); `epi` is
/// fused into the final store of each tile.
///
/// Every output element is written (first depth block stores, later blocks
/// read-modify-write), so `out` does not need to be zeroed beforehand.
/// Results are bit-identical to the reference `nt_kernel` loop in every
/// tier — see the module docs for the argument.
///
/// # Panics
///
/// Panics if `a`, `out`, or an epilogue bias is shorter than its implied
/// extent.
pub fn gemm_packed(
    a: &[f32],
    trans_a: bool,
    b: &PackedB,
    out: &mut [f32],
    m: usize,
    apack: &mut Vec<f32>,
    epi: Epilogue,
) {
    gemm_packed_tier(Tier::active(), a, trans_a, b, out, m, apack, epi);
}

/// What one `(Kc, Mc)` block pass needs besides its rows: the operands and
/// the depth block `pc .. pc + kc` its A pack covers (a tile group whose
/// extent ends inside the block multiplies only up to that extent).
struct Block<'a> {
    a: &'a [f32],
    trans_a: bool,
    m: usize,
    b: &'a PackedB,
    pc: usize,
    kc: usize,
    epi: Epilogue<'a>,
}

/// The one tile body, generic over the tile shape and the multiply: packs
/// `rows` of A into `R`-row micro-panels, then for every group of `P`
/// micro-panels of B and every row tile resumes the accumulators from
/// `out` (unless this is the first depth block, whose `mul` starts from
/// zero), runs `mul` over the part of the depth block inside the group's
/// extent and stores the tile —
/// through the epilogue in the block that holds the extent's end (the
/// first block for an extent of 0, which stores `epilogue(0.0)`). A group
/// skips every block past its extent. `#[inline(always)]` so that each
/// tier's instantiation is compiled whole, pack and store loops included,
/// with that tier's instructions.
#[inline(always)]
fn rows_pass<const R: usize, const P: usize>(
    blk: &Block,
    rows: Range<usize>,
    apack: &mut Vec<f32>,
    out: &mut [f32],
    mul: impl Fn(&[f32], Panels, &mut Acc<R, P>, bool),
) {
    let (k, n) = (blk.b.k, blk.b.n);
    let (pc, kc) = (blk.pc, blk.kc);
    let first = pc == 0;
    let panel_len = kc * R;
    let apack = span(apack, rows.len().div_ceil(R) * panel_len);
    for (it, dst) in apack.chunks_exact_mut(panel_len).enumerate() {
        let row0 = rows.start + it * R;
        let tile_rows = row0..rows.end.min(row0 + R);
        pack_a_tile(
            blk.a,
            blk.trans_a,
            (blk.m, k),
            tile_rows,
            pc..pc + kc,
            R,
            dst,
        );
    }
    let ntiles = n.div_ceil(NR);
    for jt in (0..ntiles).step_by(P) {
        let pn = P.min(ntiles - jt);
        let extent = blk.b.extent_of(jt..jt + pn);
        if !first && extent <= pc {
            // finished in an earlier block
            continue;
        }
        let (depth, last) = (kc.min(extent - pc), pc + kc >= extent);
        let panels = Panels {
            b: &blk.b.data[(jt * k + pc) * NR..],
            stride: k * NR,
            step: NR,
            pn,
        };
        for (it, apanel) in apack.chunks_exact(panel_len).enumerate() {
            let row0 = rows.start + it * R;
            let mr_act = R.min(rows.end - row0);
            // the slice of `out` behind accumulator (i, p)
            let span = |i: usize, p: usize| {
                let col0 = (jt + p) * NR;
                (row0 + i) * n + col0..(row0 + i) * n + n.min(col0 + NR)
            };
            let mut acc: Acc<R, P> = [[[0.0; NR]; P]; R];
            if !first {
                // Resume each element's chain from its spilled partial sum
                // (exact f32 round-trip).
                for i in 0..mr_act {
                    for p in 0..pn {
                        let orow = &out[span(i, p)];
                        acc[i][p][..orow.len()].copy_from_slice(orow);
                    }
                }
            }
            mul(&apanel[..depth * R], panels, &mut acc, !first);
            for i in 0..mr_act {
                for p in 0..pn {
                    let row = &acc[i][p];
                    let orow = &mut out[span(i, p)];
                    if last {
                        blk.epi.store(row, (jt + p) * NR, orow);
                    } else {
                        let len = orow.len();
                        orow.copy_from_slice(&row[..len]);
                    }
                }
            }
        }
    }
}

/// [`rows_pass`] with the AVX2 multiply, in the tile `shape`: everything
/// inlined into this function — the tile body around the multiply too — is
/// compiled with `avx2` enabled. Never inlined, so the AVX-512 tier's thin
/// shapes run this very code rather than a copy recompiled under
/// `avx512f`, which measured slower.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn rows_pass_avx2(
    shape: TileShape,
    blk: &Block,
    rows: Range<usize>,
    apack: &mut Vec<f32>,
    out: &mut [f32],
) {
    // the closures inherit this function's `avx2`, which is what lets them
    // call the `avx2` multiply as a safe function
    match (shape.rows, shape.panels) {
        (8, 1) => rows_pass::<8, 1>(blk, rows, apack, out, |a, b, acc, resume| {
            microtile_avx2::<8, 1>(a, b, acc, resume)
        }),
        (4, 2) => rows_pass::<4, 2>(blk, rows, apack, out, |a, b, acc, resume| {
            microtile_avx2::<4, 2>(a, b, acc, resume)
        }),
        (2, 4) => rows_pass::<2, 4>(blk, rows, apack, out, |a, b, acc, resume| {
            microtile_avx2::<2, 4>(a, b, acc, resume)
        }),
        (1, 8) => rows_pass::<1, 8>(blk, rows, apack, out, |a, b, acc, resume| {
            microtile_avx2::<1, 8>(a, b, acc, resume)
        }),
        _ => unreachable!("{shape:?} is not one of AVX2_TILES"),
    }
}

/// [`rows_pass`] in the AVX-512 tier's tile `shape`: everything inlined into
/// this function is compiled with `avx512f` enabled; the thin shapes call
/// [`rows_pass_avx2`], which `avx512f` (implying `avx2`) makes a safe call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn rows_pass_avx512(
    shape: TileShape,
    blk: &Block,
    rows: Range<usize>,
    apack: &mut Vec<f32>,
    out: &mut [f32],
) {
    // each multiply runs the fewest vectors that hold the group's `pn`
    // panels, so a ragged last group multiplies no pair of re-read panels
    match (shape.rows, shape.panels) {
        (8, 4) => rows_pass::<8, 4>(blk, rows, apack, out, |a, b, acc, resume| match b.pn {
            1 | 2 => microtile_avx512::<8, 4, 1>(a, b, acc, resume),
            _ => microtile_avx512::<8, 4, 2>(a, b, acc, resume),
        }),
        (4, 8) => rows_pass::<4, 8>(blk, rows, apack, out, |a, b, acc, resume| match b.pn {
            1 | 2 => microtile_avx512::<4, 8, 1>(a, b, acc, resume),
            3 | 4 => microtile_avx512::<4, 8, 2>(a, b, acc, resume),
            5 | 6 => microtile_avx512::<4, 8, 3>(a, b, acc, resume),
            _ => microtile_avx512::<4, 8, 4>(a, b, acc, resume),
        }),
        (6, 4) => rows_pass::<6, 4>(blk, rows, apack, out, |a, b, acc, resume| match b.pn {
            1 | 2 => microtile_avx512::<6, 4, 1>(a, b, acc, resume),
            _ => microtile_avx512::<6, 4, 2>(a, b, acc, resume),
        }),
        // groups of 1–2 rows run the AVX2 tier's code, as compiled for it
        (2, 4) | (1, 8) => rows_pass_avx2(shape, blk, rows, apack, out),
        _ => unreachable!("{shape:?} is not one of AVX512_TILES"),
    }
}

/// [`gemm_packed`] in a named tier — the entry point the tier-parity tests
/// use to hold every supported tier against the reference.
#[doc(hidden)]
#[allow(
    clippy::too_many_arguments,
    reason = "takes the arguments of `gemm_packed` plus the tier"
)]
pub fn gemm_packed_tier(
    tier: Tier,
    a: &[f32],
    trans_a: bool,
    b: &PackedB,
    out: &mut [f32],
    m: usize,
    apack: &mut Vec<f32>,
    epi: Epilogue,
) {
    let (k, n) = (b.k, b.n);
    assert_eq!(out.len(), m * n, "blocked GEMM output extent mismatch");
    assert!(a.len() >= m * k, "blocked GEMM A operand too short");
    epi.check(n);
    if m == 0 || n == 0 {
        return;
    }
    // no tile reads A past the deepest extent, so no block packs it
    let depth = b.extent_of(0..b.extents.len());
    if depth == 0 {
        // No depth blocks would run; the reference writes a 0.0 accumulator
        // (plus epilogue) to every element.
        for (idx, o) in out.iter_mut().enumerate() {
            *o = epi.apply(0.0, idx % n);
        }
        return;
    }
    for pc in (0..depth).step_by(KC) {
        let kc = KC.min(depth - pc);
        let blk = Block {
            a,
            trans_a,
            m,
            b,
            pc,
            kc,
            epi,
        };
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            for (rows, shape) in row_groups(tier.shapes(), ic..ic + mc) {
                match tier.0 {
                    Isa::Portable => {
                        debug_assert_eq!((shape.rows, shape.panels), (PORTABLE_ROWS, 1));
                        rows_pass::<PORTABLE_ROWS, 1>(
                            &blk,
                            rows,
                            apack,
                            out,
                            |apanel, panels, acc, _| {
                                let depth = apanel.len() / PORTABLE_ROWS;
                                microtile_portable::<PORTABLE_ROWS>(
                                    apanel,
                                    &panels.b[..depth * NR],
                                    acc,
                                )
                            },
                        );
                    }
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx2 => {
                        // SAFETY: a `Tier` holding `Isa::Avx2` is only built
                        // by `Tier::supported` after
                        // `is_x86_feature_detected!("avx2")` returned true,
                        // so avx2 code may run on this CPU.
                        unsafe { rows_pass_avx2(shape, &blk, rows, apack, out) }
                    }
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 => {
                        // SAFETY: a `Tier` holding `Isa::Avx512` is only
                        // built by `Tier::supported` after
                        // `is_x86_feature_detected!("avx512f")` returned
                        // true, so avx512f code may run on this CPU.
                        unsafe { rows_pass_avx512(shape, &blk, rows, apack, out) }
                    }
                }
            }
        }
    }
}

/// The filter side of a packed convolution, as a layer plan compiles it.
///
/// `weight` is a `[filters, in_channels.len() · kh · kw]` operand packed by
/// [`PackedB::pack_nt`]: row `f` holds filter `f`'s taps over the listed
/// input channels in `(channel, ky, kx)` order. Its micro-panels hold `NR`
/// filters interleaved per tap — exactly the row-interleaved left-hand
/// operand an `8 × 1` register tile reads — so [`conv_packed`] multiplies
/// the panel a plan packed for the GEMM without repacking it.
#[derive(Debug, Clone, Copy)]
pub struct ConvFilters<'a> {
    /// The packed `[filters, taps]` weight panel.
    pub weight: &'a PackedB,
    /// One bias per filter, added once to the filter's finished sum.
    pub bias: &'a [f32],
    /// The input channels the taps read, in tap order.
    pub in_channels: &'a [usize],
    /// The output plane each filter is stored into, one per filter.
    pub out_planes: &'a [usize],
}

/// A validated [`conv_packed`] call: `n` images of `src` under `geom`,
/// written into `out_channels`-plane outputs.
#[derive(Clone, Copy)]
struct ConvJob<'a> {
    src: &'a [f32],
    n: usize,
    geom: &'a ConvGeometry,
    filters: ConvFilters<'a>,
    out_channels: usize,
}

/// Direct convolution with output positions in the vector lanes, in the
/// host's [`Tier::active`] tier: writes `filters.out_planes[f]` of every
/// image of `out` (`[n, out_channels, out_h, out_w]`) with filter `f` over
/// the listed channels of `input` (`[n, in_channels, in_h, in_w]`, as
/// `geom` describes), bias added, and leaves every other plane of `out`
/// untouched.
///
/// Per image, the active channel planes are copied zero-padded into
/// `scratch.planes`; per group of one vector's worth of output positions
/// (`NR`, or `2 · NR` in the AVX-512 tier), every tap's window values are
/// packed `[k][group]` into `scratch.groups` (one fixed-width copy per tap
/// where the group is one stride-1 run, one per `NR`-lane half where each
/// half is, one gather per lane for any other geometry); the filter panel then
/// multiplies the group `8` filters at a time, each such tile over the
/// prefix of the group's taps inside its extent, and each finished tile row
/// is stored straight into its filter's plane. There is no patch matrix, no
/// A repack and no transpose, and the scratch buffers only grow, so a
/// warmed call allocates nothing.
///
/// Every output is bit-identical to `im2col` over the listed channels →
/// the reference `nt_kernel` → `+ bias`: its k-chain runs in ascending
/// `(channel, ky, kx)` order from `+0.0`, one rounded multiply then one
/// rounded add per tap, a padding tap contributing `w · 0.0` exactly as the
/// unfold's zero does, and the bias is added once after the chain.
///
/// # Panics
///
/// Panics if `input` or `out` does not match `geom`, if the panel's depth is
/// not `in_channels.len() · kh · kw`, or if a channel or plane index, the
/// bias or the plane list does not fit.
pub fn conv_packed(
    input: &Tensor,
    geom: &ConvGeometry,
    filters: ConvFilters,
    out: &mut Tensor,
    scratch: &mut PackScratch,
) {
    conv_packed_tier(Tier::active(), input, geom, filters, out, scratch);
}

/// [`conv_packed`] in a named tier — the entry point the tier-parity tests
/// use to hold every supported tier against the reference.
#[doc(hidden)]
pub fn conv_packed_tier(
    tier: Tier,
    input: &Tensor,
    geom: &ConvGeometry,
    filters: ConvFilters,
    out: &mut Tensor,
    scratch: &mut PackScratch,
) {
    let g = geom;
    let n = input.shape().dims().first().copied().unwrap_or(0);
    assert_eq!(
        input.shape().dims(),
        [n, g.in_channels, g.in_h, g.in_w],
        "conv input does not match its geometry"
    );
    let out_channels = out.shape().dims().get(1).copied().unwrap_or(0);
    assert_eq!(
        out.shape().dims(),
        [n, out_channels, g.out_h, g.out_w],
        "conv output does not match its geometry"
    );
    let w = filters.weight;
    assert_eq!(
        w.k,
        filters.in_channels.len() * g.kernel_h * g.kernel_w,
        "conv panel depth is not channels × kernel taps"
    );
    assert!(
        filters.bias.len() >= w.n && filters.out_planes.len() == w.n,
        "conv bias or plane list does not cover the panel's filters"
    );
    assert!(
        filters.in_channels.iter().all(|&c| c < g.in_channels)
            && filters.out_planes.iter().all(|&p| p < out_channels),
        "conv channel or plane index out of range"
    );
    let job = ConvJob {
        src: input.data(),
        n,
        geom,
        filters,
        out_channels,
    };
    let bufs = (&mut scratch.planes, &mut scratch.groups);
    match tier.0 {
        Isa::Portable => conv_body::<1>(&job, out.data_mut(), bufs, |a, b, acc| {
            microtile_portable::<NR>(a, &b.b[..a.len()], acc)
        }),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Tier` holding `Isa::Avx2` is only built by
        // `Tier::supported` after `is_x86_feature_detected!("avx2")`
        // returned true, so avx2 code may run on this CPU.
        Isa::Avx2 => unsafe { conv_avx2(&job, out.data_mut(), bufs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `Tier` holding `Isa::Avx512` is only built by
        // `Tier::supported` after `is_x86_feature_detected!("avx512f")`
        // returned true, so avx512f code may run on this CPU.
        Isa::Avx512 => unsafe { conv_avx512(&job, out.data_mut(), bufs) },
    }
}

/// [`conv_body`] over groups of `NR` positions with the AVX2 `8 × 1`
/// multiply: the pack and store loops inlined into this function are
/// compiled with `avx2` enabled too.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn conv_avx2(job: &ConvJob, out: &mut [f32], bufs: (&mut Vec<f32>, &mut Vec<f32>)) {
    conv_body::<1>(job, out, bufs, |a, b, acc| {
        microtile_avx2::<8, 1>(a, b, acc, false)
    })
}

/// [`conv_body`] over groups of `2 · NR` positions — one 16-lane vector —
/// with the AVX-512 `8 × 2` multiply, compiled with `avx512f` enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn conv_avx512(job: &ConvJob, out: &mut [f32], bufs: (&mut Vec<f32>, &mut Vec<f32>)) {
    conv_body::<2>(job, out, bufs, |a, b, acc| {
        microtile_avx512::<8, 2, 1>(a, b, acc, false)
    })
}

/// The one conv body, generic over its group width — `G` micro-panels of
/// `NR` positions — and the `8 × G` multiply, which starts from zero (see
/// [`conv_packed`] for what it does and why it is exact).
#[inline(always)]
fn conv_body<const G: usize>(
    job: &ConvJob,
    out: &mut [f32],
    (planes, groups): (&mut Vec<f32>, &mut Vec<f32>),
    mul: impl Fn(&[f32], Panels, &mut Acc<NR, G>),
) {
    let ConvJob {
        src,
        n,
        geom: g,
        filters,
        out_channels,
    } = *job;
    let (c, h, w, pad, stride) = (g.in_channels, g.in_h, g.in_w, g.padding, g.stride);
    let pw = w + 2 * pad;
    let plane = (h + 2 * pad) * pw;
    let (k, nf) = (filters.weight.k, filters.weight.n);
    let positions = g.positions();
    let width = G * NR;
    let planes = span(planes, filters.in_channels.len() * plane);
    let group = span(groups, k * width);
    for b in 0..n {
        // zero-padded copies of the active planes, every element written
        for (dst, &ch) in planes.chunks_exact_mut(plane).zip(filters.in_channels) {
            let image = &src[(b * c + ch) * h * w..][..h * w];
            dst[..pad * pw].fill(0.0);
            dst[(pad + h) * pw..].fill(0.0);
            for y in 0..h {
                let row = &mut dst[(pad + y) * pw..][..pw];
                row[..pad].fill(0.0);
                row[pad..pad + w].copy_from_slice(&image[y * w..][..w]);
                row[pad + w..].fill(0.0);
            }
        }
        for p0 in (0..positions).step_by(width) {
            let lanes = width.min(positions - p0);
            // where each lane's window starts in a padded plane; a ragged
            // group's missing lanes repeat its last position, and their
            // accumulators are never stored
            let mut origin = [[0usize; NR]; G];
            for (l, o) in origin.as_flattened_mut().iter_mut().enumerate() {
                let p = p0 + l.min(lanes - 1);
                *o = (p / g.out_w) * stride * pw + (p % g.out_w) * stride;
            }
            let runs = |len: usize| {
                let origin = origin.as_flattened();
                origin
                    .chunks_exact(len)
                    .all(|run| (1..len).all(|l| run[l] == run[0] + l))
            };
            // each tap is one copy of the whole group, one per `NR`-lane
            // half, or one value per lane
            let (whole, halves) = (runs(width), runs(NR));
            let mut taps = group.chunks_exact_mut(width);
            for pl in planes.chunks_exact(plane) {
                for ky in 0..g.kernel_h {
                    for kx in 0..g.kernel_w {
                        let tap = ky * pw + kx;
                        let dst = taps.next().expect("a group holds every tap");
                        if whole {
                            dst.copy_from_slice(&pl[origin[0][0] + tap..][..width]);
                        } else if halves {
                            for (d, run) in dst.chunks_exact_mut(NR).zip(&origin) {
                                d.copy_from_slice(&pl[run[0] + tap..][..NR]);
                            }
                        } else {
                            for (d, &o) in dst.iter_mut().zip(origin.as_flattened()) {
                                *d = pl[o + tap];
                            }
                        }
                    }
                }
            }
            let panels = Panels {
                b: group,
                stride: NR,
                step: width,
                pn: G,
            };
            for (f0, &extent) in (0..nf).step_by(NR).zip(&filters.weight.extents) {
                // the tile's filters over the prefix of the group they read
                let apanel = &filters.weight.data[f0 * k..][..extent * NR];
                let mut acc: Acc<NR, G> = [[[0.0; NR]; G]; NR];
                mul(apanel, panels, &mut acc);
                for (f, row) in (f0..nf.min(f0 + NR)).zip(&acc) {
                    let bias = filters.bias[f];
                    let at = (b * out_channels + filters.out_planes[f]) * positions + p0;
                    let row = row.as_flattened();
                    for (o, &v) in out[at..at + lanes].iter_mut().zip(row) {
                        *o = v + bias;
                    }
                }
            }
        }
    }
}

/// Whole-matrix blocked GEMM mirroring [`gemm`](crate::matmul::gemm): packs
/// B per `spec` and runs [`gemm_packed`]. Results are bit-identical
/// (`f32 ==`) to the reference kernels for every `GemmSpec` variant — the
/// property tests assert this; the packed inference paths use the
/// plan-compiled [`PackedB`] directly instead.
///
/// # Errors
///
/// Returns the same rank/inner-dimension errors as
/// [`gemm`](crate::matmul::gemm).
pub fn gemm_blocked(a: &Tensor, b: &Tensor, spec: GemmSpec) -> Result<Tensor> {
    let check2 = |t: &Tensor| -> Result<(usize, usize)> {
        if t.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.shape().rank(),
            });
        }
        Ok((t.shape().dims()[0], t.shape().dims()[1]))
    };
    let (a0, a1) = check2(a)?;
    let (b0, b1) = check2(b)?;
    let (m, ka) = if spec.trans_a { (a1, a0) } else { (a0, a1) };
    let (kb, n) = if spec.trans_b { (b1, b0) } else { (b0, b1) };
    if ka != kb {
        return Err(TensorError::InnerDimMismatch {
            left: ka,
            right: kb,
        });
    }
    let packed = if spec.trans_b {
        PackedB::pack_nt(b.data(), n, ka)
    } else {
        PackedB::pack_nn(b.data(), ka, n)
    };
    let mut out = Tensor::zeros(Shape::of(&[m, n]));
    let mut apack = Vec::new();
    gemm_packed(
        a.data(),
        spec.trans_a,
        &packed,
        out.data_mut(),
        m,
        &mut apack,
        Epilogue::None,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::matmul::{gemm, matmul_bt};

    fn seq(shape: &[usize], seed: u64) -> Tensor {
        init::uniform(Shape::of(shape), -1.0, 1.0, &mut init::rng(seed))
    }

    #[test]
    fn blocked_nt_matches_reference_ragged() {
        // deliberately not multiples of the tile/NR/KC; the tile edge is
        // the active (widest supported) tier's, whatever this host runs
        let mr = Tier::active().rows();
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (17, 300, 33),
            (mr, KC, NR),
            (mr + 1, KC + 1, NR + 1),
        ] {
            let a = seq(&[m, k], 1);
            let b = seq(&[n, k], 2);
            let reference = matmul_bt(&a, &b).unwrap();
            let blocked = gemm_blocked(&a, &b, GemmSpec::NT).unwrap();
            assert_eq!(reference, blocked, "NT {m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_all_specs_match_reference() {
        let (m, k, n) = (9, 70, 13);
        for spec in [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT] {
            let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
            let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
            let a = seq(&a_dims, 3);
            let b = seq(&b_dims, 4);
            let reference = gemm(&a, &b, spec).unwrap();
            let blocked = gemm_blocked(&a, &b, spec).unwrap();
            assert_eq!(reference, blocked, "{spec:?}");
        }
    }

    #[test]
    fn degenerate_extents() {
        for &(m, k, n) in &[(0usize, 4usize, 3usize), (4, 0, 3), (4, 3, 0), (0, 0, 0)] {
            let a = seq(&[m, k], 5);
            let b = seq(&[n, k], 6);
            let reference = matmul_bt(&a, &b).unwrap();
            let blocked = gemm_blocked(&a, &b, GemmSpec::NT).unwrap();
            assert_eq!(reference, blocked, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn epilogue_bias_and_relu() {
        let (m, k, n) = (5, 33, 11);
        let a = seq(&[m, k], 7);
        let b = seq(&[n, k], 8);
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.25 - 1.0).collect();
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();

        let mut with_bias = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut with_bias,
            m,
            &mut apack,
            Epilogue::Bias(&bias),
        );
        let mut relu = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut relu,
            m,
            &mut apack,
            Epilogue::BiasRelu(&bias),
        );
        let reference = matmul_bt(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let z = reference.data()[i * n + j] + bias[j];
                assert_eq!(with_bias[i * n + j], z);
                assert_eq!(relu[i * n + j], z.max(0.0));
            }
        }
    }

    #[test]
    fn kc_spill_resumes_exactly() {
        // k > KC forces at least one partial-sum spill/reload per element.
        let (m, k, n) = (3, 2 * KC + 17, 5);
        let a = seq(&[m, k], 9);
        let b = seq(&[n, k], 10);
        assert_eq!(
            matmul_bt(&a, &b).unwrap(),
            gemm_blocked(&a, &b, GemmSpec::NT).unwrap()
        );
    }

    #[test]
    fn output_never_needs_prezeroing() {
        let (m, k, n) = (6, 40, 9);
        let a = seq(&[m, k], 11);
        let b = seq(&[n, k], 12);
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();
        let mut out = vec![f32::NAN; m * n];
        gemm_packed(
            a.data(),
            false,
            &packed,
            &mut out,
            m,
            &mut apack,
            Epilogue::None,
        );
        assert_eq!(out.as_slice(), matmul_bt(&a, &b).unwrap().data());
    }

    /// Every tier this build has, whether or not the host can run it — for
    /// tests that only read a tier's shapes.
    fn every_tier() -> Vec<Tier> {
        let mut tiers = vec![Tier(Isa::Portable)];
        #[cfg(target_arch = "x86_64")]
        tiers.extend([Tier(Isa::Avx2), Tier(Isa::Avx512)]);
        tiers
    }

    /// For m = 1..=17 the row groups of every tier cover every row exactly
    /// once, in order, and on the SIMD tiers' shapes none pads more than one
    /// row (the portable tier's lone 4-row tile pads what it must).
    #[test]
    fn row_groups_cover_every_row_once_and_pad_at_most_one() {
        for tier in every_tier() {
            let shapes = tier.shapes();
            let max_pad = if tier.0 == Isa::Portable {
                PORTABLE_ROWS - 1
            } else {
                1
            };
            for m in 1..=17 {
                let mut next = 3;
                for (rows, shape) in row_groups(shapes, 3..3 + m) {
                    let name = tier.name();
                    assert_eq!(rows.start, next, "{name}, m = {m}: a gap or an overlap");
                    assert!(!rows.is_empty(), "{name}, m = {m}: an empty group");
                    let pad = rows.len().div_ceil(shape.rows) * shape.rows - rows.len();
                    assert!(
                        pad <= max_pad,
                        "{name}, m = {m}: {rows:?} in {shape:?} pads {pad}"
                    );
                    next = rows.end;
                }
                assert_eq!(next, 3 + m, "{}, m = {m}: rows left over", tier.name());
            }
            let wants: &[(usize, &[usize])] = match tier.name() {
                "avx2" => &[
                    (5, &[4, 1]),
                    (6, &[4, 2]),
                    (3, &[3]),
                    (7, &[7]),
                    (13, &[8, 4, 1]),
                ],
                "avx512" => &[(5, &[5]), (6, &[6]), (3, &[3]), (7, &[7]), (13, &[8, 5])],
                _ => &[],
            };
            for &(m, want) in wants {
                let groups: Vec<usize> = row_groups(shapes, 0..m).map(|(r, _)| r.len()).collect();
                assert_eq!(groups, want, "{}, m = {m}", tier.name());
            }
        }
    }

    /// `Tier::supported` lists the tiers narrowest first, the AVX-512 tier
    /// only where the CPU has `avx512f`, and `Tier::active` is the last;
    /// every tier's shapes run shortest first, the full tile last, and each
    /// SIMD shape keeps the accumulator vectors its multiply is written for:
    /// 8 in the AVX2 multiply, at most 16 (two panels each) in the AVX-512
    /// one.
    #[test]
    fn tiers_are_listed_narrowest_first_with_shapes_shortest_first() {
        let supported = Tier::supported();
        let names: Vec<&str> = supported.iter().map(|t| t.name()).collect();
        let order = ["portable", "avx2", "avx512"];
        assert_eq!(names, order[..names.len()], "narrowest first, none skipped");
        assert_eq!(Tier::active(), *supported.last().unwrap());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            names.contains(&"avx512"),
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("avx512f"),
            "the AVX-512 tier is listed exactly where the CPU has avx512f"
        );
        for tier in every_tier() {
            let shapes = tier.shapes();
            assert!(
                shapes.windows(2).all(|w| w[0].rows < w[1].rows),
                "{}: shapes not shortest first",
                tier.name()
            );
            assert_eq!(tier.rows(), shapes.iter().map(|s| s.rows).max().unwrap());
            for s in shapes.iter().filter(|_| tier.name() != "portable") {
                if tier.name() == "avx512" && s.rows > 2 {
                    // two panels per vector, at most 16 of the 32 registers
                    assert!(s.panels % 2 == 0 && s.rows * s.panels / 2 <= 16, "{s:?}");
                } else {
                    assert_eq!(s.rows * s.panels, 8, "{}: {s:?}", tier.name());
                }
            }
        }
    }

    #[test]
    fn grow_keeps_contents() {
        let mut v = vec![1.0f32, 2.0];
        grow(&mut v, 4);
        assert_eq!(v, [1.0, 2.0, 0.0, 0.0]);
        grow(&mut v, 1);
        assert_eq!(v, [1.0]);
    }
}

#[cfg(test)]
mod timing {
    use super::*;
    use crate::init;
    use crate::matmul::matmul_bt;
    use crate::Shape;

    #[test]
    #[ignore]
    fn probe() {
        let (m, k, n) = (16usize, 512usize, 512usize);
        let a = init::uniform(Shape::of(&[m, k]), -1.0, 1.0, &mut init::rng(1));
        let b = init::uniform(Shape::of(&[n, k]), -1.0, 1.0, &mut init::rng(2));
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();
        let mut out = vec![0.0f32; m * n];
        let reps = 200;
        // warm
        for _ in 0..5 {
            gemm_packed(
                a.data(),
                false,
                &packed,
                &mut out,
                m,
                &mut apack,
                Epilogue::None,
            );
            let _ = matmul_bt(&a, &b).unwrap();
        }
        let t = std::time::Instant::now();
        for _ in 0..reps {
            gemm_packed(
                a.data(),
                false,
                &packed,
                &mut out,
                m,
                &mut apack,
                Epilogue::None,
            );
        }
        let blocked_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            let _ = matmul_bt(&a, &b).unwrap();
        }
        let naive_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        // include on-the-fly B packing cost for reference
        let t = std::time::Instant::now();
        for _ in 0..reps {
            let p = PackedB::pack_nt(b.data(), n, k);
            gemm_packed(a.data(), false, &p, &mut out, m, &mut apack, Epilogue::None);
        }
        let pack_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        println!(
            "naive {naive_us:.1}us blocked {blocked_us:.1}us (x{:.2}) blocked+pack {pack_us:.1}us",
            naive_us / blocked_us
        );
    }
}
