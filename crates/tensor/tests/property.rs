//! Property-based tests of the tensor substrate: algebraic identities that
//! must hold for arbitrary shapes and values.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use stepping_tensor::conv::{col2im, im2col, ConvGeometry};
use stepping_tensor::matmul::{gemm, reference_gemm, GemmSpec};
use stepping_tensor::microkernel::{
    conv_packed_tier, gemm_packed, gemm_packed_tier, ConvFilters, Epilogue, PackedB, Tier, KC,
};
use stepping_tensor::pack::{im2col_channels_into, PackScratch};
use stepping_tensor::{reduce, Shape, Tensor};

fn tensor_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, len)
}

/// The oracle's `A · Bᵀ` of a row-major `[m, k]` and an `[n, k]` operand.
fn reference_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let a = Tensor::from_vec(Shape::of(&[m, k]), a.to_vec()).unwrap();
    let b = Tensor::from_vec(Shape::of(&[n, k]), b.to_vec()).unwrap();
    reference_gemm(&a, &b, GemmSpec::NT).unwrap().into_vec()
}

/// `[rows, cols]` row-major → `[cols, rows]`.
fn transposed(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; a.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = a[r * cols + c];
        }
    }
    t
}

/// Every instruction tier the host supports, in every tile shape, must be
/// `to_bits()`-equal to the oracle, `reference_gemm`: `m` walks through every
/// row count a tile shape is chosen from (thin shapes, the full tile, a full
/// tile plus each ragged tail), `n` leaves ragged lanes and ragged panel
/// groups (up to and past the eight panels of the widest thin shape), `k`
/// sits on both sides of the `KC` spill, A comes in both layouts, and all
/// four epilogues run. One A row is all `-0.0`, whose dot products are
/// signed zeros.
#[test]
fn every_tier_and_tile_shape_is_bit_identical_to_the_reference() {
    let mut rng = stepping_tensor::init::rng(41);
    let mut apack = Vec::new();
    for (n, k) in [
        (1usize, 1usize),
        (7, 3),
        (8, KC),
        (9, KC + 1),
        (23, KC - 1),
        (64, 5),
        (70, 2 * KC + 3),
        (75, 9),
    ] {
        let b = stepping_tensor::init::uniform(Shape::of(&[n, k]), -2.0, 2.0, &mut rng);
        let bias = stepping_tensor::init::uniform(Shape::of(&[n]), -1.0, 1.0, &mut rng);
        let packed = PackedB::pack_nt(b.data(), n, k);
        for m in 1..=17usize {
            let mut a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng)
                .data()
                .to_vec();
            a[(m / 2) * k..(m / 2 + 1) * k].fill(-0.0);
            let a_t = transposed(&a, m, k);
            let reference = reference_nt(&a, b.data(), m, k, n);
            for tier in Tier::supported() {
                for trans_a in [false, true] {
                    let operand = if trans_a { &a_t } else { &a };
                    for which in 0..4 {
                        let epi = match which {
                            0 => Epilogue::None,
                            1 => Epilogue::Bias(bias.data()),
                            2 => Epilogue::BiasRelu(bias.data()),
                            _ => Epilogue::BiasTanh(bias.data()),
                        };
                        let mut out = vec![f32::NAN; m * n];
                        gemm_packed_tier(
                            tier, operand, trans_a, &packed, &mut out, m, &mut apack, epi,
                        );
                        for (idx, (&got, &dot)) in out.iter().zip(&reference).enumerate() {
                            let z = dot + bias.data()[idx % n];
                            let want = match which {
                                0 => dot,
                                1 => z,
                                2 => z.max(0.0),
                                _ => z.tanh(),
                            };
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{} tier, {m}x{k}x{n}, trans_a {trans_a}, epilogue {which}, element {idx}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A depth extent of at most `k` for each of `n` rows: 0, `k`, one just
/// before, on or after the first or second `KC` boundary, or any value.
fn random_extents(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    (0..n)
        .map(|_| {
            let extent = match rng.random_range(0..6usize) {
                0 => 0,
                1 => k,
                near @ 2..=4 => KC * rng.random_range(1..3usize) + near - 3,
                _ => rng.random_range(0..=k),
            };
            extent.min(k)
        })
        .collect()
}

/// `b` (`[n, k]`) with every entry past its row's extent zeroed.
fn zeroed_past(b: &[f32], k: usize, extents: &[usize]) -> Vec<f32> {
    let mut zeroed = b.to_vec();
    for (j, &extent) in extents.iter().enumerate() {
        zeroed[j * k + extent..(j + 1) * k].fill(0.0);
    }
    zeroed
}

/// A panel packed with per-row depth extents multiplies exactly the
/// operand with everything past each row's extent zeroed, `to_bits()`-equal
/// to the oracle over that operand, in every tier and tile
/// shape: extents of 0 and `k` and on both sides of a `KC` boundary, `k` up
/// to `2·KC + 17`, `m` from 1 to 17 (so the SIMD tiers' groups of 2, 4 and
/// 8 micro-panels run tiles of different extents together), ragged `n`, and
/// all four epilogues.
#[test]
fn extents_are_exact_in_every_tier_and_tile_shape() {
    let mut rng = stepping_tensor::init::rng(43);
    let mut apack = Vec::new();
    for (n, k) in [
        (1usize, 1usize),
        (9, KC + 1),
        (17, KC),
        (23, KC - 1),
        (64, 5),
        (70, 2 * KC + 17),
    ] {
        let b = stepping_tensor::init::uniform(Shape::of(&[n, k]), -2.0, 2.0, &mut rng);
        let bias = stepping_tensor::init::uniform(Shape::of(&[n]), -1.0, 1.0, &mut rng);
        for m in 1..=17usize {
            let extents = random_extents(&mut rng, n, k);
            let packed = PackedB::pack_nt_extents(b.data(), n, k, &extents);
            let a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng);
            let zeroed = zeroed_past(b.data(), k, &extents);
            let reference = reference_nt(a.data(), &zeroed, m, k, n);
            for tier in Tier::supported() {
                for which in 0..4 {
                    let epi = match which {
                        0 => Epilogue::None,
                        1 => Epilogue::Bias(bias.data()),
                        2 => Epilogue::BiasRelu(bias.data()),
                        _ => Epilogue::BiasTanh(bias.data()),
                    };
                    let mut out = vec![f32::NAN; m * n];
                    gemm_packed_tier(tier, a.data(), false, &packed, &mut out, m, &mut apack, epi);
                    for (idx, (&got, &dot)) in out.iter().zip(&reference).enumerate() {
                        let z = dot + bias.data()[idx % n];
                        let want = match which {
                            0 => dot,
                            1 => z,
                            2 => z.max(0.0),
                            _ => z.tanh(),
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} tier, {m}x{k}x{n}, epilogue {which}, element {idx}, row extent {}",
                            tier.name(),
                            extents[idx % n]
                        );
                    }
                }
            }
        }
    }
}

/// FMA tripwire. With `a = b = 1 + 2⁻¹²` the exact product
/// `1 + 2⁻¹¹ + 2⁻²⁴` rounds to `1 + 2⁻¹¹`, so multiply-then-add against an
/// accumulator of `-(1 + 2⁻¹¹)` gives exactly `0`, while a fused
/// multiply-add keeps the `2⁻²⁴`. Every tier and tile shape must give the
/// unfused value in every lane.
#[test]
fn no_tier_fuses_multiply_and_add() {
    let a = 1.0f32 + 2f32.powi(-12);
    let c = -(1.0f32 + 2f32.powi(-11));
    assert_eq!(a * a + c, 0.0, "operands are not a tripwire");
    assert_eq!(
        a.mul_add(a, c),
        2f32.powi(-24),
        "operands are not a tripwire"
    );
    // depth 2: the first term loads the accumulator with `c` (exact under
    // either rounding), the second is the tripwire
    let (n, k) = (70usize, 2usize);
    let packed = PackedB::pack_nt(&[1.0, a].repeat(n), n, k);
    let mut apack = Vec::new();
    for tier in Tier::supported() {
        for m in 1..=17usize {
            let lhs = [c, a].repeat(m);
            let reference = reference_nt(&lhs, &[1.0, a].repeat(n), m, k, n);
            assert!(
                reference.iter().all(|&v| v == 0.0),
                "reference kernel fused"
            );
            let mut out = vec![f32::NAN; m * n];
            gemm_packed_tier(
                tier,
                &lhs,
                false,
                &packed,
                &mut out,
                m,
                &mut apack,
                Epilogue::None,
            );
            assert!(
                out.iter().all(|&v| v == 0.0),
                "{} tier fused a multiply-add at m = {m}: {:?}",
                tier.name(),
                out.iter().find(|&&v| v != 0.0)
            );
        }
    }
}

/// A value no kernel computes: planes of the target it must leave alone
/// keep these bits.
const UNTOUCHED: f32 = f32::from_bits(0x7fc0_5a5a);

/// What the conv driver's store applies after the bias: nothing, or the
/// activation a compiled stage folds into it.
#[derive(Debug, Clone, Copy)]
enum Act {
    Bias,
    Relu,
    Tanh,
}

const ACTS: [Act; 3] = [Act::Bias, Act::Relu, Act::Tanh];

impl Act {
    fn epilogue(self, bias: &[f32]) -> Epilogue<'_> {
        match self {
            Act::Bias => Epilogue::Bias(bias),
            Act::Relu => Epilogue::BiasRelu(bias),
            Act::Tanh => Epilogue::BiasTanh(bias),
        }
    }

    /// The standalone activation layer's arithmetic.
    fn apply(self, z: f32) -> f32 {
        match self {
            Act::Bias => z,
            Act::Relu => z.max(0.0),
            Act::Tanh => z.tanh(),
        }
    }
}

/// One convolution case for [`conv_packed_tier`]: `images` NCHW inputs
/// under `geom`, `filters` filters over the first `channels` input channels
/// written to planes `offset..offset + filters` of an `out_channels`-plane
/// target, stored through `act`; with `ragged`, each filter reads only a
/// random prefix of its taps.
struct ConvCase {
    geom: ConvGeometry,
    images: usize,
    channels: usize,
    filters: usize,
    offset: usize,
    out_channels: usize,
    ragged: bool,
    act: Act,
}

impl ConvCase {
    /// Runs the case in every supported tier through `scratch` and holds
    /// every output `to_bits()`-equal to the unfold over the channels read
    /// → the oracle over the weights with every tap past its filter's
    /// extent zeroed → `+ bias` → the activation, and every plane no filter
    /// owns untouched.
    fn check(&self, seed: u64, scratch: &mut PackScratch) {
        let g = &self.geom;
        let mut rng = stepping_tensor::init::rng(seed);
        let input = stepping_tensor::init::uniform(
            Shape::of(&[self.images, g.in_channels, g.in_h, g.in_w]),
            -2.0,
            2.0,
            &mut rng,
        );
        let f = self.filters;
        let k = self.channels * g.kernel_h * g.kernel_w;
        let weight = stepping_tensor::init::uniform(Shape::of(&[f, k]), -2.0, 2.0, &mut rng);
        let bias = stepping_tensor::init::uniform(Shape::of(&[f]), -1.0, 1.0, &mut rng);
        let extents = if self.ragged {
            random_extents(&mut rng, f, k)
        } else {
            vec![k; f]
        };
        let packed = PackedB::pack_nt_extents(weight.data(), f, k, &extents);

        let rows = self.images * g.positions();
        let mut cols = Vec::new();
        let channels: Vec<usize> = (0..self.channels).collect();
        im2col_channels_into(&input, g, &channels, &mut cols).unwrap();
        let zeroed = zeroed_past(weight.data(), k, &extents);
        let dots = reference_nt(&cols, &zeroed, rows, k, f);

        let filters = ConvFilters {
            weight: &packed,
            epilogue: self.act.epilogue(bias.data()),
            in_channels: self.channels,
            out_offset: self.offset,
        };
        for tier in Tier::supported() {
            let mut out = Tensor::full(
                Shape::of(&[self.images, self.out_channels, g.out_h, g.out_w]),
                UNTOUCHED,
            );
            conv_packed_tier(tier, &input, g, filters, &mut out, scratch);
            for b in 0..self.images {
                for plane in 0..self.out_channels {
                    let at = (b * self.out_channels + plane) * g.positions();
                    let got = &out.data()[at..at + g.positions()];
                    let Some(fi) = plane.checked_sub(self.offset).filter(|&fi| fi < f) else {
                        assert!(
                            got.iter().all(|v| v.to_bits() == UNTOUCHED.to_bits()),
                            "{} tier wrote plane {plane}, which no filter owns: {g:?}",
                            tier.name()
                        );
                        continue;
                    };
                    for (p, v) in got.iter().enumerate() {
                        let z = dots[(b * g.positions() + p) * f + fi] + bias.data()[fi];
                        let want = self.act.apply(z);
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "{} tier, {:?}, {g:?}, {} channels, image {b}, filter {fi}, position {p}",
                            tier.name(),
                            self.act,
                            self.channels
                        );
                    }
                }
            }
        }
    }
}

/// The conv driver on hand-picked geometries: `out_w` a multiple of the
/// lane count (whole groups, fixed-width copies) and not, stride 2 and 3,
/// windows lying wholly in the padding, a 1×1 and a 5×5 kernel, a
/// one-channel prefix and no channel at all — each run twice through one
/// scratch that also held the other geometries' (larger and smaller)
/// planes and groups, the second time with ragged filter extents.
#[test]
fn conv_driver_matches_the_unfold_on_fixed_geometries() {
    let mut scratch = PackScratch::new();
    // (channels, h, w, kernel, stride, padding, channels read, filters)
    let cases: [[usize; 8]; 8] = [
        [3, 16, 16, 3, 1, 1, 3, 6],  // conv1 of the serving net
        [24, 8, 8, 3, 1, 1, 13, 12], // conv2 at a lower level
        [2, 5, 13, 3, 1, 0, 1, 17],  // out_w 11: ragged groups
        [3, 7, 9, 5, 2, 2, 2, 9],    // 5×5, stride 2
        [2, 4, 6, 1, 3, 2, 2, 3],    // 1×1: corners wholly padding
        [1, 1, 1, 3, 2, 2, 1, 8],    // every window mostly padding
        [2, 3, 9, 3, 1, 1, 0, 5],    // no input channel: bias only
        [4, 6, 17, 3, 1, 1, 1, 1],   // out_w 17, one filter
    ];
    for round in 0..2 {
        for (i, &[c, h, w, k, stride, pad, read, filters]) in cases.iter().enumerate() {
            let geom = ConvGeometry::new(c, h, w, k, k, stride, pad).unwrap();
            ConvCase {
                geom,
                images: 1 + i % 3,
                channels: read,
                filters,
                offset: 1,
                out_channels: filters + 2,
                ragged: round == 1,
                act: Act::Bias,
            }
            .check(100 * round + i as u64, &mut scratch);
        }
    }
}

/// The activation a compiled conv stage folds into the driver's store:
/// on the same fixed geometries, in every tier, ReLU and tanh after the
/// bias are `to_bits()`-equal to the unfold → oracle → `+ bias` → the
/// standalone layer's `max(0.0)` / `tanh`, ragged extents included.
#[test]
fn conv_store_applies_the_fused_activation_in_every_tier() {
    let mut scratch = PackScratch::new();
    // (channels, h, w, kernel, stride, padding, channels read, filters)
    let cases: [[usize; 8]; 4] = [
        [3, 16, 16, 3, 1, 1, 3, 6],  // conv1 of the serving net
        [24, 8, 8, 3, 1, 1, 13, 12], // conv2 at a lower level
        [2, 5, 13, 3, 1, 0, 1, 17],  // out_w 11: ragged groups
        [2, 3, 9, 3, 1, 1, 0, 5],    // no input channel: f(bias)
    ];
    for (round, act) in [Act::Relu, Act::Tanh].into_iter().enumerate() {
        for (i, &[c, h, w, k, stride, pad, read, filters]) in cases.iter().enumerate() {
            let geom = ConvGeometry::new(c, h, w, k, k, stride, pad).unwrap();
            ConvCase {
                geom,
                images: 1 + i % 3,
                channels: read,
                filters,
                offset: 1,
                out_channels: filters + 2,
                ragged: i % 2 == 1,
                act,
            }
            .check(300 + 10 * round as u64 + i as u64, &mut scratch);
        }
    }
}

/// The FMA tripwire of [`no_tier_fuses_multiply_and_add`] through the conv
/// driver: two input channels read by a 1×1 kernel are the depth-2 chain
/// `c·1 + a·a`, which is exactly `0` unfused, over ragged and whole
/// position groups and 1–17 filters.
#[test]
fn no_tier_fuses_multiply_and_add_in_the_conv_driver() {
    let a = 1.0f32 + 2f32.powi(-12);
    let c = -(1.0f32 + 2f32.powi(-11));
    let mut scratch = PackScratch::new();
    for (h, w) in [(2usize, 8usize), (3, 5)] {
        let geom = ConvGeometry::new(2, h, w, 1, 1, 1, 0).unwrap();
        let mut image = vec![c; h * w];
        image.extend(std::iter::repeat_n(a, h * w));
        let input = Tensor::from_vec(Shape::of(&[1, 2, h, w]), image).unwrap();
        for f in 1..=17usize {
            let packed = PackedB::pack_nt(&[1.0, a].repeat(f), f, 2);
            let bias = vec![0.0f32; f];
            let filters = ConvFilters {
                weight: &packed,
                epilogue: Epilogue::Bias(&bias),
                in_channels: 2,
                out_offset: 0,
            };
            for tier in Tier::supported() {
                let mut out = Tensor::full(Shape::of(&[1, f, h, w]), f32::NAN);
                conv_packed_tier(tier, &input, &geom, filters, &mut out, &mut scratch);
                assert!(
                    out.data().iter().all(|&v| v == 0.0),
                    "{} tier fused a multiply-add in the conv driver at {f} filters, {h}x{w}: {:?}",
                    tier.name(),
                    out.data().iter().find(|&&v| v != 0.0)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The conv driver against the unfold → oracle → bias → activation
    /// (none, ReLU or tanh), `to_bits()`-equal in every tier, over random
    /// geometries (kernel 1/3/5, non-square images, stride 1–3, padding
    /// 0–2), 1–3 images, random channel prefixes and 1–17 filters at a
    /// random offset into a wider target, reading all their taps or
    /// (`ragged`) a random prefix of them each. `rows` forces, in three of four cases,
    /// output rows that make a 16-position group each way it can be
    /// packed: `out_w` 16 at stride 1 (one run), `out_w` 8 at stride 1 (two
    /// 8-runs, and a ragged tail of one when `out_h` is odd), or an odd
    /// `out_w` at stride 2 (a gather per lane).
    #[test]
    fn conv_driver_is_bit_identical_to_the_unfold_in_every_tier(
        kernel in 0usize..3,
        h in 1usize..11,
        w in 1usize..21,
        stride in 1usize..4,
        padding in 0usize..3,
        rows in 0usize..4,
        images in 1usize..4,
        read in 0usize..6,
        filters in 1usize..18,
        spare in 0usize..4,
        ragged in 0u8..2,
        act in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let kernel = [1, 3, 5][kernel];
        // the input width giving `out_w` at `stride`
        let width = |out_w: usize, stride: usize| stride * (out_w - 1) + kernel - 2 * padding;
        let (w, stride) = match rows {
            1 => (width(16, 1), 1),
            2 => (width(8, 1), 1),
            3 => (width(2 * (w % 5) + 3, 2), 2),
            _ => (w, stride),
        };
        prop_assume!(h + 2 * padding >= kernel && w + 2 * padding >= kernel);
        let in_channels = 5;
        let geom = ConvGeometry::new(in_channels, h, w, kernel, kernel, stride, padding).unwrap();
        // the filters land on all planes of the target but `spare` of them
        let offset = seed as usize % (spare + 1);
        let out_channels = filters + spare;
        ConvCase {
            geom, images, channels: read, filters, offset, out_channels, ragged: ragged == 1,
            act: ACTS[act],
        }
        .check(seed, &mut PackScratch::new());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn transpose_is_involutive(
        r in 1usize..10, c in 1usize..10, data_seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(data_seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[r, c]), -5.0, 5.0, &mut rng);
        prop_assert_eq!(t.transpose2().unwrap().transpose2().unwrap(), t);
    }

    #[test]
    fn softmax_rows_are_distributions(
        n in 1usize..6, c in 1usize..10, vals_seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(vals_seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[n, c]), -30.0, 30.0, &mut rng);
        let p = reduce::softmax_rows(&t).unwrap();
        prop_assert!(p.is_finite());
        for i in 0..n {
            let row = p.row(i).unwrap();
            prop_assert!(row.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            prop_assert!((row.sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_is_shift_invariant(
        c in 2usize..8, shift in -20.0f32..20.0, seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let t = stepping_tensor::init::uniform(Shape::of(&[1, c]), -3.0, 3.0, &mut rng);
        let shifted = t.map(|v| v + shift);
        let p1 = reduce::softmax_rows(&t).unwrap();
        let p2 = reduce::softmax_rows(&shifted).unwrap();
        for (a, b) in p1.data().iter().zip(p2.data().iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjointness(
        c in 1usize..4, h in 3usize..8, w in 3usize..8,
        k in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeometry::new(c, h, w, k, k, stride, pad).unwrap();
        let mut rng = stepping_tensor::init::rng(seed);
        let x = stepping_tensor::init::uniform(Shape::of(&[2, c, h, w]), -1.0, 1.0, &mut rng);
        let y = stepping_tensor::init::uniform(
            Shape::of(&[2 * geom.positions(), geom.patch_len()]), -1.0, 1.0, &mut rng);
        // <im2col(x), y> == <x, col2im(y)>
        let lhs = im2col(&x, &geom).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, 2, &geom).unwrap()).unwrap();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-4, "{} vs {}", lhs, rhs);
    }

    /// Fused bias/activation epilogues must equal the unfused sequence
    /// (GEMM, then add bias, then activate) bitwise — the packed inference
    /// pipeline relies on this to stay `==` with the masked oracle.
    #[test]
    fn blocked_gemm_epilogues_match_unfused(
        m in 1usize..10, k in 1usize..64, n in 1usize..17,
        seed in 0u64..10_000,
    ) {
        let mut rng = stepping_tensor::init::rng(seed);
        let a = stepping_tensor::init::uniform(Shape::of(&[m, k]), -2.0, 2.0, &mut rng);
        let b = stepping_tensor::init::uniform(Shape::of(&[n, k]), -2.0, 2.0, &mut rng);
        let bias = stepping_tensor::init::uniform(Shape::of(&[n]), -1.0, 1.0, &mut rng);
        let packed = PackedB::pack_nt(b.data(), n, k);
        let mut apack = Vec::new();
        let reference = reference_gemm(&a, &b, GemmSpec::NT).unwrap();
        for which in 0..3 {
            let epi = match which {
                0 => Epilogue::Bias(bias.data()),
                1 => Epilogue::BiasRelu(bias.data()),
                _ => Epilogue::BiasTanh(bias.data()),
            };
            let mut out = vec![f32::NAN; m * n];
            gemm_packed(a.data(), false, &packed, &mut out, m, &mut apack, epi);
            for i in 0..m {
                for j in 0..n {
                    let z = reference.data()[i * n + j] + bias.data()[j];
                    let want = match which {
                        0 => z,
                        1 => z.max(0.0),
                        _ => z.tanh(),
                    };
                    prop_assert_eq!(
                        out[i * n + j], want,
                        "epilogue {} at ({}, {})", which, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn axpy_matches_zip(
        len in 1usize..64, alpha in -3.0f32..3.0,
        a in tensor_strategy(64), b in tensor_strategy(64),
    ) {
        let av = Tensor::from_vec(Shape::of(&[len]), a[..len].to_vec()).unwrap();
        let bv = Tensor::from_vec(Shape::of(&[len]), b[..len].to_vec()).unwrap();
        let mut c = av.clone();
        c.axpy(alpha, &bv).unwrap();
        let expected = av.zip(&bv, |x, y| x + alpha * y).unwrap();
        for (x, y) in c.data().iter().zip(expected.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }
}

proptest! {
    // Many cases: a sign-of-zero fault shows only where a whole chain of
    // products is `-0.0`, which needs a short `k` at 90 % zeros.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// `gemm`, the blocked, register-tiled microkernel, must be
    /// `to_bits()`-equal to the oracle for every transpose variant,
    /// including shapes that are ragged against the register tile of the
    /// active tier (`m` reaches past two of its widest, 8-row tiles) and
    /// deep enough to force a Kc partial-sum spill, plus fully degenerate
    /// extents. Like training operands (masked weights, inactive neurons,
    /// ReLU-masked gradients), the operands hold exact zeros — none, half
    /// or 90 % of the entries, a third of them `-0.0` — which the kernel
    /// multiplies: it has no zero skip.
    #[test]
    fn blocked_gemm_bit_identical_to_reference(
        m in 0usize..21, k in 0usize..280, n in 0usize..21,
        which in 0usize..4,
        zeros in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let spec = [GemmSpec::NN, GemmSpec::NT, GemmSpec::TN, GemmSpec::TT][which];
        let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
        let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
        let p_zero = [0.0, 0.5, 0.9][zeros];
        let mut rng = stepping_tensor::init::rng(seed);
        let mut operand = |dims: [usize; 2]| {
            let mut t = stepping_tensor::init::uniform(Shape::of(&dims), -2.0, 2.0, &mut rng);
            for v in t.data_mut() {
                if rng.random::<f64>() < p_zero {
                    *v = if rng.random_range(0..3u8) == 0 { -0.0 } else { 0.0 };
                }
            }
            t
        };
        let a = operand(a_dims);
        let b = operand(b_dims);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = reference_gemm(&a, &b, spec).unwrap();
        let blocked = gemm(&a, &b, spec).unwrap();
        prop_assert_eq!(reference.shape(), blocked.shape());
        prop_assert_eq!(bits(&reference), bits(&blocked), "{:?} {}x{}x{}", spec, m, k, n);
    }
}
