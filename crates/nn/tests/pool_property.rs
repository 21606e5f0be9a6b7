//! Pooling inference is exact: `infer_into` — whose chains run side by
//! side, through a 2×2 / stride-2 path or a generic one — writes the same
//! bits as the training `forward`, one output at a time (a NaN average
//! compared as NaN, see `bits`), for every kernel
//! and stride, ragged planes, any set of channel runs, and inputs full of
//! the values where order shows: `±0.0` ties, `±∞` and NaN.

use std::ops::Range;

use proptest::prelude::*;
use stepping_nn::{AvgPool2d, Layer, MaxPool2d};
use stepping_tensor::{Shape, Tensor};

/// Fills the unlisted channels of a target, so a write outside the runs
/// shows.
const UNTOUCHED: f32 = 7.5;

/// A value drawn from `code`: mostly the special values and small integers
/// that tie, else `noise`.
fn value(code: u8, noise: f32) -> f32 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => f32::NEG_INFINITY,
        3 => f32::INFINITY,
        4 => f32::NAN,
        5 => 1.0,
        6 => -1.0,
        _ => noise,
    }
}

/// The channels whose bit is set in `mask`, as maximal runs.
fn mask_runs(mask: u8, c: usize) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for j in (0..c).filter(|j| mask >> j & 1 == 1) {
        match runs.last_mut() {
            Some(run) if run.end == j => run.end += 1,
            _ => runs.push(j..j + 1),
        }
    }
    runs
}

/// The bits an output is compared by. A max only ever copies a tap, so its
/// bits are exact; an average that meets a NaN, or `+∞` and `−∞`, is a NaN
/// whose sign and payload IEEE 754 leaves to the operand order the compiler
/// picks for a commutative add, so every NaN compares as one.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// A layer's `infer_into`, bound to the layer.
type InferInto<'a> = dyn Fn(&Tensor, &mut Tensor, &[Range<usize>]) -> stepping_nn::Result<()> + 'a;

/// `infer_into` over `runs` against `forward`: every listed channel
/// bit-equal, every other channel untouched.
fn check(
    pool: &mut dyn Layer,
    infer: &InferInto<'_>,
    x: &Tensor,
    runs: &[Range<usize>],
    what: &str,
) -> Result<(), TestCaseError> {
    let want = pool.forward(x, false).unwrap();
    let dims = want.shape().dims().to_vec();
    let plane = dims[2] * dims[3];
    let mut got = Tensor::full(want.shape().clone(), UNTOUCHED);
    infer(x, &mut got, runs).unwrap();
    for (o, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        let channel = o / plane % dims[1];
        let listed = runs.iter().any(|r| r.contains(&channel));
        let expect = if listed {
            bits(*w)
        } else {
            UNTOUCHED.to_bits()
        };
        prop_assert_eq!(
            bits(*g),
            expect,
            "{}: output {} (channel {}, listed {}) {} vs {}",
            what,
            o,
            channel,
            listed,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn infer_into_is_bit_equal_to_forward(
        images in (1usize..3, 1usize..4),
        window in (1usize..4, 1usize..4),
        extra in (0usize..7, 0usize..7),
        mask in 0u8..16,
        values in proptest::collection::vec((0u8..10, -2.0f32..2.0), 2 * 3 * 9 * 9),
    ) {
        let ((n, c), (kernel, stride)) = (images, window);
        let (h, w) = (kernel + extra.0, kernel + extra.1);
        let data = values[..n * c * h * w].iter().map(|&(code, noise)| value(code, noise)).collect();
        let x = Tensor::from_vec(Shape::of(&[n, c, h, w]), data).unwrap();
        let runs = mask_runs(mask, c);
        // the drawn window (the generic path, or 2×2 / 2 one time in nine)
        // and the 2×2 / 2 path whenever the plane holds a window
        let mut shapes = vec![(kernel, stride)];
        if h >= 2 && w >= 2 {
            shapes.push((2, 2));
        }
        for (k, s) in shapes {
            let (max, avg) = (MaxPool2d::new(k, s), AvgPool2d::new(k, s));
            let what = format!("[{n}, {c}, {h}, {w}] k{k} s{s} runs {runs:?}");
            check(&mut max.clone(), &|x, o, r| max.infer_into(x, o, r), &x, &runs, &format!("max {what}"))?;
            check(&mut avg.clone(), &|x, o, r| avg.infer_into(x, o, r), &x, &runs, &format!("avg {what}"))?;
        }
    }
}

/// Of two equal taps the first in `(ky, kx)` order stays: a window reading
/// `−0.0` before `+0.0` answers `−0.0` and the reverse `+0.0`, on both
/// paths — the order a row-major chain fixes and a column-major sweep or
/// `f32::max` would not.
#[test]
fn max_ties_keep_the_first_tap_in_row_major_order() {
    let (neg, pos) = (-0.0f32, 0.0f32);
    // 2×2 windows: the tie sits between (0, 1) and (1, 0)
    let x = Tensor::from_vec(
        Shape::of(&[1, 2, 2, 2]),
        vec![-1.0, neg, pos, -1.0, -1.0, pos, neg, -1.0],
    )
    .unwrap();
    for (k, s) in [(2, 2), (2, 1)] {
        let pool = MaxPool2d::new(k, s);
        let mut out = Tensor::zeros(Shape::of(&[0]));
        pool.infer_into(&x, &mut out, std::slice::from_ref(&(0..2)))
            .unwrap();
        let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [neg.to_bits(), pos.to_bits()], "k{k} s{s}");
    }
}
