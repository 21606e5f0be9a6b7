//! Restoring level-major order preserves the function and moves every
//! per-neuron quantity with its neuron.
//!
//! Random batches of non-monotone moves, some into the unused pool, are
//! applied to an MLP and to a conv → batch norm → max-pool → flatten →
//! linear net. Weights, biases, batch-norm parameters and statistics and
//! inputs are small integers, and every batch-norm `1 / sqrt(var + eps)` is
//! a power of two, so every f32 sum is exact and its order cannot show: the
//! masked and packed logits at every subnet must be `==` to a dense masked
//! reference written here over the pre-move neuron order. Gradients and
//! learning-rate scales hold values no other element shares, so every
//! weight row and input column, bias, gradient, scale, importance,
//! assignment, batch-norm channel and head column is checked to sit where
//! its neuron went.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use stepping_core::{FixedStage, Stage, SteppingNet, SteppingNetBuilder};
use stepping_nn::{Layer, Param};
use stepping_tensor::{init, Shape, Tensor};

const SUBNETS: usize = 3;
const CLASSES: usize = 3;

fn mlp(seed: u64) -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[6]), SUBNETS, seed)
        .linear(9)
        .relu()
        .linear(7)
        .relu()
        .build(CLASSES)
        .unwrap()
}

fn cnn(seed: u64) -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[2, 4, 4]), SUBNETS, seed)
        .conv(5, 3, 1, 1)
        .batch_norm()
        .max_pool(2, 2)
        .flatten()
        .linear(6)
        .relu()
        .build(CLASSES)
        .unwrap()
}

/// Small-integer values; gradient and learning-rate scale entries no other
/// element of the net shares (`next` counts them), so a misplaced element
/// shows.
fn fill(p: &mut Param, rng: &mut StdRng, next: &mut f32) {
    for v in p.value.data_mut() {
        *v = rng.random_range(0..5usize) as f32 - 2.0;
    }
    let mut scale = Tensor::zeros(p.value.shape().clone());
    for (g, s) in p.grad.data_mut().iter_mut().zip(scale.data_mut()) {
        *next += 1.0;
        *g = *next;
        *s = -*next;
    }
    p.set_lr_scale(scale);
}

/// Running variances whose `1 / sqrt(var + 1e-5)` is exactly 1, 1/2 or 2.
fn exact_vars(channels: usize) -> Vec<f32> {
    let vars: Vec<f32> = [1.0f32, 4.0, 0.25].iter().map(|t| t - 1e-5).collect();
    for (v, t) in vars.iter().zip([1.0f32, 0.5, 2.0]) {
        assert_eq!(1.0 / (v + 1e-5).sqrt(), t, "inexact batch-norm scale");
    }
    (0..channels).map(|c| vars[c % 3]).collect()
}

/// Fills every parameter, batch-norm statistic and importance of `net`.
fn integer_net(mut net: SteppingNet, seed: u64) -> SteppingNet {
    let mut rng = init::rng(seed);
    let mut next = 0.0f32;
    for stage in net.stages_mut() {
        for p in stage.params_mut() {
            fill(p, &mut rng, &mut next);
        }
        if let Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }) = stage {
            let c = layer.channels();
            let mean = (0..c).map(|j| j as f32 - 2.0).collect();
            let mean = Tensor::from_vec(Shape::of(&[c]), mean).unwrap();
            let var = Tensor::from_vec(Shape::of(&[c]), exact_vars(c)).unwrap();
            layer.set_running_stats(mean, var).unwrap();
        }
    }
    for head in net.heads_mut() {
        for p in head.params_mut() {
            fill(p, &mut rng, &mut next);
        }
    }
    for layer in net.stages_mut().iter_mut().filter_map(Stage::masked_mut) {
        let importance: Vec<f64> = layer
            .importance_values()
            .iter()
            .map(|_| f64::from(next) + rng.random::<f64>())
            .collect();
        layer.add_importance_values(&importance).unwrap();
    }
    net
}

/// Which pre-move neuron each current neuron of every masked stage is, and
/// the level of every pre-move neuron.
struct Tracker {
    masked: Vec<usize>,
    /// `orig[m][j]`: the pre-move index of neuron `j` of masked stage `m`.
    orig: Vec<Vec<usize>>,
    /// `levels[m][o]`: the level of pre-move neuron `o`.
    levels: Vec<Vec<usize>>,
}

impl Tracker {
    fn new(net: &SteppingNet) -> Self {
        let masked = net.masked_stage_indices();
        let widths: Vec<usize> = masked
            .iter()
            .map(|&si| net.stages()[si].neuron_count().unwrap())
            .collect();
        Tracker {
            masked,
            orig: widths.iter().map(|&w| (0..w).collect()).collect(),
            levels: widths.iter().map(|&w| vec![0; w]).collect(),
        }
    }

    /// Applies one batch of `(masked stage, neuron, target)` moves to `net`
    /// and records where its stable sort by level puts every neuron.
    fn apply(&mut self, net: &mut SteppingNet, batch: &[(u8, u8, u8)]) {
        let mut moves = Vec::new();
        for &(s, n, t) in batch {
            let m = s as usize % self.masked.len();
            let j = n as usize % self.orig[m].len();
            let target = t as usize % (SUBNETS + 1);
            self.levels[m][self.orig[m][j]] = target;
            moves.push((self.masked[m], j, target));
        }
        net.move_neurons(&moves).unwrap();
        for (orig, levels) in self.orig.iter_mut().zip(&self.levels) {
            orig.sort_by_key(|&o| levels[o]);
        }
    }
}

/// Widens a channel map to the `factor` features of each channel.
fn widen(map: &[usize], factor: usize) -> Vec<usize> {
    map.iter()
        .flat_map(|&c| c * factor..(c + 1) * factor)
        .collect()
}

/// Value, gradient and learning-rate scale of element `i` of `now` equal
/// those of element `at(i)` of `pre`.
fn moved_with(
    now: &Param,
    pre: &Param,
    at: impl Fn(usize) -> usize,
    what: &str,
) -> Result<(), TestCaseError> {
    for i in 0..now.value.len() {
        let p = at(i);
        prop_assert_eq!(
            now.value.data()[i],
            pre.value.data()[p],
            "{} value {}",
            what,
            i
        );
        prop_assert_eq!(
            now.grad.data()[i],
            pre.grad.data()[p],
            "{} grad {}",
            what,
            i
        );
        prop_assert_eq!(now.lr_scale_at(i), pre.lr_scale_at(p), "{} lr {}", what, i);
    }
    Ok(())
}

/// Every per-neuron quantity of `net` sits where `tracker` says its
/// neuron went from `pre`.
fn assert_moved(net: &SteppingNet, pre: &SteppingNet, t: &Tracker) -> Result<(), TestCaseError> {
    let mut inputs: Vec<usize> = (0..net.input_shape().dims()[0]).collect();
    let mut m = 0;
    for (si, (stage, old)) in net.stages().iter().zip(pre.stages()).enumerate() {
        let what = format!("stage {si}");
        match (stage, old) {
            (Stage::Linear(l), Stage::Linear(o)) => {
                let (orig, i_n) = (&t.orig[m], l.in_features());
                let row = |i: usize| orig[i / i_n] * i_n + inputs[i % i_n];
                moved_with(l.weight(), o.weight(), row, &what)?;
                moved_with(l.bias(), o.bias(), |j| orig[j], &what)?;
            }
            (Stage::Conv(c), Stage::Conv(o)) => {
                let (orig, ic, kk) = (&t.orig[m], c.in_channels(), c.kernel() * c.kernel());
                let tap = |i: usize| {
                    let (j, rest) = (i / (ic * kk), i % (ic * kk));
                    (orig[j] * ic + inputs[rest / kk]) * kk + rest % kk
                };
                moved_with(c.weight(), o.weight(), tap, &what)?;
                moved_with(c.bias(), o.bias(), |j| orig[j], &what)?;
            }
            (
                Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }),
                Stage::Fixed(FixedStage::BatchNorm2d { layer: o, .. }),
            ) => {
                let (mut now, mut old) = (layer.clone(), o.clone());
                for (p, q) in now.params_mut().into_iter().zip(old.params_mut()) {
                    moved_with(p, q, |j| inputs[j], &what)?;
                }
                let (stats, old_stats) = (layer.running_stats(), o.running_stats());
                for (j, &c) in inputs.iter().enumerate() {
                    prop_assert_eq!(stats.0.data()[j], old_stats.0.data()[c], "{} mean", what);
                    prop_assert_eq!(stats.1.data()[j], old_stats.1.data()[c], "{} var", what);
                }
            }
            (Stage::Fixed(FixedStage::Flatten { factor, .. }), _) => {
                inputs = widen(&inputs, *factor)
            }
            _ => {}
        }
        if let Some(assign) = stage.out_assign() {
            let orig = &t.orig[m];
            let (now_imp, pre_imp) = (
                stage.importance_values().unwrap(),
                old.importance_values().unwrap(),
            );
            prop_assert!(assign.is_level_major(), "{} {:?}", what, assign.values());
            let width = orig.len();
            for j in 0..width {
                prop_assert_eq!(
                    assign.subnet_of(j),
                    t.levels[m][orig[j]],
                    "{} level {}",
                    what,
                    j
                );
                for s in 0..SUBNETS {
                    prop_assert_eq!(
                        now_imp[s * width + j],
                        pre_imp[s * width + orig[j]],
                        "{} importance",
                        what
                    );
                }
            }
            inputs = orig.clone();
            m += 1;
        }
    }
    for k in 0..SUBNETS {
        let (now, old) = (net.head(k).unwrap(), pre.head(k).unwrap());
        let f = inputs.len();
        moved_with(
            now.weight(),
            old.weight(),
            |i| i / f * f + inputs[i % f],
            &format!("head {k}"),
        )?;
        moved_with(now.bias(), old.bias(), |r| r, &format!("head {k}"))?;
    }
    Ok(())
}

/// The masked forward of the pre-move net `pre` at subnet `k`, written out
/// dense over the pre-move neuron order: `levels[m][o]` is the level of
/// neuron `o` of the `m`-th masked stage. A neuron above `k` outputs 0, and
/// neuron `o` reads input `i` only when `level(i) ≤ level(o)`.
fn reference(pre: &SteppingNet, levels: &[Vec<usize>], x: &Tensor, k: usize) -> Vec<f32> {
    let n = x.shape().dims()[0];
    let mut dims = x.shape().dims()[1..].to_vec();
    let mut act = x.data().to_vec();
    let mut cur = vec![0usize; dims[0]];
    let mut m = 0;
    for stage in pre.stages() {
        match stage {
            Stage::Linear(l) => {
                let (i_n, o_n, lv) = (l.in_features(), l.out_features(), &levels[m]);
                let (w, b) = (l.weight().value.data(), l.bias().value.data());
                let mut out = vec![0.0f32; n * o_n];
                for s in 0..n {
                    for o in (0..o_n).filter(|&o| lv[o] <= k) {
                        let mut z = 0.0f32;
                        for i in (0..i_n).filter(|&i| cur[i] <= lv[o]) {
                            z += w[o * i_n + i] * act[s * i_n + i];
                        }
                        out[s * o_n + o] = z + b[o];
                    }
                }
                (act, dims, cur, m) = (out, vec![o_n], lv.clone(), m + 1);
            }
            Stage::Conv(c) => {
                // 3×3, stride 1, padding 1: the output keeps the input's size
                let (ic, oc, lv) = (c.in_channels(), c.out_channels(), &levels[m]);
                let (h, w) = (dims[1], dims[2]);
                let (wt, b) = (c.weight().value.data(), c.bias().value.data());
                let at = |s: usize, ch: usize, y: isize, x: isize| -> f32 {
                    let inside = (0..h as isize).contains(&y) && (0..w as isize).contains(&x);
                    if inside {
                        act[((s * ic + ch) * h + y as usize) * w + x as usize]
                    } else {
                        0.0
                    }
                };
                let mut out = vec![0.0f32; n * oc * h * w];
                for s in 0..n {
                    for o in (0..oc).filter(|&o| lv[o] <= k) {
                        for (y, xx) in (0..h).flat_map(|y| (0..w).map(move |xx| (y, xx))) {
                            let mut z = 0.0f32;
                            for ch in (0..ic).filter(|&ch| cur[ch] <= lv[o]) {
                                for (ky, kx) in (0..3).flat_map(|ky| (0..3).map(move |kx| (ky, kx)))
                                {
                                    let v =
                                        at(s, ch, (y + ky) as isize - 1, (xx + kx) as isize - 1);
                                    z += wt[((o * ic + ch) * 3 + ky) * 3 + kx] * v;
                                }
                            }
                            out[((s * oc + o) * h + y) * w + xx] = z + b[o];
                        }
                    }
                }
                (act, dims, cur, m) = (out, vec![oc, h, w], lv.clone(), m + 1);
            }
            Stage::Fixed(FixedStage::Relu(_)) => act.iter_mut().for_each(|v| *v = v.max(0.0)),
            Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }) => {
                let mut bn = layer.clone();
                let params = bn.params_mut();
                let (gamma, beta) = (params[0].value.data(), params[1].value.data());
                let (mean, var) = layer.running_stats();
                let plane = dims[1] * dims[2];
                for (i, v) in act.iter_mut().enumerate() {
                    let c = i / plane % dims[0];
                    let inv_std = 1.0 / (var.data()[c] + 1e-5).sqrt();
                    *v = (*v - mean.data()[c]) * inv_std * gamma[c] + beta[c];
                }
            }
            Stage::Fixed(FixedStage::MaxPool(_)) => {
                // 2×2, stride 2
                let (c, h, w) = (dims[0], dims[1], dims[2]);
                let (oh, ow) = (h / 2, w / 2);
                let mut out = vec![0.0f32; n * c * oh * ow];
                for (i, o) in out.iter_mut().enumerate() {
                    let (plane, y, x) = (i / (oh * ow), i / ow % oh, i % ow);
                    let src = |dy: usize, dx: usize| act[(plane * h + 2 * y + dy) * w + 2 * x + dx];
                    *o = src(0, 0).max(src(0, 1)).max(src(1, 0)).max(src(1, 1));
                }
                (act, dims) = (out, vec![c, oh, ow]);
            }
            Stage::Fixed(FixedStage::Flatten { factor, .. }) => {
                cur = cur
                    .iter()
                    .flat_map(|&l| std::iter::repeat_n(l, *factor))
                    .collect();
                dims = vec![dims.iter().product()];
            }
            other => unreachable!("no {} in the fixtures", other.name()),
        }
    }
    let head = pre.head(k).unwrap();
    let f = dims[0];
    let (w, b) = (head.weight().value.data(), head.bias().value.data());
    let mut logits = vec![0.0f32; n * CLASSES];
    for s in 0..n {
        for r in 0..CLASSES {
            let mut z = 0.0f32;
            for i in (0..f).filter(|&i| cur[i] <= k) {
                z += w[r * f + i] * act[s * f + i];
            }
            logits[s * CLASSES + r] = z + b[r];
        }
    }
    logits
}

/// Runs `batches` of moves on the integer version of `net` and checks the
/// function and every per-neuron quantity against the pre-move net.
fn check(net: SteppingNet, batches: &[Vec<(u8, u8, u8)>], seed: u64) -> Result<(), TestCaseError> {
    let mut net = integer_net(net, seed);
    let pre = net.clone();
    let mut tracker = Tracker::new(&net);
    for batch in batches {
        tracker.apply(&mut net, batch);
        net.check_invariants().unwrap();
    }
    assert_moved(&net, &pre, &tracker)?;
    let mut dims = net.input_shape().dims().to_vec();
    dims.insert(0, 2);
    let mut rng = init::rng(seed ^ 0x11);
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| rng.random_range(0..5usize) as f32 - 2.0)
        .collect();
    let x = Tensor::from_vec(Shape::of(&dims), data).unwrap();
    for k in 0..SUBNETS {
        let want = reference(&pre, &tracker.levels, &x, k);
        let masked = net.clone().forward(&x, k, false).unwrap();
        prop_assert_eq!(masked.data(), &want[..], "masked logits at subnet {}", k);
        let packed = net.forward_packed(&x, k).unwrap();
        prop_assert_eq!(packed.data(), &want[..], "packed logits at subnet {}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn reordering_an_mlp_preserves_its_function_and_neurons(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..2, 0u8..32, 0u8..8), 1..10), 1..4),
        seed in 0u64..1000,
    ) {
        check(mlp(seed), &batches, seed)?;
    }

    #[test]
    fn reordering_a_conv_net_preserves_its_function_and_neurons(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..2, 0u8..32, 0u8..8), 1..10), 1..4),
        seed in 0u64..1000,
    ) {
        check(cnn(seed), &batches, seed)?;
    }
}
