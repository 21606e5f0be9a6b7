//! Property tests for the engine's central guarantee: for a fixed shard
//! geometry, parallel gradient accumulation — and every weight after the
//! optimizer step — is bit-identical (`f32 ==`) to the single-threaded
//! run of the same canonical shards, for *any* thread count.
//!
//! The nets are driven through `stepping-core`'s [`ParallelRunner`] (a
//! dev-only dependency cycle, allowed by cargo) across random
//! architectures, random neuron assignments, random batch sizes, and the
//! thread counts {1, 2, 3, 8}.

use proptest::prelude::*;
use stepping_core::events::phase;
use stepping_core::parallel::{BatchLoss, ParallelRunner};
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_exec::ParallelConfig;
use stepping_nn::optim::Sgd;
use stepping_tensor::{init, GradStore, Shape};

const THREAD_MATRIX: [usize; 4] = [1, 2, 3, 8];

/// Builds a 2-hidden-layer MLP and applies a random move sequence, so the
/// property also covers nets mid-construction (neurons spread over subnets
/// and the unused pool).
fn build_with_moves(
    subnets: usize,
    h1: usize,
    h2: usize,
    moves: &[(u8, u8, u8)],
    seed: u64,
) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[6]), subnets, seed)
        .linear(h1)
        .relu()
        .linear(h2)
        .relu()
        .build(3)
        .unwrap();
    let masked = net.masked_stage_indices();
    for &(s, n, t) in moves {
        let stage = masked[s as usize % masked.len()];
        let count = net.stages()[stage].neuron_count().unwrap();
        let neuron = n as usize % count;
        let target = t as usize % (subnets + 1);
        net.move_neuron(stage, neuron, target).unwrap();
    }
    net
}

fn random_batch(rows: usize, seed: u64) -> (stepping_tensor::Tensor, Vec<usize>) {
    let x = init::uniform(Shape::of(&[rows, 6]), -2.0, 2.0, &mut init::rng(seed));
    let y: Vec<usize> = (0..rows).map(|i| (i * 7 + seed as usize) % 3).collect();
    (x, y)
}

fn grads(net: &mut SteppingNet, subnet: usize) -> GradStore {
    net.export_grads(subnet).unwrap()
}

fn weights(net: &mut SteppingNet, subnet: usize) -> Vec<Vec<u32>> {
    net.params_for(subnet)
        .unwrap()
        .iter()
        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Merged gradients and batch loss are bit-identical across the thread
    /// matrix for a fixed shard geometry.
    #[test]
    fn parallel_gradients_are_bit_identical_across_threads(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..20),
        seed in 0u64..1000,
        rows in 2usize..33,
        shard_rows in 1usize..9,
        subnet in 0usize..3,
    ) {
        let (x, y) = random_batch(rows, seed ^ 0x51);
        let mut reference: Option<(GradStore, u32)> = None;
        for threads in THREAD_MATRIX {
            let mut net = build_with_moves(3, 11, 7, &moves, seed);
            let cfg = ParallelConfig { threads, shard_rows, min_rows: 0 };
            let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
            let out = runner
                .train_batch(&mut net, &x, &y, subnet, BatchLoss::CrossEntropy, false)
                .unwrap();
            let g = grads(&mut net, subnet);
            match &reference {
                None => reference = Some((g, out.loss.to_bits())),
                Some((rg, rl)) => {
                    prop_assert_eq!(&g, rg, "grads differ at threads {}", threads);
                    prop_assert_eq!(out.loss.to_bits(), *rl, "loss differs at threads {}", threads);
                }
            }
        }
    }

    /// Weights after the optimizer step are bit-identical across the thread
    /// matrix — the property the construction/distillation trainers rely on.
    #[test]
    fn post_sgd_weights_are_bit_identical_across_threads(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..20),
        seed in 0u64..1000,
        rows in 2usize..25,
        shard_rows in 1usize..7,
    ) {
        let (x, y) = random_batch(rows, seed ^ 0x7e);
        let mut reference: Option<Vec<Vec<u32>>> = None;
        for threads in THREAD_MATRIX {
            let mut net = build_with_moves(3, 9, 7, &moves, seed);
            let cfg = ParallelConfig { threads, shard_rows, min_rows: 0 };
            let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
            // two steps, so the second batch runs from parallel-updated weights
            let mut sgd = Sgd::new(0.05).unwrap();
            for step in 0..2u64 {
                let (x2, y2) = if step == 0 { (x.clone(), y.clone()) } else { random_batch(rows, seed ^ 0x91) };
                runner
                    .train_batch(&mut net, &x2, &y2, 1, BatchLoss::CrossEntropy, false)
                    .unwrap();
                sgd.step(&mut net.params_for(1).unwrap()).unwrap();
            }
            let w = weights(&mut net, 1);
            match &reference {
                None => reference = Some(w),
                Some(rw) => prop_assert_eq!(&w, rw, "weights differ at threads {}", threads),
            }
        }
    }

    /// The merged importance contribution (the construction flow's neuron
    /// scores) is thread-count invariant too.
    #[test]
    fn importance_is_bit_identical_across_threads(
        seed in 0u64..1000,
        rows in 4usize..21,
    ) {
        let (x, y) = random_batch(rows, seed ^ 0x13);
        let mut reference: Option<Vec<Vec<u64>>> = None;
        for threads in THREAD_MATRIX {
            let mut net = build_with_moves(3, 9, 7, &[], seed);
            net.reset_importance();
            let cfg = ParallelConfig { threads, shard_rows: 4, min_rows: 0 };
            let runner = ParallelRunner::new(cfg, phase::TRAINING).unwrap();
            runner
                .train_batch(&mut net, &x, &y, 0, BatchLoss::CrossEntropy, false)
                .unwrap();
            let imp: Vec<Vec<u64>> = net
                .export_importance()
                .into_iter()
                .map(|s| s.into_iter().map(f64::to_bits).collect())
                .collect();
            match &reference {
                None => reference = Some(imp),
                Some(ri) => prop_assert_eq!(&imp, ri, "importance differs at threads {}", threads),
            }
        }
    }
}
