//! Property tests for the packed execution-plan pipeline at the network
//! level: the executors (which route through compiled packed kernels) must
//! stay bit-identical to the masked reference forward for arbitrary
//! assignments, batch sizes, and subnet schedules — and plan caches must
//! never go stale across SGD weight updates.

use proptest::prelude::*;
use steppingnet::core::{Assignment, BatchExecutor, SteppingNet, SteppingNetBuilder};
use steppingnet::nn::optim::Sgd;
use steppingnet::tensor::{init, Shape, Tensor};

/// Applies a random `(masked stage, neuron, target subnet)` move sequence.
fn apply_moves(net: &mut SteppingNet, moves: &[(u8, u8, u8)]) {
    let masked = net.masked_stage_indices();
    for &(s, n, t) in moves {
        let stage = masked[s as usize % masked.len()];
        let count = net.stages()[stage].neuron_count().unwrap();
        let neuron = n as usize % count;
        let target = t as usize % (net.subnet_count() + 1); // may hit the unused pool
        net.move_neuron(stage, neuron, target).unwrap();
    }
}

/// Builds a 2-hidden-layer MLP and applies a random move sequence.
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
    apply_moves(&mut net, moves);
    net
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Packed direct pass == masked reference for every subnet, both on a
    /// cold plan cache and on the second (cached) serve.
    #[test]
    fn packed_forward_equals_masked(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let subnets = 3;
        let net = build_with_moves(subnets, 11, 7, &moves, seed);
        let x = init::uniform(Shape::of(&[batch, 6]), -2.0, 2.0, &mut init::rng(seed ^ 1));
        for k in 0..subnets {
            let masked = net.clone().forward(&x, k, false).unwrap();
            let cold = net.forward_packed(&x, k).unwrap();
            prop_assert_eq!(&cold, &masked, "cold plan differs at subnet {}", k);
            let warm = net.forward_packed(&x, k).unwrap();
            prop_assert_eq!(&warm, &masked, "cached plan differs at subnet {}", k);
        }
    }

    /// Two stage shapes in which a packed layer's scattered zeros matter: a
    /// sigmoid between masked linear stages (`sigmoid(0) != 0`, so inactive
    /// columns are non-zero downstream), and a masked linear stage whose
    /// input columns are not its producer's output columns (their levels
    /// drawn at random, canonicalised level-major). The direct packed pass,
    /// the executor's full pass and the masked reference agree.
    #[test]
    fn packed_paths_agree_on_sigmoid_and_mismatched_columns(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        in_moves in proptest::collection::vec((0u8..32, 0u8..4), 0..8),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let subnets = 3;
        let mut net = SteppingNetBuilder::new(Shape::of(&[6]), subnets, seed)
            .linear(9)
            .sigmoid()
            .linear(8)
            .relu()
            .linear(7)
            .tanh()
            .build(3)
            .unwrap();
        apply_moves(&mut net, &moves);
        let mut levels = [0; 8];
        for &(n, t) in &in_moves {
            levels[n as usize % 8] = t as usize % (subnets + 1);
        }
        levels.sort_unstable();
        let mut ia = Assignment::new(8, subnets);
        for (n, &t) in levels.iter().enumerate() {
            ia.move_neuron(n, t).unwrap();
        }
        net.stages_mut()[4].set_in_assign(ia).unwrap();
        let x = init::uniform(Shape::of(&[batch, 6]), -2.0, 2.0, &mut init::rng(seed ^ 1));
        for k in 0..subnets {
            let masked = net.clone().forward(&x, k, false).unwrap();
            let packed = net.forward_packed(&x, k).unwrap();
            prop_assert_eq!(&packed, &masked, "direct packed pass differs at subnet {}", k);
            let begun = BatchExecutor::new(&net, 0.0)
                .begin(std::slice::from_ref(&x), k)
                .unwrap()
                .remove(0)
                .1;
            prop_assert_eq!(&begun.logits, &masked, "executor begin differs at subnet {}", k);
        }
    }

    /// The incremental executor (packed full pass + packed step kernels)
    /// stays bit-identical to from-scratch masked execution, and stays so
    /// after an SGD step rewrites the weights mid-session.
    #[test]
    fn executor_packed_equals_masked_across_weight_updates(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let subnets = 3;
        let mut net = build_with_moves(subnets, 11, 7, &moves, seed);
        let x = init::uniform(Shape::of(&[batch, 6]), -2.0, 2.0, &mut init::rng(seed ^ 1));
        let dy = init::uniform(Shape::of(&[batch, 3]), 0.1, 1.0, &mut init::rng(seed ^ 2));
        let mut sgd = Sgd::new(0.05).unwrap();
        for _round in 0..2 {
            let refs: Vec<Tensor> = {
                let mut scratch = net.clone();
                (0..subnets).map(|k| scratch.forward(&x, k, false).unwrap()).collect()
            };
            let mut exec = BatchExecutor::new(&net, 1e-5);
            let (mut cache, first) = exec.begin(std::slice::from_ref(&x), 0).unwrap().remove(0);
            let mut steps = vec![first];
            for _ in 1..subnets {
                steps.extend(exec.expand(std::slice::from_mut(&mut cache)).unwrap());
            }
            for (k, step) in steps.iter().enumerate() {
                prop_assert_eq!(&step.logits, &refs[k], "subnet {} logits differ", k);
            }
            // weight update through params_for: every cached plan is stale now
            net.zero_grad();
            let _ = net.forward(&x, subnets - 1, true).unwrap();
            net.backward(&dy).unwrap();
            sgd.step(&mut net.params_for(subnets - 1).unwrap()).unwrap();
        }
    }

    /// The batched executor's fused passes (packed full pass + packed step
    /// kernels over stacked rows) match per-request masked execution.
    #[test]
    fn batch_executor_packed_equals_masked(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let subnets = 3;
        let mut net = build_with_moves(subnets, 11, 7, &moves, seed);
        let inputs: Vec<Tensor> = (0..batch)
            .map(|b| init::uniform(
                Shape::of(&[1, 6]), -2.0, 2.0, &mut init::rng(seed ^ (5 + b as u64)),
            ))
            .collect();
        let mut scratch = net.clone();
        let mut exec = BatchExecutor::new(&mut net, 1e-5);
        let started = exec.begin(&inputs, 0).unwrap();
        let mut caches = Vec::new();
        let mut logits: Vec<Vec<Tensor>> = Vec::new();
        for (c, s) in started {
            caches.push(c);
            logits.push(vec![s.logits]);
        }
        for _ in 1..subnets {
            for (i, s) in exec.expand(&mut caches).unwrap().into_iter().enumerate() {
                logits[i].push(s.logits);
            }
        }
        for (i, x) in inputs.iter().enumerate() {
            for (k, got) in logits[i].iter().enumerate() {
                let reference = scratch.forward(x, k, false).unwrap();
                prop_assert_eq!(got, &reference, "request {} subnet {} differs", i, k);
            }
        }
    }
}
