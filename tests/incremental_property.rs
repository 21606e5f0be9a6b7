//! Property-based tests of the core invariants, driven by proptest:
//!
//! * **Incremental equivalence** — for arbitrary assignments and inputs, the
//!   incremental executor's logits equal from-scratch execution bit-exactly.
//! * **Nesting monotonicity** — MACs never decrease with the subnet index,
//!   and shared neurons' activations are identical across subnets.
//! * **Structure safety** — arbitrary legal move sequences keep the network
//!   invariants intact.
//! * **Gradients** — the masked backward passes agree with central finite
//!   differences of their forwards, legal and illegal pairs alike.

use proptest::prelude::*;
use steppingnet::core::{Assignment, BatchExecutor, MaskedConv2d, SteppingNet, SteppingNetBuilder};
use steppingnet::nn::{Layer, Tanh};
use steppingnet::tensor::{init, Shape, Tensor};

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
    let masked = net.masked_stage_indices();
    for &(s, n, t) in moves {
        let stage = masked[s as usize % masked.len()];
        let count = net.stages()[stage].neuron_count().unwrap();
        let neuron = n as usize % count;
        let target = t as usize % (subnets + 1); // may hit the unused pool
        net.move_neuron(stage, neuron, target).unwrap();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn incremental_equals_from_scratch(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
        batch in 1usize..4,
    ) {
        let subnets = 3;
        let net = build_with_moves(subnets, 11, 7, &moves, seed);
        let x = init::uniform(Shape::of(&[batch, 6]), -2.0, 2.0, &mut init::rng(seed ^ 1));
        let mut scratch = net.clone();
        let refs: Vec<Tensor> =
            (0..subnets).map(|k| scratch.forward(&x, k, false).unwrap()).collect();
        let mut exec = BatchExecutor::new(&net, 1e-5);
        let (mut cache, first) = exec.begin(std::slice::from_ref(&x), 0).unwrap().remove(0);
        let mut steps = vec![first];
        for _ in 1..subnets {
            steps.extend(exec.expand(std::slice::from_mut(&mut cache)).unwrap());
        }
        for (k, step) in steps.iter().enumerate() {
            prop_assert_eq!(&step.logits, &refs[k], "subnet {} logits differ", k);
        }
    }

    #[test]
    fn macs_are_monotone_and_bounded(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
    ) {
        let net = build_with_moves(3, 12, 9, &moves, seed);
        let macs: Vec<u64> = (0..3).map(|k| net.macs(k, 0.0)).collect();
        prop_assert!(macs.windows(2).all(|w| w[0] <= w[1]), "non-monotone {:?}", macs);
        prop_assert!(macs[2] <= net.full_macs());
    }

    #[test]
    fn invariants_hold_after_arbitrary_moves(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..40),
        seed in 0u64..1000,
    ) {
        let net = build_with_moves(3, 10, 8, &moves, seed);
        prop_assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn shared_neuron_features_identical_across_subnets(
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..4), 0..24),
        seed in 0u64..1000,
    ) {
        let mut net = build_with_moves(3, 10, 8, &moves, seed);
        let x = init::uniform(Shape::of(&[2, 6]), -1.0, 1.0, &mut init::rng(seed ^ 2));
        let f: Vec<Tensor> = (0..3).map(|k| net.features(&x, k, false).unwrap()).collect();
        let fa = net.feature_assign().clone();
        for small in 0..2usize {
            for large in small + 1..3 {
                for b in 0..2 {
                    for i in 0..fa.len() {
                        if fa.is_active(i, small) {
                            prop_assert_eq!(
                                f[small].data()[b * fa.len() + i],
                                f[large].data()[b * fa.len() + i],
                                "feature {} differs between subnets {} and {}", i, small, large
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_check_masked_network(
        seed in 0u64..200,
    ) {
        // Whole-network finite-difference check on a random masked topology.
        // Uses tanh activations: finite differences are only valid on a
        // smooth network (ReLU kinks flip under perturbation).
        let mut net = SteppingNetBuilder::new(Shape::of(&[6]), 2, seed)
            .linear(6)
            .tanh()
            .linear(5)
            .tanh()
            .build(3)
            .unwrap();
        for &(st, nr, tg) in &[(0usize, 1usize, 1usize), (2, 2, 1), (0, 3, 2)] {
            let masked = net.masked_stage_indices();
            let stage = masked[st % masked.len()];
            let count = net.stages()[stage].neuron_count().unwrap();
            net.move_neuron(stage, nr % count, tg.min(2)).unwrap();
        }
        let x = init::uniform(Shape::of(&[2, 6]), -1.0, 1.0, &mut init::rng(seed ^ 3));
        let dy = init::uniform(Shape::of(&[2, 3]), 0.1, 1.0, &mut init::rng(seed ^ 4));
        net.zero_grad();
        let y = net.forward(&x, 1, true).unwrap();
        net.backward(&dy).unwrap();
        // loss(w) = <forward(x), dy>: compare dL/dw for a few weights of the
        // first masked stage against finite differences.
        let analytic: Vec<f32> = match &mut net.stages_mut()[0] {
            steppingnet::core::Stage::Linear(l) => l.weight().grad.data().to_vec(),
            _ => unreachable!(),
        };
        prop_assert_eq!(y.shape().dims(), &[2, 3]);
        let eps = 1e-2f32;
        for idx in [0usize, 7, 17] {
            let perturb = |net: &mut SteppingNet, delta: f32| -> f32 {
                match &mut net.stages_mut()[0] {
                    steppingnet::core::Stage::Linear(l) => {
                        l.weight_mut().value.data_mut()[idx] += delta;
                    }
                    _ => unreachable!(),
                }
                let out = net.forward(&x, 1, true).unwrap();
                match &mut net.stages_mut()[0] {
                    steppingnet::core::Stage::Linear(l) => {
                        l.weight_mut().value.data_mut()[idx] -= delta;
                    }
                    _ => unreachable!(),
                }
                out.dot(&dy).unwrap()
            };
            let num = (perturb(&mut net, eps) - perturb(&mut net, -eps)) / (2.0 * eps);
            prop_assert!(
                (num - analytic[idx]).abs() < 0.05,
                "w[{}]: numeric {} vs analytic {}", idx, num, analytic[idx]
            );
        }
    }

    #[test]
    fn masked_conv_gradients_match_central_differences(
        cin in 2usize..4,
        cout in 2usize..5,
        in_levels in proptest::collection::vec(0usize..3, 2),
        moves in proptest::collection::vec((0u8..8, 0u8..4), 0..6),
        seed in 0u64..1000,
    ) {
        // A 3×3 conv at subnet 1 with its input channels and filters spread
        // over the levels: filter 0 stays in subnet 0 and reads input
        // channel 0 (legal) but not channel 1 (subnet 1: illegal), and the
        // moves may send filters to subnet 2 (inactive) or the unused pool.
        // Tanh follows the conv so L = <tanh(conv(x)), dy> is smooth.
        let subnets = 3;
        let mut conv = MaskedConv2d::new(cin, cout, 3, 1, 1, 25, subnets, &mut init::rng(seed));
        let mut in_assign = Assignment::new(cin, subnets);
        in_assign.move_neuron(1, 1).unwrap();
        for (c, &level) in (2..cin).zip(&in_levels) {
            in_assign.move_neuron(c, level).unwrap();
        }
        conv.set_in_assign(in_assign).unwrap();
        for &(filter, target) in &moves {
            let filter = 1 + filter as usize % (cout - 1);
            conv.move_out_neuron(filter, target as usize).unwrap();
        }
        let subnet = 1;
        let x = init::uniform(Shape::of(&[2, cin, 5, 5]), -1.0, 1.0, &mut init::rng(seed ^ 5));
        let dy = init::uniform(Shape::of(&[2, cout, 5, 5]), -1.0, 1.0, &mut init::rng(seed ^ 6));
        let mut tanh = Tanh::new();
        let z = conv.forward(&x, subnet, true).unwrap();
        tanh.forward(&z, true).unwrap();
        let dz = tanh.backward(&dy).unwrap();
        let dx = conv.backward(&dz).unwrap();
        let dw = conv.weight().grad.data().to_vec();
        let loss = |conv: &mut MaskedConv2d, x: &Tensor| -> f32 {
            let z = conv.forward(x, subnet, false).unwrap();
            Tanh::new().forward(&z, false).unwrap().dot(&dy).unwrap()
        };
        let eps = 1e-2f32;
        for i in 0..x.len() {
            let (mut xp, mut xm) = (x.clone(), x.clone());
            xp.data_mut()[i] += eps;
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut conv, &xp) - loss(&mut conv, &xm)) / (2.0 * eps);
            prop_assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{}]: numeric {} vs analytic {}", i, num, dx.data()[i]
            );
        }
        for (i, &analytic) in dw.iter().enumerate() {
            let w = conv.weight().value.data()[i];
            conv.weight_mut().value.data_mut()[i] = w + eps;
            let lp = loss(&mut conv, &x);
            conv.weight_mut().value.data_mut()[i] = w - eps;
            let lm = loss(&mut conv, &x);
            conv.weight_mut().value.data_mut()[i] = w;
            let num = (lp - lm) / (2.0 * eps);
            prop_assert!(
                (num - analytic).abs() < 2e-2,
                "dW[{}]: numeric {} vs analytic {}", i, num, analytic
            );
        }
        // the subnet reads legal pairs and masks illegal ones
        let patch = cin * 9;
        prop_assert!(dw[..9].iter().any(|&g| g != 0.0), "legal pair (0, 0) got no gradient");
        prop_assert!(dw[9..18].iter().all(|&g| g == 0.0), "illegal pair (0, 1) got a gradient");
        prop_assert_eq!(dw.len(), cout * patch);
    }
}
