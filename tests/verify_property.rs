//! Property-based tests of the static invariant analyzer (`crates/verify`):
//!
//! * **Soundness on legal nets** — randomly built networks subjected to
//!   random *legal* reallocation sequences produce zero violations, and
//!   their checkpoints round-trip cleanly (R6).
//! * **Completeness on corrupted nets** — a seeded corruption targeting
//!   each rule R1–R6 is caught with the correct rule id and coordinates.

use proptest::prelude::*;
use steppingnet::core::checkpoint::save_state;
use steppingnet::core::{Assignment, SteppingNet, SteppingNetBuilder};
use steppingnet::tensor::Shape;
use steppingnet::verify::{analyze, check_blob, check_roundtrip, AnalyzerOptions, Rule, Severity};

const IN: usize = 6;

/// Builds a 2-hidden-layer MLP and applies a random legal move sequence.
fn build_with_moves(
    subnets: usize,
    h1: usize,
    h2: usize,
    moves: &[(u8, u8, u8)],
    seed: u64,
) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[IN]), subnets, seed)
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
        // Pin neuron 0 of every stage to subnet 0, mirroring construction's
        // min_neurons_per_stage floor: every subnet keeps signal flow.
        let neuron = 1 + n as usize % (count - 1);
        let target = t as usize % (subnets + 1); // may hit the unused pool
        net.move_neuron(stage, neuron, target).unwrap();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_legal_nets_have_zero_violations(
        subnets in 1usize..4,
        h1 in 4usize..12,
        h2 in 4usize..10,
        moves in proptest::collection::vec((0u8..4, 0u8..32, 0u8..5), 0..32),
        seed in 0u64..1000,
    ) {
        let mut net = build_with_moves(subnets, h1, h2, &moves, seed);
        let report = analyze(&net, &AnalyzerOptions::default());
        prop_assert!(
            report.violations.is_empty(),
            "legal net flagged:\n{}", report.render_text()
        );
        // R6: the checkpoint of a legal net round-trips cleanly.
        prop_assert!(check_roundtrip(&mut net).is_empty());
    }

    #[test]
    fn satisfied_budgets_pass_r3(
        subnets in 1usize..4,
        seed in 0u64..1000,
    ) {
        let net = build_with_moves(subnets, 8, 6, &[], seed);
        let budgets: Vec<u64> = (0..subnets).map(|k| net.macs(k, 1e-5)).collect();
        let opts = AnalyzerOptions { mac_budgets: Some(budgets), ..AnalyzerOptions::default() };
        prop_assert!(analyze(&net, &opts).violations.is_empty());
    }

    #[test]
    fn r1_corruption_caught_with_coordinates(
        input in 0u8..8,
        target in 1u8..4,
        seed in 0u64..500,
    ) {
        let subnets = 3;
        let h1 = 8;
        let mut net = build_with_moves(subnets, h1, 6, &[], seed);
        // Claim that input `i` of the second masked stage lives in a later
        // subnet than its upstream producer says.
        let stage = net.masked_stage_indices()[1];
        let i = input as usize % h1;
        let mut crafted = Assignment::new(h1, subnets);
        crafted.move_neuron(i, target as usize).unwrap();
        net.stages_mut()[stage].set_in_assign(crafted).unwrap();

        let report = analyze(&net, &AnalyzerOptions::default());
        let v = report.of_rule(Rule::R1Monotonicity);
        prop_assert!(!v.is_empty(), "{}", report.render_text());
        prop_assert_eq!(v[0].severity, Severity::Error);
        prop_assert_eq!(v[0].location.stage, Some(stage));
        prop_assert_eq!(v[0].location.input, Some(i));
    }

    #[test]
    fn r2_corruption_caught_with_coordinates(
        neuron in 0u8..6,
        target in 1u8..4,
        seed in 0u64..500,
    ) {
        let subnets = 3;
        let h2 = 6;
        let mut net = build_with_moves(subnets, 8, h2, &[], seed);
        // Move an output neuron of the final masked stage *directly*,
        // skipping sync_assignments(): the cached feature assignment the
        // heads mask with goes stale.
        let last = *net.masked_stage_indices().last().unwrap();
        let o = neuron as usize % h2;
        net.stages_mut()[last].move_out_neuron(o, target as usize).unwrap();

        let report = analyze(&net, &AnalyzerOptions::default());
        let v = report.of_rule(Rule::R2Nesting);
        prop_assert!(!v.is_empty(), "{}", report.render_text());
        prop_assert_eq!(v[0].severity, Severity::Error);
        prop_assert_eq!(v[0].location.input, Some(o));
    }

    #[test]
    fn r3_overrun_caught_per_subnet(
        subnets in 1usize..4,
        seed in 0u64..500,
    ) {
        let net = build_with_moves(subnets, 8, 6, &[], seed);
        // Budgets one MAC below actual cost: every subnet overruns.
        let budgets: Vec<u64> = (0..subnets).map(|k| net.macs(k, 1e-5) - 1).collect();
        let opts = AnalyzerOptions { mac_budgets: Some(budgets), ..AnalyzerOptions::default() };
        let report = analyze(&net, &opts);
        let v = report.of_rule(Rule::R3MacBudget);
        prop_assert_eq!(v.len(), subnets, "{}", report.render_text());
        for (k, violation) in v.iter().enumerate() {
            prop_assert_eq!(violation.location.subnet, Some(k));
        }
    }

    #[test]
    fn r4_subthreshold_weight_caught_with_coordinates(
        neuron in 0u8..8,
        input in 0u8..6,
        seed in 0u64..500,
    ) {
        let h1 = 8;
        let mut net = build_with_moves(2, h1, 6, &[], seed);
        let first = net.masked_stage_indices()[0];
        let (o, i) = (neuron as usize % h1, input as usize % IN);
        if let steppingnet::core::Stage::Linear(l) = &mut net.stages_mut()[first] {
            l.weight_mut().value.data_mut()[o * IN + i] = 1e-7;
        }
        let report = analyze(&net, &AnalyzerOptions::default());
        let v = report.of_rule(Rule::R4WeightMask);
        prop_assert_eq!(v.len(), 1, "{}", report.render_text());
        prop_assert_eq!(v[0].severity, Severity::Warning);
        prop_assert_eq!(v[0].location.neuron, Some(o));
        prop_assert_eq!(v[0].location.input, Some(i));
    }

    #[test]
    fn r5_dead_neuron_caught_with_coordinates(
        neuron in 0u8..8,
        seed in 0u64..500,
    ) {
        let h1 = 8;
        let mut net = build_with_moves(2, h1, 6, &[], seed);
        let first = net.masked_stage_indices()[0];
        let o = neuron as usize % h1;
        if let steppingnet::core::Stage::Linear(l) = &mut net.stages_mut()[first] {
            for i in 0..IN {
                l.weight_mut().value.data_mut()[o * IN + i] = 0.0;
            }
        }
        let report = analyze(&net, &AnalyzerOptions::default());
        let v = report.of_rule(Rule::R5Reachability);
        prop_assert_eq!(v.len(), 1, "{}", report.render_text());
        prop_assert_eq!(v[0].location.stage, Some(first));
        prop_assert_eq!(v[0].location.neuron, Some(o));
    }

    #[test]
    fn r6_corrupt_checkpoint_caught(
        cut in 1usize..32,
        seed in 0u64..500,
    ) {
        let mut net = build_with_moves(2, 8, 6, &[], seed);
        let blob = save_state(&mut net);
        // corrupted magic: refuses to load
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        let v = check_blob(&net, &bad);
        prop_assert_eq!(v.len(), 1);
        prop_assert_eq!(v[0].rule, Rule::R6Roundtrip);
        // truncation anywhere: refuses to load
        let cut = blob.len() - 1 - (cut % (blob.len() / 2));
        let v = check_blob(&net, &blob[..cut]);
        prop_assert!(!v.is_empty());
        prop_assert_eq!(v[0].rule, Rule::R6Roundtrip);
    }
}

/// The heads' masking must also be verified end to end: a stale feature
/// assignment is exactly what breaks the incremental property at the
/// classifier, so the analyzer treats it as an error.
#[test]
fn error_severity_fails_the_gate_warning_does_not() {
    let mut net = build_with_moves(2, 8, 6, &[], 3);
    // warning only: sub-threshold weight
    let first = net.masked_stage_indices()[0];
    if let steppingnet::core::Stage::Linear(l) = &mut net.stages_mut()[first] {
        l.weight_mut().value.data_mut()[0] = 1e-9;
    }
    let report = analyze(&net, &AnalyzerOptions::default());
    assert!(report.is_clean() && report.warning_count() == 1);

    // error: stale feature assignment
    let last = *net.masked_stage_indices().last().unwrap();
    net.stages_mut()[last].move_out_neuron(0, 1).unwrap();
    let report = analyze(&net, &AnalyzerOptions::default());
    assert!(!report.is_clean());
}
