//! Literal pins of [`Session`] outcomes: every run mode on one seeded net,
//! four resource traces, both upgrade policies and two start subnets, with
//! the whole [`DriveOutcome`] (timeline, final subnet, MACs, first
//! prediction slice, final logits' bits) written out. A rewrite of the drive
//! loop must reproduce each line exactly.

use steppingnet::baselines::regular_assign;
use steppingnet::core::{SteppingNet, SteppingNetBuilder};
use steppingnet::runtime::{
    DriveOutcome, LatestPrediction, ResourceTrace, Session, SessionConfig, UpgradePolicy,
};
use steppingnet::tensor::{init, Shape, Tensor};

/// The `runtime_scenarios` net: 8 → 24 → 16 → 5 classes, four subnets at
/// 25 / 50 / 75 / 100 % of each layer.
fn net() -> SteppingNet {
    let mut n = SteppingNetBuilder::new(Shape::of(&[8]), 4, 2)
        .linear(24)
        .relu()
        .linear(16)
        .relu()
        .build(5)
        .unwrap();
    regular_assign(&mut n, &[0.25, 0.5, 0.75, 1.0]).unwrap();
    n
}

fn input() -> Tensor {
    init::uniform(Shape::of(&[1, 8]), -1.0, 1.0, &mut init::rng(7))
}

/// Eight-slice traces scaled to the net's full cost.
fn traces(full: u64) -> [(&'static str, ResourceTrace); 4] {
    [
        ("constant", ResourceTrace::constant(full / 6 + 1, 8)),
        ("step", ResourceTrace::step(full / 10, full / 2, 2, 8)),
        ("bursty", ResourceTrace::bursty(11, full / 12, full, 0.3, 8)),
        (
            "random_walk",
            ResourceTrace::random_walk(5, full / 5, full / 16, full / 2, 8),
        ),
    ]
}

fn opt(v: Option<usize>) -> String {
    v.map_or("-".into(), |v| v.to_string())
}

/// One line per outcome: `budget/spent@ready` per slice, then the totals
/// and the final logits' bits.
fn drive_line(out: &DriveOutcome) -> String {
    let slices = out
        .timeline
        .iter()
        .map(|l| format!("{}/{}@{}", l.budget, l.spent, opt(l.subnet_ready)));
    let logits = out.final_logits.as_ref().map_or("-".into(), |t| {
        t.data()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    });
    format!(
        "[{}] final={} macs={} first={} logits={logits}",
        slices.collect::<Vec<_>>().join(" "),
        opt(out.final_subnet),
        out.total_macs,
        opt(out.first_prediction_slice),
    )
}

/// `(case, outcome)` for every trace × policy × start: the whole trace, then
/// deadlines 1, 3 and 5. `run_live` must give `run`'s outcome on each.
fn drive_lines() -> Vec<(String, String)> {
    let n = net();
    let mut lines = Vec::new();
    for (name, trace) in traces(n.macs(3, 0.0)) {
        for policy in [UpgradePolicy::Incremental, UpgradePolicy::Recompute] {
            for start in [0usize, 2] {
                let cfg = SessionConfig::new()
                    .trace(trace.clone())
                    .policy(policy)
                    .start_subnet(start);
                let case = format!("{name} {} start={start}", policy.label());
                let run = Session::new(&n, cfg.clone()).run(&input()).unwrap();
                let live =
                    Session::new(&n, cfg.clone()).run_live(&input(), &LatestPrediction::new());
                assert_eq!(live.unwrap(), run, "{case}: live outcome");
                lines.push((format!("{case} run"), drive_line(&run)));
                for deadline in [1, 3, 5] {
                    let out = Session::new(&n, cfg.clone()).run_until_deadline(&input(), deadline);
                    lines.push((
                        format!("{case} deadline={deadline}"),
                        drive_line(&out.unwrap()),
                    ));
                }
            }
        }
    }
    lines
}

/// `run_until_confident` under `Incremental` from subnets 0 and 2.
fn confident_lines() -> Vec<(String, String)> {
    let n = net();
    let mut lines = Vec::new();
    for start in [0usize, 2] {
        for threshold in [0.05f32, 0.5, 1.0] {
            let cfg = SessionConfig::new()
                .confidence(threshold)
                .start_subnet(start);
            let out = Session::new(&n, cfg).run_until_confident(&input()).unwrap();
            lines.push((
                format!("confident start={start} threshold={threshold}"),
                format!(
                    "subnet={} prediction={} confidence={:08x} macs={} early={}",
                    out.subnet,
                    out.prediction,
                    out.confidence.to_bits(),
                    out.total_macs,
                    out.early_exit
                ),
            ));
        }
    }
    lines
}

fn check(actual: Vec<(String, String)>, pinned: &[(&str, &str)]) {
    assert_eq!(actual.len(), pinned.len(), "case count");
    for ((case, line), (pin_case, pin)) in actual.iter().zip(pinned) {
        assert_eq!((case.as_str(), line.as_str()), (*pin_case, *pin));
    }
}

#[test]
fn drive_outcomes_match_pins() {
    check(drive_lines(), DRIVE_PINS);
}

#[test]
fn confident_outcomes_match_pins() {
    check(confident_lines(), CONFIDENT_PINS);
}

const DRIVE_PINS: &[(&str, &str)] = &[
("constant incremental start=0 run", "[86/0@- 86/92@0 86/136@1 86/0@1 86/180@2 86/0@2 86/0@2 86/224@3] final=3 macs=632 first=1 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("constant incremental start=0 deadline=1", "[86/0@-] final=- macs=0 first=- logits=-"),
("constant incremental start=0 deadline=3", "[86/0@- 86/92@0 86/136@1] final=1 macs=228 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("constant incremental start=0 deadline=5", "[86/0@- 86/92@0 86/136@1 86/0@1 86/180@2] final=2 macs=408 first=1 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("constant incremental start=2 run", "[86/0@- 86/0@- 86/0@- 86/0@- 86/348@2 86/0@2 86/224@3 86/0@3] final=3 macs=572 first=4 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("constant incremental start=2 deadline=1", "[86/0@-] final=- macs=0 first=- logits=-"),
("constant incremental start=2 deadline=3", "[86/0@- 86/0@- 86/0@-] final=- macs=0 first=- logits=-"),
("constant incremental start=2 deadline=5", "[86/0@- 86/0@- 86/0@- 86/0@- 86/348@2] final=2 macs=348 first=4 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("constant recompute start=0 run", "[86/0@- 86/92@0 86/0@0 86/208@1 86/0@1 86/0@1 86/0@1 86/348@2] final=2 macs=648 first=1 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("constant recompute start=0 deadline=1", "[86/0@-] final=- macs=0 first=- logits=-"),
("constant recompute start=0 deadline=3", "[86/0@- 86/92@0 86/0@0] final=0 macs=92 first=1 logits=3cfd5888,3ea463c0,3d3a9c08,bec43bb2,3bc98b40"),
("constant recompute start=0 deadline=5", "[86/0@- 86/92@0 86/0@0 86/208@1 86/0@1] final=1 macs=300 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("constant recompute start=2 run", "[86/0@- 86/0@- 86/0@- 86/0@- 86/348@2 86/0@2 86/0@2 86/0@2] final=2 macs=348 first=4 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("constant recompute start=2 deadline=1", "[86/0@-] final=- macs=0 first=- logits=-"),
("constant recompute start=2 deadline=3", "[86/0@- 86/0@- 86/0@-] final=- macs=0 first=- logits=-"),
("constant recompute start=2 deadline=5", "[86/0@- 86/0@- 86/0@- 86/0@- 86/348@2] final=2 macs=348 first=4 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("step incremental start=0 run", "[51/0@- 51/92@0 256/136@1 256/180@2 51/224@3 51/0@3 256/0@3 256/0@3] final=3 macs=632 first=1 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step incremental start=0 deadline=1", "[51/0@-] final=- macs=0 first=- logits=-"),
("step incremental start=0 deadline=3", "[51/0@- 51/92@0 256/136@1] final=1 macs=228 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("step incremental start=0 deadline=5", "[51/0@- 51/92@0 256/136@1 256/180@2 51/224@3] final=3 macs=632 first=1 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step incremental start=2 run", "[51/0@- 51/0@- 256/348@2 256/224@3 51/0@3 51/0@3 256/0@3 256/0@3] final=3 macs=572 first=2 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step incremental start=2 deadline=1", "[51/0@-] final=- macs=0 first=- logits=-"),
("step incremental start=2 deadline=3", "[51/0@- 51/0@- 256/348@2] final=2 macs=348 first=2 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("step incremental start=2 deadline=5", "[51/0@- 51/0@- 256/348@2 256/224@3 51/0@3] final=3 macs=572 first=2 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step recompute start=0 run", "[51/0@- 51/92@0 256/208@1 256/0@1 51/348@2 51/0@2 256/0@2 256/512@3] final=3 macs=1160 first=1 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step recompute start=0 deadline=1", "[51/0@-] final=- macs=0 first=- logits=-"),
("step recompute start=0 deadline=3", "[51/0@- 51/92@0 256/208@1] final=1 macs=300 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("step recompute start=0 deadline=5", "[51/0@- 51/92@0 256/208@1 256/0@1 51/348@2] final=2 macs=648 first=1 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("step recompute start=2 run", "[51/0@- 51/0@- 256/348@2 256/0@2 51/0@2 51/0@2 256/512@3 256/0@3] final=3 macs=860 first=2 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("step recompute start=2 deadline=1", "[51/0@-] final=- macs=0 first=- logits=-"),
("step recompute start=2 deadline=3", "[51/0@- 51/0@- 256/348@2] final=2 macs=348 first=2 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("step recompute start=2 deadline=5", "[51/0@- 51/0@- 256/348@2 256/0@2 51/0@2] final=2 macs=348 first=2 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("bursty incremental start=0 run", "[512/408@2 512/224@3 512/0@3 42/0@3 512/0@3 42/0@3 42/0@3 42/0@3] final=3 macs=632 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty incremental start=0 deadline=1", "[512/408@2] final=2 macs=408 first=0 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("bursty incremental start=0 deadline=3", "[512/408@2 512/224@3 512/0@3] final=3 macs=632 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty incremental start=0 deadline=5", "[512/408@2 512/224@3 512/0@3 42/0@3 512/0@3] final=3 macs=632 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty incremental start=2 run", "[512/348@2 512/224@3 512/0@3 42/0@3 512/0@3 42/0@3 42/0@3 42/0@3] final=3 macs=572 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty incremental start=2 deadline=1", "[512/348@2] final=2 macs=348 first=0 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("bursty incremental start=2 deadline=3", "[512/348@2 512/224@3 512/0@3] final=3 macs=572 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty incremental start=2 deadline=5", "[512/348@2 512/224@3 512/0@3 42/0@3 512/0@3] final=3 macs=572 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=0 run", "[512/300@1 512/348@2 512/512@3 42/0@3 512/0@3 42/0@3 42/0@3 42/0@3] final=3 macs=1160 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=0 deadline=1", "[512/300@1] final=1 macs=300 first=0 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("bursty recompute start=0 deadline=3", "[512/300@1 512/348@2 512/512@3] final=3 macs=1160 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=0 deadline=5", "[512/300@1 512/348@2 512/512@3 42/0@3 512/0@3] final=3 macs=1160 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=2 run", "[512/348@2 512/512@3 512/0@3 42/0@3 512/0@3 42/0@3 42/0@3 42/0@3] final=3 macs=860 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=2 deadline=1", "[512/348@2] final=2 macs=348 first=0 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("bursty recompute start=2 deadline=3", "[512/348@2 512/512@3 512/0@3] final=3 macs=860 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("bursty recompute start=2 deadline=5", "[512/348@2 512/512@3 512/0@3 42/0@3 512/0@3] final=3 macs=860 first=0 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("random_walk incremental start=0 run", "[89/0@- 95/92@0 103/136@1 123/180@2 124/0@2 145/224@3 146/0@3 173/0@3] final=3 macs=632 first=1 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("random_walk incremental start=0 deadline=1", "[89/0@-] final=- macs=0 first=- logits=-"),
("random_walk incremental start=0 deadline=3", "[89/0@- 95/92@0 103/136@1] final=1 macs=228 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("random_walk incremental start=0 deadline=5", "[89/0@- 95/92@0 103/136@1 123/180@2 124/0@2] final=2 macs=408 first=1 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("random_walk incremental start=2 run", "[89/0@- 95/0@- 103/0@- 123/348@2 124/0@2 145/224@3 146/0@3 173/0@3] final=3 macs=572 first=3 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("random_walk incremental start=2 deadline=1", "[89/0@-] final=- macs=0 first=- logits=-"),
("random_walk incremental start=2 deadline=3", "[89/0@- 95/0@- 103/0@-] final=- macs=0 first=- logits=-"),
("random_walk incremental start=2 deadline=5", "[89/0@- 95/0@- 103/0@- 123/348@2 124/0@2] final=2 macs=348 first=3 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("random_walk recompute start=0 run", "[89/0@- 95/92@0 103/0@0 123/208@1 124/0@1 145/348@2 146/0@2 173/0@2] final=2 macs=648 first=1 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
("random_walk recompute start=0 deadline=1", "[89/0@-] final=- macs=0 first=- logits=-"),
("random_walk recompute start=0 deadline=3", "[89/0@- 95/92@0 103/0@0] final=0 macs=92 first=1 logits=3cfd5888,3ea463c0,3d3a9c08,bec43bb2,3bc98b40"),
("random_walk recompute start=0 deadline=5", "[89/0@- 95/92@0 103/0@0 123/208@1 124/0@1] final=1 macs=300 first=1 logits=3cf383ae,3b807ce0,be0357f2,3e350b96,be5acbed"),
("random_walk recompute start=2 run", "[89/0@- 95/0@- 103/0@- 123/348@2 124/0@2 145/0@2 146/0@2 173/512@3] final=3 macs=860 first=3 logits=3f230446,be5b83bc,bdee3bd0,3f1ad670,3fb9597c"),
("random_walk recompute start=2 deadline=1", "[89/0@-] final=- macs=0 first=- logits=-"),
("random_walk recompute start=2 deadline=3", "[89/0@- 95/0@- 103/0@-] final=- macs=0 first=- logits=-"),
("random_walk recompute start=2 deadline=5", "[89/0@- 95/0@- 103/0@- 123/348@2 124/0@2] final=2 macs=348 first=3 logits=3d9ee5ce,bec111e6,3e56eafe,befe334e,3f0b8100"),
];

const CONFIDENT_PINS: &[(&str, &str)] = &[
    (
        "confident start=0 threshold=0.05",
        "subnet=0 prediction=1 confidence=3e8934bf macs=92 early=true",
    ),
    (
        "confident start=0 threshold=0.5",
        "subnet=3 prediction=4 confidence=3ee13368 macs=632 early=false",
    ),
    (
        "confident start=0 threshold=1",
        "subnet=3 prediction=4 confidence=3ee13368 macs=632 early=false",
    ),
    (
        "confident start=2 threshold=0.05",
        "subnet=2 prediction=4 confidence=3ea58e26 macs=348 early=true",
    ),
    (
        "confident start=2 threshold=0.5",
        "subnet=3 prediction=4 confidence=3ee13368 macs=572 early=false",
    ),
    (
        "confident start=2 threshold=1",
        "subnet=3 prediction=4 confidence=3ee13368 macs=572 early=false",
    ),
];
