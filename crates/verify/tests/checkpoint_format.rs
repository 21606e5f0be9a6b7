//! The checkpoint byte format, pinned, and `load_state` under corruption.
//!
//! Three seeded networks are saved and their blobs pinned by length and
//! FNV-1a digest, so any change to the codec that moves a byte fails here.
//! One of them was moved level-major from the start, so its blob is the
//! one the codec wrote before the level-major order was an invariant; a
//! blob in that older, unordered layout must still load. The conv blob is
//! then fed back truncated, extended and bit-flipped: no case may panic,
//! every truncation and the extension must be rejected, and a flipped blob
//! that does load must be a `load → save` fixed point (R6) — or, when the
//! flip reordered an assignment, draw only the R7 warning.
//!
//! Everything goes through `save_state(..).to_vec()` and [`check_blob`],
//! which take and return plain bytes whatever buffer type the codec uses.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{Rng, SeedableRng};
use stepping_core::checkpoint::{load_state, save_state};
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape};
use stepping_verify::{
    analyze, check_blob, check_roundtrip, digest, AnalyzerOptions, Rule, Severity, Violation,
};

/// `[2,8,8]` → conv(4)/bn/relu/flatten/linear(6)/relu, 3 subnets, 4
/// classes, with `moves` applied and batch-norm running statistics moved
/// off their initial values.
fn trained_conv_net(moves: &[(usize, usize, usize)]) -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 5)
        .conv(4, 3, 1, 1)
        .batch_norm()
        .relu()
        .flatten()
        .linear(6)
        .relu()
        .build(4)
        .unwrap();
    net.move_neurons(moves).unwrap();
    let x = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(1));
    for k in 0..3 {
        net.forward(&x, k, true).unwrap();
    }
    net
}

/// The conv net with neurons moved out of index order in both masked
/// stages, so the move reorders filters, batch-norm channels, features and
/// neurons.
fn conv_net() -> SteppingNet {
    trained_conv_net(&[(0, 1, 1), (0, 3, 2), (4, 2, 1), (4, 5, 2)])
}

/// The conv net with the highest indices moved, one to the unused pool:
/// already level-major, so no move reorders anything.
fn level_major_conv_net() -> SteppingNet {
    trained_conv_net(&[(0, 2, 1), (0, 3, 2), (4, 4, 1), (4, 5, 3)])
}

/// The 3-subnet MLP of the R6 unit tests, before any move.
fn mlp_template() -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[5]), 3, 11)
        .linear(9)
        .relu()
        .linear(7)
        .relu()
        .build(3)
        .unwrap()
}

/// The MLP with one neuron moved to subnet 1 and one to the unused pool.
fn mlp() -> SteppingNet {
    let mut net = mlp_template();
    net.move_neuron(0, 1, 1).unwrap();
    net.move_neuron(2, 2, 3).unwrap();
    net
}

const CONV_LEN: usize = 6972;
const CONV_DIGEST: u64 = 0x24f8_734b_0c29_b591;
const MLP_LEN: usize = 880;
const MLP_DIGEST: u64 = 0x017f_3308_c96f_0910;
/// Pinned from the codec as it was before neurons were stored level-major:
/// a net that was level-major all along saves the same bytes.
const LEVEL_MAJOR_LEN: usize = 6972;
const LEVEL_MAJOR_DIGEST: u64 = 0x8671_f731_f109_dd48;
/// The MLP fixture's blob before neurons were stored level-major: the same
/// moves, neuron 1 of stage 0 in subnet 1 ahead of six subnet-0 neurons.
const OLD_MLP_DIGEST: u64 = 0x3803_96f7_492b_fba4;

#[test]
fn saved_bytes_are_pinned() {
    let cases = [
        ("conv", conv_net(), CONV_LEN, CONV_DIGEST),
        ("MLP", mlp(), MLP_LEN, MLP_DIGEST),
        (
            "level-major conv",
            level_major_conv_net(),
            LEVEL_MAJOR_LEN,
            LEVEL_MAJOR_DIGEST,
        ),
    ];
    for (what, mut net, len, want) in cases {
        let blob = save_state(&mut net).to_vec();
        assert_eq!(
            (blob.len(), digest(&blob)),
            (len, want),
            "{what} checkpoint bytes moved (digest {:#018x})",
            digest(&blob)
        );
    }
}

/// A blob in the unordered layout — the MLP fixture's moves applied
/// without `sync_assignments()`, which is exactly what the codec wrote for
/// it before the order was an invariant — loads, comes out level-major with
/// every rule clean, and as a file draws only the R7 warning.
#[test]
fn unordered_blob_loads_level_major() {
    let mut unordered = mlp_template();
    unordered.stages_mut()[0].move_out_neuron(1, 1).unwrap();
    unordered.stages_mut()[2].move_out_neuron(2, 3).unwrap();
    let old = save_state(&mut unordered).to_vec();
    assert_eq!((old.len(), digest(&old)), (MLP_LEN, OLD_MLP_DIGEST));

    let mut loaded = mlp_template();
    load_state(&mut loaded, &old).unwrap();
    loaded.check_invariants().unwrap();
    for si in loaded.masked_stage_indices() {
        let assign = loaded.stages()[si].out_assign().unwrap();
        assert!(assign.is_level_major(), "stage {si}: {:?}", assign.values());
    }
    let report = analyze(&loaded, &AnalyzerOptions::default());
    assert!(report.violations.is_empty(), "{}", report.render_text());
    assert!(check_roundtrip(&mut loaded).is_empty());
    let v = check_blob(&mlp_template(), &old);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        (v[0].rule, v[0].severity),
        (Rule::R7LevelOrder, Severity::Warning)
    );
    // the fixture net is that blob, reordered
    assert_eq!(save_state(&mut loaded), save_state(&mut mlp()));
}

/// Loads `blob` into a copy of `template`, turning a panic into a test
/// failure that names the case.
fn check(template: &SteppingNet, blob: &[u8], case: &str) -> Vec<Violation> {
    catch_unwind(AssertUnwindSafe(|| check_blob(template, blob)))
        .unwrap_or_else(|_| panic!("loading the checkpoint panicked ({case})"))
}

fn rejected(violations: &[Violation]) -> bool {
    violations.len() == 1 && violations[0].message.contains("does not load")
}

/// Single-bit flips sampled from the conv blob's 55 776 bits.
const FLIPS: usize = 4096;

#[test]
fn load_state_rejects_truncation_and_survives_bit_flips() {
    let template = conv_net();
    let blob = save_state(&mut conv_net()).to_vec();

    for len in 0..blob.len() {
        let v = check(&template, &blob[..len], &format!("prefix of {len} bytes"));
        assert!(rejected(&v), "a {len}-byte prefix loaded: {v:?}");
    }

    let mut long = blob.clone();
    long.push(0);
    assert!(rejected(&check(&template, &long, "one trailing byte")));

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_f11b);
    let mut refused = 0;
    for _ in 0..FLIPS {
        let bit = rng.random_range(0..blob.len() * 8);
        let mut flipped = blob.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let v = check(&template, &flipped, &format!("bit {bit} flipped"));
        if rejected(&v) {
            refused += 1;
        } else {
            // a flip that moves a neuron out of level order is reordered
            // on load; nothing else may differ
            let reordered =
                |v: &Violation| (v.rule, v.severity) == (Rule::R7LevelOrder, Severity::Warning);
            assert!(
                v.iter().all(reordered),
                "bit {bit} flipped: loaded but {v:?}"
            );
        }
    }
    // Header, length and assignment bits are refused; most weight bits are
    // accepted as different weights.
    assert!(
        0 < refused && refused < FLIPS,
        "{refused} of {FLIPS} flips refused"
    );
}
