//! The checkpoint byte format, pinned, and `load_state` under corruption.
//!
//! Two seeded networks are saved and their blobs pinned by length and
//! FNV-1a digest, so any change to the codec that moves a byte fails here.
//! The conv blob is then fed back truncated, extended and bit-flipped: no
//! case may panic, every truncation and the extension must be rejected, and
//! a flipped blob that does load must be a `load → save` fixed point (R6).
//!
//! Everything goes through `save_state(..).to_vec()` and [`check_blob`],
//! which take and return plain bytes whatever buffer type the codec uses.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{Rng, SeedableRng};
use stepping_core::checkpoint::save_state;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape};
use stepping_verify::{check_blob, digest, Violation};

/// `[2,8,8]` → conv(4)/bn/relu/flatten/linear(6)/relu, 3 subnets, 4
/// classes, with neurons moved in both masked stages and batch-norm running
/// statistics moved off their initial values.
fn conv_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 5)
        .conv(4, 3, 1, 1)
        .batch_norm()
        .relu()
        .flatten()
        .linear(6)
        .relu()
        .build(4)
        .unwrap();
    net.move_neurons(&[(0, 1, 1), (0, 3, 2), (4, 2, 1), (4, 5, 2)])
        .unwrap();
    let x = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(1));
    for k in 0..3 {
        net.forward(&x, k, true).unwrap();
    }
    net
}

/// The 3-subnet MLP of the R6 unit tests, one neuron moved to subnet 1 and
/// one to the unused pool.
fn mlp() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[5]), 3, 11)
        .linear(9)
        .relu()
        .linear(7)
        .relu()
        .build(3)
        .unwrap();
    net.move_neuron(0, 1, 1).unwrap();
    net.move_neuron(2, 2, 3).unwrap();
    net
}

const CONV_LEN: usize = 6972;
const CONV_DIGEST: u64 = 0x384e_0fb0_a5ac_a11d;
const MLP_LEN: usize = 880;
const MLP_DIGEST: u64 = 0x3803_96f7_492b_fba4;

#[test]
fn saved_bytes_are_pinned() {
    let conv = save_state(&mut conv_net()).to_vec();
    let mlp = save_state(&mut mlp()).to_vec();
    assert_eq!(
        (conv.len(), digest(&conv)),
        (CONV_LEN, CONV_DIGEST),
        "conv checkpoint bytes moved (digest {:#018x})",
        digest(&conv)
    );
    assert_eq!(
        (mlp.len(), digest(&mlp)),
        (MLP_LEN, MLP_DIGEST),
        "MLP checkpoint bytes moved (digest {:#018x})",
        digest(&mlp)
    );
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
            assert!(v.is_empty(), "bit {bit} flipped: loaded but {v:?}");
        }
    }
    // Header, length and assignment bits are refused; most weight bits are
    // accepted as different weights.
    assert!(
        0 < refused && refused < FLIPS,
        "{refused} of {FLIPS} flips refused"
    );
}
