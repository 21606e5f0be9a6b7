//! R6 — checkpoint round-trip stability.
//!
//! A checkpoint must be a fixed point of `save → load → save`: loading a
//! blob into a same-architecture network and saving again must reproduce
//! the identical bytes, and a `save → load` cycle must reproduce the exact
//! assignments of the source network. Anything else means the serializer
//! and the in-memory structure disagree — the on-disk subnet structure
//! would silently drift from the one that was verified.

use stepping_core::checkpoint::{load_state, save_state};
use stepping_core::SteppingNet;

use crate::diagnostics::{Location, Rule, Severity, Violation};

/// 64-bit FNV-1a digest used to compare checkpoint blobs.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn r6(message: String, location: Location, hint: &str) -> Violation {
    Violation {
        rule: Rule::R6Roundtrip,
        severity: Severity::Error,
        message,
        location,
        hint: hint.into(),
    }
}

/// Checks that `net`'s own checkpoint round-trips: `save → load` into a
/// clone reproduces identical assignments, and a second save reproduces
/// the identical bytes. Returns the violations found (empty when stable).
pub fn check_roundtrip(net: &mut SteppingNet) -> Vec<Violation> {
    let blob = save_state(net);
    let mut violations = Vec::new();

    let mut copy = net.clone();
    if let Err(e) = load_state(&mut copy, &blob) {
        violations.push(r6(
            format!("checkpoint written by save_state fails to load: {e}"),
            Location::default(),
            "save_state and load_state disagree on the format; this is a serializer bug",
        ));
        return violations;
    }

    // Assignments must be reproduced exactly, stage by stage.
    for si in net.masked_stage_indices() {
        let a = net.stages()[si].out_assign().map(|a| a.values().to_vec());
        let b = copy.stages()[si].out_assign().map(|a| a.values().to_vec());
        if a != b {
            violations.push(r6(
                "loaded assignment differs from the saved one".into(),
                Location::stage(si, net.stages()[si].name()),
                "assignment serialization is lossy; checkpoint cannot be trusted",
            ));
        }
    }
    if net.feature_assign().values() != copy.feature_assign().values() {
        violations.push(r6(
            "loaded feature assignment differs from the saved one".into(),
            Location::default(),
            "sync_assignments() after load produced a different head mask",
        ));
    }

    let blob2 = save_state(&mut copy);
    check_digest(&blob, &blob2, &mut violations);
    violations
}

/// Checks that an externally supplied checkpoint blob loads into a network
/// of `template`'s architecture and is a fixed point of `load → save`.
/// `template` itself is not modified.
pub fn check_blob(template: &SteppingNet, blob: &[u8]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut copy = template.clone();
    if let Err(e) = load_state(&mut copy, blob) {
        violations.push(r6(
            format!("checkpoint does not load: {e}"),
            Location::default(),
            "the blob is corrupt or was saved from a different architecture",
        ));
        return violations;
    }
    let blob2 = save_state(&mut copy);
    check_digest(blob, &blob2, &mut violations);
    violations
}

fn check_digest(a: &[u8], b: &[u8], violations: &mut Vec<Violation>) {
    if digest(a) == digest(b) && a.len() == b.len() {
        return;
    }
    let offset = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    violations.push(r6(
        format!(
            "re-saved checkpoint differs from the original ({} vs {} bytes, digest \
             {:016x} vs {:016x})",
            a.len(),
            b.len(),
            digest(a),
            digest(b)
        ),
        Location {
            byte_offset: Some(offset),
            ..Location::default()
        },
        "save → load → save must be byte-stable; the serializer drops state",
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepping_core::SteppingNetBuilder;
    use stepping_tensor::Shape;

    fn mlp(subnets: usize) -> SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[5]), subnets, 11)
            .linear(9)
            .relu()
            .linear(7)
            .relu()
            .build(3)
            .unwrap()
    }

    #[test]
    fn healthy_net_roundtrips_cleanly() {
        let mut net = mlp(3);
        net.move_neuron(0, 1, 1).unwrap();
        net.move_neuron(2, 2, 3).unwrap(); // unused pool
        assert!(check_roundtrip(&mut net).is_empty());
        let blob = save_state(&mut net);
        assert!(check_blob(&net, &blob).is_empty());
    }

    #[test]
    fn corrupt_magic_caught() {
        let mut net = mlp(2);
        let mut bytes = save_state(&mut net);
        bytes[0] ^= 0xFF;
        let v = check_blob(&net, &bytes);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R6Roundtrip);
        assert!(v[0].message.contains("does not load"), "{}", v[0].message);
    }

    #[test]
    fn corrupt_assignment_value_caught() {
        let mut net = mlp(2);
        let blob = save_state(&mut net);
        // Assignments serialize as little-endian u16; a 0xFFFF value is far
        // beyond the unused-pool index and must be rejected on load. Find a
        // zero u16 in the first stage's assignment region by brute force:
        // flip every aligned pair until load fails, confirming detection.
        let mut caught = false;
        for i in (0..blob.len() - 1).step_by(2) {
            let mut bad = blob.clone();
            bad[i] = 0xFF;
            bad[i + 1] = 0xFF;
            let v = check_blob(&net, &bad);
            if !v.is_empty() {
                assert_eq!(v[0].rule, Rule::R6Roundtrip);
                caught = true;
                break;
            }
        }
        assert!(caught, "no corruption was detected anywhere in the blob");
    }

    #[test]
    fn truncated_blob_caught() {
        let mut net = mlp(2);
        let blob = save_state(&mut net);
        let v = check_blob(&net, &blob[..blob.len() - 3]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R6Roundtrip);
    }

    #[test]
    fn digest_is_fnv1a() {
        // FNV-1a test vectors
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
