//! Checkpointing: compact binary save/restore of a [`SteppingNet`]'s state.
//!
//! A checkpoint captures everything that evolves during the paper's
//! workflow — weights, biases, batch-norm affine parameters *and running
//! statistics*, per-subnet head parameters, and every neuron's subnet
//! assignment — so a constructed-and-distilled network can be deployed
//! without re-running construction.
//!
//! The format is architecture-relative: restoring requires a network built
//! from the same architecture spec (same stages and widths); mismatches are
//! detected and rejected. Layout (little-endian):
//!
//! ```text
//! magic "SNET" | version u32 | subnets u32 | classes u32
//! per stage, in order:
//!   params:   (len u32, f32×len) per parameter (layer order)
//!   bn stats: (len u32, f32×len) mean, then var   (batch-norm stages only)
//!   assign:   (len u32, u16×len)                  (masked stages only)
//! per head: weight then bias as (len u32, f32×len)
//! ```

use stepping_tensor::{Shape, Tensor};

use crate::{FixedStage, Result, Stage, SteppingError, SteppingNet};

const MAGIC: &[u8; 4] = b"SNET";
const VERSION: u32 = 1;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    put_u32(buf, t.len() as u32);
    buf.extend(t.data().iter().flat_map(|v| v.to_le_bytes()));
}

fn put_assign(buf: &mut Vec<u8>, values: &[u16]) {
    put_u32(buf, values.len() as u32);
    buf.extend(values.iter().flat_map(|v| v.to_le_bytes()));
}

fn truncated(at: String) -> SteppingError {
    SteppingError::BadConfig(format!("checkpoint truncated {at}"))
}

/// Read cursor over a checkpoint blob. Every read checks the bytes left
/// first; a short blob is an error, never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(u32::from_le_bytes(*head))
    }

    /// A `u32` length prefix.
    fn len(&mut self, what: &str) -> Result<usize> {
        self.u32()
            .map(|n| n as usize)
            .ok_or_else(|| truncated(format!("at {what} length")))
    }

    /// `len` little-endian words of `W` bytes.
    fn words<const W: usize>(&mut self, len: usize, what: &str) -> Result<&'a [[u8; W]]> {
        let (head, rest) = len
            .checked_mul(W)
            .and_then(|n| self.0.split_at_checked(n))
            .ok_or_else(|| truncated(format!("inside {what}")))?;
        self.0 = rest;
        Ok(head.as_chunks().0)
    }

    /// A length-prefixed run of `f32`s, still encoded.
    fn f32s(&mut self, what: &str) -> Result<&'a [[u8; 4]]> {
        let len = self.len(what)?;
        self.words(len, what)
    }
}

fn decode(dst: &mut [f32], src: &[[u8; 4]]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f32::from_le_bytes(*s);
    }
}

fn take_vec(r: &mut Reader, what: &str) -> Result<Vec<f32>> {
    Ok(r.f32s(what)?
        .iter()
        .map(|&w| f32::from_le_bytes(w))
        .collect())
}

fn take_into_tensor(r: &mut Reader, target: &mut Tensor, what: &str) -> Result<()> {
    let words = r.f32s(what)?;
    if words.len() != target.len() {
        return Err(SteppingError::InvalidStructure(format!(
            "checkpoint {what} has {} values, architecture expects {}",
            words.len(),
            target.len()
        )));
    }
    decode(target.data_mut(), words);
    Ok(())
}

fn take_assign(r: &mut Reader, expected: usize, what: &str) -> Result<Vec<u16>> {
    let len = r.len(what)?;
    if len != expected {
        return Err(SteppingError::InvalidStructure(format!(
            "checkpoint {what} has {len} entries, architecture expects {expected}"
        )));
    }
    Ok(r.words(len, what)?
        .iter()
        .map(|&w| u16::from_le_bytes(w))
        .collect())
}

/// Serialises the network's full mutable state into a fresh byte vector.
pub fn save_state(net: &mut SteppingNet) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, VERSION);
    put_u32(&mut buf, net.subnet_count() as u32);
    put_u32(&mut buf, net.classes() as u32);
    let n_stages = net.stages().len();
    for si in 0..n_stages {
        // parameters
        let param_values: Vec<Tensor> = net.stages_mut()[si]
            .params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        for v in &param_values {
            put_tensor(&mut buf, v);
        }
        // extra state
        match &net.stages()[si] {
            Stage::Fixed(FixedStage::BatchNorm1d { layer, .. }) => {
                let (m, v) = layer.running_stats();
                put_tensor(&mut buf, m);
                put_tensor(&mut buf, v);
            }
            Stage::Fixed(FixedStage::BatchNorm2d { layer, .. }) => {
                let (m, v) = layer.running_stats();
                put_tensor(&mut buf, m);
                put_tensor(&mut buf, v);
            }
            s => {
                if let Some(a) = s.out_assign() {
                    put_assign(&mut buf, a.values());
                }
            }
        }
    }
    for k in 0..net.subnet_count() {
        // 0..subnet_count is in range by construction; skip rather than
        // panic if that invariant ever breaks (the round-trip verifier
        // would then flag the truncated checkpoint).
        let Ok(head) = net.head(k) else { continue };
        let (w, b) = (head.weight().value.clone(), head.bias().value.clone());
        put_tensor(&mut buf, &w);
        put_tensor(&mut buf, &b);
    }
    buf
}

/// Restores state saved by [`save_state`], read from the borrowed `data`,
/// into a network of the **same architecture** (same stages, widths, subnet
/// count, classes).
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] for corrupted/truncated data and
/// [`SteppingError::InvalidStructure`] for architecture mismatches; on error
/// the network may be partially restored and should be discarded.
pub fn load_state(net: &mut SteppingNet, data: &[u8]) -> Result<()> {
    let mut r = Reader(data);
    let (Some(magic), Some(version), Some(subnets), Some(classes)) =
        (r.u32(), r.u32(), r.u32(), r.u32())
    else {
        return Err(SteppingError::BadConfig("checkpoint too short".into()));
    };
    if magic.to_le_bytes() != *MAGIC {
        return Err(SteppingError::BadConfig(
            "not a SteppingNet checkpoint".into(),
        ));
    }
    if version != VERSION {
        return Err(SteppingError::BadConfig(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let (subnets, classes) = (subnets as usize, classes as usize);
    if subnets != net.subnet_count() || classes != net.classes() {
        return Err(SteppingError::InvalidStructure(format!(
            "checkpoint is for {subnets} subnets / {classes} classes, network has {} / {}",
            net.subnet_count(),
            net.classes()
        )));
    }
    let n_stages = net.stages().len();
    for si in 0..n_stages {
        {
            let stage = &mut net.stages_mut()[si];
            for p in stage.params_mut() {
                take_into_tensor(&mut r, &mut p.value, "stage parameter")?;
            }
        }
        match &mut net.stages_mut()[si] {
            Stage::Fixed(FixedStage::BatchNorm1d { layer: bn, .. }) => {
                let f = bn.features();
                let m = Tensor::from_vec(Shape::of(&[f]), take_vec(&mut r, "bn mean")?)
                    .map_err(SteppingError::Tensor)?;
                let v = Tensor::from_vec(Shape::of(&[f]), take_vec(&mut r, "bn var")?)
                    .map_err(SteppingError::Tensor)?;
                bn.set_running_stats(m, v).map_err(SteppingError::Nn)?;
            }
            Stage::Fixed(FixedStage::BatchNorm2d { layer: bn, .. }) => {
                let c = bn.channels();
                let m = Tensor::from_vec(Shape::of(&[c]), take_vec(&mut r, "bn mean")?)
                    .map_err(SteppingError::Tensor)?;
                let v = Tensor::from_vec(Shape::of(&[c]), take_vec(&mut r, "bn var")?)
                    .map_err(SteppingError::Tensor)?;
                bn.set_running_stats(m, v).map_err(SteppingError::Nn)?;
            }
            s => {
                if let Some(count) = s.neuron_count() {
                    let assign = take_assign(&mut r, count, "assignment")?;
                    for (o, &a) in assign.iter().enumerate() {
                        s.move_out_neuron(o, a as usize)?;
                    }
                }
            }
        }
    }
    for k in 0..net.subnet_count() {
        let w = r.f32s("head weight")?;
        let b = r.f32s("head bias")?;
        let head = &mut net.heads_mut()[k];
        if w.len() != head.weight().value.len() || b.len() != head.bias().value.len() {
            return Err(SteppingError::InvalidStructure("head size mismatch".into()));
        }
        decode(head.weight_mut().value.data_mut(), w);
        decode(head.bias_mut().value.data_mut(), b);
    }
    if !r.0.is_empty() {
        return Err(SteppingError::BadConfig(format!(
            "{} trailing bytes after checkpoint",
            r.0.len()
        )));
    }
    net.sync_assignments()?;
    // With the `verify-invariants` feature, re-verify the restored
    // stepping structure before handing the network back (no-op otherwise).
    crate::hook::run_if_enabled(net)
}

/// Writes [`save_state`] output to a file.
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] wrapping I/O failures.
pub fn save_to_file(net: &mut SteppingNet, path: impl AsRef<std::path::Path>) -> Result<()> {
    std::fs::write(path, save_state(net))
        .map_err(|e| SteppingError::BadConfig(format!("cannot write checkpoint: {e}")))
}

/// Reads a checkpoint file and restores it via [`load_state`].
///
/// # Errors
///
/// Returns [`SteppingError::BadConfig`] wrapping I/O failures and all
/// [`load_state`] errors.
pub fn load_from_file(net: &mut SteppingNet, path: impl AsRef<std::path::Path>) -> Result<()> {
    let data = std::fs::read(path)
        .map_err(|e| SteppingError::BadConfig(format!("cannot read checkpoint: {e}")))?;
    load_state(net, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SteppingNetBuilder;
    use stepping_tensor::init;

    fn cnn() -> SteppingNet {
        SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 5)
            .conv(4, 3, 1, 1)
            .batch_norm()
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(10)
            .relu()
            .build(3)
            .unwrap()
    }

    fn trained_cnn() -> SteppingNet {
        let mut net = cnn();
        net.move_neurons(&[(0, 1, 1), (0, 3, 2), (5, 2, 1)])
            .unwrap();
        // perturb weights + BN stats so the state is non-trivial
        let x = init::uniform(Shape::of(&[4, 2, 8, 8]), -1.0, 1.0, &mut init::rng(1));
        for _ in 0..3 {
            net.forward(&x, 2, true).unwrap();
        }
        net
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let mut net = trained_cnn();
        let x = init::uniform(Shape::of(&[2, 2, 8, 8]), -1.0, 1.0, &mut init::rng(2));
        let refs: Vec<Tensor> = (0..3).map(|k| net.forward(&x, k, false).unwrap()).collect();
        let blob = save_state(&mut net);

        let mut fresh = cnn();
        load_state(&mut fresh, &blob).unwrap();
        fresh.check_invariants().unwrap();
        for (k, r) in refs.iter().enumerate() {
            assert_eq!(
                &fresh.forward(&x, k, false).unwrap(),
                r,
                "subnet {k} differs"
            );
            assert_eq!(fresh.macs(k, 1e-5), net.macs(k, 1e-5));
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("steppingnet-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.snet");
        let mut net = trained_cnn();
        save_to_file(&mut net, &path).unwrap();
        let mut fresh = cnn();
        load_from_file(&mut fresh, &path).unwrap();
        let x = init::uniform(Shape::of(&[1, 2, 8, 8]), -1.0, 1.0, &mut init::rng(3));
        assert_eq!(
            net.forward(&x, 1, false).unwrap(),
            fresh.forward(&x, 1, false).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_and_mismatched_checkpoints_rejected() {
        let mut net = trained_cnn();
        let blob = save_state(&mut net);
        // magic corruption
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(load_state(&mut cnn(), &bad).is_err());
        // truncation
        assert!(load_state(&mut cnn(), &blob[..blob.len() / 2]).is_err());
        // trailing garbage
        let mut long = blob.clone();
        long.push(0);
        assert!(load_state(&mut cnn(), &long).is_err());
        // architecture mismatch (different widths)
        let mut other = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 3, 5)
            .conv(5, 3, 1, 1)
            .batch_norm()
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(10)
            .relu()
            .build(3)
            .unwrap();
        assert!(load_state(&mut other, &blob).is_err());
    }

    #[test]
    fn subnet_and_class_counts_checked() {
        let mut net = trained_cnn();
        let blob = save_state(&mut net);
        let mut fewer = SteppingNetBuilder::new(Shape::of(&[2, 8, 8]), 2, 5)
            .conv(4, 3, 1, 1)
            .batch_norm()
            .relu()
            .max_pool(2, 2)
            .flatten()
            .linear(10)
            .relu()
            .build(3)
            .unwrap();
        assert!(matches!(
            load_state(&mut fewer, &blob),
            Err(SteppingError::InvalidStructure(_))
        ));
    }
}
